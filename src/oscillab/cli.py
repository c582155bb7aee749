"""Command-line entry point: config ingestion, experiment dispatch, result
persistence and SVG plot emission.

Exit codes: 0 when every checked assertion passes, 1 when an inequality or
slope band is violated (the diagnostic carries the failing provenance),
2 on usage or config errors. Identical config and seed produce
byte-identical CSV/JSON outputs; files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import verify
from .errors import OscillabError
from .lpaley import DyadicFamily, SpacedFamily
from .maximal import approach_maximal, operator_by_name
from .numerics import Grid, Weight
from .phases import Phase, check_lambda, finite_type_spec, validate_finite_type
from .verify import (RatioSample, maximal_norm_sweep, operator_norm_sweep,
                     two_weight_sweep)

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# plumbing


def _atomic_write(path: str, writer) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(out_dir: str, name: str, header, rows) -> None:
    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _atomic_write(os.path.join(out_dir, name), write)


def _write_summary(out_dir: str, payload: dict) -> None:
    def write(path):
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(os.path.join(out_dir, "summary.json"), write)


def _write_ratios(out_dir: str, rows) -> None:
    """results.csv with one line per (experiment, RatioSample) row."""
    def line(name, rs):
        pv = rs.provenance
        return (name, pv.ell, repr(pv.lam), "" if pv.p is None else pv.p, pv.seed,
                repr(rs.lhs), repr(rs.rhs), repr(rs.ratio))

    _write_csv(out_dir, "results.csv",
               ["experiment", "ell", "lambda", "p", "seed", "lhs", "rhs", "ratio"],
               [line(*row) for row in rows])


def _loglog_svg(path: str, points, slope: float, intercept: float, title: str) -> None:
    """Self-contained log-log plot: axes, data polyline, fitted line."""
    W, H, m = 640, 480, 60
    xs = [math.log10(p[0]) for p in points]
    ys = [math.log10(p[1]) for p in points if p[1] > 0]
    if not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 += (x1 - x0) * 0.05 + 1e-9
    x0 -= (x1 - x0) * 0.05
    y1 += (y1 - y0) * 0.05 + 1e-9
    y0 -= (y1 - y0) * 0.05

    def px(x):
        return m + (x - x0) / (x1 - x0) * (W - 2 * m)

    def py(y):
        return H - m - (y - y0) / (y1 - y0) * (H - 2 * m)

    pts = " ".join(f"{px(math.log10(a)):.1f},{py(math.log10(b)):.1f}"
                   for a, b in points if b > 0)
    if math.isfinite(slope):
        fy0 = (slope * x0 * math.log(10) + intercept) / math.log(10)
        fy1 = (slope * x1 * math.log(10) + intercept) / math.log(10)
        fit = (f'<line x1="{px(x0):.1f}" y1="{py(fy0):.1f}" x2="{px(x1):.1f}" '
               f'y2="{py(fy1):.1f}" stroke="#c33" stroke-dasharray="6,3"/>')
    else:
        fit = ""
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">
<rect width="{W}" height="{H}" fill="white"/>
<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>
<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>
<text x="{W // 2}" y="24" text-anchor="middle" font-size="14">{title}</text>
<text x="{W // 2}" y="{H - 16}" text-anchor="middle" font-size="12">log10 lambda</text>
<polyline points="{pts}" fill="none" stroke="#36c" stroke-width="1.5"/>
{"".join(f'<circle cx="{px(math.log10(a)):.1f}" cy="{py(math.log10(b)):.1f}" r="3" fill="#36c"/>' for a, b in points if b > 0)}
{fit}
</svg>
"""
    with open(path, "w") as fh:
        fh.write(svg)


def _emit_sweep(out_dir: str, name: str, ell: int, report, emit_plots: bool) -> None:
    _write_csv(out_dir, "sweep.csv", ["experiment", "ell", "lambda", "value"],
               [(name, ell, repr(lam), repr(v)) for lam, v in report.points])
    if emit_plots and report.points:
        _atomic_write(os.path.join(out_dir, f"plot-{name}.svg"),
                      lambda p: _loglog_svg(p, report.points, report.slope,
                                            report.intercept, name))


def _parse_lambdas(value) -> list[float]:
    """"64..4096" doubles from 64 to 4096; "16,64,256" or a list is literal.
    Every entry, and both ends of a range, must pass check_lambda."""
    span = isinstance(value, str) and ".." in value
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        lams = [float(v) for v in value]
    elif not isinstance(value, str):
        raise ValueError(f"lambdas must be a string or a list of numbers, not {value!r}")
    else:
        try:
            lams = [float(t) for t in value.split(".." if span else ",")]
        except ValueError:
            raise ValueError(f"lambdas {value!r} is not a number, a list a,b,c "
                             f"or a range lo..hi") from None
        if span and len(lams) != 2:
            raise ValueError(f"lambdas {value!r} is not a range lo..hi")
    if not lams:
        raise ValueError(f"lambdas must be nonempty, got {value!r}")
    for lam in lams:
        check_lambda(lam)
    if span:
        lo, hi = lams
        if lo > hi:
            raise ValueError(f"lambda range {value!r} needs lo <= hi")
        lams = []
        lam = lo
        while lam <= hi * (1 + 1e-9) and lam < math.inf:
            lams.append(lam)
            lam *= 2.0
    return lams


# The nested config objects: per key, the accepted types and whether the
# key is required. A family object is replaced by what it builds: a
# DyadicFamily, or a list holding one SpacedFamily.
_NUMBER = (int, float)
_NESTED_CONFIG = {
    "phase": {"kind": (str, False), "ell": (int, False), "x0": (_NUMBER, False)},
    "dyadic": {"kmin": (int, True), "kmax": (int, True)},
    "spaced": {"L": (_NUMBER, True)},
}
_FAMILIES = {"dyadic": lambda obj: DyadicFamily(obj["kmin"], obj["kmax"]),
             "spaced": lambda obj: [SpacedFamily(float(obj["L"]))]}
# The flags a top-level config value may fill: (flag, key, default, type).
_CONFIG_FLAGS = (("ell", "ell", 2, int), ("seed", "seed", 0, int),
                 ("out", "out_dir", "results", str), ("emit_plots", "emit_plots", False, bool))
_CONFIG_KEYS = (*_NESTED_CONFIG, "lambdas", *(key for _, key, _, _ in _CONFIG_FLAGS))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object, "
                         f"not {type(cfg).__name__}")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config key {key!r} is not one of {', '.join(_CONFIG_KEYS)}")
    for name, fields in _NESTED_CONFIG.items():
        if name not in cfg:
            continue
        obj = cfg[name]
        if not isinstance(obj, dict):
            raise ValueError(f"config {name} must be an object, not {obj!r}")
        if unlisted := [key for key in obj if key not in fields]:
            raise ValueError(f"config {name}.{unlisted[0]} is not one of "
                             f"{', '.join(fields)}")
        for key, (kind, required) in fields.items():
            if key not in obj:
                if required:
                    raise ValueError(f"config {name} needs the key {key!r}")
            elif isinstance(obj[key], bool) or not isinstance(obj[key], kind):
                raise ValueError(f"config {name}.{key} has the wrong type: {obj[key]!r}")
        if name in _FAMILIES:
            try:
                cfg[name] = _FAMILIES[name](obj)
            except ValueError as exc:
                raise ValueError(f"config {name}: {exc}") from None
    return cfg


def _weight_from_arg(arg: str, grid: Grid) -> Weight:
    if arg == "const":
        return Weight(grid, np.ones(grid.n))
    if arg.startswith("csv:"):
        return load_weight_csv(arg[4:])
    raise ValueError(f"unknown weight source {arg!r} (use 'const' or 'csv:PATH')")


def load_weight_csv(path: str) -> Weight:
    xs, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"weight {path} is empty: it needs a header line x,w and samples")
        for row in reader:
            try:
                xs.append(float(row[0]))
                vals.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(f"weight {path}, line {reader.line_num}: {row!r} "
                                 f"is not two numbers x,w") from None
    w = Weight(_grid_from_samples(np.asarray(xs)), np.asarray(vals))
    with np.errstate(over="ignore"):
        total = np.cumsum(w.values)[-1]  # the prefix sum every window sum is taken from
    if not np.isfinite(total):
        raise ValueError(f"weight {path}: the sum of its values overflows")
    return w


def _grid_from_samples(xs: np.ndarray) -> Grid:
    n = len(xs)
    if n < 2:
        raise ValueError(f"a sampled weight needs at least 2 samples, got {n}")
    h = (xs[-1] - xs[0]) / (n - 1)
    half_width = n * h / 2.0
    center = xs[0] + half_width
    return Grid(float(center), float(half_width), n)


# ---------------------------------------------------------------------------
# subcommands


# The phase kinds, in --kind's order: per kind, the keys of the config's phase
# object it reads besides kind and x0, and its phase built from that object
# and --ell.
_PHASE_KINDS = {
    "monomial": (("ell",), lambda pcfg, ell: Phase.monomial(pcfg.get("ell", ell))),
    "cosine": ((), lambda pcfg, ell: Phase.cosine()),
}


def _phase_spec(args, cfg):
    """Phase plus its hypothesis record. --kind and --x0 win over the config's
    phase object, whose ell defaults to --ell."""
    pcfg = cfg.get("phase", {})
    kind = args.kind or pcfg.get("kind", "monomial")
    if kind not in _PHASE_KINDS:
        raise ValueError(f"unknown phase kind {kind!r}")
    keys, build = _PHASE_KINDS[kind]
    if unread := sorted(pcfg.keys() - {"kind", "x0", *keys}):
        raise ValueError(f"config phase.{unread[0]} does not apply to the {kind} phase")
    phase = build(pcfg, args.ell)
    x0 = float(args.x0 if args.x0 is not None else pcfg.get("x0", 0.0))
    return phase, finite_type_spec(phase, x0, args.ell, epsilon=args.epsilon,
                                   support_halfwidth=args.u)


def _cmd_validate_phase(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    report = validate_finite_type(phase, spec, tol=args.tol)
    for k, v in zip(range(2, spec.ell), report.lower_orders):
        print(f"|phi^({k})(x0)| = {v!r}")
    print(f"phi^({spec.ell})(x0) = {report.ell_value!r}")
    print("PASS" if report.passed else f"FAIL: {report.failures[0]}")
    return 0 if report.passed else 1


def _cmd_kernel_decay(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    reports, factor, tail_ok = verify.kernel_decay_sweep(phase, spec, args.lambdas, args.N,
                                                         tail_slack=1.25)
    _write_csv(args.out, "results.csv", ["lambda", "ell", "sup_low", "tail_max", "far_field"],
               [(repr(r.lam), r.ell, repr(r.sup_low), repr(r.tail_max), repr(r.far_field))
                for r in reports])
    rep = verify._sweep_report([(r.lam, r.sup_low) for r in reports])
    _emit_sweep(args.out, "kernel-decay", args.ell, rep, args.emit_plots)
    passed = factor < 3.0 and tail_ok
    _write_summary(args.out, {
        "experiment": "kernel-decay", "ell": args.ell,
        "sup_low_normalized_factor": factor, "tail_bound_at_lambda_min": reports[0].tail_max,
        "tail_bounded": tail_ok,
        "slope": rep.slope, "intercept": rep.intercept,
        "max_residual": rep.max_residual, "pass": passed})
    print(f"sup_low variation factor {factor:.3f}, tail bounded: {tail_ok}")
    return 0 if passed else 1


def _cmd_maximal(args, cfg) -> int:
    lam = args.lam
    if not 0.0 < lam < math.inf:
        raise ValueError(f"--lambda must be finite and positive, got {lam!r}")
    w = _weight_from_arg(args.weight, verify.approach_grid(lam))
    if args.op is not None:
        out = operator_by_name(args.op)(w)
    else:
        out = approach_maximal(w, args.ell, lam)
    value = float(out.values[out.grid.n // 2])
    print(f"value at center: {value!r}")
    # the closed form is the approach operator's; a named operator is only reported
    if args.op is None and args.weight == "const":
        target = 2.0 * lam ** (-2.0 / args.ell)
        rel = abs(value / target - 1.0)
        print(f"constant-weight closed form {target!r}, relative deviation {rel:.5f}")
        return 0 if rel <= 0.03 else 1
    return 0


def _slope_verdict(args, name: str, rep, target: float, tol: float) -> int:
    """Write a sweep's outputs and judge its fitted slope against target +- tol."""
    _emit_sweep(args.out, name, args.ell, rep, args.emit_plots)
    passed = (not rep.insufficient) and abs(rep.slope - target) <= tol
    _write_summary(args.out, {
        "experiment": name, "ell": args.ell, "slope": rep.slope,
        "intercept": rep.intercept, "max_residual": rep.max_residual,
        "target_slope": target, "pass": passed,
        "insufficient_points": rep.insufficient})
    print(f"slope {rep.slope:.4f} (target {target:.4f})")
    if rep.insufficient:
        print("insufficient points for a fit")
    return 0 if passed else 1


def _cmd_sweep_maximal(args, cfg) -> int:
    rep = maximal_norm_sweep(args.ell, args.lambdas, seed=args.seed)
    return _slope_verdict(args, "sweep-maximal", rep, -2.0 / args.ell, 0.1)


def _cmd_sweep_operator(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    rep = operator_norm_sweep(phase, spec, args.lambdas, seed=args.seed)
    return _slope_verdict(args, "sweep-operator", rep, -1.0 / args.ell, 0.15)


def _fail_ratio(name: str, rs: RatioSample) -> int:
    pv = rs.provenance
    print(f"FAIL {name}: lhs={rs.lhs!r} rhs={rs.rhs!r} "
          f"(f={pv.f_id} w={pv.w_id} ell={pv.ell} lambda={pv.lam} seed={pv.seed})",
          file=sys.stderr)
    return 1


def _cmd_check_main(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    sweep = two_weight_sweep(phase, spec, args.lambdas, args.pairs, args.seed)
    rows = [("check-main", rs) for rs in sweep.samples]
    _write_ratios(args.out, rows)
    if sweep.violation is not None:
        return _fail_ratio("two-weight inequality (rhs = 0, lhs > 0)", sweep.violation)
    factor = verify.stability_factor([v for _, v in sweep.maxima])
    passed = factor < 2.0
    _write_summary(args.out, {
        "experiment": "check-main", "ell": args.ell,
        "per_lambda_max_ratio": {repr(l): v for l, v in sweep.maxima},
        "stability_factor": factor, "pass": passed})
    print(f"max-ratio stability factor across lambda: {factor:.3f}")
    return 0 if passed else 1


def _cmd_check_lp(args, cfg) -> int:
    families = cfg.get("spaced", [SpacedFamily(L) for L in (0.125, 0.5, 2.0, 8.0)])
    dev, square, spaced = verify.lp_checks(cfg.get("dyadic", DyadicFamily(-2, 8)), families,
                                           args.pairs, args.seed)
    rows = [row for sq in square
            for row in (("dyadic-forward", sq.forward), ("dyadic-backward", sq.backward))]
    rows += [(f"spaced-L={L}", rs) for L, draws in spaced.items() for rs in draws]
    _write_ratios(args.out, rows)
    ratios = [sq.energy_ratio for sq in square]
    ok = (dev <= 1e-12 and all(sq.reconstruction_error <= 1e-8 for sq in square)
          and all(0.28 <= r <= 1.05 for r in ratios))
    _write_summary(args.out, {
        "experiment": "check-lp", "telescoping_deviation": dev,
        "square_ratio_range": [min(ratios), max(ratios)],
        "spaced_constants": {repr(L): max(rs.ratio for rs in draws)
                             for L, draws in spaced.items()},
        "pass": bool(ok)})
    print(f"telescoping deviation {dev:.2e}; square ratios "
          f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    return 0 if ok else 1


def _cmd_check_lemmas(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    chain_holds, mols, envelope = verify.lemma_checks(
        phase, spec, args.lambdas, args.p, args.pairs, args.seed, chain_tol=1e-9)
    rows = [row for mol, mol2 in mols for row in (("mol", mol), ("mol2", mol2))]
    rows += [(f"envelope-lam={lam}", rs) for lam, rs in zip(args.lambdas, envelope)]
    _write_ratios(args.out, rows)
    consts = [rs.ratio for rs in envelope]
    ok = (chain_holds and all(rs.ratio <= 1 + 1e-6 for pair in mols for rs in pair)
          and verify.stability_factor(consts) < 4.0)
    _write_summary(args.out, {
        "experiment": "check-lemmas", "ell": args.ell,
        "envelope_constants": consts, "pass": bool(ok)})
    print(f"lemma checks {'pass' if ok else 'FAIL'}; envelope constants {consts}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring


# The --pairs budget, checked before any work: about 20 times the largest
# count in use, the baseline freezer's 200.
MAX_PAIRS = 4096


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > MAX_PAIRS:
        raise argparse.ArgumentTypeError(f"must be <= MAX_PAIRS = {MAX_PAIRS}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscillab",
                                 description="oscillatory-integral numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, lambdas_default=None, writes=True, phase=False, u=None,
                ell=False, plots=False):
        # one entry per subcommand: its handler, whether it writes files (one
        # that does not makes no output directory) and the flags it reads.
        # --config, --out and --seed are taken by every subcommand. --out,
        # --seed, --lambdas, --ell and --emit-plots default to None so that
        # _resolve can tell an explicit flag from a config value; a --u of
        # None asks finite_type_spec for its halving search
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, writes=writes)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if phase:  # read by _phase_spec
            p.add_argument("--kind", default=None, choices=list(_PHASE_KINDS))
            p.add_argument("--x0", type=float, default=None)
            p.add_argument("--epsilon", type=float, default=1.0)
            p.add_argument("--u", type=float, default=u)
        if phase or ell:
            p.add_argument("--ell", type=int, default=None)
        if plots:
            p.add_argument("--emit-plots", action="store_true", default=None)
        if lambdas_default is not None:
            p.add_argument("--lambdas", type=str, default=None)
            p.set_defaults(lambdas_default=lambdas_default)
        return p

    p = command("validate-phase", _cmd_validate_phase, writes=False, phase=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p = command("kernel-decay", _cmd_kernel_decay, "64..16384", phase=True, u=0.5, plots=True)
    p.add_argument("--N", type=int, default=4)
    p = command("maximal", _cmd_maximal, writes=False, ell=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--weight", default="const")
    p.add_argument("--op", default=None)
    command("sweep-maximal", _cmd_sweep_maximal, "16..4096", ell=True, plots=True)
    command("sweep-operator", _cmd_sweep_operator, "64..4096", phase=True, plots=True)
    p = command("check-main", _cmd_check_main, "64..1024", phase=True, u=0.5)
    p.add_argument("--pairs", type=_positive_int, default=50)
    p = command("check-lp", _cmd_check_lp)
    p.add_argument("--pairs", type=_positive_int, default=8)
    p = command("check-lemmas", _cmd_check_lemmas, "256..4096", phase=True, u=0.5)
    p.add_argument("--pairs", type=_positive_int, default=20)
    p.add_argument("--p", type=int, default=3)
    return ap


def _resolve(args, cfg: dict) -> None:
    """Fill the flags a config may set: an explicit flag wins over the
    config, the config over the default. A JSON true is a bool, not the int 1.
    A flag the subcommand does not register is left alone."""
    for flag, key, default, kind in _CONFIG_FLAGS:
        if hasattr(args, flag) and getattr(args, flag) is None:
            value = cfg.get(key, default)
            if type(value) is not kind:
                raise ValueError(f"config {key} must be {kind.__name__}, not {value!r}")
            setattr(args, flag, value)
    if args.seed < 0:  # every subcommand takes --seed
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    if hasattr(args, "lambdas"):
        args.lambdas = _parse_lambdas(cfg.get("lambdas", args.lambdas_default)
                                      if args.lambdas is None else args.lambdas)


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        _resolve(args, cfg)
        if args.writes:
            os.makedirs(args.out, exist_ok=True)
        return args.handler(args, cfg)
    except (OscillabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
