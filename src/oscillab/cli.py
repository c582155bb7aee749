"""Command-line entry point: config ingestion, experiment dispatch, result
persistence and SVG plot emission.

Exit codes: 0 when every checked assertion passes, 1 when an inequality or
slope band is violated (the diagnostic carries the failing provenance),
2 on usage or config errors. Identical config and seed produce
byte-identical CSV/JSON outputs; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify
from .errors import OscillabError
from .kernels import decay_reports_csv
from .lpaley import DyadicFamily, SpacedFamily
from .maximal import ApproachRegionParams, approach_maximal, operator_by_name
from .numerics import Grid, Weight, load_weight_csv
from .phases import Phase, finite_type_spec, validate_finite_type
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


def _write_summary(out_dir: str, payload: dict) -> None:
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  lambda p: verify.summary_json(p, payload))


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
    _atomic_write(os.path.join(out_dir, "sweep.csv"),
                  lambda p: verify.sweep_csv(p, name, ell, report))
    if emit_plots and report.points:
        _atomic_write(os.path.join(out_dir, f"plot-{name}.svg"),
                      lambda p: _loglog_svg(p, report.points, report.slope,
                                            report.intercept, name))


def _parse_lambdas(value) -> list[float]:
    """"64..4096" doubles from 64 to 4096; "16,64,256" or a list is literal."""
    if isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
        lams = [float(v) for v in value]
    elif not isinstance(value, str):
        raise ValueError(f"lambdas must be a string or a list of numbers, not {value!r}")
    elif ".." in value:
        a, b = value.split("..")
        lo, hi = float(a), float(b)
        if not (0.0 < lo <= hi < math.inf):
            raise ValueError(f"lambda range {value!r} needs finite bounds 0 < lo <= hi")
        lams = []
        lam = lo
        while lam <= hi * (1 + 1e-9):
            lams.append(lam)
            lam *= 2.0
    else:
        lams = [float(t) for t in value.split(",")]
    if not lams or not all(0.0 < lam < math.inf for lam in lams):
        raise ValueError(f"lambdas must be finite and positive, got {value!r}")
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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object, "
                         f"not {type(cfg).__name__}")
    for name, fields in _NESTED_CONFIG.items():
        if name not in cfg:
            continue
        obj = cfg[name]
        if not isinstance(obj, dict):
            raise ValueError(f"config {name} must be an object, not {obj!r}")
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


# ---------------------------------------------------------------------------
# subcommands


def _phase_spec(args, cfg, default_u=None):
    """Phase plus its hypothesis record. --kind and --x0 win over the config's
    phase object, whose ell defaults to --ell; epsilon defaults to 1."""
    pcfg = cfg.get("phase", {})
    kind = args.kind or pcfg.get("kind", "monomial")
    if kind == "monomial":
        phase = Phase.monomial(int(pcfg.get("ell", args.ell)))
    elif kind == "cosine":
        phase = Phase.cosine()
    else:
        raise ValueError(f"unknown phase kind {kind!r}")
    x0 = float(args.x0 if args.x0 is not None else pcfg.get("x0", 0.0))
    eps = args.epsilon if args.epsilon is not None else 1.0
    u = args.u if args.u is not None else default_u
    return phase, finite_type_spec(phase, x0, args.ell, epsilon=eps, support_halfwidth=u)


def _cmd_validate_phase(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg)
    report = validate_finite_type(phase, spec, tol=args.tol)
    for k, v in zip(range(2, spec.ell), report.lower_orders):
        print(f"|phi^({k})(x0)| = {v!r}")
    print(f"phi^({spec.ell})(x0) = {report.ell_value!r}")
    print("PASS" if report.passed else f"FAIL: {report.failures[0]}")
    return 0 if report.passed else 1


def _cmd_kernel_decay(args, cfg) -> int:
    phase, spec = _phase_spec(args, cfg, default_u=0.5)
    reports, factor, tail_ok = verify.kernel_decay_sweep(phase, spec, args.lambdas, args.N,
                                                         tail_slack=1.25)
    _atomic_write(os.path.join(args.out, "results.csv"),
                  lambda p: decay_reports_csv(reports, p))
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
    grid = Grid.from_step(0.0, 2.0, 1.0 / (16.0 * lam))
    w = _weight_from_arg(args.weight, grid)
    if args.op:
        out = operator_by_name(args.op)(w)
    else:
        out = approach_maximal(w, ApproachRegionParams(args.ell, lam))
    value = float(out.values[out.grid.n // 2])
    print(f"value at center: {value!r}")
    if args.weight == "const":
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
    phase, spec = _phase_spec(args, cfg, default_u=0.5)
    sweep = two_weight_sweep(phase, spec, args.lambdas, args.pairs, args.seed)
    rows = [("check-main", rs) for rs in sweep.samples]
    _atomic_write(os.path.join(args.out, "results.csv"),
                  lambda p: verify.ratio_rows_csv(p, rows))
    if sweep.violation is not None:
        return _fail_ratio("two-weight inequality (rhs = 0, lhs > 0)", sweep.violation)
    vals = [v for _, v in sweep.maxima]
    factor = max(vals) / min(vals) if min(vals) > 0 else math.inf
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
    _atomic_write(os.path.join(args.out, "results.csv"),
                  lambda p: verify.ratio_rows_csv(p, rows))
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
    phase, spec = _phase_spec(args, cfg, default_u=0.5)
    chain_holds, mols, envelope = verify.lemma_checks(
        phase, spec, args.lambdas, args.p, args.pairs, args.seed, chain_tol=1e-9)
    rows = [row for mol, mol2 in mols for row in (("mol", mol), ("mol2", mol2))]
    rows += [(f"envelope-lam={lam}", rs) for lam, rs in zip(args.lambdas, envelope)]
    _atomic_write(os.path.join(args.out, "results.csv"),
                  lambda p: verify.ratio_rows_csv(p, rows))
    consts = [rs.ratio for rs in envelope]
    ok = chain_holds and all(rs.ratio <= 1 + 1e-6 for pair in mols for rs in pair)
    if len(consts) > 1 and min(consts) > 0:
        ok &= max(consts) / min(consts) < 4.0
    _write_summary(args.out, {
        "experiment": "check-lemmas", "ell": args.ell,
        "envelope_constants": consts, "pass": bool(ok)})
    print(f"lemma checks {'pass' if ok else 'FAIL'}; envelope constants {consts}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscillab",
                                 description="oscillatory-integral numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, lambdas_default=None):
        # --out, --seed, --lambdas and --ell default to None so that _resolve
        # can tell an explicit flag from a config value
        p.add_argument("--config", default=None)
        p.add_argument("--kind", default=None, choices=["monomial", "cosine"])
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--x0", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--u", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--emit-plots", action="store_true")
        if lambdas_default is not None:
            p.add_argument("--lambdas", type=str, default=None)
            p.set_defaults(lambdas_default=lambdas_default)

    p = sub.add_parser("validate-phase")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("kernel-decay")
    common(p, "64..16384")
    p.add_argument("--N", type=int, default=4)

    p = sub.add_parser("maximal")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--weight", default="const")
    p.add_argument("--op", default=None)

    p = sub.add_parser("sweep-maximal")
    common(p, "16..4096")

    p = sub.add_parser("sweep-operator")
    common(p, "64..4096")

    p = sub.add_parser("check-main")
    common(p, "64..1024")
    p.add_argument("--pairs", type=_positive_int, default=50)

    p = sub.add_parser("check-lp")
    common(p)
    p.add_argument("--pairs", type=_positive_int, default=8)

    p = sub.add_parser("check-lemmas")
    common(p, "256..4096")
    p.add_argument("--pairs", type=_positive_int, default=20)
    p.add_argument("--p", type=int, default=3)

    return ap


_HANDLERS = {
    "validate-phase": _cmd_validate_phase,
    "kernel-decay": _cmd_kernel_decay,
    "maximal": _cmd_maximal,
    "sweep-maximal": _cmd_sweep_maximal,
    "sweep-operator": _cmd_sweep_operator,
    "check-main": _cmd_check_main,
    "check-lp": _cmd_check_lp,
    "check-lemmas": _cmd_check_lemmas,
}


def _resolve(args, cfg: dict) -> None:
    """Fill the flags a config may set: an explicit flag wins over the
    config, the config over the default."""
    for flag, key, default, kind in (("ell", "ell", 2, int), ("seed", "seed", 0, int),
                                     ("out", "out_dir", "results", str)):
        if getattr(args, flag) is None:
            value = cfg.get(key, default)
            if not isinstance(value, kind):
                raise ValueError(f"config {key} must be {kind.__name__}, not {value!r}")
            setattr(args, flag, value)
    if hasattr(args, "lambdas"):
        args.lambdas = _parse_lambdas(cfg.get("lambdas", args.lambdas_default)
                                      if args.lambdas is None else args.lambdas)
    args.emit_plots = args.emit_plots or bool(cfg.get("emit_plots"))


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        _resolve(args, cfg)
        os.makedirs(args.out, exist_ok=True)
        return _HANDLERS[args.command](args, cfg)
    except (OscillabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
