"""CLI contract: exit codes, file outputs, determinism, config handling."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from oscillab import verify
from oscillab.cli import _atomic_write, run
from oscillab.numerics import Grid, Weight, save_weight_csv
from oscillab.verify import RatioSample


class TestExitCodes:
    def test_validate_phase_pass(self, capsys):
        assert run(["validate-phase", "--kind", "monomial", "--ell", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_validate_phase_hypothesis_failure(self, tmp_path):
        # x^3 is not finite type 2 at the origin
        cfg = tmp_path / "phase.json"
        cfg.write_text(json.dumps({"phase": {"kind": "monomial", "ell": 3}}))
        assert run(["validate-phase", "--config", str(cfg), "--ell", "2",
                    "--u", "0.25", "--epsilon", "0.5"]) == 1

    def test_validate_phase_bad_ell_is_usage_error(self):
        assert run(["validate-phase", "--kind", "monomial", "--ell", "1"]) == 2

    # every comparison with NaN is false, so a non-finite hypothesis value
    # used to pass every failure test and print PASS
    @pytest.mark.parametrize("argv, config", [
        (["--x0", "nan", "--ell", "3"], None),
        (["--x0", "inf", "--ell", "2"], None),
        (["--ell", "3"], {"phase": {"x0": math.inf}}),
        (["--ell", "3", "--u", "nan"], None),
        (["--ell", "3", "--u", "inf"], None),
        (["--ell", "3", "--u", "0.5", "--epsilon", "nan"], None),
        (["--ell", "3", "--u", "0.5", "--epsilon", "inf"], None),
        (["--ell", "3", "--tol", "inf"], None),
        (["--ell", "3", "--tol", "nan"], None)],
        ids=["x0-nan", "x0-inf", "config-x0-inf", "u-nan", "u-inf", "epsilon-nan",
             "epsilon-inf", "tol-inf", "tol-nan"])
    def test_validate_phase_non_finite_is_usage_error(self, argv, config, tmp_path,
                                                      capsys):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert run(["validate-phase", "--kind", "monomial", "--out", str(tmp_path)]
                   + argv) == 2
        assert "must be finite" in capsys.readouterr().err

    # the hypothesis values are checked before the support-halfwidth search
    # and the sampling of the support, which used to blame the search or
    # raise numpy RuntimeWarnings first
    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "nan"], "epsilon must be finite"),
        (["--u", "inf"], "support halfwidth must be finite"),
        (["--kind", "cosine", "--x0", "inf"], "x0 must be finite")],
        ids=["epsilon-nan", "u-inf", "cosine-x0-inf"])
    def test_validate_phase_checks_hypothesis_on_entry(self, argv, message, tmp_path,
                                                       capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate-phase", "--ell", "3", "--out", str(tmp_path)] + argv) == 2
        assert message in capsys.readouterr().err

    def test_negative_decay_order_is_usage_error(self, tmp_path, capsys):
        assert run(["kernel-decay", "--ell", "2", "--lambdas", "64", "--N", "-3",
                    "--out", str(tmp_path)]) == 2
        assert "N must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["no-such-command"]) == 2

    @pytest.mark.parametrize("command", ["check-main", "check-lp", "check-lemmas"])
    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairs_below_one_is_usage_error(self, command, pairs, tmp_path, capsys):
        assert run([command, "--pairs", pairs, "--out", str(tmp_path)]) == 2
        assert "--pairs" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_bad_weight_source(self, tmp_path):
        assert run(["maximal", "--ell", "3", "--lambda", "64",
                    "--weight", "nonsense", "--out", str(tmp_path)]) == 2


class TestMaximalCommand:
    def test_constant_weight_closed_form(self, capsys, tmp_path):
        code = run(["maximal", "--ell", "3", "--lambda", "64",
                    "--weight", "const", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.splitlines()[0].split(":")[1])
        assert abs(value / (2 * 64.0 ** (-2 / 3)) - 1) <= 0.03

    def test_csv_weight_and_named_operator(self, tmp_path, capsys):
        lam = 64.0
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * lam))
        path = str(tmp_path / "w.csv")
        save_weight_csv(Weight(g, np.ones(g.n)), path)
        code = run(["maximal", "--ell", "3", "--lambda", "64",
                    "--weight", f"csv:{path}", "--op", "M", "--out", str(tmp_path)])
        assert code == 0
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(1.0)


    @pytest.mark.parametrize("op, code", [("M", 0), (None, 2)])
    def test_csv_weight_on_another_grid(self, op, code, tmp_path, capsys):
        # 64 samples, far coarser than the lambda grid; the approach operator
        # cannot resolve lambda = 64 on it and says so
        g = Grid(0.0, 2.0, 64)
        path = str(tmp_path / "w.csv")
        save_weight_csv(Weight(g, np.ones(g.n)), path)
        argv = ["maximal", "--ell", "3", "--lambda", "64", "--weight", f"csv:{path}",
                "--out", str(tmp_path)]
        assert run(argv + (["--op", op] if op else [])) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert float(out.splitlines()[0].split(":")[1]) == pytest.approx(1.0)
        else:
            assert "grid too coarse" in err

    def test_csv_weight_without_samples_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("x,w\n")
        assert run(["maximal", "--ell", "3", "--lambda", "64", "--weight", f"csv:{path}",
                    "--out", str(tmp_path)]) == 2
        assert "at least 2 samples" in capsys.readouterr().err

    # a lambda that is not finite must be rejected before the radius ladders
    # are built: a NaN one never ends them
    @pytest.mark.parametrize("argv", [["--lambda", "nan"], ["--lambda", "inf"],
                                      ["--lambda", "64", "--op", "Mll:3:nan"],
                                      ["--lambda", "64", "--op", "Mreg:3:nan"],
                                      ["--lambda", "64", "--op", "Mreg:3:inf"]],
                             ids=["nan", "inf", "Mll-nan", "Mreg-nan", "Mreg-inf"])
    def test_lambda_not_finite_is_usage_error(self, argv, tmp_path, capsys):
        assert run(["maximal", "--ell", "3", "--out", str(tmp_path)] + argv) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepOutputs:
    def test_sweep_operator_files_and_determinism(self, tmp_path, capsys):
        args = ["sweep-operator", "--kind", "monomial", "--ell", "3",
                "--lambdas", "64..256", "--out", str(tmp_path), "--emit-plots"]
        assert run(args) == 0
        sweep = (tmp_path / "sweep.csv").read_bytes()
        summary = (tmp_path / "summary.json").read_bytes()
        assert (tmp_path / "plot-sweep-operator.svg").exists()
        payload = json.loads(summary)
        assert payload["pass"] is True
        assert abs(payload["slope"] + 1 / 3) <= 0.15
        # byte-identical rerun
        assert run(args) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == sweep
        assert (tmp_path / "summary.json").read_bytes() == summary

    def test_sweep_maximal_summary(self, tmp_path, capsys):
        assert run(["sweep-maximal", "--ell", "4", "--lambdas", "16..256",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert abs(payload["slope"] - payload["target_slope"]) <= 0.1

    def test_csv_values_trace_to_report(self, tmp_path, capsys):
        assert run(["sweep-maximal", "--ell", "3", "--lambdas", "16..64",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "experiment,ell,lambda,value"
        for row in rows[1:]:
            name, ell, lam, value = row.split(",")
            assert name == "sweep-maximal" and int(ell) == 3
            float(lam), float(value)  # round-trippable reprs


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "phase": {"kind": "monomial", "ell": 3},
            "ell": 3,
            "lambdas": [64, 128, 256],
            "out_dir": str(tmp_path / "cfgout"),
        }))
        assert run(["sweep-operator", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfgout" / "summary.json").exists()

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["sweep-operator", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("ell", "3"), ("out_dir", 5),
                                            ("lambdas", 64), ("lambdas", [64, None]),
                                            ("lambdas", [])])
    def test_config_value_of_wrong_type_is_usage_error(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["sweep-maximal", "--config", str(cfg)]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    # the range cases used to die in DyadicFamily.covered with an
    # OverflowError (exit 1) or to blame a NaN-to-integer conversion
    @pytest.mark.parametrize("command, nested, detail", [
        ("validate-phase", {"phase": 5}, None),
        ("validate-phase", {"phase": {"x0": [1]}}, None),
        ("check-lp", {"dyadic": [1]}, None),
        ("check-lp", {"dyadic": None}, None),
        ("check-lp", {"dyadic": {"kmin": 1}}, None),
        ("check-lp", {"spaced": {}}, None),
        ("check-lp", {"dyadic": {"kmin": -2, "kmax": 2000}}, "kmax <= 1023"),
        ("check-lp", {"spaced": {"L": math.nan}}, "L must be finite"),
        ("check-lp", {"spaced": {"L": math.inf}}, "L must be finite")],
        ids=["phase-int", "phase-x0-list", "dyadic-list", "dyadic-null", "dyadic-no-kmax",
             "spaced-no-L", "dyadic-kmax-overflow", "spaced-L-nan", "spaced-L-inf"])
    def test_nested_config_of_wrong_shape_is_usage_error(self, command, nested, detail,
                                                         tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(nested))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config {next(iter(nested))}" in err
        assert detail is None or detail in err

    @pytest.mark.parametrize("payload", ["[1, 2]", "3", '"text"', "null"])
    def test_non_object_config_is_usage_error(self, tmp_path, payload, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(payload)
        assert run(["sweep-operator", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err


# Cheap arguments per subcommand, and two cheap lambda lists for those that
# take --lambdas. The seed cases are the subcommands whose outputs depend on
# the seed; seeds 2 and 3 give sweep-operator outputs distinct from each
# other and from the default seed 0.
CHEAP_ARGS = {
    "validate-phase": ["--kind", "monomial", "--ell", "3"],
    "kernel-decay": ["--kind", "monomial", "--ell", "2"],
    "maximal": ["--ell", "3", "--lambda", "16"],
    "sweep-maximal": ["--ell", "3"],
    "sweep-operator": ["--kind", "monomial", "--ell", "3"],
    "check-main": ["--kind", "monomial", "--ell", "2", "--pairs", "1"],
    "check-lp": ["--pairs", "1"],
    "check-lemmas": ["--kind", "monomial", "--ell", "3", "--pairs", "1"],
}
CHEAP_LAMBDAS = {
    "kernel-decay": ([64, 128], [64, 256]),
    "sweep-maximal": ([16, 32], [16, 64]),
    "sweep-operator": ([64, 128], [64, 256]),
    "check-main": ([64], [128]),
    "check-lemmas": ([256], [512]),
}
PRECEDENCE_CASES = ([(c, "out_dir") for c in CHEAP_ARGS]
                    + [(c, "lambdas") for c in CHEAP_LAMBDAS]
                    + [(c, "seed") for c in ("sweep-operator", "check-main", "check-lp",
                                               "check-lemmas")])


def _lambda_flag(values):
    return ",".join(str(float(v)) for v in values)


@pytest.mark.parametrize("command, key", PRECEDENCE_CASES)
def test_flag_beats_config_beats_default(command, key, tmp_path, capsys):
    base = list(CHEAP_ARGS[command])
    if command in CHEAP_LAMBDAS and key != "lambdas":
        base += ["--lambdas", _lambda_flag(CHEAP_LAMBDAS[command][0])]

    def run_with(name, cfg, *flags):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"spaced": {"L": 8.0}, **cfg}))
        return run([command, *base, "--config", str(path), *flags])

    if key == "out_dir":
        run_with("config", {"out_dir": str(tmp_path / "config-out")})
        assert (tmp_path / "config-out").is_dir()
        run_with("both", {"out_dir": str(tmp_path / "ignored")},
                 "--out", str(tmp_path / "flag-out"))
        assert (tmp_path / "flag-out").is_dir()
        assert not (tmp_path / "ignored").exists()
        return

    def outputs(name, cfg, *flags):
        out = tmp_path / name
        code = run_with(name, cfg, "--out", str(out), *flags)
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    a, b = {"seed": (2, 3), "lambdas": CHEAP_LAMBDAS.get(command)}[key]
    as_flag = _lambda_flag if key == "lambdas" else str
    from_config = outputs("config", {key: a})
    from_flag = outputs("flag-a", {}, f"--{key}", as_flag(a))
    assert from_config == from_flag
    flag_wins = outputs("both", {key: a}, f"--{key}", as_flag(b))
    flag_only = outputs("flag-b", {}, f"--{key}", as_flag(b))
    assert flag_wins == flag_only != from_flag


class TestLambdaValues:
    @pytest.mark.parametrize("text", ["0..4", "-1..4", "1..inf", "nan..4", "8..4",
                                      "0,4", "-2", "16,inf"])
    def test_lambdas_not_finite_and_positive_are_usage_error(self, text, tmp_path,
                                                             capsys):
        assert run(["sweep-maximal", f"--lambdas={text}", "--out", str(tmp_path)]) == 2
        assert "lambda" in capsys.readouterr().err


class TestAtomicWrite:
    def test_failed_writer_leaves_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "results.csv"
        target.write_text("old")

        def writer(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            _atomic_write(str(target), writer)
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
        assert target.read_text() == "old"


class TestChecks:
    def test_check_lp(self, tmp_path, capsys):
        assert run(["check-lp", "--out", str(tmp_path), "--pairs", "3"]) == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["pass"] is True
        assert payload["telescoping_deviation"] <= 1e-12
        assert (tmp_path / "results.csv").exists()

    def test_check_main_small(self, tmp_path, capsys):
        assert run(["check-main", "--kind", "monomial", "--ell", "3",
                    "--lambdas", "64..128", "--pairs", "5",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 5
        header = rows[0].split(",")
        assert header == ["experiment", "ell", "lambda", "p", "seed",
                          "lhs", "rhs", "ratio"]
        for row in rows[1:]:
            parts = row.split(",")
            lhs, rhs, ratio = float(parts[5]), float(parts[6]), float(parts[7])
            if rhs > 0:
                assert abs(ratio * rhs - lhs) <= 1e-12 * max(lhs, 1.0)

    def test_check_main_violation_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        real = verify.two_weight_ratio
        calls = []

        def fourth_violates(f, w, phase, spec, lam, provenance):
            calls.append(lam)
            if len(calls) == 4:
                return RatioSample.of(1.0, 0.0, provenance)
            return real(f, w, phase, spec, lam, provenance)

        monkeypatch.setattr(verify, "two_weight_ratio", fourth_violates)
        assert run(["check-main", "--ell", "2", "--lambdas", "64,128", "--pairs", "3",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "FAIL two-weight inequality (rhs = 0, lhs > 0)")
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert [float(r.split(",")[2]) for r in rows] == [64.0, 64.0, 64.0, 128.0]
        assert not (tmp_path / "summary.json").exists()

    # each lemma fails just past the threshold check-lemmas keeps: domination
    # to a relative 1e-9, mollification ratios <= 1 + 1e-6, envelope
    # constants less than a factor 4 apart
    @pytest.mark.parametrize("name", ["dominating_weights", "uncertainty_bounds_check",
                                      "envelope_check"])
    def test_check_lemmas_violation_fails(self, name, tmp_path, capsys, monkeypatch):
        real = getattr(verify, name)

        def fake(*args, **kwargs):
            if name == "dominating_weights":
                ch = real(*args, **kwargs)
                w3 = ch.w2.values / (ch.constant * (1 + 2e-9))
                return dataclasses.replace(ch, w3=Weight(ch.w3.grid, w3))
            if name == "uncertainty_bounds_check":
                mol, _ = real(*args, **kwargs)
                return mol, RatioSample.of(1.0 + 2e-6, 1.0)
            lam = args[2]
            return RatioSample.of(1.0 if lam == 256.0 else 4.0, 1.0)

        monkeypatch.setattr(verify, name, fake)
        assert run(["check-lemmas", "--ell", "3", "--lambdas", "256,1024", "--pairs", "4",
                    "--out", str(tmp_path)]) == 1
        assert "lemma checks FAIL" in capsys.readouterr().out
        assert json.loads((tmp_path / "summary.json").read_text())["pass"] is False

    def test_check_lemmas_small(self, tmp_path, capsys):
        assert run(["check-lemmas", "--kind", "monomial", "--ell", "3",
                    "--lambdas", "256..1024", "--pairs", "4",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["pass"] is True

    def test_check_lp_family_config(self, tmp_path, capsys):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({"dyadic": {"kmin": -1, "kmax": 7},
                                   "spaced": {"L": 1.0}}))
        out = tmp_path / "out"
        assert run(["check-lp", "--config", str(cfg), "--out", str(out),
                    "--pairs", "2"]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert list(payload["spaced_constants"]) == ["1.0"]

