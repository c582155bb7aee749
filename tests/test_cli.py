"""CLI contract: exit codes, file outputs, determinism, config handling."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab import cli, kernels, maximal, verify
from oscillab.cli import MAX_PAIRS, _atomic_write, _build_parser, run
from oscillab.kernels import build_kernel
from oscillab.numerics import Grid, Weight
from oscillab.phases import Phase, finite_type_spec
from oscillab.verify import RatioSample

from conftest import save_weight_csv


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

    # five escapes from the exit contract: ell! overflowed a float in the
    # monomial's eval (an OverflowError traceback, exit 1); the derivative
    # bounds at x0 = 1e308 overflowed with RuntimeWarnings, after which
    # validate-phase printed PASS and check-main reported "stability factor
    # inf"; the affine part of x^2 cancelled in floats far from 0, so at
    # x0 = 1e150 check-main measured a kernel of noise and exited 0
    # ("stability factor 1.000"), and at x0 = 1e8 it exited 1 (14.182)
    @pytest.mark.parametrize("argv, message", [
        (["validate-phase", "--ell", "100000"], "ell = 100000"),
        (["validate-phase", "--ell", "2", "--x0", "1e308"], "x0 = 1e+308"),
        (["check-main", "--ell", "2", "--lambdas", "64", "--pairs", "1", "--x0", "1e308"],
         "x0 = 1e+308"),
        (["check-main", "--ell", "2", "--lambdas", "64", "--pairs", "1", "--x0", "1e150"],
         "cancels in floating point at x0 = 1e+150"),
        (["check-main", "--ell", "2", "--lambdas", "64..256", "--pairs", "1", "--x0", "1e8"],
         "cancels in floating point at x0 = 100000000.0")],
        ids=["validate-phase-ell-factorial", "validate-phase-x0-overflow",
             "check-main-x0-overflow", "check-main-x0-affine-cancels-1e150",
             "check-main-x0-affine-cancels-1e8"])
    def test_overflowing_phase_is_usage_error(self, argv, message, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    # only the monomial was capped: the cosine did O(ell) work and printed one
    # line per order (200,000 lines in 8.3 s at --ell 200000)
    @pytest.mark.parametrize("ell", ["171", "1000000000"])
    def test_ell_over_budget_is_usage_error(self, ell, tmp_path, capsys):
        assert run(["validate-phase", "--kind", "cosine", "--ell", ell,
                    "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ell = {ell} is above the budget MAX_ELL = 170\n"

    def test_negative_decay_order_is_usage_error(self, tmp_path, capsys):
        assert run(["kernel-decay", "--ell", "2", "--lambdas", "64", "--N", "-3",
                    "--out", str(tmp_path)]) == 2
        assert "N must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    # |xi|^N overflowed: a RuntimeWarning, far_field = inf in results.csv, exit 0
    def test_overflowing_decay_order_is_usage_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["kernel-decay", "--ell", "2", "--lambdas", "64", "--N", "100000",
                        "--out", str(tmp_path)]) == 2
        assert "N=100000 overflows" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    # refused before anything is allocated: these died with a numpy
    # MemoryError (exit 1), and 1e307 gives a step that needs infinitely many
    # samples, on which Grid.from_step never ended
    @pytest.mark.parametrize("argv", [["maximal", "--ell", "3", "--lambda", "1e15"],
                                      ["maximal", "--ell", "3", "--lambda", "1e307"],
                                      ["kernel-decay", "--ell", "2", "--lambdas", "1e15"]],
                             ids=["maximal", "maximal-infinite-count", "kernel-decay"])
    def test_grid_over_budget_is_usage_error(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert "grid budget MAX_GRID_POINTS = 2^22" in capsys.readouterr().err

    # the budget is checked before the first draw: the square samples used to
    # be measured first
    def test_spaced_family_over_budget_is_usage_error(self, tmp_path, capsys, monkeypatch):
        measured = []
        real = verify.square_function_ratios
        monkeypatch.setattr(verify, "square_function_ratios",
                            lambda *a, **k: measured.append(1) or real(*a, **k))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spaced": {"L": 1e-6}}))
        assert run(["check-lp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "piece budget MAX_PIECES = 2^16" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()
        assert measured == []

    # each subcommand registers only the flags its handler reads; these
    # used to be accepted and ignored, with exit 0
    @pytest.mark.parametrize("argv, flag", [
        (["check-lp", "--kind", "cosine"], "--kind"), (["check-lp", "--ell", "9"], "--ell"),
        (["check-lp", "--x0", "7"], "--x0"), (["sweep-maximal", "--u", "-3"], "--u"),
        (["sweep-maximal", "--epsilon", "2"], "--epsilon"),
        (["maximal", "--lambda", "64", "--kind", "cosine"], "--kind"),
        (["check-main", "--emit-plots"], "--emit-plots"),
        (["check-lemmas", "--emit-plots"], "--emit-plots"),
        (["validate-phase", "--emit-plots"], "--emit-plots"),
        (["validate-phase", "--lambdas", "64"], "--lambdas")])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, flag, tmp_path,
                                                              capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # --config, --out and --seed stay on every subcommand, used or not
    def test_seed_is_accepted_where_unused(self, tmp_path, capsys):
        assert run(["kernel-decay", "--ell", "2", "--lambdas", "64", "--seed", "3",
                    "--out", str(tmp_path)]) == 0

    # they write no file, yet used to leave an empty results/ in the working directory
    @pytest.mark.parametrize("argv", [["validate-phase", "--ell", "3"],
                                      ["maximal", "--ell", "3", "--lambda", "16"]])
    def test_print_only_subcommand_makes_no_output_directory(self, argv, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        assert list(tmp_path.iterdir()) == []

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

    # each used to end in a traceback (--p 1024: an OverflowError from 2.0**p;
    # --lambda 0: a ZeroDivisionError), a run that did not end (--pairs), a
    # config key ignored without a word (PASS for x^3 at 0, exit 0 for
    # check-lp), or an exit-2 message naming no input ("could not convert
    # string to float: ''", numpy's "expected non-negative integer" or nothing
    # at all for a negative seed, "max_step must be positive, got 0.0", "zero-size
    # array to reduction operation", "max_step must be positive" or the grid
    # budget for --lambda -4, nan and inf, numpy's "high <= 0" and a band
    # message for check-lemmas at lambda < 1)
    @pytest.mark.parametrize("argv, config, message", [
        (["check-lemmas", "--ell", "3", "--lambdas", "256", "--pairs", "1", "--p", "1024"],
         None, "band p=1024 outside"),
        (["check-lemmas", "--ell", "3", "--lambdas", "256", "--pairs", "1", "--p", "100000"],
         None, "band p=100000 outside"),
        (["validate-phase", "--ell", "3"], {"phase": {"knd": "cosine", "x_0": 3}},
         "config phase.knd is not one of kind, ell, x0"),
        (["check-lp", "--pairs", "1"], {"dyadic": {"kmin": -2, "kmax": 8, "kmxa": 3}},
         "config dyadic.kmxa is not one of kmin, kmax"),
        (["validate-phase", "--ell", "2"], {"phase": {"kind": "cosine", "ell": 7}},
         "config phase.ell does not apply to the cosine phase"),
        (["validate-phase", "--kind", "cosine", "--ell", "2"], {"phase": {"ell": 7}},
         "config phase.ell does not apply to the cosine phase"),
        (["sweep-maximal", "--lambdas", "64,"], None, "lambdas '64,' is not a number"),
        (["sweep-maximal", "--lambdas", "a"], None, "lambdas 'a' is not a number"),
        (["sweep-maximal", "--lambdas", "16..32..64"], None,
         "lambdas '16..32..64' is not a range"),
        (["check-main", "--ell", "2", "--pairs", "1"], {"lambdas": "16..a"},
         "lambdas '16..a' is not a number"),
        (["validate-phase", "--ell", "3", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["kernel-decay", "--ell", "2", "--lambdas", "64", "--seed", "-1"], None,
         "seed must be >= 0, got -1"),
        (["maximal", "--lambda", "16", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["sweep-maximal", "--lambdas", "16", "--seed", "-1"], None,
         "seed must be >= 0, got -1"),
        (["maximal", "--lambda", "16"], {"seed": -2}, "seed must be >= 0, got -2"),
        (["check-main", "--ell", "2", "--pairs", "1"], {"lambdas": [1e308]},
         "grid budget MAX_GRID_POINTS"),
        (["check-main", "--ell", "2", "--pairs", "1", "--lambdas", "1e308", "--epsilon", "4"],
         None, "grid budget MAX_GRID_POINTS"),
        (["maximal", "--lambda", "1e308"], None, "grid budget MAX_GRID_POINTS"),
        (["check-lp", "--pairs", "1"], {"dyadic": {"kmin": 5, "kmax": 5}},
         "dyadic family 5..5 covers no frequency"),
        (["check-lp", "--pairs", "1"], {"dyadic": {"kmin": 20, "kmax": 30}},
         "dyadic family 20..30 covers no frequency"),
        (["check-lp", "--pairs", "1"], {"dyadic": {"kmin": -20, "kmax": -10}},
         "dyadic family -20..-10 covers no frequency"),
        (["check-main", "--ell", "3", "--lambdas", "64", "--pairs", "100000000000000000000"],
         None, "--pairs: must be <= MAX_PAIRS = 4096"),
        (["check-lemmas", "--ell", "3", "--lambdas", "256", "--pairs", "100000000"], None,
         "--pairs: must be <= MAX_PAIRS = 4096"),
        (["check-lp", "--pairs", "4097"], None, "--pairs: must be <= MAX_PAIRS = 4096"),
        (["maximal", "--lambda", "0"], None, "--lambda must be finite and positive, got 0.0"),
        (["maximal", "--lambda", "-4"], None, "--lambda must be finite and positive, got -4.0"),
        (["maximal", "--lambda", "nan"], None, "--lambda must be finite and positive, got nan"),
        (["maximal", "--lambda", "inf", "--op", "M"], None,
         "--lambda must be finite and positive, got inf"),
        (["check-lemmas", "--ell", "3", "--pairs", "1", "--lambdas", "1e-3"], None,
         "lambda 0.001 is below 1"),
        (["check-lemmas", "--ell", "3", "--pairs", "1", "--lambdas", "0.5,256"], None,
         "lambda 0.5 is below 1"),
        (["check-lemmas", "--ell", "3", "--pairs", "1", "--lambdas", "256,0.5"], None,
         "lambda 0.5 is below 1")],
        ids=["p-1024", "p-100000", "phase-unlisted-key", "dyadic-unlisted-key",
             "cosine-config-ell", "cosine-flag-config-ell", "lambdas-trailing-comma",
             "lambdas-word", "lambdas-three-bounds", "config-lambdas-word",
             "seed-validate-phase", "seed-kernel-decay", "seed-maximal", "seed-sweep-maximal",
             "config-seed-maximal", "config-lambda-1e308", "lambda-1e308-epsilon",
             "maximal-lambda-1e308", "dyadic-5-5", "dyadic-20-30", "dyadic-minus-20-minus-10", "check-main-pairs-1e20", "check-lemmas-pairs-1e8",
             "check-lp-pairs-4097", "maximal-lambda-0", "maximal-lambda-negative",
             "maximal-lambda-nan", "maximal-lambda-inf", "check-lemmas-lambda-1e-3",
             "check-lemmas-lambda-0.5-first", "check-lemmas-lambda-0.5-last"])
    def test_input_is_refused_by_name(self, argv, config, message, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_largest_pair_count_is_accepted(self):
        args = _build_parser().parse_args(["check-lp", "--pairs", str(MAX_PAIRS)])
        assert args.pairs == MAX_PAIRS == 4096

    # a short row ended in an IndexError traceback, an empty file in StopIteration
    @pytest.mark.parametrize("text", ["x,w\n0.0\n1.0,1.0\n", "", "x,w\n0,1\n\n1,1\n"],
                             ids=["one-field", "empty", "blank-line"])
    def test_csv_weight_that_is_not_two_numbers_a_row_is_usage_error(self, text, tmp_path,
                                                                     capsys):
        path = tmp_path / "w.csv"
        path.write_text(text)
        assert run(["maximal", "--lambda", "64", "--weight", f"csv:{path}",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"weight {path}" in err and "Traceback" not in err

    # 2^-kmin * |xi| overflowed with a RuntimeWarning where the plateau is 0 anyway
    def test_dyadic_family_at_the_float_range_gives_its_verdict_without_warning(
            self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dyadic": {"kmin": -1021, "kmax": 1023}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check-lp", "--pairs", "1", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["pass"] is True


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

    @pytest.mark.parametrize("op, value", [("M", 1.0), ("Mll:3:64", 2.0 * 64.0 ** (-2 / 3))])
    def test_named_operator_is_reported_not_judged(self, op, value, tmp_path, capsys):
        # the approach operator's closed form 2*lam^(-2/ell), with the default
        # ell = 2, used to be applied to any --op: M printed deviation 31.0
        # and exited 1
        assert run(["maximal", "--lambda", "64", "--op", op, "--out", str(tmp_path)]) == 0
        [line] = capsys.readouterr().out.splitlines()
        assert float(line.split(":")[1]) == pytest.approx(value, rel=0.03)

    @pytest.mark.parametrize("op, message", [
        ("Mk", "format 'Mk:K'"), ("Mk:2:3", "format 'Mk:K'"), ("Malpha", "format 'Malpha:ALPHA'"),
        ("Mll:3", "format 'Mll:ELL:LAM'"), ("Mtilde", "format 'Mtilde:ELL'"),
        ("Mreg:3", "format 'Mreg:ELL:LAM'"), ("Mbeta", "format 'Mbeta:ELL:BETA'"),
        ("M:1", "format 'M'"), ("", "unknown maximal operator")])
    def test_malformed_operator_name_is_usage_error(self, op, message, tmp_path, capsys):
        # Mk used to end in an IndexError traceback and exit 1, Mk:2:3 dropped
        # its extra field, and an empty --op was ignored
        assert run(["maximal", "--lambda", "64", "--op", op, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("op", [None, "M"])
    def test_csv_weight_with_nan_value_is_usage_error(self, op, tmp_path, capsys):
        # with --op M this used to print "value at center: nan" and exit 0
        lam = 64.0
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * lam))
        path = tmp_path / "w.csv"
        save_weight_csv(Weight(g, np.ones(g.n)), str(path))
        lines = path.read_text().splitlines()
        lines[7] = lines[7].split(",")[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        argv = ["maximal", "--lambda", "64", "--weight", f"csv:{path}", "--out", str(tmp_path)]
        assert run(argv + (["--op", op] if op else [])) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("op", [None, "M"])
    def test_csv_weight_with_overflowing_sum_is_usage_error(self, op, tmp_path, capsys):
        # every value 1e308: the prefix sum of the window sums overflowed with
        # three RuntimeWarnings, and the exit 2 blamed the operator's output
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * 64.0))
        path = tmp_path / "big.csv"
        save_weight_csv(Weight(g, np.full(g.n, 1e308)), str(path))
        argv = ["maximal", "--lambda", "64", "--weight", f"csv:{path}", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + (["--op", op] if op else [])) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "sum of its values overflows" in err

    def test_iterated_operator_over_budget_is_usage_error(self, tmp_path, capsys,
                                                          monkeypatch):
        # Mk:2000 made 2000 passes over the 4096-cell grid (3 s), and the time
        # grew linearly in K
        passes = []
        monkeypatch.setattr(maximal, "hardy_littlewood", lambda w, k: passes.append(k) or w)
        assert run(["maximal", "--lambda", "64", "--op", "Mk:2000", "--out", str(tmp_path)]) == 2
        assert "budget MAX_ITERATED_CELLS = 2^22" in capsys.readouterr().err
        assert passes == []

    def test_csv_weight_at_nan_positions_is_usage_error(self, tmp_path, capsys):
        # used to build Grid(nan, nan, 4), print "value at center: 1.0" and exit 0
        path = tmp_path / "w.csv"
        path.write_text("x,w\n" + "nan,1\n" * 4)
        assert run(["maximal", "--ell", "3", "--lambda", "64", "--weight", f"csv:{path}",
                    "--op", "M", "--out", str(tmp_path)]) == 2
        assert "finite center" in capsys.readouterr().err

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

    # from lam = 1 the fit refused its five valid points with a bound of its
    # own, lam > 1: "insufficient points for a fit", a NaN slope and exit 1
    @pytest.mark.parametrize("ell, lambdas", [("4", "16..256"), ("3", "1,2,4,8,16")])
    def test_sweep_maximal_summary(self, ell, lambdas, tmp_path, capsys):
        assert run(["sweep-maximal", "--ell", ell, "--lambdas", lambdas,
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["insufficient_points"] is False
        assert abs(payload["slope"] - payload["target_slope"]) <= 0.1

    def test_kernel_decay_of_recentred_cosine(self, tmp_path, capsys):
        # the kernel is measured in the normalized frame; sampled around 0
        # instead of pi/2 it was identically zero, every row read 0.0 and the
        # factor was inf
        run(["kernel-decay", "--kind", "cosine", "--x0", "1.5707963267948966", "--ell", "3",
             "--lambdas", "64..512", "--out", str(tmp_path)])
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4 and all(float(r.split(",")[2]) > 0 for r in rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert math.isfinite(summary["sup_low_normalized_factor"])

    def test_kernel_decay_reports_requested_lambda(self, tmp_path, capsys):
        # with epsilon = 2 the kernel runs at 2 lambda; its rows keep the
        # lambda asked for
        run(["kernel-decay", "--ell", "3", "--epsilon", "2", "--lambdas", "64..256",
             "--out", str(tmp_path)])
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [64.0, 128.0, 256.0]

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

    @pytest.mark.parametrize("plots", [True, False])
    def test_config_emit_plots(self, plots, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"emit_plots": plots, "out_dir": str(tmp_path)}))
        assert run(["sweep-maximal", "--config", str(cfg), "--lambdas", "16..64"]) == 0
        assert (tmp_path / "plot-sweep-maximal.svg").exists() == plots

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["sweep-operator", "--config", str(cfg)]) == 2

    # a JSON true is a Python bool, and so an int: {"seed": true} ran as seed 1,
    # [true, 2] as lambda 1 and 2, and "no" turned plots on; a seed of -1
    # failed in numpy with "expected non-negative integer"
    @pytest.mark.parametrize("key, value", [("seed", "x"), ("ell", "3"), ("out_dir", 5),
                                            ("lambdas", 64), ("lambdas", [64, None]),
                                            ("lambdas", []), ("seed", True), ("ell", True),
                                            ("lambdas", [True, 2]), ("emit_plots", "no"),
                                            ("emit_plots", 1), ("seed", -1)])
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

    # these keys used to be ignored without a word
    @pytest.mark.parametrize("payload, key", [
        ({"pairs": 2, "lamdas": "64..128"}, "pairs"), ({"lamdas": "64..128"}, "lamdas"),
        ({"out": "elsewhere"}, "out"), ({"emit-plots": True}, "emit-plots")])
    def test_unknown_config_key_is_usage_error(self, payload, key, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        assert run(["check-main", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

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
PRINT_ONLY = ("validate-phase", "maximal")
PRECEDENCE_CASES = ([(c, "out_dir") for c in CHEAP_ARGS]
                    + [(c, "lambdas") for c in CHEAP_LAMBDAS]
                    + [(c, "seed") for c in ("sweep-operator", "check-main", "check-lp",
                                               "check-lemmas")])


def _lambda_flag(values):
    return ",".join(str(float(v)) for v in values)


# The subcommands that take --ell, and values of ell outside [2, MAX_ELL].
ELL_COMMANDS = sorted(command for command, argv in CHEAP_ARGS.items() if "--ell" in argv)
BAD_ELLS = (-5, 0, 1, 171, 10**9, 10**400)


def _run_counting_builds(argv, config=None):
    """run(argv) in-process with ``config`` as its --config file and --out in a
    temporary directory: (exit code, stderr, the warnings raised, the names of
    the build_kernel and approach_maximal calls made)."""
    built = []

    def counting(real):
        def wrapper(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    err = io.StringIO()
    with (pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp,
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        for module in (cli, kernels, maximal, verify):
            for name in ("build_kernel", "approach_maximal"):
                if hasattr(module, name):
                    mp.setattr(module, name, counting(getattr(module, name)))
        argv = [*argv, "--out", os.path.join(tmp, "out")]
        if config is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
    return code, err.getvalue(), caught, built


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
        run_with("both", {"out_dir": str(tmp_path / "ignored")},
                 "--out", str(tmp_path / "flag-out"))
        made = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        # a subcommand that only prints makes no output directory
        assert made == (set() if command in PRINT_ONLY else {"config-out", "flag-out"})
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

    # near the float maximum, hi * (1 + 1e-9) overflows: the doubling reached
    # inf, and inf <= inf kept appending it
    def test_range_up_to_the_float_maximum_ends(self):
        lams = cli._parse_lambdas(f"1..{sys.float_info.max!r}")
        assert len(lams) == 1024 and lams[-1] == 2.0**1023

    # build_kernel said "lam must be >= 1" and built an all-NaN kernel at NaN,
    # the region operators said "lam must be finite and >= 1": neither named
    # the value, and a --lambdas list was refused only at the bad entry's turn
    @pytest.mark.parametrize("lam", [0.5, math.nan, math.inf])
    def test_one_rule_names_the_value(self, lam, tmp_path, capsys):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        w = Weight(Grid(0.0, 2.0, 1024), np.ones(1024))
        messages = set()
        for refuse in (lambda: build_kernel(ph, spec, lam, Grid(0.0, 2.0, 4096)),
                       lambda: maximal.approach_maximal(w, 3, lam),
                       lambda: maximal.regular_maximal(w, 3, lam=lam)):
            with pytest.raises(ValueError) as info:
                refuse()
            messages.add(str(info.value))
        assert run(["check-main", "--ell", "3", "--pairs", "1", f"--lambdas=64,{lam!r}",
                    "--out", str(tmp_path)]) == 2
        messages.add(capsys.readouterr().err.removeprefix("error: ").rstrip("\n"))
        assert len(messages) == 1
        assert messages.pop().startswith(f"lambda {lam!r} is ")

    # every --lambdas subcommand, by flag and by config: a list with an entry
    # outside lam finite and >= 1 exits 2 naming the first such entry, before
    # any kernel or approach region is built
    @settings(max_examples=200, derandomize=True)
    @given(command=st.sampled_from(sorted(CHEAP_LAMBDAS)),
           lams=st.lists(st.one_of(st.sampled_from([1.0, 2.0, 4.0, 16.0, 64.0]),
                                   st.sampled_from([0.0, 0.5, 1e-3, math.nan, math.inf,
                                                    -math.inf]),
                                   st.floats(max_value=0.0, allow_nan=False)),
                         min_size=1, max_size=4),
           by_config=st.booleans())
    @example(command="check-main", lams=[64.0, 128.0, 0.5], by_config=False)
    @example(command="kernel-decay", lams=[64.0, 0.5], by_config=False)
    @example(command="sweep-operator", lams=[64.0, 0.5], by_config=False)
    @example(command="sweep-maximal", lams=[16.0, 0.5], by_config=False)
    @example(command="check-lemmas", lams=[256.0, 0.5], by_config=False)
    @example(command="check-main", lams=[64.0, math.nan], by_config=True)
    @example(command="sweep-maximal", lams=[16.0, math.inf], by_config=False)
    def test_every_lambda_list_meets_one_rule(self, command, lams, by_config):
        bad = [lam for lam in lams if not 1.0 <= lam < math.inf]
        argv = [command, *CHEAP_ARGS[command]]
        if by_config:
            code, err, caught, built = _run_counting_builds(argv, {"lambdas": lams})
        else:
            argv.append(f"--lambdas={','.join(map(repr, lams))}")
            code, err, caught, built = _run_counting_builds(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and not caught
        if bad:
            assert code == 2 and f"lambda {bad[0]!r} is " in err
            assert built == []


class TestEllValues:
    # ell's domain was five comparisons under three bounds: validate-phase said
    # "ell must be >= 1" at 0 and "ell must be >= 2" at 1, naming neither; the
    # region operators had no upper bound, so sweep-maximal --ell 1000 exited 0,
    # and at ell = 10**400 maximal and sweep-maximal ended in an OverflowError
    # traceback (exit 1). Every --ell subcommand, by flag and by config: a bad
    # ell exits 2 naming it, before any kernel or approach region is built
    @settings(max_examples=200, derandomize=True)
    @given(command=st.sampled_from(ELL_COMMANDS),
           ell=st.one_of(st.sampled_from([2, 3]), st.sampled_from(BAD_ELLS)),
           by_config=st.booleans())
    @example(command="maximal", ell=10**400, by_config=False)
    @example(command="sweep-maximal", ell=10**400, by_config=False)
    @example(command="sweep-maximal", ell=1000, by_config=False)
    @example(command="validate-phase", ell=0, by_config=False)
    @example(command="validate-phase", ell=1, by_config=True)
    def test_every_ell_meets_one_rule(self, command, ell, by_config):
        argv = [command, *CHEAP_ARGS[command]]
        at = argv.index("--ell")
        if command in CHEAP_LAMBDAS:
            argv.append(f"--lambdas={_lambda_flag(CHEAP_LAMBDAS[command][0])}")
        if by_config:
            del argv[at: at + 2]
            code, err, caught, built = _run_counting_builds(argv, {"ell": ell})
        else:
            argv[at + 1] = str(ell)
            code, err, caught, built = _run_counting_builds(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and not caught
        if not 2 <= ell <= 170:
            assert code == 2 and err.startswith(f"error: ell = {ell} is ")
            assert built == []

    # Mtilde:1 and Mbeta:1:0.5 said "ell must be >= 2"; Mll:10**400:64 ended in
    # an OverflowError traceback (exit 1)
    @pytest.mark.parametrize("op, ell", [("Mtilde:1", 1), ("Mbeta:1:0.5", 1),
                                         (f"Mll:{10**400}:64", 10**400),
                                         ("Mreg:171:64", 171)],
                             ids=["Mtilde-1", "Mbeta-1", "Mll-10**400", "Mreg-171"])
    def test_operator_ell_field_meets_the_rule(self, op, ell, tmp_path, capsys):
        assert run(["maximal", "--ell", "3", "--lambda", "64", "--op", op,
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: ell = {ell} is ")

    # Phase.monomial said "ell must be >= 1" at a phase.ell of 0
    @pytest.mark.parametrize("command", [c for c in ELL_COMMANDS if "--kind" in CHEAP_ARGS[c]])
    def test_config_phase_ell_meets_the_rule(self, command):
        argv = [command, *CHEAP_ARGS[command]]
        if command in CHEAP_LAMBDAS:
            argv.append(f"--lambdas={_lambda_flag(CHEAP_LAMBDAS[command][0])}")
        code, err, caught, built = _run_counting_builds(argv, {"phase": {"ell": 0}})
        assert (code, err, caught, built) == (2, "error: ell = 0 is below 2\n", [], [])


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


class TestResultsFiles:
    def test_kernel_decay_csv_columns(self, tmp_path, capsys):
        assert run(["kernel-decay", "--ell", "2", "--lambdas", "64",
                    "--out", str(tmp_path)]) == 0
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        (rep,), _, _ = verify.kernel_decay_sweep(ph, spec, [64.0], 4, tail_slack=1.25)
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "lambda,ell,sup_low,tail_max,far_field"
        vals = rows[1].split(",")
        assert float(vals[0]) == 64.0 and int(vals[1]) == 2
        assert float(vals[2]) == rep.sup_low

    def test_sweep_maximal_files_are_pinned(self, tmp_path, capsys):
        # every file of a small sweep, the SVG plot included, byte for byte
        assert run(["sweep-maximal", "--ell", "3", "--lambdas", "16..64", "--emit-plots",
                    "--out", str(tmp_path)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == {
            "sweep.csv": "ae455788b6a914a0b4160c12caf80372e980dff95ec21bbdf910a0fb86c7c371",
            "summary.json": "10aa7724eeef06feaed07adfc7ae231e493b1a336ed06dcc7bdd71895b5575d0",
            "plot-sweep-maximal.svg":
                "be3612f05c326a64f7587c5da3e96270d7e8cec9f97d1f856b95b810bad6c3ae",
        }


def _opens_for_writing(node) -> bool:
    """Whether an AST node is a call of some ``open`` with a write mode."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
        return False
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes)


def test_only_cli_writes_results_files():
    # cli.py writes every results file and reads the weight CSVs. No other
    # module imports csv or json, or opens a file for writing.
    found, writers = {}, set()
    for path in sorted((Path(__file__).parents[1] / "src" / "oscillab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _opens_for_writing(node):
                writers.add(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("csv", "json"):
                    found.setdefault(path.name, set()).add(name.split(".")[0])
    assert found == {"cli.py": {"csv", "json"}}
    assert writers == {"cli.py"}


def test_only_numerics_builds_kernel_frames():
    # numerics.kernel_frame is the one zero-centred copy of a grid, a
    # Grid(0.0, g.half_width, g.n) call. Outside numerics.py convolve is called
    # only by kernels.apply_T (T f = K * f) and the FFT branch of the regular
    # family; every smoothing majorant goes through numerics.smoothing_majorant.
    # np.convolve, the direct sums of _util and maximal, is another function.
    frames, convolves = set(), set()
    for path in sorted((Path(__file__).parents[1] / "src" / "oscillab").glob("*.py")):
        if path.name == "numerics.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if (name == "Grid" and len(node.args) == 3
                        and getattr(node.args[1], "attr", None) == "half_width"
                        and getattr(node.args[2], "attr", None) == "n"):
                    frames.add(f"{path.stem}.{fn.name}")
                if (name == "convolve"
                        and getattr(getattr(node.func, "value", None), "id", None) != "np"):
                    convolves.add(f"{path.stem}.{fn.name}")
    assert frames == set()
    assert convolves == {"kernels.apply_T", "maximal._bump_convolutions"}


def test_only_numerics_calls_the_fft():
    # numerics.py is the one home of np.fft: its transforms, the padded
    # spectrum that convolve and the held kernel spectra share, the rows of
    # _support_rows. Any other module reaching numpy's FFT, by attribute or by
    # import, would grow a second path beside them.
    found = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "oscillab").glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and getattr(node.value, "id", None) in ("np", "numpy")):
                found.add(f"{path.stem}: line {node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.startswith("numpy.fft")
                    or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
                found.add(f"{path.stem}: line {node.lineno}")
            if isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft")
                                                    for a in node.names):
                found.add(f"{path.stem}: line {node.lineno}")
    assert found == set()


def _functions_bounding(name, is_bound):
    """module.function of every function in src/oscillab that compares the
    name with a bound by <, <=, > or >=; an equality test is not a bound."""
    def is_name(node):
        return getattr(node, "id", getattr(node, "attr", None)) == name

    bounding = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "oscillab").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare):
                    continue
                terms = [node.left, *node.comparators]
                for op, a, b in zip(node.ops, terms, terms[1:]):
                    if (isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                            and (is_name(a) and is_bound(b) or is_bound(a) and is_name(b))):
                        bounding.add(f"{path.stem}.{fn.name}")
    return bounding


def test_only_check_ell_bounds_ell():
    # phases.check_ell is ell's one domain, 2 <= ell <= MAX_ELL. The monomial,
    # the hypothesis check and the region operators each used to compare ell
    # with a bound of their own (ell >= 1, ell >= 2, and no upper bound for the
    # regions).
    def is_bound(node):
        return isinstance(node, ast.Constant) or getattr(node, "id", None) == "MAX_ELL"

    assert _functions_bounding("ell", is_bound) == {"phases.check_ell"}


# The comparisons of lam with a bound kept outside phases.check_lambda, each
# with its reason.
_LAMBDA_BOUNDS_ELSEWHERE = {
    "cli._cmd_maximal": "maximal --lambda only sizes the grid, so with --op it may be below 1",
    "cli._parse_lambdas": "the doubling of a range lo..hi stops once it overflows to inf",
}


def test_only_check_lambda_bounds_lambda():
    # phases.check_lambda is lam's one domain, 1 <= lam < inf. The power-law
    # fit kept a bound of its own, lam > 1, so a sweep from lam = 1 read
    # "insufficient points for a fit".
    def is_bound(node):
        return isinstance(node, ast.Constant) or (
            getattr(node, "attr", None) == "inf" and getattr(node.value, "id", None) == "math")

    assert (_functions_bounding("lam", is_bound)
            == {"phases.check_lambda", *_LAMBDA_BOUNDS_ELSEWHERE})


# Public functions and methods that nothing in src/ or scripts/ calls, each
# kept on purpose. Any other such name is a test-only helper: it belongs in
# tests/, or is dead and goes.
_UNCALLED_ON_PURPOSE = {
    # perfbench's tracer rebinds these two; removing either breaks --trace 1
    "window_sums": "traced by perfbench",
    "spaced_pieces": "traced by perfbench; the bitwise oracle of spaced_energy",
    # the paper-lemma machinery: their unit tests are the lab's only check of
    # those lemmas
    "comparability_check": "lemma machinery",
    "annuli_project": "lemma machinery",
    "AnnuliIndex.multiplicity": "lemma machinery",
    "frequency_restricted_ratio": "lemma machinery",
    "SpacedFamily.decay_constant": "lemma machinery",
    # the oracles; three of them share their operator's body and cannot move
    "hardy_littlewood_brute": "oracle",
    "fractional_maximal_brute": "oracle",
    "approach_maximal_brute": "oracle",
    "global_maximal_brute": "oracle",
    "regular_maximal_brute": "oracle",
    "h1_atom": "an input of the acceptance suite",
    "Phase.from_derivatives": "the user phase kind the README documents",
}


def test_every_dataclass_field_is_read():
    # a field is read when a module of src/, scripts/ or tests/ takes an
    # attribute of its name; DecayReport.far_field_order and three fields of
    # ComparabilityReport were written and never read
    root = Path(__file__).parents[1]
    fields = {}
    for path in sorted((root / "src" / "oscillab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields.update((f"{node.name}.{item.target.id}", item.target.id)
                              for item in node.body if isinstance(item, ast.AnnAssign))
    read = set()
    for path in sorted([*(root / "src" / "oscillab").glob("*.py"),
                        *(root / "scripts").glob("*.py"), *(root / "tests").glob("*.py")]):
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert fields and {q for q, name in fields.items() if name not in read} == set()


def test_every_public_function_is_called_or_kept_on_purpose():
    # a reference is a name or an attribute that a module of src/ or
    # scripts/ reads; a definition and an import (the re-exports of
    # __init__.py among them) are not references
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "oscillab").glob("*.py"))
    public = {}
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            public.update((q, name) for q, name in defs if not name.startswith("_"))
    read = set()
    for path in package + sorted((root / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    uncalled = {q for q, name in public.items() if name not in read}
    assert uncalled == set(_UNCALLED_ON_PURPOSE)


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

    def test_check_main_sizes_from_the_scaled_lambda(self, tmp_path, capsys):
        # the kernel and the approach region run at lambda * epsilon; the grid
        # step and f's band were taken from lambda, so epsilon = 2 exited 2
        # with "grid too coarse for the smallest radius"
        assert run(["check-main", "--kind", "monomial", "--ell", "2", "--epsilon", "2",
                    "--lambdas", "64..256", "--pairs", "1", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[2]) for r in rows] == [64.0, 128.0, 256.0]

    def test_check_main_violation_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        real = verify.two_weight_ratio
        calls = []

        def fourth_violates(kernel, f, w, provenance, khat):
            calls.append(provenance.lam)
            if len(calls) == 4:
                return RatioSample.of(1.0, 0.0, provenance)
            return real(kernel, f, w, provenance, khat)

        monkeypatch.setattr(verify, "two_weight_ratio", fourth_violates)
        assert run(["check-main", "--ell", "2", "--lambdas", "64,128", "--pairs", "3",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "FAIL two-weight inequality (rhs = 0, lhs > 0)")
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert [float(r.split(",")[2]) for r in rows] == [64.0, 64.0, 64.0, 128.0]
        assert not (tmp_path / "summary.json").exists()

    # the band gate was met only when the chain or envelope_check reached its
    # lambda: --lambdas 4096,256,4 computed for 5.6 s before refusing lambda = 4
    # in a message that named no lambda. The second case fails only the
    # chain's band (A1 = 1); the envelope's, at lambda * epsilon, holds
    @pytest.mark.parametrize("argv, message", [
        (["--lambdas", "4096,256,4"], "lambda = 4.0: band p=3 outside"),
        (["--lambdas", "1", "--p", "2", "--epsilon", "0.25"],
         "lambda = 1.0: band p=2 outside [0, log2(4*A1*lam^((ell-1)/ell))) at A1 = 1.0")],
        ids=["envelope", "chain"])
    def test_check_lemmas_checks_every_band_before_the_first_draw(self, argv, message,
                                                                  tmp_path, capsys,
                                                                  monkeypatch):
        drawn = []
        monkeypatch.setattr(verify, "random_weight", lambda *args: drawn.append(args))
        assert run(["check-lemmas", "--ell", "3", "--pairs", "1", *argv,
                    "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err and drawn == []

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


def _traced_names():
    """perfbench's TRACED (span, module, attribute) triples, read from its
    source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_perfbench_traced_names_resolve():
    # a rename used to show only when a --trace 1 run raised in install()
    missing = []
    for _, module, attr in _traced_names():
        owner = importlib.import_module(f"oscillab.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_named_operators_call_the_module_bindings(monkeypatch):
    # perfbench's tracer rebinds maximal.hardy_littlewood and
    # maximal.approach_maximal; an operator holding the original function
    # would drop its calls from the trace
    calls = []
    monkeypatch.setattr(maximal, "hardy_littlewood",
                        lambda w, k: calls.append(("hardy_littlewood", k)) or w)
    monkeypatch.setattr(maximal, "approach_maximal",
                        lambda w, ell, lam: calls.append(("approach_maximal", ell, lam)) or w)
    w = Weight(Grid(0.0, 2.0, 64), np.ones(64))
    for name in ("M", "Mk:2", "Mll:3:64"):
        maximal.operator_by_name(name)(w)
    assert calls == [("hardy_littlewood", 1), ("hardy_littlewood", 2),
                     ("approach_maximal", 3, 64.0)]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the test oracles only
    import oscillab

    src = os.path.dirname(os.path.dirname(oscillab.__file__))
    code = ("import sys, oscillab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _run_experiments_module():
    path = Path(__file__).parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunExperiments:
    # the battery driver took sys.argv[1] as its output directory whatever it
    # was: --help ran all 13 commands into "--help/<tag>", and each exited 2
    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2),
                                            (["a", "b"], 2)])
    def test_flags_run_nothing(self, argv, code, monkeypatch, capsys):
        module = _run_experiments_module()
        calls = []
        monkeypatch.setattr(module, "run", lambda args: calls.append(args) or 0)
        with pytest.raises(SystemExit) as exc:
            module.main(argv)
        assert exc.value.code == code and calls == []
        assert "usage: " in capsys.readouterr()[0 if code == 0 else 1]

    @pytest.mark.parametrize("argv, base", [([], "results"), (["out/dir"], "out/dir")])
    def test_output_directory(self, argv, base, monkeypatch, capsys):
        module = _run_experiments_module()
        outs = []
        monkeypatch.setattr(module, "run", lambda args: outs.append(args[-1]) or 0)
        assert module.main(argv) == 0
        assert len(outs) == len(module.BATTERY) == 13
        assert all(os.path.dirname(out) == base for out in outs)
        assert os.path.basename(outs[-1]) == "check-lemmas-3-monomial"
