import argparse
import collections
import contextlib
import csv
import dataclasses
import enum
import importlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpsystems
from fpsystems import cli, fplinalg, search, slicerank
from fpsystems.cli import build_parser, main
from fpsystems.weights import AdmissibleSet

from .oracles import (
    reference_enumerate_solutions,
    reference_jsonable,
    reference_render,
    reference_rows,
)

AP3 = "p=3 m=1 k=3\n1 1 1\n"
BAD_MINOR = "p=3 m=1 k=3\n1 2 0\n"
S531 = "p=5 m=1 k=3\n1 3 1\n"
K4 = "p=3 m=1 k=4\n1 1 2 2\n"
M2K4 = "p=3 m=2 k=4\n1 1 1 0\n0 1 2 1\n"
# eleven nonzero points of F_3^3 where the deletion steps leave a survivor
SPARSE_F3_3 = [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 2), (1, 1, 0),
               (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 1), (1, 1, 1),
               (0, 1, 2)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, text in (("ap3", AP3), ("bad", BAD_MINOR), ("s531", S531),
                       ("k4", K4), ("m2k4", M2K4)):
        path = root / f"{name}.system"
        path.write_text(text)
        paths[name] = str(path)
    tensor = root / "antichain.tensor"
    tensor.write_text("2 2 2\n0 1 1\n1 0 1\n")
    paths["tensor"] = str(tensor)
    diag = root / "diag.tensor"
    diag.write_text("2 2 3\n0 0 0 1\n1 1 1 1\n")
    paths["diag"] = str(diag)
    sparse = root / "sparse.vectors"
    sparse.write_text("p=3 n=3\n" + "".join(
        " ".join(map(str, v)) + "\n" for v in SPARSE_F3_3))
    paths["sparse"] = str(sparse)
    return paths


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--no-timestamp"], capsys)
    return code, json.loads(out), err


HELP_TARGETS = [
    [],
    ["gamma"],
    ["validate"],
    ["solve"],
    ["weight"],
    ["slicerank"],
    ["slicerank", "rank"],
    ["slicerank", "identity"],
    ["slicerank", "diagonal"],
    ["slicerank", "bound"],
    ["sample"],
    ["sample", "containment"],
    ["sample", "step-distinct"],
    ["sample", "step-weight"],
    ["extremal"],
    ["verify"],
]


class TestParser:
    @pytest.mark.parametrize("target", HELP_TARGETS,
                             ids=[" ".join(t) or "top" for t in HELP_TARGETS])
    def test_help(self, target, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(target + ["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out

    def test_missing_required_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gamma"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["extremal", "--n", "1"],
        ["verify", "--n", "1", "--theorem", "tao"],
    ], ids=["extremal", "verify"])
    def test_threads_option_is_gone(self, files, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--system", files["ap3"], "--threads", "2"])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_theorem_choices_are_the_statement_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        theorem = next(a for a in sub.choices["verify"]._actions
                       if a.dest == "theorem")
        assert tuple(theorem.choices) == tuple(search._STATEMENTS)


def fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "fpsystems", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv, capsys):
    try:
        return run_cli(argv, capsys)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _result(out):
    return json.loads(out)["result"]


# Each step: argv and a check on (exit code, stdout, stderr) that tells
# the second command's defaults from the first command's options.
REUSE_SEQUENCES = {
    "solve-limit-then-default": [
        (["solve", "--system", "{ap3}", "--n", "3", "--limit", "1"],
         lambda code, out, err: _result(out)["listed"] == 1),
        (["solve", "--system", "{ap3}", "--n", "3"],
         lambda code, out, err: _result(out)["listed"] == 100),
    ],
    "weight-flag-then-none": [
        (["weight", "--tuple", "1,0;2,0;0,1", "--p", "3", "--check-properties"],
         lambda code, out, err: "properties" in _result(out)),
        (["weight", "--tuple", "1,0;2,0;0,1", "--p", "3"],
         lambda code, out, err: "properties" not in _result(out)),
    ],
    "usage-error-then-valid": [
        (["gamma", "--p", "3", "--m", "1"],
         lambda code, out, err: code == 2 and "--k" in err),
        (["gamma", "--p", "3", "--m", "1", "--k", "3"],
         lambda code, out, err: code == 0),
    ],
    "greedy-then-exhaustive": [
        (["extremal", "--system", "{ap3}", "--n", "2", "--greedy",
          "--restarts", "2", "--seed", "6"],
         lambda code, out, err: _result(out)["optimal"] is False),
        (["extremal", "--system", "{ap3}", "--n", "2"],
         lambda code, out, err: _result(out)["optimal"] is True),
    ],
}


class TestParserReuse:
    @pytest.mark.parametrize("name", sorted(REUSE_SEQUENCES))
    def test_sequence_matches_fresh_processes(self, name, files, capsys,
                                              monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for template, check in REUSE_SEQUENCES[name]:
            argv = [a.format(**files) for a in template] + ["--no-timestamp"]
            got = run_in_process(argv, capsys)
            assert got == fresh_process(argv), argv
            assert check(*got), argv
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestGamma:
    def test_json_payload(self, capsys):
        code, data, _ = run_json(["gamma", "--p", "3", "--m", "1", "--k", "3"],
                                 capsys)
        assert code == 0
        assert data["command"] == "gamma"
        res = data["result"]["gamma"]
        assert res["gamma"] == pytest.approx(2.755104613023633, abs=1e-9)
        assert res["at_boundary"] is False

    def test_n_adds_derived_values(self, capsys):
        code, data, _ = run_json(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                  "--n", "2"], capsys)
        assert code == 0
        result = data["result"]
        assert result["power"] == pytest.approx(2.755104613023633**2)
        assert result["set_size_bound"] == pytest.approx(3 * 2.755104613023633**2)
        assert result["monomials"]["count"] >= 1
        assert result["monomials"]["holds"] is True

    def test_tolerance_below_float_spacing_returns(self, capsys, deadline):
        with deadline(5):
            code, out, _ = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                    "--tol", "1e-300"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["elapsed_s"] < 1
        assert data["result"]["gamma"]["tolerance"] > 0

    def test_large_prime_with_n(self, capsys, deadline):
        # expm1(p t) overflows on the first midpoint unless phi takes its
        # tail branch; cli.main would turn that OverflowError into exit 2
        with deadline(10):
            code, data, err = run_json(["gamma", "--p", "1000003", "--m", "1",
                                        "--k", "3", "--n", "4"], capsys)
        assert code == 0, err
        assert data["result"]["gamma"]["gamma"] < 1000003
        assert data["result"]["monomials"]["holds"] is True

    def test_negative_n_at_boundary_rejected(self, capsys):
        code, out, err = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "2",
                                  "--n", "-1"], capsys)
        assert code == 2
        assert not out
        assert err.strip() == "error: n must be nonnegative"

    def test_monomial_bound_at_the_given_tolerance(self, capsys):
        # the monomial bound took Gamma at the default tolerance: 396.2359
        # against the power 397.0101 of the same report
        code, data, _ = run_json(["gamma", "--p", "5", "--m", "1", "--k", "3",
                                  "--n", "4", "--tol", "0.2"], capsys)
        assert code == 0
        assert data["result"]["monomials"]["bound"] == data["result"]["power"]

    def test_gamma_evaluated_once_per_report(self, capsys, spy):
        calls = spy(slicerank.gamma)
        code, _, _ = run_json(["gamma", "--p", "5", "--m", "1", "--k", "3",
                               "--n", "4"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_boundary_case_skips_monomials(self, capsys):
        code, data, _ = run_json(["gamma", "--p", "3", "--m", "1", "--k", "2",
                                  "--n", "2"], capsys)
        assert code == 0
        assert data["result"]["gamma"]["at_boundary"] is True
        assert "monomials" not in data["result"]


def _zero_span(p):
    return {"ambient_dim": 2, "basis": [], "dim": 0, "p": p}


def _line_span(basis, p):
    return {"ambient_dim": 2, "basis": [basis], "dim": 1, "p": p}


WEIGHT_STDOUT = [
    (["weight", "--tuple", "1,0;2,0;0,1", "--p", "3", "--check-properties"],
     {"command": "weight", "result": {
         "entries": [[1, 0], [2, 0], [0, 1]], "p": 3,
         "properties": {"chosen_size": 1, "ok": True, "omega": 5,
                        "omega_valid": True, "size_valid": True,
                        "span_dim": 2, "span_valid": True},
         "weight": {
             "admissible": [
                 {"indices": [], "lines": [[0, 1], [1, 0]],
                  "span_u": _zero_span(3), "weight": 2},
                 {"indices": [2], "lines": [[1, 0]],
                  "span_u": _line_span([0, 1], 3), "weight": 5}],
             "chosen": [2], "lines": ["10"], "omega": 5,
             "partition": [[0, 1]], "span_u": _line_span([0, 1], 3)}}}),
    (["weight", "--tuple", "1,0;0,1;1,1;2,0", "--p", "5"],
     {"command": "weight", "result": {
         "entries": [[1, 0], [0, 1], [1, 1], [2, 0]], "p": 5,
         "weight": {
             "admissible": [
                 {"indices": [], "lines": [[0, 1], [1, 0], [1, 1]],
                  "span_u": _zero_span(5), "weight": 3},
                 {"indices": [1], "lines": [[1, 0]],
                  "span_u": _line_span([0, 1], 5), "weight": 6},
                 {"indices": [2], "lines": [[0, 1]],
                  "span_u": _line_span([1, 1], 5), "weight": 6}],
             "chosen": [1], "lines": ["10"], "omega": 6,
             "partition": [[0, 2, 3]], "span_u": _line_span([0, 1], 5)}}}),
]


def _exact(num, den):
    return {"denominator": den, "numerator": num, "value": num / den}


def _step(d, deleted, kept, removed, survivors):
    return {"d": d, "deleted": deleted, "kept": kept, "removed": removed,
            "surviving": len(survivors),
            "survivors": {"n": 3, "p": 3, "points": survivors}}


# argv entries starting with @ name a file of the ``files`` fixture
SAMPLE_STDOUT = [
    (["sample", "containment", "--p", "3", "--n", "4", "--d", "3", "--s", "2",
      "--method", "monte-carlo", "--trials", "200", "--seed", "5"],
     {"command": "sample", "seed": 5, "result": {
         "d": 3, "exact": _exact(1, 10), "frequency": 0.13, "hits": 26,
         "method": "monte-carlo", "n": 4, "p": 3, "s": 2,
         "sigma": 0.021213203435596427, "trials": 200, "upper": _exact(1, 9),
         "within_3sigma": True}}),
    (["sample", "containment", "--p", "2", "--n", "4", "--d", "2", "--s", "2"],
     {"command": "sample", "seed": 0, "result": {
         "d": 2, "exact": _exact(1, 35), "frequency": 1 / 35, "hits": 1,
         "method": "exhaustive", "n": 4, "p": 2, "s": 2, "sigma": 0.0,
         "trials": 35, "upper": _exact(1, 16), "within_3sigma": True}}),
    (["sample", "step-distinct", "--system", "@ap3", "--n", "3",
      "--exclude-zero", "--d", "2", "--seed", "1"],
     {"command": "sample", "seed": 1, "result": _step(
         2, 144, 8, [[0, 1, 1], [0, 2, 2], [1, 0, 2], [1, 1, 0], [1, 2, 1],
                     [2, 0, 1], [2, 1, 2], [2, 2, 0]], [])}),
    (["sample", "step-distinct", "--system", "@ap3", "--points", "@sparse",
      "--d", "2", "--seed", "4", "--ell", "2"],
     {"command": "sample", "seed": 4, "result": _step(
         2, 18, 4, [[0, 0, 1], [0, 1, 1], [0, 2, 1]], [[0, 1, 2]])}),
    (["sample", "step-weight", "--system", "@ap3", "--points", "@sparse",
      "--d", "3", "--w", "5", "--seed", "2"],
     {"command": "sample", "seed": 2, "result": _step(
         3, 36, 11, [[0, 0, 1], [0, 1, 1], [0, 2, 1], [1, 0, 2], [1, 1, 0],
                     [1, 1, 1], [1, 2, 2], [2, 0, 0], [2, 1, 2], [2, 2, 1]],
         [[0, 1, 2]])}),
]


class TestDeterminism:
    def test_byte_identical_reruns(self, files, capsys, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        commands = [
            ["gamma", "--p", "3", "--m", "1", "--k", "3", "--n", "2"],
            ["validate", "--system", files["ap3"]],
            ["solve", "--system", files["ap3"], "--n", "1",
             "--mode", "distinct"],
            ["weight", "--tuple", "1,0;2,0;0,1", "--p", "3",
             "--check-properties"],
            ["slicerank", "rank", "--tensor", files["tensor"]],
            ["slicerank", "diagonal", "--length", "3", "--k", "3"],
            ["slicerank", "bound", "--system", files["ap3"], "--n", "2"],
            ["slicerank", "identity", "--system", files["ap3"], "--n", "1",
             "--samples", "30", "--seed", "2"],
            ["sample", "containment", "--p", "2", "--n", "4", "--d", "2",
             "--s", "1", "--method", "monte-carlo", "--trials", "50",
             "--seed", "5"],
            ["sample", "step-distinct", "--system", files["ap3"], "--n", "3",
             "--exclude-zero", "--d", "2", "--seed", "1"],
            ["sample", "step-weight", "--system", files["ap3"], "--n", "3",
             "--exclude-zero", "--d", "2", "--w", "2", "--seed", "1"],
            ["extremal", "--system", files["ap3"], "--n", "2"],
            ["extremal", "--system", files["ap3"], "--n", "2", "--greedy",
             "--restarts", "2", "--seed", "6"],
            ["verify", "--system", files["ap3"], "--n", "1",
             "--theorem", "tao"],
        ]
        for argv in commands:
            first = run_cli(argv + ["--no-timestamp"], capsys)
            second = run_cli(argv + ["--no-timestamp"], capsys)
            assert first == second, argv
            assert first[0] in (0, 1), argv

    @pytest.mark.parametrize("argv,frozen", WEIGHT_STDOUT)
    def test_weight_stdout_frozen(self, argv, frozen, capsys):
        # the full --no-timestamp stdout, admissible listing included
        code, out, _ = run_cli(argv + ["--no-timestamp"], capsys)
        assert code == 0
        assert out == json.dumps(frozen, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,frozen", SAMPLE_STDOUT)
    def test_sample_stdout_frozen(self, argv, frozen, files, capsys,
                                  monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        code, out, _ = run_cli(argv + ["--no-timestamp"], capsys)
        assert code == 0
        assert out == json.dumps(frozen, indent=2, sort_keys=True) + "\n"

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3"],
                               capsys)
        data = json.loads(out)
        assert code == 0
        assert "timestamp" in data
        assert "elapsed_s" in data

    def test_elapsed_only_at_top_level(self, files, capsys):
        code, out, _ = run_cli(["extremal", "--system", files["ap3"],
                                "--n", "1"], capsys)
        data = json.loads(out)
        assert code == 0
        assert "elapsed_s" in data
        assert "elapsed_s" not in data["result"]

    def test_no_timestamp_strips_nested_elapsed(self, files, capsys):
        code, data, _ = run_json(["extremal", "--system", files["ap3"],
                                  "--n", "1"], capsys)
        assert code == 0
        assert "elapsed_s" not in data["result"]


class TestSeedResolution:
    ARGS = ["sample", "containment", "--p", "2", "--n", "3", "--d", "2",
            "--s", "1", "--method", "monte-carlo", "--trials", "20"]

    def test_default_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        _, data, _ = run_json(self.ARGS, capsys)
        assert data["seed"] == 0

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "9")
        _, data, _ = run_json(self.ARGS, capsys)
        assert data["seed"] == 9

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "9")
        _, data, _ = run_json(self.ARGS + ["--seed", "4"], capsys)
        assert data["seed"] == 4

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "not-a-number")
        code, _, err = run_cli(self.ARGS, capsys)
        assert code == 2
        assert "error:" in err


class TestExitCodes:
    def test_validate_ok(self, files, capsys):
        code, data, _ = run_json(["validate", "--system", files["ap3"]],
                                 capsys)
        assert code == 0
        assert data["result"]["report"]["ok"] is True

    def test_step_distinct_with_few_unpinned_columns(self, files, capsys):
        # generic minors but k = 4 < 2m + 1: two pivots cannot both avoid
        # the three pinned positions; this exited 2 as a degenerate system
        code, data, err = run_json(["sample", "step-distinct", "--system",
                                    files["m2k4"], "--n", "3", "--d", "3",
                                    "--exclude-zero"], capsys)
        assert code == 0, err
        result = data["result"]
        assert result["kept"] == 26
        assert result["deleted"] == 0
        assert result["surviving"] == 26

    def test_validate_failing_minor(self, files, capsys):
        code, data, _ = run_json(["validate", "--system", files["bad"]],
                                 capsys)
        assert code == 1
        report = data["result"]["report"]
        assert report["ok"] is False
        assert report["failing_minors"] == [[2]]

    def test_validate_more_equations_than_variables(self, tmp_path, capsys):
        path = tmp_path / "tall.system"
        path.write_text("p=3 m=3 k=2\n1 2\n1 1\n2 1\n")
        code, data, _ = run_json(["validate", "--system", str(path)], capsys)
        assert code == 1
        assert data["result"]["report"]["generic_minors"] is False

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["validate", "--system", "/no/such/file"],
                               capsys)
        assert code == 2
        assert "error:" in err

    def test_malformed_system(self, tmp_path, capsys):
        path = tmp_path / "broken.system"
        path.write_text("p=3 m=1\n1 1 1\n")
        code, _, err = run_cli(["validate", "--system", str(path)], capsys)
        assert code == 2
        assert "error:" in err

    def test_solve_needs_point_source(self, files, capsys):
        code, _, err = run_cli(["solve", "--system", files["ap3"]], capsys)
        assert code == 2
        assert "error:" in err

    def test_point_file_prime_mismatch(self, files, tmp_path, capsys):
        pts = tmp_path / "points.vectors"
        pts.write_text("p=5 n=1\n1\n2\n")
        code, _, err = run_cli(["solve", "--system", files["ap3"],
                                "--points", str(pts)], capsys)
        assert code == 2
        assert "error:" in err

    def test_span_mode_needs_r(self, files, capsys):
        code, _, err = run_cli(["solve", "--system", files["ap3"], "--n", "1",
                                "--mode", "span-dim"], capsys)
        assert code == 2

    def test_rank_theorem_needs_r(self, files, capsys):
        code, _, err = run_cli(["verify", "--system", files["k4"], "--n", "1",
                                "--theorem", "rank"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--system", "@ap3", "--n", "1", "--mode", "any",
          "--r", "3"], "--r applies only to --mode span-dim"),
        (["solve", "--system", "@ap3", "--n", "1", "--mode", "distinct",
          "--ell", "2"], "--ell applies only to --mode distinct-count"),
        (["verify", "--system", "@ap3", "--n", "1", "--theorem", "tao",
          "--r", "2"], "--r applies only to --theorem rank"),
        (["extremal", "--system", "@ap3", "--n", "1", "--restarts", "3"],
         "--restarts applies only to --greedy"),
        (["extremal", "--system", "@ap3", "--n", "1", "--seed", "5"],
         "--seed applies only to --greedy"),
        (["extremal", "--system", "@ap3", "--n", "1", "--greedy",
          "--no-symmetry"],
         "--no-symmetry applies only to the exhaustive search"),
    ], ids=["solve-r", "solve-ell", "verify-r", "extremal-restarts",
            "extremal-seed", "extremal-greedy-no-symmetry"])
    def test_flag_the_mode_ignores(self, argv, flag, files, capsys):
        # each of these exited 0 with the flag silently ignored
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert not out
        assert err == f"error: {flag}\n"

    def test_solve_work_cap(self, files, capsys, deadline):
        # 3^9 points give 3^18 free assignments: this ran without end
        with deadline(5):
            code, out, err = run_cli(["solve", "--system", files["ap3"],
                                      "--n", "9", "--count-only"], capsys)
        assert code == 2
        assert not out
        assert err == f"error: {3**18} assignments exceed the cap {10**6}\n"

    def test_solve_work_cap_names_unprintable_power(self, tmp_path, capsys,
                                                   deadline, int_digits_4300):
        # 19683^1099 has 4,719 digits: printing it in the cap's message
        # raised the interpreter's own conversion error
        system = tmp_path / "wide.system"
        system.write_text("p=3 m=1 k=1100\n" + " ".join(["1"] * 1100) + "\n")
        with deadline(5):
            code, out, err = run_cli(["solve", "--system", str(system),
                                      "--n", "9", "--count-only"], capsys)
        assert code == 2
        assert not out
        assert err == f"error: 19683^1099 assignments exceed the cap {10**6}\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--count-only"],
        ["sample", "step-weight", "--d", "1", "--w", "5"],
        ["sample", "step-distinct", "--d", "1"],
        ["slicerank", "identity"],
    ], ids=["solve", "step-weight", "step-distinct", "identity"])
    def test_full_space_capped_before_it_is_built(self, argv, files, capsys,
                                                  deadline):
        # all 3^25 points were built first: a MemoryError traceback
        with deadline(2):
            code, out, err = run_cli(argv + ["--system", files["ap3"],
                                             "--n", "25"], capsys)
        assert code == 2
        assert not out
        assert err == f"error: {3**25} points exceed the cap {10**6}\n"

    def test_extremal_point_cap_decided_before_the_power(
            self, files, capsys, deadline, int_digits_4300):
        # 3^(10^8) was formed first: no answer in a minute
        with deadline(2):
            code, out, err = run_cli(["extremal", "--system", files["ap3"],
                                      "--n", "100000000"], capsys)
        assert code == 2
        assert not out
        assert err.endswith("points exceed the cap 81\n")

    def test_extremal_support_walk_capped(self, tmp_path, capsys, deadline):
        # the 81 points are within the point cap, but the support index
        # took 1.8 GB before the first node
        system = tmp_path / "six.system"
        system.write_text("p=3 m=1 k=6\n1 1 1 1 1 1\n")
        with deadline(2):
            code, out, err = run_cli(["extremal", "--system", str(system),
                                      "--n", "4", "--mode", "distinct"], capsys)
        assert code == 2
        assert not out
        assert err == "error: 32801517 support walk assignments exceed the cap 1000000\n"

    def test_step_distinct_counts_index_sets_before_listing(self, tmp_path,
                                                            capsys, deadline):
        # the 17,997,000 index sets of 6,000 ones were listed first
        system = tmp_path / "ones.system"
        system.write_text("p=3 m=1 k=6000\n" + " ".join(["1"] * 6000) + "\n")
        with deadline(1):
            code, out, err = run_cli(["sample", "step-distinct", "--system",
                                      str(system), "--n", "2", "--d", "1",
                                      "--seed", "0"], capsys)
        assert code == 2
        assert not out
        assert err == "error: 161973000 candidate tuples exceed the cap 1000000\n"

    def test_step_distinct_lists_nothing_for_an_empty_sample(
            self, tmp_path, capsys, deadline):
        # V = {0} holds no nonzero point, so the cap counts 0 tuples; the
        # 17,997,000 index sets were listed anyway: a MemoryError traceback
        system = tmp_path / "ones.system"
        system.write_text("p=3 m=1 k=6000\n" + " ".join(["1"] * 6000) + "\n")
        argv = ["sample", "step-distinct", "--system", str(system), "--n", "2",
                "--exclude-zero", "--d", "0", "--seed", "0"]
        with deadline(1):
            code, data, err = run_json(argv, capsys)
        assert code == 0
        assert (data["result"]["kept"], data["result"]["deleted"]) == (0, 0)
        with deadline(1):
            code, out, err = run_cli(argv + ["--ell", "0"], capsys)
        assert code == 2
        assert not out
        assert err == "error: ell must lie in 1..6000\n"

    def test_step_distinct_completions_capped(self, tmp_path, capsys,
                                              deadline):
        # eight ones: 1,792 candidates under the cap, whose completion
        # walks ran for 18 s
        system = tmp_path / "ones.system"
        system.write_text("p=3 m=1 k=8\n" + " ".join(["1"] * 8) + "\n")
        with deadline(2):
            code, out, err = run_cli(["sample", "step-distinct", "--system",
                                      str(system), "--n", "3", "--exclude-zero",
                                      "--d", "2", "--seed", "0"], capsys)
        assert code == 2
        assert not out
        assert err == "error: 1000001 tuple completions exceed the cap 1000000\n"

    def test_solve_refused_before_any_minor(self, tmp_path, capsys, deadline,
                                            spy):
        # make eliminated the C(20, 8) = 125,970 minors that solve never
        # reads before its walk-work cap: 9.6 s
        rng = random.Random(1)
        system = tmp_path / "wide.system"
        system.write_text("p=11 m=8 k=20\n" + "".join(
            " ".join(str(rng.randrange(1, 11)) for _ in range(20)) + "\n"
            for _ in range(8)))
        calls = spy(fplinalg._pivots)
        with deadline(2):
            code, out, err = run_cli(["solve", "--system", str(system),
                                      "--n", "1", "--count-only"], capsys)
        assert code == 2
        assert not out
        assert err == f"error: {11**12} assignments exceed the cap 1000000\n"
        assert calls == []

    def test_validate_minor_count_capped(self, tmp_path, capsys, deadline):
        # the C(30, 15) = 155,117,520 minors were each eliminated
        rng = random.Random(0)
        system = tmp_path / "wide.system"
        system.write_text("p=5 m=15 k=30\n" + "".join(
            " ".join(str(rng.randrange(5)) for _ in range(30)) + "\n"
            for _ in range(15)))
        with deadline(2):
            code, out, err = run_cli(["validate", "--system", str(system)],
                                     capsys)
        assert code == 2
        assert not out
        assert err == ("error: 155117520 coefficient minors exceed the cap "
                       "1000000\n")

    def test_greedy_restarts_capped(self, files, capsys, deadline):
        # a billion restarts ran without end
        with deadline(2):
            code, out, err = run_cli(["extremal", "--system", files["ap3"],
                                      "--n", "2", "--greedy", "--restarts",
                                      str(10**9)], capsys)
        assert code == 2
        assert not out
        assert err == (f"error: {10**9 + 1} passes over 9 points: "
                       f"{9 * (10**9 + 1)} point scans exceed the cap {10**6}\n")

    def test_step_weight_needs_w(self, files, capsys):
        code, _, err = run_cli(["sample", "step-weight", "--system",
                                files["ap3"], "--n", "2", "--exclude-zero",
                                "--d", "1", "--seed", "0"], capsys)
        assert code == 2

    def test_step_weight_with_more_equations_than_variables(self, tmp_path,
                                                            capsys):
        # the walk-work cap took |inside|^(k - m) = 0 ** -1 on the empty
        # nonzero part of the zero subspace: a ZeroDivisionError traceback
        path = tmp_path / "m3k2.system"
        path.write_text("p=3 m=3 k=2\n1 1\n1 2\n1 0\n")
        code, out, err = run_cli(["sample", "step-weight", "--system",
                                  str(path), "--n", "2", "--exclude-zero",
                                  "--d", "0", "--w", "1"], capsys)
        assert code == 2
        assert not out
        assert err == "error: coefficient rank below the equation count\n"

    def test_partition_check_needs_system(self, capsys):
        code, _, err = run_cli(["weight", "--tuple", "1;1;1", "--p", "3",
                                "--check-partition"], capsys)
        assert code == 2

    def test_weight_system_over_another_prime(self, files, capsys):
        # (1,0) three times solves x+y+z=0 over F_3, not over F_5
        code, out, err = run_cli(["weight", "--tuple", "1,0;1,0;1,0", "--p",
                                  "5", "--system", files["ap3"],
                                  "--check-properties"], capsys)
        assert code == 2
        assert not out
        assert "F_5" in err and "F_3" in err

    @pytest.mark.parametrize("flag", ["--check-properties", "--check-partition"])
    def test_weight_tuple_longer_than_the_system(self, files, capsys, flag):
        # the first three entries solve x+y+z=0, the fourth is extra
        code, out, err = run_cli(["weight", "--tuple", "1;1;1;2", "--p", "3",
                                  "--system", files["ap3"], flag], capsys)
        assert code == 2
        assert not out
        assert err == "error: expected 3 vectors, got 4\n"

    def test_non_antichain_tensor(self, files, capsys):
        code, _, err = run_cli(["slicerank", "rank", "--tensor",
                                files["diag"]], capsys)
        assert code == 2
        assert "error:" in err

    def test_repeated_tensor_index(self, tmp_path, capsys):
        path = tmp_path / "twice.tensor"
        path.write_text("2 2 2\n0 1 1\n0 1 0\n1 0 1\n")
        code, out, err = run_cli(["slicerank", "rank", "--tensor", str(path)],
                                 capsys)
        assert code == 2
        assert not out
        assert err == "error: repeated index (0, 1) in line '0 1 0'\n"

    def test_gamma_power_overflow(self, capsys):
        # Gamma^n leaves the float range long before n = 2000
        code, out, err = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                  "--n", "2000"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "Gamma^n" in err
        assert "n = 2000" in err

    def test_gamma_coarse_tolerance_overflow(self, capsys):
        # at tolerance 0.2 the bracket ends at z = 0.9375, where
        # z^333334 underflows: dividing by it raised ZeroDivisionError
        code, out, err = run_cli(["gamma", "--p", "1000003", "--m", "1",
                                  "--k", "3", "--n", "0", "--tol", "0.2"],
                                 capsys)
        assert code == 2
        assert not out
        assert err == ("error: the Gamma objective at z = 0.9375 overflows "
                       "a float at tolerance 0.2\n")

    def test_slicerank_bound_overflow(self, files, capsys):
        code, out, err = run_cli(["slicerank", "bound", "--system",
                                  files["ap3"], "--n", "2000"], capsys)
        assert code == 2
        assert not out
        assert err == "error: Gamma^n overflows a float at n = 2000\n"

    def test_slicerank_bound_product_overflow(self, files, capsys):
        # Gamma^700 is a float, k * Gamma^700 is not
        code, out, err = run_cli(["slicerank", "bound", "--system",
                                  files["ap3"], "--n", "700"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert "n = 700" in err

    def test_gamma_set_size_bound_overflow(self, capsys):
        code, out, err = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                  "--n", "700"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert "n = 700" in err

    def test_verify_zero_flags_clash(self, files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--system", files["ap3"], "--n", "2",
                  "--theorem", "tao", "--exclude-zero", "--include-zero"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "not allowed with" in captured.err

    @pytest.mark.parametrize("argv", [
        ["extremal", "--system", "@ap3", "--n", "2", "--greedy",
         "--restarts", "-1"],
        ["sample", "containment", "--p", "2", "--n", "4", "--d", "2",
         "--s", "1", "--trials", "-5"],
        ["solve", "--system", "@ap3", "--n", "1", "--limit", "-1"],
    ], ids=["restarts", "trials", "limit"])
    def test_negative_count(self, argv, files, capsys):
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert "must be nonnegative" in err

    def test_zero_limit_lists_nothing(self, files, capsys):
        code, data, _ = run_json(["solve", "--system", files["ap3"], "--n", "1",
                                  "--limit", "0"], capsys)
        assert code == 0
        assert data["result"]["count"] == 9
        assert data["result"]["solutions"] == []

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_identity_needs_samples(self, samples, files, capsys):
        # 81^3 tuples exceed the exhaustive cap, so the sampled path ran
        # and reported identity_holds: true after checking nothing
        code, out, err = run_cli(["slicerank", "identity", "--system",
                                  files["ap3"], "--n", "4", "--samples",
                                  samples], capsys)
        assert code == 2
        assert not out
        assert err == f"error: samples must be at least 1, got {samples}\n"

    def test_identity_samples_capped(self, files, capsys, deadline):
        # --samples had no cap: a billion samples ran for hours
        with deadline(2):
            code, out, err = run_cli(["slicerank", "identity", "--system",
                                      files["ap3"], "--n", "4", "--samples",
                                      "2000001"], capsys)
        assert code == 2
        assert not out
        assert err == "error: 2000001 samples exceed the cap 2000000\n"

    def test_containment_trials_capped(self, capsys, deadline):
        # --trials had no cap: a billion trials ran for hours
        with deadline(2):
            code, out, err = run_cli(["sample", "containment", "--p", "3",
                                      "--n", "4", "--d", "2", "--s", "1",
                                      "--method", "monte-carlo", "--trials",
                                      "1000001"], capsys)
        assert code == 2
        assert not out
        assert err == "error: 1000001 trials exceed the cap 1000000\n"

    def test_containment_work_capped(self, capsys, deadline):
        # 10^4 trials of 100 x 200 eliminations ran for minutes, silent
        with deadline(2):
            code, out, err = run_cli(["sample", "containment", "--p", "3",
                                      "--n", "200", "--d", "100", "--s", "1"],
                                     capsys)
        assert code == 2
        assert not out
        assert err == ("error: 10000 trials of 100 x 200 eliminations exceed "
                       "the cap 40000000 on trials * d^2 * n\n")

    def test_weight_prime_checked_before_reduction(self, capsys):
        # the entries were reduced mod 0 first: ZeroDivisionError
        code, out, err = run_cli(["weight", "--tuple", "1,0", "--p", "0"],
                                 capsys)
        assert code == 2
        assert not out
        assert err == "error: prime must satisfy 2 <= p <= 2^31 - 1, got 0\n"

    def test_negative_point_space_dimension(self, files, capsys):
        code, out, err = run_cli(["solve", "--system", files["ap3"],
                                  "--n", "-1"], capsys)
        assert code == 2
        assert not out
        assert err == "error: n must be nonnegative\n"

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_unprintable_exact_integer(self, fmt, capsys, deadline,
                                       int_digits_4300):
        # the probability's denominator has 9,543 digits: rendering it
        # raised the interpreter's own conversion error
        with deadline(5):
            code, out, err = run_cli(["sample", "containment", "--p", "3",
                                      "--n", "20000", "--d", "1", "--s", "1",
                                      "--method", "monte-carlo", "--trials",
                                      "1", "--format", fmt], capsys)
        assert code == 2
        assert not out
        assert err == ("error: an exact integer of 9543 digits exceeds the "
                       "limit of 4300 digits for printing it\n")

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_digit_limit_at_its_floor(self, fmt, capsys):
        # 640, the lowest limit the interpreter takes: at n = 1342 the
        # probability's denominator has 640 digits and prints, at
        # n = 1343 it has 641; ints below 10^18 skip the digit check
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            runs = [run_cli(["sample", "containment", "--p", "3", "--n", n,
                             "--d", "1", "--s", "1", "--method",
                             "monte-carlo", "--trials", "1", "--format", fmt],
                            capsys) for n in ("1342", "1343")]
        finally:
            sys.set_int_max_str_digits(previous)
        (code, out, err), (code_over, out_over, err_over) = runs
        assert (code, err) == (0, "")
        assert max(len(digits) for digits in re.findall(r"\d+", out)) == 640
        assert code_over == 2
        assert not out_over
        assert err_over == ("error: an exact integer of 641 digits exceeds "
                            "the limit of 640 digits for printing it\n")

    def test_printable_digit_limit_is_exact(self, int_digits_4300):
        assert cli._printable(-(10**4300 - 1)) == -(10**4300 - 1)
        with pytest.raises(ValueError, match="of 4301 digits"):
            cli._printable(10**4300)

    def test_diagonal_order_capped_at_length_one(self, capsys, deadline):
        # L = 1 keeps L^k under the size cap for every k
        with deadline(1):
            code, out, err = run_cli(["slicerank", "diagonal", "--length", "1",
                                      "--k", "21"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error: dense tensor [1]^21 exceeds the cap")

    def test_diagonal_shape_checked_before_entries(self, capsys, deadline):
        # the L diagonal entries are not built for a shape over the cap
        with deadline(1):
            code, out, err = run_cli(["slicerank", "diagonal", "--length",
                                      str(10**9), "--k", "2"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error: dense tensor [1000000000]^2 exceeds the cap")


class TestFormats:
    def test_text_format(self, capsys):
        code, out, _ = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                "--format", "text", "--no-timestamp"], capsys)
        assert code == 0
        assert "command = gamma\n" in out
        assert any(line.startswith("result.gamma.gamma = ")
                   for line in out.splitlines())

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["gamma", "--p", "3", "--m", "1", "--k", "3",
                                "--format", "csv", "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("result.gamma.gamma,") for line in lines)

    def test_fraction_rendering(self, capsys):
        code, data, _ = run_json(["sample", "containment", "--p", "2",
                                  "--n", "3", "--d", "2", "--s", "1",
                                  "--method", "exhaustive"], capsys)
        assert code == 0
        exact = data["result"]["exact"]
        assert exact == {"numerator": 3, "denominator": 7,
                         "value": pytest.approx(3 / 7)}
        assert data["result"]["within_3sigma"] is True



class _Int(int):
    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


class _Str(str):
    def __repr__(self):
        return "_Str()"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "_Float()"

    __str__ = __repr__


TEXT = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x08\x1f\x7f\n\t", "é€", "\U0001F600",
     "\u2028\u2029", "\ud800"]))
INTS = st.one_of(st.integers(), st.sampled_from([0, 10**600, -10**600]))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e16, 1e22]))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT,
                   st.builds(_Int, INTS), st.builds(_Str, TEXT),
                   st.builds(_Float, FLOATS))
TREES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.one_of(TEXT, st.builds(_Str, TEXT)), inner,
                    max_size=4)), max_leaves=24)


@pytest.fixture(scope="module")
def session_commands(tmp_path_factory):
    """The (template, argv) of each command of the benchmark's cli-session
    workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent
                               / "perfbench"))
        workloads = importlib.import_module("workloads")
    return workloads.CliSession.setup(
        fpsystems, 1, {}, tmp_path_factory.mktemp("session")).commands


@pytest.fixture(scope="module")
def session_results(session_commands):
    """The result object of each cli-session command, as its handler
    returns it."""
    parser = build_parser()
    results = []
    for template, argv in session_commands:
        args = parser.parse_args(argv)
        results.append((template, args.func(args)[0]))
    return results


class TestJsonWriter:
    @settings(max_examples=300)
    @given(tree=TREES)
    @example(tree={})
    @example(tree=[])
    @example(tree={"a": {}, "b": [], "c": [[], {}, [[]]], "": None})
    @example(tree=[_Int(7), _Str("x"), _Float(-0.0), True, False, 1e16])
    def test_matches_json_dumps(self, tree):
        want = reference_render(reference_jsonable(tree))
        parts = []
        cli._write_json(tree, parts.append)
        assert "".join(parts) + "\n" == want
        assert cli._json_text(tree, "") + "\n" == want

    def test_generic_chain_matches_reference(self):
        # every type past the exact ones, and exact ones past 10^18
        @dataclasses.dataclass
        class Point:
            x: int
            label: str

            @property
            def double(self):
                return 2 * self.x

        class Level(enum.IntEnum):
            HIGH = 3

        pair = collections.namedtuple("Pair", "a b")
        report = {
            1: Point(_Int(5), _Str("p")), (0, 1): Fraction(-3, 7),
            "sets": [{3, 1, 2}, frozenset({(1, 0), (0, 1)}), set()],
            "sub": collections.OrderedDict(b=pair(Level.HIGH, _Float(math.nan)),
                                           a=collections.UserList([1])),
            "big": [10**18, -10**18, 10**30, _Int(10**30), (10**19,)],
            "other": [Decimal("1.50"), None, range(2), Fraction(1, 10**20)],
        }
        want = reference_render(reference_jsonable(report))
        assert cli._json_text(report) + "\n" == want

    def test_listing_written_item_by_item(self, files, capsys):
        # each solution is one write, the listing never one string
        parts = []
        args = build_parser().parse_args(["solve", "--system", files["ap3"],
                                          "--n", "2"])
        result = args.func(args)[0]
        cli._write_json(result, parts.append)
        assert len(result["solutions"]) == 81
        assert max(map(len, parts)) < 300 < len("".join(parts)) / 50
        assert "".join(parts) + "\n" == reference_render(
            reference_jsonable(result))


class TestJsonable:
    def test_session_results_match_reference(self, session_results):
        assert len(session_results) == 140
        for template, result in session_results:
            assert (cli._json_text(result) + "\n"
                    == reference_render(reference_jsonable(result))), template

    def test_weight_handler_converts_nothing(self, files, spy, capsys):
        # the handler returns objects; main converts them as it writes
        calls = spy(cli._write_json)
        argv = ["weight", "--tuple", "1,0;0,1;2,2", "--p", "3", "--system",
                files["ap3"], "--check-properties", "--check-partition"]
        args = build_parser().parse_args(argv)
        payload, code, _ = args.func(args)
        assert calls == []
        assert code == 0
        assert all(isinstance(a, AdmissibleSet)
                   for a in payload["weight"]["admissible"])
        code, out, _ = run_cli(argv + ["--no-timestamp"], capsys)
        assert code == 0
        assert out == reference_render({"command": "weight",
                                        "result": reference_jsonable(payload)})


class TestFlatFormats:
    def test_session_rows_flatten_the_json_document(self, session_commands,
                                                      capsys):
        # text and csv print the rows of the command's JSON output
        for template, argv in session_commands:
            code, out, err = run_cli(argv, capsys)
            rows = reference_rows(json.loads(out)) if out else []
            assert run_cli(argv + ["--format", "text"], capsys) == (
                code, "".join(f"{key} = {value}\n" for key, value in rows),
                err), template
            code_csv, out_csv, err_csv = run_cli(argv + ["--format", "csv"],
                                                 capsys)
            assert (code_csv, err_csv) == (code, err), template
            assert list(csv.reader(io.StringIO(out_csv))) == (
                [["key", "value"]] * bool(rows)
                + [[key, "" if value is None else str(value)]
                   for key, value in rows]), template

    def test_list_cell_keys_sorted(self, files, capsys):
        code, out, _ = run_cli(["solve", "--system", files["ap3"], "--n", "2",
                                "--limit", "2", "--format", "csv",
                                "--no-timestamp"], capsys)
        assert code == 0
        assert out == ('key,value\ncommand,solve\nresult.count,81\n'
                       'result.listed,2\nresult.mode,any\nresult.points,9\n'
                       'result.solutions,"[{""distinct_count"":1,""entries"":'
                       '[[0,0],[0,0],[0,0]],""span_dim"":0},{""distinct_count"":3,'
                       '""entries"":[[0,2],[0,0],[0,1]],""span_dim"":1}]"\n')

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_listing_failing_on_its_last_item_prints_nothing(
            self, fmt, files, monkeypatch, capsys):
        # the last listed solution has a 641-digit entry under a 640-digit
        # limit: the report is converted whole before any of it is written
        solutions = cli.enumerate_solutions

        def listing(*args):
            yield from solutions(*args)
            yield SimpleNamespace(entries=((0,), (0,), (10**640,)),
                                  distinct_count=2, span_dim=1)

        monkeypatch.setattr(cli, "enumerate_solutions", listing)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(["solve", "--system", files["ap3"],
                                      "--n", "1", "--format", fmt], capsys)
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, out) == (2, "")
        assert err == ("error: an exact integer of 641 digits exceeds the "
                       "limit of 640 digits for printing it\n")


def _reference_solve(system, n, flt, limit) -> dict:
    """The report of ``solve`` as it was built by enumerating every
    solution: the count of all of them, the first ``limit`` listed."""
    spec = fpsystems.read_system_file(system)
    points = fpsystems.PointSet.full_space(n, spec.p)
    sols = list(reference_enumerate_solutions(spec, points, flt))
    listed = [{"entries": s.entries, "distinct_count": s.distinct_count,
               "span_dim": s.span_dim} for s in sols[:limit]]
    return {"command": "solve",
            "result": {"mode": flt.mode, "points": len(points),
                       "count": len(sols), "listed": len(listed),
                       "solutions": listed}}


class TestCommands:
    @pytest.mark.parametrize("mode,flag", [
        ("any", []), ("not-all-equal", []), ("distinct", []),
        ("span-dim", ["--r", "2"]), ("distinct-count", ["--ell", "2"])])
    @pytest.mark.parametrize("system", ["ap3", "m2k4"])
    def test_solve_output_as_by_enumeration(self, files, capsys, system,
                                            mode, flag):
        # a count below, equal to and above the limit, and no listing
        flt = fpsystems.ClassFilter(mode, r=2 if "--r" in flag else None,
                                    ell=2 if "--ell" in flag else None)
        total = _reference_solve(files[system], 2, flt, 0)["result"]["count"]
        argv = ["solve", "--system", files[system], "--n", "2", "--mode",
                mode, *flag, "--no-timestamp"]
        for extra, limit in ((["--limit", str(total + 1)], total + 1),
                             (["--limit", str(total)], total),
                             (["--limit", str(total - 1)], total - 1),
                             (["--limit", "0"], 0), (["--count-only"], 0)):
            doc = _reference_solve(files[system], 2, flt, limit)
            rows = reference_rows(json.loads(json.dumps(doc)))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [["key", "value"]] + rows)
            for fmt, out in (
                    ("json", reference_render(doc)),
                    ("text", "".join(f"{k} = {v}\n" for k, v in rows)),
                    ("csv", buf.getvalue())):
                assert run_cli(argv + extra + ["--format", fmt],
                               capsys) == (0, out, ""), (extra, fmt)

    @pytest.mark.parametrize("extra,most", [
        (["--limit", "5"], 5), (["--limit", "81"], 81),
        (["--limit", "100"], 100), (["--limit", "0"], 0),
        (["--count-only"], 0), (["--count-only", "--limit", "7"], 0)])
    def test_solve_lists_up_to_the_limit(self, files, capsys, monkeypatch,
                                         extra, most):
        # the listing is advanced at most --limit times, and never under
        # --count-only; the count of x+y+z=0 over F_3^2 stays 81
        solutions = cli.enumerate_solutions
        advanced = []

        class Counted:
            def __init__(self, args):
                self.it = solutions(*args)

            def __iter__(self):
                return self

            def __next__(self):
                advanced.append(None)
                return next(self.it)

        monkeypatch.setattr(cli, "enumerate_solutions",
                            lambda *args: Counted(args))
        code, data, _ = run_json(["solve", "--system", files["ap3"],
                                  "--n", "2"] + extra, capsys)
        assert code == 0
        assert len(advanced) <= most
        assert data["result"]["count"] == 81
        assert data["result"]["listed"] == min(most, 81)

    @pytest.mark.parametrize("mode", ["any", "distinct"])
    def test_solve_count_memory_as_the_point_set(self, tmp_path, capsys, mode):
        # x = y over F_3^9 walks 3^9 points with one free position; the
        # count's labels must take room linear in the point set, where
        # one bit per point makes its pool quadratic (32 MiB here)
        system = tmp_path / "k2.system"
        system.write_text("p=3 m=1 k=2\n1 2\n")
        tracemalloc.start()
        try:
            fpsystems.PointSet.full_space(9, 3)._index_view
            base = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code, data, _ = run_json(["solve", "--system", str(system), "--n",
                                      "9", "--count-only", "--mode", mode],
                                     capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert data["result"]["count"] == (3**9 if mode == "any" else 0)
        assert peak < 2 * base, (peak, base)

    def test_solve_distinct_count(self, files, capsys):
        code, data, _ = run_json(["solve", "--system", files["ap3"],
                                  "--n", "1", "--mode", "distinct"], capsys)
        assert code == 0
        assert data["result"]["count"] == 6
        assert len(data["result"]["solutions"]) == 6

    def test_solve_limit_above_maxsize_lists_everything(self, files, capsys):
        # islice refused a stop above sys.maxsize with an internal error
        code, data, _ = run_json(["solve", "--system", files["ap3"], "--n", "1",
                                  "--limit", "100000000000000000000"], capsys)
        assert code == 0
        assert data["result"]["count"] == 9
        assert data["result"]["listed"] == len(data["result"]["solutions"]) == 9

    def test_solve_limit_and_count_only(self, files, capsys):
        _, data, _ = run_json(["solve", "--system", files["ap3"], "--n", "1",
                               "--limit", "2"], capsys)
        assert data["result"]["count"] == 9
        assert data["result"]["listed"] == 2
        _, data, _ = run_json(["solve", "--system", files["ap3"], "--n", "1",
                               "--count-only"], capsys)
        assert data["result"]["solutions"] == []

    def test_weight_lines_as_digit_strings(self, files, capsys):
        code, data, _ = run_json(["weight", "--tuple", "1,0;2,0;0,1",
                                  "--p", "3"], capsys)
        assert code == 0
        lines = data["result"]["weight"]["lines"]
        assert lines
        assert all(isinstance(line, str) and line.isdigit() is False
                   or line.isdigit() for line in lines)
        assert all(set(line) <= set("012") for line in lines)

    def test_weight_entries_printed_reduced(self, capsys):
        code, data, _ = run_json(["weight", "--tuple", "4,0", "--p", "3"],
                                 capsys)
        assert code == 0
        assert data["result"]["entries"] == [[1, 0]]

    def test_zero_dimensional_point_space(self, files, capsys):
        # F_p^0 = {()} is a point space, not a missing one
        code, data, err = run_json(["solve", "--system", files["ap3"],
                                    "--n", "0"], capsys)
        assert code == 0, err
        assert data["result"]["count"] == 1
        code, data, err = run_json(["slicerank", "identity", "--system",
                                    files["ap3"], "--n", "0"], capsys)
        assert code == 0, err
        assert data["result"]["length"] == 1

    def test_weight_checks_on_solution(self, files, capsys):
        code, data, _ = run_json(["weight", "--tuple", "1;1;1", "--p", "3",
                                  "--system", files["ap3"],
                                  "--check-properties", "--check-partition"],
                                 capsys)
        assert code == 0
        assert data["result"]["properties"]["ok"] is True
        assert data["result"]["partition"]["lemma_ok"] is True

    def test_slicerank_rank_with_partition(self, files, capsys):
        code, data, _ = run_json(["slicerank", "rank", "--tensor",
                                  files["diag"], "--partition", "0,1,2"],
                                 capsys)
        assert code == 0
        assert data["result"]["rank"] == 2

    def test_slicerank_antichain_rank(self, files, capsys):
        code, data, _ = run_json(["slicerank", "rank", "--tensor",
                                  files["tensor"]], capsys)
        assert code == 0
        assert data["result"]["rank"] == 2

    def test_slicerank_identity(self, files, capsys):
        code, data, _ = run_json(["slicerank", "identity", "--system",
                                  files["ap3"], "--n", "1", "--samples", "40",
                                  "--seed", "3"], capsys)
        assert code == 0
        assert data["result"]["identity_holds"] is True
        assert data["seed"] == 3

    def test_slicerank_diagonal(self, capsys):
        code, data, _ = run_json(["slicerank", "diagonal", "--length", "4",
                                  "--k", "3"], capsys)
        assert code == 0
        assert data["result"]["rank"] == 4
        assert data["result"]["expected"] == 4

    def test_slicerank_diagonal_length_twelve(self, capsys, deadline):
        with deadline(2):
            code, data, _ = run_json(["slicerank", "diagonal", "--length", "12",
                                      "--k", "4"], capsys)
        assert code == 0
        assert data["result"]["rank"] == 12

    def test_slicerank_diagonal_length_one(self, capsys):
        code, data, _ = run_json(["slicerank", "diagonal", "--length", "1",
                                  "--k", "20"], capsys)
        assert code == 0
        assert data["result"]["rank"] == 1

    def test_slicerank_bound(self, files, capsys):
        code, data, _ = run_json(["slicerank", "bound", "--system",
                                  files["ap3"], "--n", "2"], capsys)
        assert code == 0
        assert data["result"]["bound"] == pytest.approx(22.7718, abs=1e-3)

    def test_sample_steps_report_survivors(self, files, capsys):
        code, data, _ = run_json(["sample", "step-distinct", "--system",
                                  files["ap3"], "--n", "3", "--exclude-zero",
                                  "--d", "2", "--seed", "1"], capsys)
        assert code == 0
        result = data["result"]
        assert result["surviving"] == len(result["survivors"]["points"])

    def test_extremal_exhaustive(self, files, capsys):
        code, data, _ = run_json(["extremal", "--system", files["ap3"],
                                  "--n", "2"], capsys)
        assert code == 0
        assert data["result"]["best_size"] == 4
        assert data["result"]["optimal"] is True

    def test_extremal_options(self, files, capsys):
        code, data, _ = run_json(["extremal", "--system", files["ap3"],
                                  "--n", "2", "--no-symmetry"], capsys)
        assert code == 0
        assert data["result"]["best_size"] == 4

    def test_extremal_greedy(self, files, capsys):
        code, data, _ = run_json(["extremal", "--system", files["ap3"],
                                  "--n", "2", "--greedy", "--restarts", "3",
                                  "--seed", "6"], capsys)
        assert code == 0
        assert data["seed"] == 6
        assert data["result"]["optimal"] is False
        assert data["result"]["best_size"] <= 4

    def test_verify_bounded_statement(self, files, capsys):
        code, data, _ = run_json(["verify", "--system", files["ap3"],
                                  "--n", "1", "--theorem", "tao"], capsys)
        assert code == 0
        assert data["result"]["holds"] is True
        assert data["result"]["best_size"] == 2

    def test_verify_distinct_statement(self, files, capsys):
        code, data, _ = run_json(["verify", "--system", files["s531"],
                                  "--n", "1", "--theorem", "distinct"],
                                 capsys)
        assert code == 0
        result = data["result"]
        assert result["witness_found"] is True
        assert result["best_size"] == 2
        assert result["margin"] == 2
        assert result["holds"] is None

    def test_verify_rank_statement(self, files, capsys):
        code, data, _ = run_json(["verify", "--system", files["k4"],
                                  "--n", "1", "--theorem", "rank",
                                  "--r", "2"], capsys)
        assert code == 0
        assert data["result"]["witness_found"] is False

    @pytest.mark.parametrize("zero,best_size,margin,space", [
        ("--include-zero", 3, 0, "p^n"),
        ("--exclude-zero", 2, 0, "p^n - 1"),
    ])
    def test_verify_margin_over_the_searched_space(self, zero, best_size,
                                                   margin, space, tmp_path,
                                                   capsys):
        # with zero kept the margin read -1, against the nonzero points
        system = tmp_path / "five.system"
        system.write_text("p=3 m=1 k=5\n1 1 1 1 1\n")
        code, data, _ = run_json(["verify", "--system", str(system), "--n",
                                  "1", "--theorem", "rank", "--r", "3", zero],
                                 capsys)
        assert code == 0
        result = data["result"]
        assert (result["best_size"], result["margin"]) == (best_size, margin)
        assert result["notes"] == ("constants are not effective; margin is "
                                   f"against {space}")

    def test_verify_zero_overrides(self, files, capsys):
        code, data, _ = run_json(["verify", "--system", files["s531"],
                                  "--n", "1", "--theorem", "distinct",
                                  "--include-zero"], capsys)
        assert code == 0
        code2, data2, _ = run_json(["verify", "--system", files["ap3"],
                                    "--n", "1", "--theorem", "tao",
                                    "--exclude-zero"], capsys)
        assert code2 == 0


INT = st.integers(-2, 5).map(str)
# point spaces F_p^n up to n = 2 (at most 25 points) are searched; the
# larger sizes are answered only by a cap: 3^25 points were built, and
# 3^(10^8) was formed, before any refusal
DIM = st.one_of(st.integers(-2, 2).map(str),
                st.sampled_from(["25", "100000000"]))
PRIME = st.integers(0, 7).map(str)
# blocks like '1,0;2,1' of one width, or short text with stray characters
BLOCKS = st.one_of(
    st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(INT, min_size=width, max_size=width).map(",".join),
        min_size=1, max_size=4).map(";".join)),
    st.text(alphabet="0123,; x", max_size=8))
SYSTEM = st.sampled_from(["@ap3", "@bad", "@s531", "@k4", "@m2k4"])
POINT_SOURCE = [("--points", st.just("@sparse")), ("--n", DIM),
                ("--exclude-zero", None)]
FILTER = [("--mode", st.sampled_from(["any", "not-all-equal", "distinct",
                                      "span-dim", "distinct-count"])),
          ("--r", INT), ("--ell", INT)]
SEED = [("--seed", INT)]
# containment sizes whose work only the caps bound: a 100 x 200 trial
# took 0.1 s, and the probability at n = 5000 had a 39.6M-bit ceiling
CONTAINMENT_DIM = st.one_of(INT, st.sampled_from(["200", "2000", "5000"]))
TRIALS = st.one_of(INT, st.sampled_from(["10000", "1000000"]))
TOL = st.sampled_from(["1e-12", "0.2", "0", "-1", "1e-300", "nan"])
TENSOR = st.sampled_from(["@tensor", "@diag"])
COMMON = [("--format", st.sampled_from(["json", "text", "csv"]))]
# phi costs O(1) per bisection step, so Gamma takes large primes too
GAMMA_PRIME = st.one_of(PRIME, st.sampled_from(["1009", "1000003"]))
# each leaf command: its words, its required flags, its optional flags;
# a flag's strategy gives its value, None marks a switch
FUZZ_GRAMMAR = [
    (["gamma"], [("--p", GAMMA_PRIME), ("--m", INT), ("--k", INT)],
     [("--n", INT), ("--tol", TOL)]),
    (["validate"], [("--system", SYSTEM)], []),
    (["solve"], [("--system", SYSTEM)],
     POINT_SOURCE + FILTER + [("--limit", INT), ("--count-only", None)]),
    (["weight"], [("--tuple", BLOCKS), ("--p", PRIME)],
     [("--system", SYSTEM), ("--check-properties", None),
      ("--check-partition", None)]),
    (["slicerank", "rank"], [("--tensor", TENSOR)],
     [("--partition", BLOCKS), ("--cap-support", INT)]),
    (["slicerank", "identity"], [("--system", SYSTEM)],
     POINT_SOURCE + SEED + [("--samples", INT)]),
    (["slicerank", "diagonal"], [("--length", INT), ("--k", INT)],
     [("--cap-support", INT)]),
    (["slicerank", "bound"], [("--system", SYSTEM), ("--n", INT)], []),
    (["sample", "containment"],
     [("--p", PRIME), ("--n", CONTAINMENT_DIM), ("--d", CONTAINMENT_DIM),
      ("--s", CONTAINMENT_DIM)],
     [("--trials", TRIALS),
      ("--method", st.sampled_from(["auto", "exhaustive", "monte-carlo"]))]
     + SEED),
    (["sample", "step-distinct"], [("--system", SYSTEM), ("--d", INT)],
     POINT_SOURCE + SEED + [("--ell", INT), ("--cap-step", INT)]),
    (["sample", "step-weight"], [("--system", SYSTEM), ("--d", INT)],
     POINT_SOURCE + SEED + [("--w", INT), ("--cap-step", INT)]),
    (["extremal"], [("--system", SYSTEM), ("--n", DIM)],
     FILTER + SEED + [("--exclude-zero", None), ("--greedy", None),
                      ("--restarts", INT), ("--no-symmetry", None),
                      ("--cap-points", INT)]),
    (["verify"], [("--system", SYSTEM), ("--n", DIM),
                  ("--theorem", st.sampled_from(["tao", "distinct", "rank"]))],
     [("--r", INT), ("--exclude-zero", None), ("--include-zero", None),
      ("--cap-points", INT)]),
]


def _flat_report(argv, out):
    """A printed report as a map from dotted key to value text, in
    whichever --format it was printed."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        rows = []
        cli._flatten(json.loads(out), "", rows)
        return {key: str(value) for key, value in rows}
    if fmt == "csv":
        return dict(list(csv.reader(io.StringIO(out)))[1:])
    return dict(line.split(" = ", 1) for line in out.splitlines())


@st.composite
def fuzz_argv(draw):
    words, required, optional = draw(st.sampled_from(FUZZ_GRAMMAR))
    flags = required + [f for f in optional + COMMON if draw(st.booleans())]
    argv = list(words)
    for flag, value in flags:
        argv += [flag] if value is None else [flag, draw(value)]
    return argv


class TestFuzz:
    @settings(max_examples=300)
    @given(argv=fuzz_argv())
    @example(argv=["weight", "--tuple", "1,0", "--p", "0"])
    def test_every_run_ends_in_a_contract_code(self, argv, files):
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--no-timestamp"])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if argv[0] == "gamma" and "--n" in argv and code == 0:
            report = _flat_report(argv, out.getvalue())
            if "result.monomials.bound" in report:
                # one Gamma per report, at the given tolerance
                power = float(report["result.power"])
                k = int(argv[argv.index("--k") + 1])
                assert float(report["result.monomials.bound"]) == power, argv
                assert float(report["result.set_size_bound"]) == k * power, argv


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fpsystems", "gamma", "--p", "3",
             "--m", "1", "--k", "3", "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["command"] == "gamma"
