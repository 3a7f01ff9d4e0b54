import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpsystems import cli
from fpsystems.cli import build_parser, main

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
    ], ids=["solve-r", "solve-ell", "verify-r"])
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


class TestCommands:
    def test_solve_distinct_count(self, files, capsys):
        code, data, _ = run_json(["solve", "--system", files["ap3"],
                                  "--n", "1", "--mode", "distinct"], capsys)
        assert code == 0
        assert data["result"]["count"] == 6
        assert len(data["result"]["solutions"]) == 6

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
# point spaces F_p^n stop at n = 2 (at most 25 points), so no run is long
DIM = st.integers(-2, 2).map(str)
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
TOL = st.sampled_from(["1e-12", "0", "-1", "1e-300", "nan"])
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
     [("--p", PRIME), ("--cap-support", INT)]),
    (["slicerank", "bound"], [("--system", SYSTEM), ("--n", INT)], []),
    (["sample", "containment"],
     [("--p", PRIME), ("--n", INT), ("--d", INT), ("--s", INT)],
     [("--trials", INT),
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


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fpsystems", "gamma", "--p", "3",
             "--m", "1", "--k", "3", "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["command"] == "gamma"
