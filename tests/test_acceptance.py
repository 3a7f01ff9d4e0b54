"""End-to-end checks, one per headline guarantee, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them) and enforcing its
runtime budget.  Numeric targets are frozen from independent oracles;
set searches are re-verified by direct substitution."""

import json
import time
from itertools import combinations, product

import pytest

from fpsystems import (
    AvoidanceProblem,
    ClassFilter,
    OrderFamily,
    PointSet,
    SystemSpec,
    Tensor,
    antichain_slice_rank,
    corollary_orders,
    count_interesting_tuples,
    enumerate_solutions,
    exhaustive_max,
    gamma,
    max_disjoint_span_family,
    monomial_count,
    partition_structure,
    sampling_step_distinct,
    sampling_step_weight,
    validate,
    verify_containment,
    verify_polynomial_identity,
    verify_theorem_bound,
    verify_weight_properties,
)
from fpsystems.cli import main
from fpsystems.seeds import spawn
from .oracles import (
    brute_monomial_count,
    brute_solutions,
    grid_min_ratio,
    random_antichain,
    rank_by_minors,
    unpruned_slice_rank,
    weight_by_definition,
)

GRID = [(p, m, k)
        for p in (2, 3, 5, 7)
        for m in (1, 2)
        for k in range(2 * m + 1, 2 * m + 5)]


def _check(num: int, label: str, ok: bool, elapsed: float,
           budget: float | None = None) -> None:
    timed_out = budget is not None and elapsed > budget
    status = "PASS" if ok and not timed_out else "FAIL"
    print(f"[{num:2d}/13] {status}  {label}  ({elapsed:.2f}s)")
    assert ok, f"{label}: checks failed"
    if timed_out:
        raise AssertionError(
            f"{label}: {elapsed:.2f}s exceeds the {budget}s budget")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    for name, text in (
        ("ap3", "p=3 m=1 k=3\n1 1 1\n"),
        ("s531", "p=5 m=1 k=3\n1 3 1\n"),
        ("k4", "p=3 m=1 k=4\n1 1 2 2\n"),
    ):
        path = root / f"{name}.system"
        path.write_text(text)
        paths[name] = str(path)
    tensor = root / "pair.tensor"
    tensor.write_text("2 2 2\n0 1 1\n1 0 1\n")
    paths["tensor"] = str(tensor)
    return paths


def test_01_base_constant_matches_grid_oracle():
    start = time.perf_counter()
    ok = abs(gamma(3, 1, 3).gamma - 2.75510) <= 1e-4
    ok = ok and abs(gamma(2, 1, 3).gamma - 1.88988) <= 1e-4
    slowest = 0.0
    for p, m, k in GRID:
        t0 = time.perf_counter()
        ours = gamma(p, m, k).gamma
        oracle = grid_min_ratio(p, (p - 1) * m / k, step=1e-6)
        slowest = max(slowest, time.perf_counter() - t0)
        ok = ok and abs(ours - oracle) <= 1e-4
    ok = ok and slowest < 1.0
    _check(1, "base constant matches the independent grid oracle",
           ok, time.perf_counter() - start)


def test_02_base_constant_below_p_off_boundary():
    start = time.perf_counter()
    ok = True
    for p, m, k in GRID:
        res = gamma(p, m, k)
        ok = ok and res.gamma < p and not res.at_boundary
    for p in (2, 3, 5, 7):
        for m in (1, 2):
            res = gamma(p, m, 2 * m)
            ok = ok and res.at_boundary and res.gamma == pytest.approx(p)
    _check(2, "base constant strictly below p; equals p at k = 2m",
           ok, time.perf_counter() - start, budget=5.0)


def test_03_monomial_count_bounded_and_exact():
    start = time.perf_counter()
    frozen = monomial_count(2, 1, 3, 3)
    ok = frozen.count == 4 and frozen.threshold == 1
    for p, m, k in GRID:
        for n in range(1, 13):
            ok = ok and monomial_count(p, m, k, n).holds
    for p, m, k in GRID:
        if p > 3:
            continue
        for n in range(1, 9):
            ok = ok and (monomial_count(p, m, k, n).count
                         == brute_monomial_count(p, m, k, n))
    _check(3, "monomial count under the certified power, equal to brute "
              "enumeration", ok, time.perf_counter() - start, budget=10.0)


def test_04_indicator_matches_product_formula():
    start = time.perf_counter()
    rng = spawn(0, "acceptance", "identity")
    ok = True
    for i in range(25):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        row = [rng.randrange(p) for _ in range(k)]
        if not any(row):
            row[0] = 1
        constants = None
        if i % 3 == 0:
            constants = [tuple(rng.randrange(p) for _ in range(n))]
        spec = SystemSpec.make([row], p, constants)
        length = rng.randint(1, 6)
        columns = [[tuple(rng.randrange(p) for _ in range(n))
                    for _ in range(length)] for _ in range(k)]
        assert length**k <= 10**5
        ok = ok and verify_polynomial_identity(spec, columns)
    _check(4, "indicator tensor equals the product formula on 25 randomized "
              "instances", ok, time.perf_counter() - start, budget=30.0)


def test_05_diagonal_rank_equals_side_length():
    start = time.perf_counter()
    ok = True
    for k in (3, 4):
        for length in range(1, 9):
            tensor = Tensor.from_function(
                3, length, k, lambda idx: 1 if len(set(idx)) == 1 else 0)
            orders = corollary_orders((tuple(range(k)),), length)
            ok = ok and antichain_slice_rank(tensor, orders) == length
    _check(5, "diagonal tensor rank equals its side length under block "
              "orders", ok, time.perf_counter() - start, budget=10.0)


def test_06_branch_and_bound_matches_unpruned():
    start = time.perf_counter()
    ok = True
    checked = 0
    for i in range(20):
        rng = spawn(0, "acceptance", "antichain", i)
        k = 3 if i % 5 else 4
        max_size = 10 if k == 3 else 7
        length = 4 + (i % 3)
        support = random_antichain(rng, length, k, max_size)
        if not support:
            continue
        tensor = Tensor.from_entries(3, length, k,
                                     {idx: 1 + (i % 2) for idx in support})
        orders = OrderFamily.all_increasing(length, k)
        ok = ok and (antichain_slice_rank(tensor, orders)
                     == unpruned_slice_rank(support, k))
        checked += 1
    ok = ok and checked == 20
    _check(6, "branch-and-bound rank equals unpruned recursion on 20 random "
              "antichains", ok, time.perf_counter() - start, budget=60.0)


def test_07_containment_exact_and_sampled():
    start = time.perf_counter()
    ok = True
    for p, n_max in ((2, 4), (3, 3)):
        for n in range(1, n_max + 1):
            for d in range(0, n + 1):
                for s in range(1, n + 1):
                    check = verify_containment(p, n, d, s,
                                               method="exhaustive")
                    ok = ok and check.within_3sigma
    known = verify_containment(2, 3, 2, 1, method="exhaustive")
    ok = ok and float(known.exact) == pytest.approx(3 / 7)
    mc = verify_containment(2, 4, 2, 1, trials=10**5, seed=0,
                            method="monte-carlo")
    ok = ok and mc.within_3sigma
    _check(7, "containment probability equals subspace enumeration; "
              "sampling inside 3 sigma", ok, time.perf_counter() - start,
           budget=60.0)


def test_08_weight_facts_on_every_solution():
    start = time.perf_counter()
    ok = True
    solutions = 0
    for coeffs in ([(1, 1, 1)], [(1, 1, 2, 2)]):
        spec = SystemSpec.make(coeffs, 3)
        for n in (1, 2, 3):
            points = PointSet.full_space(n, 3, include_zero=False)
            for sol in enumerate_solutions(spec, points):
                solutions += 1
                props = verify_weight_properties(sol.entries, 3,
                                                 sys_spec=spec)
                part = partition_structure(sol.entries, spec)
                ok = ok and props.ok and part.lemma_ok
    ok = ok and solutions > 0
    _check(8, f"weight facts hold on all {solutions} enumerated solutions",
           ok, time.perf_counter() - start, budget=300.0)


def test_09_exhaustive_maxima_meet_frozen_values():
    start = time.perf_counter()
    spec = SystemSpec.make([(1, 1, 1)], 3)
    ok = True
    for n, expected, ceiling in ((1, 2, 8.27), (2, 4, 22.8)):
        problem = AvoidanceProblem(spec, ClassFilter.not_all_equal(), n)
        result = exhaustive_max(problem)
        bound = 3 * gamma(3, 1, 3).gamma ** n
        ok = ok and result.best_size == expected
        ok = ok and result.best_size <= bound <= ceiling
        leftover = [tup for tup in brute_solutions([(1, 1, 1)], None, 3,
                                                   list(result.witness), n)
                    if len(set(tup)) > 1]
        ok = ok and not leftover
    _check(9, "exhaustive maxima 2 and 4 sit under the certified ceiling, "
              "witnesses re-verified", ok, time.perf_counter() - start,
           budget=120.0)


def test_10_distinct_witness_and_margin():
    start = time.perf_counter()
    spec = SystemSpec.make([(1, 3, 1)], 5)
    report = validate(spec)
    ok = report.rows_sum_zero and report.generic_minors
    for n, frozen_best in ((1, 2), (2, 6)):
        points = [v for v in product(range(5), repeat=n) if any(v)]
        found = any(len(set(tup)) == 3
                    for tup in brute_solutions([(1, 3, 1)], None, 5,
                                               points, n))
        ok = ok and found
        problem = AvoidanceProblem(spec, ClassFilter.distinct(), n,
                                   exclude_zero=True)
        result = verify_theorem_bound(problem, "distinct")
        space = 5**n - 1
        ok = ok and result.witness_found
        ok = ok and result.best_size == frozen_best < space
        ok = ok and result.margin == space - result.best_size > 0
    _check(10, "distinct-entry witness found; avoiding sets leave a "
               "positive margin", ok, time.perf_counter() - start,
           budget=120.0)


def test_11_deletion_steps_pass_independent_rescans():
    # For x + y + z = 0 the remaining entry of any pair is -(x + y), so
    # the offending structures can be recounted from scratch: rank-2
    # pairs extend inside the full set (distinct step) and rank-2 pairs
    # closing inside the subspace carry weight 5 (weight step).
    start = time.perf_counter()
    spec = SystemSpec.make([(1, 1, 1)], 3)
    points = PointSet.full_space(3, 3, include_zero=False)
    full = set(points.points)
    ok = True
    for i in range(20):
        rng = spawn(0, "acceptance", "step-distinct", i)
        rep = sampling_step_distinct(spec, points, 3, 2, rng)
        inside = sorted(set(rep.survivors.points) | set(rep.removed))
        recount = 0
        for x, y in product(inside, repeat=2):
            third = tuple((-(a + b)) % 3 for a, b in zip(x, y))
            if rank_by_minors([list(x), list(y)], 3) == 2 and third in full:
                recount += 3  # one structure per index pair
        ok = ok and recount == rep.deleted > 0
        ok = ok and rep.surviving == rep.kept - len(rep.removed)
        survivors = set(rep.survivors.points)
        for x, y in product(sorted(survivors), repeat=2):
            third = tuple((-(a + b)) % 3 for a, b in zip(x, y))
            if rank_by_minors([list(x), list(y)], 3) == 2 and third in full:
                ok = False
    for i in range(20):
        rng = spawn(0, "acceptance", "step-weight", i)
        rep = sampling_step_weight(spec, points, 5, 2, rng)
        inside = sorted(set(rep.survivors.points) | set(rep.removed))
        inside_set = set(inside)
        recount = 0
        for x, y in product(inside, repeat=2):
            third = tuple((-(a + b)) % 3 for a, b in zip(x, y))
            if (third in inside_set
                    and weight_by_definition([x, y, third], 3) == 5):
                recount += 1
        ok = ok and recount == rep.deleted > 0
        ok = ok and rep.surviving == rep.kept - len(rep.removed)
        survivors = set(rep.survivors.points)
        for x, y in product(sorted(survivors), repeat=2):
            third = tuple((-(a + b)) % 3 for a, b in zip(x, y))
            if (third in survivors
                    and weight_by_definition([x, y, third], 3) == 5):
                ok = False
    _check(11, "deletion-step structure counts and survivors pass "
               "independent re-scans over 20 seeded runs each",
           ok, time.perf_counter() - start, budget=300.0)


def test_12_counting_ceilings_hold():
    start = time.perf_counter()
    ok = True
    ap3 = SystemSpec.make([(1, 1, 1)], 3)
    for n in (1, 2):
        points = PointSet.full_space(n, 3, include_zero=False)
        for idx in combinations(range(3), 2):
            for ell in (2, 3):
                ok = ok and count_interesting_tuples(ap3, points, idx,
                                                     ell).holds
        for w in (1, 2, 3):
            family = max_disjoint_span_family(ap3, points, (), (), w)
            ok = ok and family.holds and family.maximal_certified
    k4 = SystemSpec.make([(1, 1, 2, 2)], 3)
    points = PointSet.full_space(2, 3, include_zero=False)
    for idx in combinations(range(4), 2):
        ok = ok and count_interesting_tuples(k4, points, idx, 4).holds
    from fpsystems import weight

    seen = set()
    for sol in enumerate_solutions(k4, points):
        rep = weight(sol.entries, 3)
        key = (rep.omega, rep.chosen)
        if key in seen or k4.k - len(rep.chosen) < 3:
            continue
        seen.add(key)
        fixed = tuple(sol.entries[i] for i in rep.chosen)
        family = max_disjoint_span_family(k4, points, rep.chosen, fixed,
                                          rep.omega)
        ok = ok and family.holds and family.maximal_certified
    ok = ok and len(seen) >= 2
    _check(12, "interesting-tuple and disjoint-family ceilings hold on "
               "every desk instance", ok, time.perf_counter() - start,
           budget=300.0)


def test_13_cli_runs_are_byte_identical(cli_files, capsys, monkeypatch):
    start = time.perf_counter()
    monkeypatch.delenv("SEED", raising=False)
    commands = [
        ["gamma", "--p", "3", "--m", "1", "--k", "3", "--n", "2"],
        ["validate", "--system", cli_files["ap3"]],
        ["solve", "--system", cli_files["ap3"], "--n", "1",
         "--mode", "distinct"],
        ["weight", "--tuple", "1,0;2,0;0,1", "--p", "3",
         "--check-properties"],
        ["slicerank", "rank", "--tensor", cli_files["tensor"]],
        ["slicerank", "identity", "--system", cli_files["ap3"], "--n", "1",
         "--samples", "30", "--seed", "2"],
        ["slicerank", "diagonal", "--length", "3", "--k", "3"],
        ["slicerank", "bound", "--system", cli_files["ap3"], "--n", "2"],
        ["sample", "containment", "--p", "2", "--n", "4", "--d", "2",
         "--s", "1", "--method", "monte-carlo", "--trials", "100",
         "--seed", "5"],
        ["sample", "step-distinct", "--system", cli_files["ap3"], "--n", "3",
         "--exclude-zero", "--d", "2", "--seed", "1"],
        ["sample", "step-weight", "--system", cli_files["ap3"], "--n", "3",
         "--exclude-zero", "--d", "2", "--w", "2", "--seed", "1"],
        ["extremal", "--system", cli_files["ap3"], "--n", "2"],
        ["extremal", "--system", cli_files["ap3"], "--n", "2", "--greedy",
         "--restarts", "2", "--seed", "6"],
        ["verify", "--system", cli_files["s531"], "--n", "1",
         "--theorem", "distinct"],
        ["verify", "--system", cli_files["k4"], "--n", "1",
         "--theorem", "rank", "--r", "2"],
    ]
    ok = True
    for argv in commands:
        code_a = main(argv + ["--no-timestamp"])
        out_a = capsys.readouterr().out
        code_b = main(argv + ["--no-timestamp"])
        out_b = capsys.readouterr().out
        ok = ok and code_a == code_b and out_a == out_b
        ok = ok and json.loads(out_a) is not None
    with capsys.disabled():
        _check(13, "seeded command line runs are byte-identical",
               ok, time.perf_counter() - start)
