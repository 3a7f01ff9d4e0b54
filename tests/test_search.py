import random
from itertools import combinations, product

import pytest

from fpsystems import (
    AvoidanceProblem,
    CapExceededError,
    ClassFilter,
    PointSet,
    SystemSpec,
    enumerate_solutions,
    exhaustive_max,
    gamma,
    greedy_lower_bound,
    verify_theorem_bound,
)
from fpsystems import linsystem, search
from fpsystems.fplinalg import rref_with_pivots
from fpsystems.seeds import spawn

from .oracles import (
    reference_exhaustive_max,
    reference_greedy,
    reference_greedy_passes,
)


def subset_avoids(sys_spec, flt, subset, n):
    ps = PointSet.make(subset, sys_spec.p, n)
    return next(iter(enumerate_solutions(sys_spec, ps, flt)), None) is None


def brute_max_avoiding(sys_spec, flt, n, exclude_zero=False):
    pts = [v for v in product(range(sys_spec.p), repeat=n)
           if not (exclude_zero and not any(v))]
    for size in range(len(pts), 0, -1):
        for subset in combinations(pts, size):
            if subset_avoids(sys_spec, flt, subset, n):
                return size
    return 0


# (coeffs, p, constants, filter, n, exclude_zero): affine, span-dim with
# k = 4, distinct-count, exclude-zero, two equations, columns that lie in
# every pivot basis, systems with no free position left to range, and
# repeated coefficient columns, which the greedy pins once per column
REFERENCE_GRID = [
    ([(1, 1, 1)], 3, None, ClassFilter.not_all_equal(), 2, False),
    ([(1, 1, 1)], 3, [(1, 0)], ClassFilter.not_all_equal(), 2, False),
    ([(1, 1, 1)], 5, [(1,)], ClassFilter.not_all_equal(), 1, False),
    ([(1, 1, 2, 2)], 3, None, ClassFilter.span_at_least(2), 2, False),
    ([(1, 1, 1, 1)], 2, None, ClassFilter.span_at_least(3), 3, False),
    ([(1, 1, 2, 2)], 3, None, ClassFilter.distinct_at_least(3), 2, False),
    ([(1, 1, 1)], 3, None, ClassFilter.distinct(), 2, True),
    ([(1, 1, 1, 0), (0, 1, 2, 2)], 3, None, ClassFilter.not_all_equal(), 2,
     False),
    ([(1, 1, 1, 0), (0, 1, 2, 2)], 3, None, ClassFilter.any(), 2, False),
    ([(1, 0, 0)], 3, None, ClassFilter.not_all_equal(), 2, False),
    ([(1, 0, 0)], 3, None, ClassFilter.any(), 2, False),
    ([(1, 1, 0), (0, 0, 1)], 3, None, ClassFilter.not_all_equal(), 2, False),
    ([(1, 1)], 3, None, ClassFilter.not_all_equal(), 2, False),
    ([(1, 0), (0, 1)], 3, [(1, 0), (0, 2)], ClassFilter.any(), 2, False),
    ([(1, 1, 2, 2)], 3, None, ClassFilter.not_all_equal(), 2, False),
    ([(1, 1, 1, 0), (0, 1, 1, 1)], 3, None, ClassFilter.not_all_equal(), 2,
     False),
    ([(1,) * 6], 3, None, ClassFilter.distinct(), 1, False),
]


def grid_problem(coeffs, p, constants, flt, n, exclude_zero):
    spec = SystemSpec.make(coeffs, p, constants=constants)
    return AvoidanceProblem(spec, flt, n, exclude_zero=exclude_zero)


@pytest.mark.parametrize("case", REFERENCE_GRID,
                         ids=lambda c: f"{c[0]}-p{c[1]}-{c[3].mode}-n{c[4]}")
class TestAgainstReference:
    """The support-index search walks the same tree as the search that
    re-solves the system per candidate: same node count, size and
    witness, point for point."""

    def test_exhaustive(self, case):
        problem = grid_problem(*case)
        symmetries = (True, False) if problem.sys_spec.homogeneous else (False,)
        for symmetry in symmetries:
            for seed in range(3):
                order = list(problem.point_order())
                random.Random(seed).shuffle(order)
                got = exhaustive_max(problem, symmetry=symmetry,
                                     point_order=order)
                assert (got.best_size, got.witness.points, got.nodes) == \
                    reference_exhaustive_max(problem, symmetry, order)

    def test_greedy(self, case):
        problem = grid_problem(*case)
        got = greedy_lower_bound(problem)
        assert (got.best_size, got.witness.points, got.nodes) == \
            reference_greedy(problem)
        for seed in range(3):
            got = greedy_lower_bound(problem, restarts=2,
                                     rng=random.Random(seed))
            assert (got.best_size, got.witness.points, got.nodes) == \
                reference_greedy(problem, 2, random.Random(seed))


# greedy-only cases, larger than the grid above, on which the greedy's
# blocked set skips points (all but the m = 2 system, whose checks each
# have two open pivots and so block nothing): affine, exclude-zero, six
# positions in one column class, and a row not summing to zero, where
# points that are walked and rejected find points they must not block
GREEDY_GRID = [
    ([(1, 1, 1)], 3, None, ClassFilter.not_all_equal(), 3, False),
    ([(1, 1, 2)], 3, None, ClassFilter.distinct(), 2, False),
    ([(1, 1, 1)], 3, [(1, 0)], ClassFilter.not_all_equal(), 2, False),
    ([(1, 3, 1)], 5, None, ClassFilter.distinct(), 2, True),
    ([(1,) * 6], 3, None, ClassFilter.distinct(), 2, False),
    ([(1, 1, 1, 0), (0, 1, 2, 2)], 3, None, ClassFilter.not_all_equal(), 3,
     False),
]


@pytest.mark.parametrize("case", GREEDY_GRID,
                         ids=lambda c: f"{c[0]}-p{c[1]}-{c[3].mode}-n{c[4]}")
@pytest.mark.parametrize("restarts", [0, 2])
def test_greedy_against_reference(case, restarts):
    problem = grid_problem(*case)
    for seed in range(3 if restarts else 1):
        got = greedy_lower_bound(problem, restarts=restarts,
                                 rng=random.Random(seed))
        assert (got.best_size, got.witness.points, got.nodes) == \
            reference_greedy(problem, restarts, random.Random(seed))


def untouched_rows():
    """Rows that fail the test if the filter reads them."""
    raise AssertionError("rows read outside the span test")
    yield


class TestSupportFilter:
    """The filter the support index applies to each support's distinct
    points, against the row echelon rank, for every threshold the filter
    accepts."""

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
    def test_span_dim_matches_rank(self, p, n):
        order = list(product(range(p), repeat=n))
        for size in range(1, 5):
            for chosen in combinations(range(len(order)), size):
                rows = [order[i] for i in chosen]
                dim = len(rref_with_pivots(rows, p)[0])
                for r in range(1, 4):
                    flt = ClassFilter.span_at_least(r)
                    assert flt.admits_support(4, size, iter(rows), p) == (dim >= r)

    def test_span_test_stops_at_the_rth_pivot(self, monkeypatch):
        pivots = []
        rref = linsystem._rref

        def spy(work, ncols, p, limit=None):
            out = rref(work, ncols, p, limit)
            pivots.append(out[1])
            return out

        monkeypatch.setattr(linsystem, "_rref", spy)
        # rank 3: full elimination would reach the pivot in column 2
        rows = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
        assert ClassFilter.span_at_least(2).admits_support(3, 3, iter(rows), 3)
        assert ClassFilter.span_at_least(3).admits_support(3, 3, iter(rows), 3)
        assert pivots == [(0, 1), (0, 1, 2)]

    def test_zero_point_spans_nothing(self):
        flt = ClassFilter.span_at_least(1)
        assert not flt.admits_support(3, 1, iter([(0, 0)]), 3)
        assert flt.admits_support(3, 1, iter([(1, 0)]), 3)

    # admitted with 1 and with 2 distinct entries out of k = 3; a span
    # of dimension 3 needs 3 distinct points, so no case reads the rows
    @pytest.mark.parametrize("flt,expected", [
        (ClassFilter.any(), (True, True)),
        (ClassFilter.not_all_equal(), (False, True)),
        (ClassFilter.distinct(), (False, False)),
        (ClassFilter.distinct_at_least(2), (False, True)),
        (ClassFilter.span_at_least(3), (False, False)),
    ], ids=["any", "not-all-equal", "distinct", "distinct-count", "span-dim"])
    def test_rows_read_only_by_a_possible_span_test(self, flt, expected):
        assert tuple(flt.admits_support(3, distinct, untouched_rows(), 3)
                     for distinct in (1, 2)) == expected

    def test_problem_needs_span_threshold_two(self, sys_ap3):
        with pytest.raises(ValueError):
            AvoidanceProblem(sys_ap3, ClassFilter.span_at_least(1), 2)


class TestExhaustive:
    def test_cap_set_in_three_dimensions(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 3)
        result = exhaustive_max(problem)
        assert result.best_size == 9
        assert result.nodes == 10_504
        assert subset_avoids(sys_ap3, problem.mode, result.witness.points, 3)

    def test_known_values(self, sys_ap3):
        for n, expected in ((1, 2), (2, 4)):
            problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), n)
            result = exhaustive_max(problem)
            assert result.best_size == expected
            assert result.optimal
            assert len(result.witness) == expected

    @pytest.mark.parametrize("coeffs,p,n,flt", [
        ([(1, 1, 1)], 2, 2, ClassFilter.not_all_equal()),
        ([(1, 1, 1)], 2, 2, ClassFilter.distinct()),
        ([(1, 1, 1)], 3, 1, ClassFilter.not_all_equal()),
        ([(1, 1, 1)], 3, 1, ClassFilter.distinct()),
        ([(1, 1, 1)], 3, 2, ClassFilter.not_all_equal()),
        ([(1, 1, 1)], 3, 2, ClassFilter.span_at_least(2)),
        ([(1, 1, 2, 2)], 3, 1, ClassFilter.distinct_at_least(3)),
    ])
    def test_matches_subset_oracle(self, coeffs, p, n, flt):
        spec = SystemSpec.make(coeffs, p)
        problem = AvoidanceProblem(spec, flt, n)
        result = exhaustive_max(problem)
        assert result.best_size == brute_max_avoiding(spec, flt, n)

    def test_witness_avoids(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        result = exhaustive_max(problem)
        assert subset_avoids(sys_ap3, problem.mode, result.witness.points, 2)

    def test_order_independent(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        base = exhaustive_max(problem)
        reversed_order = tuple(reversed(problem.point_order()))
        other = exhaustive_max(problem, point_order=reversed_order)
        assert other.best_size == base.best_size

    def test_bad_point_order_rejected(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 1)
        with pytest.raises(ValueError):
            exhaustive_max(problem, point_order=[(0,), (1,)])

    def test_symmetry_off_agrees(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        on = exhaustive_max(problem, symmetry=True)
        off = exhaustive_max(problem, symmetry=False)
        assert on.best_size == off.best_size

    def test_distinct_impossible_when_space_too_small(self):
        # three pairwise distinct entries cannot fit in F_2, so the
        # whole space avoids and the maximum is p^n
        spec = SystemSpec.make([(1, 1, 1)], 2)
        problem = AvoidanceProblem(spec, ClassFilter.distinct(), 1)
        result = exhaustive_max(problem)
        assert result.best_size == 2

    def test_exclude_zero_order(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.distinct(), 2,
                                   exclude_zero=True)
        order = problem.point_order()
        assert len(order) == 8
        assert (0, 0) not in order
        result = exhaustive_max(problem)
        assert result.best_size == brute_max_avoiding(
            sys_ap3, problem.mode, 2, exclude_zero=True)

    def test_point_cap(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 5)
        with pytest.raises(CapExceededError):
            exhaustive_max(problem)

    def test_point_cap_checked_before_the_space(self, sys_ap3, monkeypatch):
        def no_space(*args, **kwargs):
            raise AssertionError("the point space was built")

        monkeypatch.setattr(PointSet, "full_space", no_space)
        problem = AvoidanceProblem(sys_ap3, ClassFilter.distinct(), 5,
                                   exclude_zero=True)
        with pytest.raises(CapExceededError, match="242 points"):
            exhaustive_max(problem)
        monkeypatch.setattr(search, "GREEDY_POINT_CAP", 81)
        with pytest.raises(CapExceededError, match="242 points"):
            greedy_lower_bound(problem)
        with pytest.raises(CapExceededError, match="242 points"):
            verify_theorem_bound(problem, "distinct")

    def test_symmetry_needs_homogeneous(self):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1,)])
        problem = AvoidanceProblem(spec, ClassFilter.not_all_equal(), 1)
        with pytest.raises(ValueError):
            exhaustive_max(problem, symmetry=True)
        result = exhaustive_max(problem)
        assert result.best_size == brute_max_avoiding(spec, problem.mode, 1)

    def test_problem_validation(self, sys_ap3):
        with pytest.raises(ValueError):
            AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 0)
        with pytest.raises(ValueError):
            AvoidanceProblem(sys_ap3, ClassFilter.span_at_least(4), 1)
        with pytest.raises(ValueError):
            AvoidanceProblem(sys_ap3, ClassFilter.distinct_at_least(1), 1)


class TestGreedy:
    def test_never_beats_exhaustive(self, sys_ap3):
        for n in (1, 2):
            problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), n)
            greedy = greedy_lower_bound(problem)
            exact = exhaustive_max(problem)
            assert greedy.best_size <= exact.best_size
            assert not greedy.optimal
            assert subset_avoids(sys_ap3, problem.mode,
                                 greedy.witness.points, n)

    def test_restarts_deterministic(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        a = greedy_lower_bound(problem, restarts=3, rng=spawn(7, "greedy"))
        b = greedy_lower_bound(problem, restarts=3, rng=spawn(7, "greedy"))
        assert a.best_size == b.best_size
        assert a.witness.points == b.witness.points

    def test_restarts_need_rng(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 1)
        with pytest.raises(ValueError):
            greedy_lower_bound(problem, restarts=2)

    def test_point_cap(self, sys_ap3, monkeypatch):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        monkeypatch.setattr(search, "GREEDY_POINT_CAP", 3)
        with pytest.raises(CapExceededError):
            greedy_lower_bound(problem)

    def test_point_scans_capped_before_the_space(self, sys_ap3, monkeypatch):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        monkeypatch.setattr(search, "GREEDY_POINT_CAP", 27)
        assert greedy_lower_bound(problem, restarts=2,
                                  rng=random.Random(0)).nodes == 27

        def no_space(*args, **kwargs):
            raise AssertionError("the point space was built")

        monkeypatch.setattr(PointSet, "full_space", no_space)
        monkeypatch.setattr(search, "GREEDY_POINT_CAP", 26)
        with pytest.raises(CapExceededError, match="^3 passes over 9 points: "
                           "27 point scans exceed the cap 26$"):
            greedy_lower_bound(problem, restarts=2, rng=random.Random(0))
        monkeypatch.setattr(search, "GREEDY_POINT_CAP", 8)
        with pytest.raises(CapExceededError,
                           match="^9 points exceed the cap 8$"):
            greedy_lower_bound(problem)

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_walk_per_kept_point(self, sys_ap3, n, monkeypatch):
        # every rejection of a cap-set pass is a blocked point, so only
        # the points that are kept are walked
        walks = []
        walk = search._Completion.walk

        def counted(self, pools, tables, pins=()):
            if pins:
                walks.append(pins)
            return walk(self, pools, tables, pins)

        monkeypatch.setattr(search._Completion, "walk", counted)
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), n)
        result = greedy_lower_bound(problem, restarts=1, rng=random.Random(0))
        kept = sum(map(len, reference_greedy_passes(problem, 1,
                                                    random.Random(0))))
        assert len(walks) == kept < result.nodes

    @pytest.mark.parametrize("coeffs, pins", [((1, 1, 1), [(0,)]),
                                              ((1, 1, 2, 2), [(0,), (2,)])],
                             ids=["x+y+z", "1122"])
    def test_one_check_per_column_class(self, coeffs, pins, monkeypatch):
        made = []

        class Counted(search._Completion):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("pinned"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(search, "_Completion", Counted)
        problem = AvoidanceProblem(SystemSpec.make([coeffs], 3),
                                   ClassFilter.not_all_equal(), 2)
        greedy_lower_bound(problem, restarts=1, rng=random.Random(0))
        assert made == pins


class TestTheoremBounds:
    def test_not_all_equal_bound(self, sys_ap3):
        for n in (1, 2):
            problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), n)
            report = verify_theorem_bound(problem, "tao")
            assert report.holds
            assert report.bound == pytest.approx(3 * gamma(3, 1, 3).gamma**n)
            assert report.margin == pytest.approx(report.bound
                                                  - report.best_size)

    def test_distinct_statement(self, sys_531):
        problem = AvoidanceProblem(sys_531, ClassFilter.distinct(), 1,
                                   exclude_zero=True)
        report = verify_theorem_bound(problem, "distinct")
        assert report.best_size == 2
        assert report.witness_found
        assert report.margin == 2
        assert report.holds is None
        assert report.bound is None

    def test_rank_statement(self, sys_k4):
        problem = AvoidanceProblem(sys_k4, ClassFilter.span_at_least(2), 1,
                                   exclude_zero=True)
        report = verify_theorem_bound(problem, "rank")
        assert report.witness_found is False
        assert report.best_size == 2
        assert report.margin == 0

    def test_hypothesis_checks(self, sys_ap3, sys_531):
        short = SystemSpec.make([(1, 1)], 3)
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(short, ClassFilter.not_all_equal(), 1), "tao")
        umbalanced = SystemSpec.make([(1, 1, 2)], 3)
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(umbalanced, ClassFilter.not_all_equal(), 1),
                "tao")
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(sys_ap3, ClassFilter.distinct(), 1), "tao")
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(short, ClassFilter.distinct(), 1), "distinct")
        degenerate = SystemSpec.make([(1, 2, 0)], 3)
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(degenerate, ClassFilter.distinct(), 1),
                "distinct")
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(sys_ap3, ClassFilter.span_at_least(3), 1),
                "rank")
        with pytest.raises(ValueError):
            verify_theorem_bound(
                AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 1),
                "nonsense")
