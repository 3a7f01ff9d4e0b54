import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsystems import (
    AvoidanceProblem,
    CapExceededError,
    ClassFilter,
    DegenerateSystemError,
    PointSet,
    SystemSpec,
    enumerate_solutions,
    exhaustive_max,
    gamma,
    greedy_lower_bound,
    verify_theorem_bound,
)
from fpsystems import linsystem, search
from fpsystems.fplinalg import rank, rref_with_pivots
from fpsystems.seeds import spawn

from .oracles import (
    coded_admits_support,
    reference_admits_support,
    reference_exhaustive_max,
    reference_flag,
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
    # k >= 5 beyond n = 1: long support lists, which each subtree of the
    # exhaustive search filters down to its live points
    ([(1,) * 5], 3, None, ClassFilter.distinct(), 2, False),
    ([(1, 1, 2, 2)], 3, None, ClassFilter.distinct(), 2, False),
    # rows summing to zero over F_5^2: the affine frame's line holds five
    # points, so its run on the line has three candidates
    ([(1, 2, 2)], 5, None, ClassFilter.not_all_equal(), 2, False),
    # the basis root on F_2^3 without zero, three flats deep
    ([(1, 1, 1, 1)], 2, None, ClassFilter.distinct(), 3, True),
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


# (coeffs, p, constants, n): random subsets of F_3^2 and F_2^3 under
# every filter mode, for the witness check against the enumeration
WITNESS_CASES = [
    ([(1, 1, 1)], 3, None, 2),
    ([(1, 1, 2, 2)], 3, None, 2),
    ([(1, 1, 1)], 3, [(1, 0)], 2),
    ([(1, 1, 1)], 2, None, 3),
    ([(1, 1, 1, 1)], 2, None, 3),
    ([(1, 1, 1, 0), (0, 1, 1, 1)], 2, None, 3),
]
WITNESS_FILTERS = [ClassFilter.any(), ClassFilter.not_all_equal(),
                   ClassFilter.distinct(), ClassFilter.span_at_least(2),
                   ClassFilter.span_at_least(3), ClassFilter.distinct_at_least(2),
                   ClassFilter.distinct_at_least(3)]


@pytest.mark.parametrize("case", WITNESS_CASES,
                         ids=lambda c: f"{c[0]}-p{c[1]}-b{c[2]}-n{c[3]}")
def test_witness_check_matches_enumeration(case):
    """The witness check walks the supports inside the set once; it
    raises exactly where the enumeration yields an admitted solution."""
    coeffs, p, constants, n = case
    spec = SystemSpec.make(coeffs, p, constants=constants)
    completion = linsystem._completion(spec, n, ())
    space = list(product(range(p), repeat=n))
    rng = random.Random(3)
    outcomes = set()
    for flt in WITNESS_FILTERS:
        problem = AvoidanceProblem(spec, flt, n)
        for _ in range(30):
            subset = rng.sample(space, rng.randint(0, len(space)))
            points = PointSet.make(subset, p, n)
            admitted = next(iter(enumerate_solutions(spec, points, flt)), None)
            outcomes.add(admitted is None)
            if admitted is None:
                assert search._verify_witness(completion, problem,
                                              subset).points == points.points
            else:
                with pytest.raises(AssertionError, match="re-verification"):
                    search._verify_witness(completion, problem, subset)
    assert outcomes == {True, False}


def untouched_rows():
    """Rows that fail the test if the filter reads them."""
    raise AssertionError("rows read outside the span test")
    yield


# each filter mode as its definition, on a k-tuple with ``distinct``
# distinct entries ``rows`` over F_p
DEFINITIONS = {
    "any": lambda flt, k, distinct, rows, p: True,
    "not-all-equal": lambda flt, k, distinct, rows, p: distinct > 1,
    "distinct": lambda flt, k, distinct, rows, p: distinct == k,
    "distinct-count": lambda flt, k, distinct, rows, p: distinct >= flt.ell,
    "span-dim": lambda flt, k, distinct, rows, p: rank(rows, p) >= flt.r,
}


@st.composite
def filtered_tuples(draw):
    """A filter, built as the command line builds it (``ell`` passed to
    every mode, ``r`` to ``span-dim``), and a k-tuple over F_p^n with
    k <= 8 and any distinct count, its entries in any order."""
    p, n = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 2), (7, 3),
                                 (257, 1)]))
    k = draw(st.integers(1, 8))
    point = st.tuples(*[st.integers(0, p - 1)] * n)
    distinct = draw(st.integers(1, min(k, p**n)))
    points = draw(st.lists(point, min_size=distinct, max_size=distinct,
                           unique=True))
    repeats = draw(st.lists(st.sampled_from(points), min_size=k - distinct,
                            max_size=k - distinct))
    rows = draw(st.permutations(points + repeats))
    mode = draw(st.sampled_from(linsystem._MODES))
    level = draw(st.integers(1, k + 1))
    flt = ClassFilter(mode, r=level if mode == "span-dim" else None, ell=level)
    return flt, k, distinct, rows, p


@st.composite
def affine_problems(draw):
    """A homogeneous system whose rows sum to zero, the last coefficient
    of each row set so, a filter of any mode with a threshold the
    problem accepts, and zero in the space."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(2, 8))
    m = draw(st.integers(1, 2))
    rows = [row + [-sum(row) % p] for row in draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=k - 1, max_size=k - 1),
        min_size=m, max_size=m))]
    mode = draw(st.sampled_from(linsystem._MODES))
    level = draw(st.integers(2, k))
    flt = ClassFilter(mode, r=level if mode == "span-dim" else None, ell=level)
    return AvoidanceProblem(SystemSpec.make(rows, p), flt, draw(st.integers(1, 3)))


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
                    assert coded_admits_support(flt, 4, size, iter(rows), p) == (dim >= r)
                    assert reference_admits_support(flt, 4, size, rows, p) == (dim >= r)

    def test_span_test_stops_at_the_rth_pivot(self, monkeypatch):
        # (codes read, rank) per call of the rank kernel on point codes
        calls = []
        kernel = linsystem._PointCodes.rank

        def spy(codes, xs, limit):
            read = []
            out = kernel(codes, (read.append(x) or x for x in xs), limit)
            calls.append((len(read), out))
            return out

        monkeypatch.setattr(linsystem._PointCodes, "rank", spy)
        # rank 3: full elimination would read the third row
        rows = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
        assert coded_admits_support(ClassFilter.span_at_least(2), 3, 3, iter(rows), 3)
        assert coded_admits_support(ClassFilter.span_at_least(3), 3, 3, iter(rows), 3)
        assert calls == [(2, 2), (3, 3)]

    def test_zero_point_spans_nothing(self):
        flt = ClassFilter.span_at_least(1)
        assert not coded_admits_support(flt, 3, 1, iter([(0, 0)]), 3)
        assert coded_admits_support(flt, 3, 1, iter([(1, 0)]), 3)

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
        assert tuple(coded_admits_support(flt, 3, distinct, untouched_rows(), 3)
                     for distinct in (1, 2)) == expected

    @settings(max_examples=500)
    @given(case=filtered_tuples())
    def test_admits_each_mode_by_its_definition(self, case):
        flt, k, distinct, rows, p = case
        expected = DEFINITIONS[flt.mode](flt, k, distinct, rows, p)
        assert coded_admits_support(flt, k, distinct, iter(rows), p) == expected
        assert reference_admits_support(flt, k, distinct, rows, p) == expected

    @given(problem=affine_problems())
    def test_affine_root_exactly_for_the_count_modes(self, problem):
        assert search._affine_root(problem) == (problem.mode.mode != "span-dim")

    def test_problem_needs_span_threshold_two(self, sys_ap3):
        with pytest.raises(ValueError):
            AvoidanceProblem(sys_ap3, ClassFilter.span_at_least(1), 2)


class TestExhaustive:
    def test_cap_set_in_three_dimensions(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 3)
        result = exhaustive_max(problem)
        assert result.best_size == 9
        assert result.nodes == 174
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

    def test_point_order_checked_without_the_space(self, sys_ap3,
                                                   monkeypatch):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.distinct(), 2,
                                   exclude_zero=True)
        order = list(problem.point_order())

        def no_space(*args, **kwargs):
            raise AssertionError("the point space was built")

        monkeypatch.setattr(PointSet, "full_space", no_space)
        assert exhaustive_max(problem, point_order=order[::-1]).best_size == \
            brute_max_avoiding(sys_ap3, problem.mode, 2, exclude_zero=True)
        # a point repeated, zero in place of a nonzero point, a point of
        # another dimension, a point missing, a point too many
        for bad in ([order[0]] + order[1:-1] + [order[0]],
                    [(0, 0)] + order[1:],
                    [(1, 0, 0)] + order[1:],
                    order[1:],
                    order + [(0, 0)]):
            with pytest.raises(ValueError, match="point order"):
                exhaustive_max(problem, point_order=bad)

    def test_symmetry_off_agrees(self, sys_ap3):
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        on = exhaustive_max(problem, symmetry=True)
        off = exhaustive_max(problem, symmetry=False)
        assert on.best_size == off.best_size

    def test_six_ones_distinct_in_three_dimensions(self, deadline):
        # the node count pins the tree that the support index, built on
        # one solution per orbit of the five equal free columns, and the
        # affine frame root give
        spec = SystemSpec.make([(1,) * 6], 3)
        with deadline(3):
            result = exhaustive_max(AvoidanceProblem(spec, ClassFilter.distinct(), 3))
        assert result.best_size == 9 and result.optimal
        assert result.nodes == 1861

    def test_1122_distinct_in_four_dimensions(self, deadline):
        # 450,358 nodes and 46 s when the affine root forced zero, the
        # first nonzero point and the first point off its line
        spec = SystemSpec.make([(1, 1, 2, 2)], 3)
        with deadline(5):
            result = exhaustive_max(AvoidanceProblem(spec, ClassFilter.distinct(), 4))
        assert result.best_size == 9 and result.optimal
        assert result.nodes == 1615
        assert subset_avoids(spec, ClassFilter.distinct(), result.witness.points, 4)

    @pytest.mark.parametrize("coeffs, p, n, cap_points, count", [
        ([(1,) * 6], 3, 4, 81, 32801517),
        ([(1, 0, 1, 1, 3, 4), (0, 1, 1, 3, 2, 3)], 5, 3, 125, 244140625),
    ], ids=["six-ones-n4", "m2-n3"])
    def test_support_walk_capped_before_the_index(self, coeffs, p, n, cap_points,
                                                  count, deadline, monkeypatch):
        # six ones at n = 4 built a 1.8 GB support index, and the m = 2
        # row at n = 3 reached 5.4 GB before it was stopped
        walks = []
        walk = search._Completion.walk

        def counted(self, *args):
            walks.append(args)
            return walk(self, *args)

        monkeypatch.setattr(search._Completion, "walk", counted)
        problem = AvoidanceProblem(SystemSpec.make(coeffs, p), ClassFilter.distinct(), n)
        with deadline(1), pytest.raises(
                CapExceededError,
                match=f"^{count} support walk assignments exceed the cap 1000000$"):
            exhaustive_max(problem, cap_points=cap_points)
        assert walks == []

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

    def test_point_cap_decided_before_the_power(self, sys_ap3, deadline,
                                                int_digits_4300):
        # 3^(10^7) took 3.8 s to form, and its message could not print
        problem = AvoidanceProblem(sys_ap3, ClassFilter.distinct(), 10**7,
                                   exclude_zero=True)
        with deadline(1), pytest.raises(
                CapExceededError,
                match=r"^3\^10000000 - 1 points exceed the cap 81$"):
            problem.check_point_cap(81)

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

        def counted(self, pools, tables, pins=(), lower=None):
            if pins:
                walks.append(pins)
            return walk(self, pools, tables, pins, lower)

        monkeypatch.setattr(search._Completion, "walk", counted)
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), n)
        result = greedy_lower_bound(problem, restarts=1, rng=random.Random(0))
        kept = sum(map(len, reference_greedy_passes(problem, 1,
                                                    random.Random(0))))
        assert len(walks) == kept < result.nodes

    def test_pinned_walks_take_one_ordering_per_orbit(self, monkeypatch):
        # six ones over F_3^2: each check pins one position and leaves
        # four equal free columns, so its bounded walk reads fewer
        # prefixes than the walk over every ordering
        read = {"bounded": 0, "plain": 0}
        walk = search._Completion.walk

        def counted(self, pools, tables, pins=(), lower=None):
            if pins:
                read["plain"] += sum(1 for _ in walk(self, pools, tables, pins))
                walked = list(walk(self, pools, tables, pins, lower))
                read["bounded"] += len(walked)
                return iter(walked)
            return walk(self, pools, tables, pins, lower)

        monkeypatch.setattr(search._Completion, "walk", counted)
        problem = AvoidanceProblem(SystemSpec.make([(1,) * 6], 3),
                                   ClassFilter.distinct(), 2)
        result = greedy_lower_bound(problem, restarts=1, rng=random.Random(0))
        assert (result.best_size, result.witness.points, result.nodes) == \
            reference_greedy(problem, 1, random.Random(0))
        assert 0 < read["bounded"] < read["plain"]

    @pytest.mark.parametrize("coeffs, pins", [((1, 1, 1), [(0,)]),
                                              ((1, 1, 2, 2), [(0,), (2,)])],
                             ids=["x+y+z", "1122"])
    def test_one_check_per_column_class(self, coeffs, pins, monkeypatch):
        # the checks, then the unpinned completion of the witness check
        made = []
        completion = search._completion

        def counted(sys_spec, n, pinned):
            made.append(pinned)
            return completion(sys_spec, n, pinned)

        monkeypatch.setattr(search, "_completion", counted)
        problem = AvoidanceProblem(SystemSpec.make([coeffs], 3),
                                   ClassFilter.not_all_equal(), 2)
        greedy_lower_bound(problem, restarts=1, rng=random.Random(0))
        assert made == pins + [()]


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

    # (coeffs, filter, statement, zero excluded) -> best size, margin,
    # witness found.  Five ones over F_3^1 with a span of at least 3: the
    # whole space avoids, so the margin is 0 with zero too, where it read
    # -1, taken against the nonzero points.  x + y + z = 0 over F_3^1:
    # its one fully distinct solution up to order, (0, 1, 2), needs zero.
    @pytest.mark.parametrize("coeffs,flt,theorem,exclude_zero,expected", [
        ([(1,) * 5], ClassFilter.span_at_least(3), "rank", False, (3, 0, False)),
        ([(1,) * 5], ClassFilter.span_at_least(3), "rank", True, (2, 0, False)),
        ([(1, 1, 1)], ClassFilter.distinct(), "distinct", False, (2, 1, True)),
        ([(1, 1, 1)], ClassFilter.distinct(), "distinct", True, (2, 0, False)),
    ], ids=["rank-with-zero", "rank-without-zero", "distinct-with-zero",
            "distinct-without-zero"])
    def test_margin_and_witness_over_the_problem_space(
            self, coeffs, flt, theorem, exclude_zero, expected):
        problem = AvoidanceProblem(SystemSpec.make(coeffs, 3), flt, 1,
                                   exclude_zero=exclude_zero)
        report = verify_theorem_bound(problem, theorem)
        space = "p^n - 1" if exclude_zero else "p^n"
        assert (report.best_size, report.margin, report.witness_found) == expected
        assert report.notes == ("constants are not effective; margin is "
                                f"against {space}")

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


def root_runs(monkeypatch, problem):
    """Per top-level run of the exhaustive search: the members it starts
    from, the points its root forces, in order; and the incumbent after
    it."""
    runs = []
    depth = 0
    run = search._DepthFirst.run

    def spy(self, members, *args):
        nonlocal depth
        start = tuple(members)
        depth += 1
        run(self, members, *args)
        depth -= 1
        if not depth:
            runs.append((start, self.best_members))

    monkeypatch.setattr(search._DepthFirst, "run", spy)
    result = exhaustive_max(problem)
    monkeypatch.undo()
    order = problem.point_order()
    return [tuple(tuple(order[i] for i in points) for points in pair)
            for pair in runs], result


def root_members(monkeypatch, problem):
    """The members each top-level run of the exhaustive search starts
    from: the points its root forces, in order."""
    runs, result = root_runs(monkeypatch, problem)
    return [members for members, _ in runs], result


class TestAffineRoot:
    """The frame root: flat by flat, the first affine frame the order
    meets (from its first point) is forced where every affine bijection
    keeps the problem, and else the first basis (from zero, not
    forced)."""

    @pytest.mark.parametrize("coeffs,p,flt,n,exclude_zero", [
        ([(1, 1, 1)], 3, ClassFilter.span_at_least(2), 2, False),
        ([(1, 1, 1)], 3, ClassFilter.distinct(), 2, True),
        ([(1, 1, 1)], 2, ClassFilter.not_all_equal(), 3, False),
        ([(1,) * 5], 3, ClassFilter.distinct(), 2, False),
    ], ids=["span-dim", "exclude-zero", "x+y+z-F2", "five-ones-F3"])
    def test_linear_anchor_where_translations_break(self, monkeypatch, coeffs,
                                                    p, flt, n, exclude_zero):
        spec = SystemSpec.make(coeffs, p)
        problem = AvoidanceProblem(spec, flt, n, exclude_zero=exclude_zero)
        assert not search._affine_root(problem)
        roots, result = root_members(monkeypatch, problem)
        order = problem.point_order()
        basis = tuple(x for x, _ in reference_flag(order, p, n, False))[1:]
        # the run inside {0} always starts, as there is no incumbent yet;
        # each later run forces the basis one vector further
        assert roots[0] == ()
        assert all(root == basis[:len(root)] for root in roots)
        assert [len(root) for root in roots] == \
            sorted({len(root) for root in roots})
        assert result.best_size == brute_max_avoiding(spec, flt, n, exclude_zero)

    def test_affine_constants_search_without_symmetry(self, monkeypatch):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1, 0)])
        problem = AvoidanceProblem(spec, ClassFilter.not_all_equal(), 2)
        assert not search._affine_root(problem)
        roots, result = root_members(monkeypatch, problem)
        assert roots == [()]
        assert result.best_size == brute_max_avoiding(spec, problem.mode, 2)

    @pytest.mark.parametrize("coeffs,p,flt,n", [
        ([(1, 1, 1)], 3, ClassFilter.not_all_equal(), 2),
        ([(1, 1, 2, 2)], 3, ClassFilter.distinct_at_least(3), 2),
        ([(1, 2, 2)], 5, ClassFilter.distinct(), 2),
        ([(1, 1, 1, 1)], 2, ClassFilter.distinct(), 3),
        ([(1,) * 6], 3, ClassFilter.distinct(), 1),
    ])
    def test_frame_forced_flat_by_flat(self, monkeypatch, coeffs, p, flt, n):
        spec = SystemSpec.make(coeffs, p)
        problem = AvoidanceProblem(spec, flt, n)
        assert search._affine_root(problem)
        roots, result = root_members(monkeypatch, problem)
        order = problem.point_order()
        # in the natural order the flat of dimension d is the first p^d
        # points, spanned by zero and order[p^j] for j < d
        frame = order[:1] + tuple(order[p**j] for j in range(n))
        assert roots == [frame[:d + 1] for d in range(n + 1)]
        assert result.best_size == exhaustive_max(problem, symmetry=False).best_size

    def test_maximum_in_a_lower_flat(self, monkeypatch):
        # span dimension 2 keeps the basis root; the maximum is a line
        # through zero, found by the run that forces the first basis
        # vector, and the run on the whole plane cannot beat it
        spec = SystemSpec.make([(1, 1, 2, 2)], 3)
        problem = AvoidanceProblem(spec, ClassFilter.span_at_least(2), 2)
        runs, result = root_runs(monkeypatch, problem)
        witness = ((0, 1), (0, 0), (0, 2))
        assert runs == [((), ((0, 0),)), (((0, 1),), witness)]
        assert result.witness.points == witness
        assert result.best_size == brute_max_avoiding(spec, problem.mode, 2)

    def test_any_filter_avoids_only_the_empty_set(self, monkeypatch):
        # constant tuples solve a system whose rows sum to zero, so every
        # point is a solution on its own
        spec = SystemSpec.make([(1, 1, 1)], 3)
        roots, result = root_members(
            monkeypatch, AvoidanceProblem(spec, ClassFilter.any(), 2))
        assert roots == [] and result.best_size == 0 and result.nodes == 0

    def test_same_maxima_as_without_symmetry(self):
        # random systems whose rows sum to zero, the last coefficient of
        # each row set so, over spaces of up to 25 points; rank-deficient
        # draws are skipped
        rng = random.Random(11)
        filters = [ClassFilter.any(), ClassFilter.not_all_equal(),
                   ClassFilter.distinct(), ClassFilter.distinct_at_least(2),
                   ClassFilter.distinct_at_least(3)]
        spaces = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)]
        checked = 0
        while checked < 40:
            p, n = rng.choice(spaces)
            k, m = rng.randint(3, 5), rng.randint(1, 2)
            rows = []
            for _ in range(m):
                row = [rng.randrange(p) for _ in range(k - 1)]
                rows.append(row + [-sum(row) % p])
            spec = SystemSpec.make(rows, p)
            try:
                linsystem.pivot_columns(spec)
            except DegenerateSystemError:
                continue
            problem = AvoidanceProblem(spec, rng.choice(filters), n)
            assert search._affine_root(problem)
            for seed in range(2):
                order = list(problem.point_order())
                random.Random(seed).shuffle(order)
                on = exhaustive_max(problem, symmetry=True, point_order=order)
                off = exhaustive_max(problem, symmetry=False, point_order=order)
                assert on.best_size == off.best_size, (rows, p, problem.mode, n)
            checked += 1

    def test_same_maxima_under_the_basis_root(self):
        # random homogeneous systems the affine frame does not cover:
        # span dimension, zero excluded, or a row that does not sum to
        # zero; k stays below 5, whose support index over F_5^2 takes
        # seconds, and rank-deficient draws are skipped
        rng = random.Random(12)
        filters = [ClassFilter.any(), ClassFilter.not_all_equal(),
                   ClassFilter.distinct(), ClassFilter.distinct_at_least(2),
                   ClassFilter.distinct_at_least(3), ClassFilter.span_at_least(2),
                   ClassFilter.span_at_least(3)]
        spaces = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)]
        checked = 0
        while checked < 40:
            p, n = rng.choice(spaces)
            k, m = rng.randint(3, 4), rng.randint(1, 2)
            rows = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
            flt = rng.choice(filters)
            if flt.mode == "span-dim" and flt.r > k:
                continue
            spec = SystemSpec.make(rows, p)
            try:
                linsystem.pivot_columns(spec)
            except DegenerateSystemError:
                continue
            problem = AvoidanceProblem(spec, flt, n,
                                       exclude_zero=rng.random() < 0.5)
            if search._affine_root(problem):
                continue
            for seed in range(2):
                order = list(problem.point_order())
                random.Random(seed).shuffle(order)
                on = exhaustive_max(problem, symmetry=True, point_order=order)
                off = exhaustive_max(problem, symmetry=False, point_order=order)
                assert on.best_size == off.best_size, \
                    (rows, p, problem.mode, n, problem.exclude_zero)
            checked += 1


# (coeffs, p, constants, filter, n) -> the node count and the witness
# that the search without symmetry reduction gives in the natural point
# order, and the node count under the order of random.Random(5)
UNREDUCED_TREES = [
    (([(1, 1, 1)], 3, None, ClassFilter.not_all_equal(), 3), 37_787,
     ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
      (1, 1, 2), (1, 2, 2), (2, 1, 2)), 48_965),
    (([(1,) * 6], 3, None, ClassFilter.distinct(), 2), 77,
     ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)), 77),
    (([(1, 1, 2, 2)], 3, None, ClassFilter.distinct(), 2), 87,
     ((0, 0), (0, 1), (0, 2), (1, 0)), 83),
    (([(1, 1, 1)], 3, [(1, 0)], ClassFilter.not_all_equal(), 2), 23,
     ((0, 0), (0, 1), (0, 2)), 22),
    (([(1, 1, 1, 0), (0, 1, 2, 2)], 3, None, ClassFilter.not_all_equal(), 2), 16,
     ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)), 16),
    (([(1, 1, 1, 1)], 2, None, ClassFilter.span_at_least(3), 3), 42,
     ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)), 42),
    (([(1, 1, 1)], 2, None, ClassFilter.not_all_equal(), 3), 18,
     ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)), 18),
    (([(1, 2, 2)], 5, None, ClassFilter.distinct(), 2), 4_441,
     ((0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (4, 3)), 4_903),
]


@pytest.mark.parametrize("case,nodes,witness,shuffled_nodes", UNREDUCED_TREES,
                         ids=[f"{c[0]}-p{c[1]}-{c[3].mode}-n{c[4]}"
                              for c, *_ in UNREDUCED_TREES])
def test_unreduced_tree_unchanged(case, nodes, witness, shuffled_nodes):
    """Without symmetry reduction the node counts and the witness are
    pinned: the support walk over orbits of equal columns gives the index
    the supports of the walk over every ordering, so the tree is the
    same."""
    coeffs, p, constants, flt, n = case
    problem = AvoidanceProblem(SystemSpec.make(coeffs, p, constants), flt, n)
    result = exhaustive_max(problem, symmetry=False)
    assert (result.nodes, result.witness.points) == (nodes, witness)
    order = list(problem.point_order())
    random.Random(5).shuffle(order)
    assert exhaustive_max(problem, symmetry=False, point_order=order).nodes == \
        shuffled_nodes
