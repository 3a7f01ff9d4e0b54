import io
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    ClassFilter,
    DegenerateSystemError,
    PointSet,
    SolutionTuple,
    SystemSpec,
    count_interesting_tuples,
    enumerate_solutions,
    interesting_tuples,
    is_interesting,
    is_solution,
    pivot_columns,
    read_system_file,
    validate,
    write_system_file,
)
from fpsystems import fplinalg, linsystem
from .oracles import (
    brute_solutions,
    rank_by_minors,
    reference_completion_setup,
    reference_enumerate_solutions,
    reference_is_interesting,
    reference_is_solution,
)

PRIMES = st.sampled_from([2, 3, 5])


def small_instances():
    """(SystemSpec, PointSet) pairs with |A|^k small enough to brute force."""

    def build(draw_parts):
        p, m, k, coeff_rows, n, point_pool = draw_parts
        sys_spec = SystemSpec.make(coeff_rows, p)
        points = PointSet.make(point_pool, p, n) if point_pool else \
            PointSet.make([], p, n)
        return sys_spec, points

    def parts(p):
        return st.tuples(
            st.just(p),
            st.integers(1, 2),
            st.integers(2, 4),
            st.just(0),
            st.integers(1, 2),
        ).flatmap(lambda t: st.tuples(
            st.just(t[0]),
            st.just(t[1]),
            st.just(max(t[2], t[1] + 1)),
            st.lists(
                st.lists(st.integers(0, t[0] - 1),
                         min_size=max(t[2], t[1] + 1),
                         max_size=max(t[2], t[1] + 1)),
                min_size=t[1], max_size=t[1]),
            st.just(t[4]),
            st.lists(st.lists(st.integers(0, t[0] - 1),
                              min_size=t[4], max_size=t[4]),
                     min_size=0, max_size=min(6, t[0]**t[4])),
        ))

    return PRIMES.flatmap(parts).map(build)


class TestValidate:
    def test_rows_sum_zero_examples(self, sys_ap3, sys_531):
        rep = validate(sys_ap3)
        assert rep.rows_sum_zero and rep.generic_minors and rep.ok
        rep5 = validate(sys_531)
        assert rep5.rows_sum_zero and rep5.generic_minors

    def test_zero_minor_listed(self):
        rep = validate(SystemSpec.make([(1, 2, 0)], 3))
        assert rep.rows_sum_zero
        assert not rep.generic_minors
        assert (2,) in rep.failing_minors
        assert not rep.ok

    def test_flags_recomputed_by_make(self):
        spec = SystemSpec.make([(1, 1, 2)], 3)
        assert not spec.rows_sum_zero
        assert spec.generic_minors

    def test_more_equations_than_variables(self):
        # no m x m minor exists, so none fails, yet the minors are not
        # generic; validate and make apply the same rule
        spec = SystemSpec.make([(1, 2), (1, 1), (2, 1)], 3)
        rep = validate(spec)
        assert rep.failing_minors == ()
        assert not rep.generic_minors and not spec.generic_minors
        assert not rep.ok


class TestIsSolution:
    def test_constant_tuples_solve_rows_sum_zero(self, sys_ap3):
        for v in product(range(3), repeat=2):
            assert is_solution(sys_ap3, (v, v, v))

    def test_direct_examples(self, sys_ap3):
        assert is_solution(sys_ap3, ((0,), (1,), (2,)))
        assert not is_solution(sys_ap3, ((1,), (1,), (2,)))

    def test_constants_respected(self):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1,)])
        assert is_solution(spec, ((0,), (0,), (1,)))
        assert not is_solution(spec, ((0,), (0,), (0,)))

    def test_wrong_arity_rejected(self, sys_ap3):
        with pytest.raises(ValueError):
            is_solution(sys_ap3, ((0,), (1,)))
        with pytest.raises(ValueError):
            is_solution(sys_ap3, ((0,), (1,), (1, 0)))

    @given(st.data())
    def test_matches_reference(self, data):
        # m in {1, 2}, homogeneous or affine; half the affine draws take
        # the tuple's own sums as constants, so true answers occur too
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        m = data.draw(st.integers(1, 2))
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(1, 3))
        entry = st.integers(-p, 2 * p)
        vec = st.lists(entry, min_size=n, max_size=n)
        coeffs = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                    min_size=m, max_size=m))
        xs = data.draw(st.lists(vec, min_size=k, max_size=k))
        kind = data.draw(st.sampled_from(["homogeneous", "own sums", "random"]))
        if kind == "homogeneous":
            constants = None
        elif kind == "own sums":
            constants = [[sum(c * x[s] for c, x in zip(row, xs)) for s in range(n)]
                         for row in coeffs]
        else:
            constants = data.draw(st.lists(vec, min_size=m, max_size=m))
        spec = SystemSpec.make(coeffs, p, constants=constants)
        want = reference_is_solution(spec, xs)
        assert is_solution(spec, xs) == want
        if kind == "own sums":
            assert want


class TestEnumerate:
    def test_nine_solutions_over_f3(self, sys_ap3):
        points = PointSet.full_space(1, 3)
        sols = list(enumerate_solutions(sys_ap3, points))
        assert len(sols) == 9
        assert sum(1 for s in sols if s.all_equal) == 3
        assert sum(1 for s in sols if s.distinct_count == 3) == 6

    def test_two_point_set_includes_constant_triples(self, sys_ap3):
        # {0,1} admits (0,0,0) and, because 1+1+1 = 3 = 0, also (1,1,1)
        points = PointSet.make([(0,), (1,)], 3)
        sols = {s.entries for s in enumerate_solutions(sys_ap3, points)}
        assert sols == {((0,), (0,), (0,)), ((1,), (1,), (1,))}

    def test_distinct_filter_on_singleton(self, sys_ap3):
        points = PointSet.make([(1,)], 3)
        assert not list(enumerate_solutions(sys_ap3, points,
                                            ClassFilter.distinct()))

    @given(small_instances())
    def test_matches_brute_force(self, instance):
        sys_spec, points = instance
        try:
            pivot_columns(sys_spec)
        except DegenerateSystemError:
            return
        ours = sorted(s.entries
                      for s in enumerate_solutions(sys_spec, points))
        theirs = sorted(brute_solutions(
            [list(r) for r in sys_spec.coeffs], None, sys_spec.p,
            list(points), points.n))
        assert ours == theirs

    def test_degenerate_rejected(self):
        spec = SystemSpec.make([(1, 2, 0), (2, 4, 0)], 5)
        with pytest.raises(DegenerateSystemError):
            pivot_columns(spec)
        with pytest.raises(DegenerateSystemError):
            list(enumerate_solutions(spec, PointSet.full_space(1, 5)))

    def test_solution_fields(self, sys_ap3):
        points = PointSet.full_space(2, 3)
        for sol in enumerate_solutions(sys_ap3, points):
            assert 1 <= sol.distinct_count <= 3
            assert sol.all_equal == (sol.distinct_count == 1)
            assert sol.span_dim <= sol.distinct_count

    def test_filters_select_subsets(self, sys_ap3):
        points = PointSet.full_space(2, 3)
        all_sols = {s.entries for s in enumerate_solutions(sys_ap3, points)}
        nae = {s.entries for s in enumerate_solutions(
            sys_ap3, points, ClassFilter.not_all_equal())}
        spanned = {s.entries for s in enumerate_solutions(
            sys_ap3, points, ClassFilter.span_at_least(2))}
        assert nae < all_sols
        assert spanned <= nae

    def test_constant_rows_solutions(self):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1, 0)])
        points = PointSet.full_space(2, 3)
        sols = list(enumerate_solutions(spec, points))
        expected = brute_solutions([[1, 1, 1]], [(1, 0)], 3,
                                   list(points), 2)
        assert len(sols) == len(expected)
        assert {s.entries for s in sols} == set(expected)


class TestPivotChoice:
    def test_lexicographically_first(self, sys_m2):
        assert pivot_columns(sys_m2) == (0, 1)

    def test_skips_singular_prefix(self):
        spec = SystemSpec.make([(0, 1, 1)], 3)
        assert pivot_columns(spec) == (1,)

    def test_exclusion(self, sys_m2):
        assert pivot_columns(sys_m2, pinned=(0,)) == (1, 2)

    def test_pinned_columns_fill_a_shortfall(self, sys_m2):
        # one unpinned column left: the second pivot is the first pinned
        assert pivot_columns(sys_m2, pinned=(0, 1, 2, 4)) == (3, 0)
        assert pivot_columns(sys_m2, pinned=range(5)) == (0, 1)


class TestSolutionTuple:
    def test_create_checks_solutionhood(self, sys_ap3):
        sol = SolutionTuple.create(sys_ap3, ((0,), (1,), (2,)))
        assert sol.distinct_count == 3
        with pytest.raises(ValueError):
            SolutionTuple.create(sys_ap3, ((0,), (1,), (1,)))

    def test_create_reduces_once_and_checks_shape(self, sys_ap3, monkeypatch):
        calls = []
        reduce = linsystem.reduce_coords
        monkeypatch.setattr(linsystem, "reduce_coords",
                            lambda x, p: calls.append(x) or reduce(x, p))
        sol = SolutionTuple.create(sys_ap3, ((3,), (4,), (-1,)))
        assert sol.entries == ((0,), (1,), (2,))
        assert calls == [(3,), (4,), (-1,)]
        with pytest.raises(ValueError, match="expected 3 vectors"):
            SolutionTuple.create(sys_ap3, ((1,), (1,), (1,), (2,)))
        with pytest.raises(ValueError, match="mixed dimensions"):
            SolutionTuple.create(sys_ap3, ((0,), (1,), (1, 0)))


class TestPointSet:
    def test_dedup_and_order(self):
        ps = PointSet.make([(1, 0), (1, 0), (0, 1)], 3)
        assert ps.points == ((1, 0), (0, 1))
        assert len(ps) == 2
        assert (1, 0) in ps

    def test_full_space(self):
        assert len(PointSet.full_space(2, 3)) == 9
        assert len(PointSet.full_space(2, 3, include_zero=False)) == 8

    def test_without(self):
        ps = PointSet.full_space(1, 3)
        assert ps.without([(0,)]).points == ((1,), (2,))


class TestInteresting:
    def test_dependent_tuple_is_not(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        assert not is_interesting(sys_ap3, points, (0, 1),
                                  ((1, 0), (2, 0)), 3)

    def test_wrong_index_size_rejected(self, sys_ap3):
        points = PointSet.full_space(2, 3)
        with pytest.raises(ValueError):
            is_interesting(sys_ap3, points, (0,), ((1, 0),), 3)

    def test_matches_enumeration_scan(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        ell = 3
        need = ell - sys_ap3.m - 1
        for idx in combinations(range(3), 2):
            rest = [j for j in range(3) if j not in idx]
            for tup in product(points.points, repeat=2):
                expected = False
                from fpsystems import span
                if span(tup, 3).dim == 2:
                    for sol in enumerate_solutions(sys_ap3, points):
                        if tuple(sol.entries[i] for i in idx) != tup:
                            continue
                        completion = {sol.entries[j] for j in rest}
                        if len(completion) >= need:
                            expected = True
                            break
                assert is_interesting(sys_ap3, points, idx, tup, ell) == expected

    def test_count_bound(self, sys_ap3, sys_k4):
        for spec, n in ((sys_ap3, 1), (sys_ap3, 2), (sys_k4, 1)):
            points = PointSet.full_space(n, 3, include_zero=False)
            report = count_interesting_tuples(spec, points, (0, 1), spec.k)
            assert report.count <= report.bound
            assert report.bound == spec.k**2 * 3**(spec.m * n)
            assert report.holds

    def test_empty_points_count_zero(self, sys_ap3):
        points = PointSet.make([], 3, n=2)
        report = count_interesting_tuples(sys_ap3, points, (0, 1), 3)
        assert report.count == 0


    def test_point_set_over_another_prime_rejected(self, sys_ap3):
        # scanned against the F_3 system, these F_5 points would give
        # count 328 against bound 81, a false failed bound
        points = PointSet.full_space(2, 5, include_zero=False)
        with pytest.raises(ValueError, match="point set prime differs"):
            count_interesting_tuples(sys_ap3, points, (0, 1), 3)

    def test_count_cap_raises_before_any_work(self, monkeypatch):
        import fpsystems.linsystem as linsystem

        def no_work(*args, **kwargs):
            raise AssertionError("tuples scanned despite the cap")
        monkeypatch.setattr(linsystem, "interesting_tuples", no_work)
        monkeypatch.setattr(linsystem, "rank", no_work)
        # the cap of 10^6 candidate pairs: 1009^2 > 10^6
        spec = SystemSpec.make([(1, 1, 1007)], 1009)
        with pytest.raises(CapExceededError):
            count_interesting_tuples(spec, PointSet.full_space(1, 1009),
                                     (0, 1), 3)


# points of F_5^3 with solutions of the m = 2 system below: pinning e1,
# e2, e3 at positions 0, 1, 2 solves x4 = (1,2,3), x5 = (3,2,1)
M2_POINTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (3, 2, 1), (1, 1, 0)]

REFERENCE_CASES = [
    ("x+y+z=0 F_3^2", [(1, 1, 1)], 3, None, PointSet.full_space(2, 3)),
    ("x+y+z=0 F_3^3*", [(1, 1, 1)], 3, None,
     PointSet.full_space(3, 3, include_zero=False)),
    ("x+y+2z+2w=0 F_3^2", [(1, 1, 2, 2)], 3, None, PointSet.full_space(2, 3)),
    ("x+y+z=(1,0) F_3^2", [(1, 1, 1)], 3, [(1, 0)], PointSet.full_space(2, 3)),
    ("m=2 F_5^3", [(1, 1, 1, 1, 1), (1, 2, 3, 4, 0)], 5, None,
     PointSet.make(M2_POINTS, 5)),
    # on these three points some tuples complete only with a repeated
    # entry, so the distinct count must leave out the pinned entries
    ("x1+...+x5=0 three points of F_3^2", [(1, 1, 1, 1, 1)], 3, None,
     PointSet.make([(0, 2), (0, 1), (1, 0)], 3)),
]


class TestInterestingAgainstReference:
    """The completion built once per index set against the earlier
    per-tuple pinned enumeration (``tests/oracles.py``)."""

    @pytest.mark.parametrize("coeffs,p,constants,points",
                             [case[1:] for case in REFERENCE_CASES],
                             ids=[case[0] for case in REFERENCE_CASES])
    def test_every_index_set_tuple_and_ell(self, coeffs, p, constants, points):
        spec = SystemSpec.make(coeffs, p, constants)
        m, k = spec.m, spec.k
        tuples = list(product(points.points, repeat=m + 1))
        found = 0
        for idx in combinations(range(k), m + 1):
            for ell in range(1, k + 1):
                expected = [tup for tup in tuples if reference_is_interesting(
                    spec, points, idx, tup, ell)]
                assert [tup for tup in tuples if is_interesting(
                    spec, points, idx, tup, ell)] == expected, (idx, ell)
                assert interesting_tuples(spec, points, [idx], ell,
                                          tuples) == expected
                report = count_interesting_tuples(spec, points, idx, ell)
                assert report.count == len(expected)
                found += len(expected)
        assert found

    @pytest.mark.parametrize("index_set,entries,ell", [
        ((0,), ((1, 0), (0, 1)), 3),
        ((0, 0), ((1, 0), (0, 1)), 3),
        ((0, 1, 2), ((1, 0), (0, 1)), 3),
        ((0, 1), ((1, 0),), 3),
        ((0, 1), ((1, 0), (0, 1), (1, 1)), 3),
        ((0, 3), ((1, 0), (0, 1)), 3),
        ((-1, 0), ((1, 0), (0, 1)), 3),
        ((0, 3), ((1, 0),), 3),
        ((0, 1), ((1, 0), (0, 1)), 0),
        ((0, 1), ((1, 0), (0, 1)), 4),
        ((0, 1), ((0, 0), (0, 1)), 3),
        ((0, 1), ((1, 0, 0), (0, 1)), 3),
    ])
    def test_same_exceptions(self, sys_ap3, index_set, entries, ell):
        points = PointSet.full_space(2, 3, include_zero=False)
        with pytest.raises((ValueError, IndexError)) as ref:
            reference_is_interesting(sys_ap3, points, index_set, entries, ell)
        with pytest.raises(ref.type) as ours:
            is_interesting(sys_ap3, points, index_set, entries, ell)
        assert type(ours.value) is ref.type
        assert str(ours.value) == str(ref.value)
        if len(entries) == 2 and all(x in points for x in entries):
            # an index set or ell fault: counting rejects it alike
            with pytest.raises(ref.type):
                count_interesting_tuples(sys_ap3, points, index_set, ell)

    @pytest.mark.parametrize("coeffs,p,constants,points",
                             [case[1:] for case in REFERENCE_CASES],
                             ids=[case[0] for case in REFERENCE_CASES])
    def test_index_sets_grouped_in_order(self, coeffs, p, constants, points):
        # one scan over every index set, in reverse order to show the
        # groups follow the given order, not the sorted one
        spec = SystemSpec.make(coeffs, p, constants)
        tuples = list(product(points.points, repeat=spec.m + 1))
        index_sets = list(combinations(range(spec.k), spec.m + 1))[::-1]
        for ell in range(1, spec.k + 1):
            expected = [tup for idx in index_sets
                        for tup in interesting_tuples(spec, points, [idx],
                                                      ell, tuples)]
            assert interesting_tuples(spec, points, index_sets, ell,
                                      iter(tuples)) == expected

    @pytest.mark.parametrize("entries", [
        ((1, 0),),
        ((1, 0), (0, 1), (1, 1)),
        ((4, 0), (0, 1)),
        ((0, 0), (0, 1)),
        ((1, 0, 0), (0, 1)),
    ])
    def test_tuples_checked(self, sys_ap3, entries):
        # wrong length, unreduced, or off the point set: an error, as in
        # is_interesting, never a silent False
        points = PointSet.full_space(2, 3, include_zero=False)
        good = ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            interesting_tuples(sys_ap3, points, [(0, 1)], 3, [good, entries])


class TestFewUnpinnedColumns:
    """k < 2m + 1 with generic minors: fewer than m columns remain off
    the m + 1 pinned positions, so some pivots are pinned and their
    solved entries must equal the pinned points."""

    ROWS = [(1, 1, 1, 0), (0, 1, 2, 1)]
    POINTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1),
              (2, 0, 1), (0, 2, 2), (1, 2, 0)]

    @pytest.mark.parametrize("constants", [None, [(1, 0, 0), (0, 1, 0)]])
    def test_matches_brute_force(self, constants):
        spec = SystemSpec.make(self.ROWS, 3, constants)
        assert spec.generic_minors and spec.k < 2 * spec.m + 1
        points = PointSet.make(self.POINTS, 3)
        sols = brute_solutions(self.ROWS, constants, 3, self.POINTS, 3)
        found = 0
        for idx in combinations(range(4), 3):
            rest = [j for j in range(4) if j not in idx]
            for tup in product(self.POINTS, repeat=3):
                independent = rank_by_minors([list(x) for x in tup], 3) == 3
                for ell in range(1, 5):
                    expected = independent and any(
                        tuple(s[i] for i in idx) == tup
                        and len({s[j] for j in rest}) >= ell - 3
                        for s in sols)
                    assert is_interesting(spec, points, idx, tup,
                                          ell) == expected
                    found += expected
        # homogeneous: eliminating the lone free variable leaves a
        # nontrivial relation no independent triple satisfies
        assert bool(found) == (constants is not None)

    @pytest.mark.parametrize("constants", [None, [(1, 0, 0), (0, 1, 0)]])
    def test_pinned_enumeration_matches_brute_force(self, constants):
        # three pins leave one unpinned column, so one pivot is pinned
        spec = SystemSpec.make(self.ROWS, 3, constants)
        points = PointSet.make(self.POINTS, 3)
        sols = brute_solutions(self.ROWS, constants, 3, self.POINTS, 3)
        found = 0
        for idx in combinations(range(4), 3):
            for tup in product(self.POINTS, repeat=3):
                ours = [s.entries for s in enumerate_solutions(
                    spec, points, pinned=dict(zip(idx, tup)))]
                expected = [s for s in sols
                            if tuple(s[i] for i in idx) == tup]
                assert sorted(ours) == sorted(expected)
                found += len(expected)
        assert found

    def test_hopeless_index_sets_skip_the_rank_test(self, deadline):
        # homogeneous, k < 2m + 1: every index set has a pinned pivot and
        # no free position, so no independent triple is interesting and
        # the 17,576 triples need no rank test past the first
        spec = SystemSpec.make(self.ROWS, 3)
        points = PointSet.full_space(3, 3, include_zero=False)
        index_sets = list(combinations(range(4), 3))
        with deadline(0.3):
            found = interesting_tuples(spec, points, index_sets, 3,
                                       product(points.points, repeat=3))
        assert found == []

    def test_hopeless_index_sets_still_check_every_tuple(self):
        spec = SystemSpec.make(self.ROWS, 3)
        points = PointSet.full_space(3, 3, include_zero=False)
        independent = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for bad in [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 0))]:
            with pytest.raises(ValueError):
                interesting_tuples(spec, points, [(0, 1, 2)], 3,
                                   [independent, bad])


@st.composite
def completion_cases(draw):
    """A system over p in {2, 3, 5, 7} with m <= 3 and k <= 6, affine or
    not, an ambient dimension n in 0..3 and a pinned position list in
    drawn order."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 3))
    coord = st.integers(0, p - 1)
    coeffs = draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    constants = draw(st.none() | st.lists(st.tuples(*[coord] * n),
                                          min_size=m, max_size=m))
    pinned = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
    return SystemSpec.make(coeffs, p, constants), n, pinned


_SETUP_FIELDS = ("pivots", "free", "open_pivots", "pinned_pivots", "const",
                 "weights")


def _setup(build):
    try:
        return build()
    except DegenerateSystemError as exc:
        return str(exc)


class TestCompletionSetup:
    """The pivot solver's set-up from one reduced echelon form against
    the earlier pivots, inverse minor and products
    (``tests/oracles.py``)."""

    @settings(max_examples=200)
    @given(completion_cases())
    def test_same_setup(self, case):
        spec, n, pinned = case

        def ours():
            completion = linsystem._Completion(spec, n, pinned)
            return {name: getattr(completion, name) for name in _SETUP_FIELDS}

        expected = _setup(lambda: reference_completion_setup(spec, n, pinned))
        assert _setup(ours) == expected
        if isinstance(expected, str):
            assert rank_by_minors([list(r) for r in spec.coeffs], spec.p) < spec.m

    def test_one_elimination_per_completion(self, sys_m2, monkeypatch):
        affine = SystemSpec.make(sys_m2.coeffs, 5, [(1, 2), (3, 4)])
        calls = []
        original = fplinalg.rref_with_pivots

        def spy(rows, p):
            calls.append(1)
            return original(rows, p)

        monkeypatch.setattr(fplinalg, "rref_with_pivots", spy)
        monkeypatch.setattr(linsystem, "rref_with_pivots", spy)
        built = 0
        for spec in (sys_m2, affine):
            for pinned in [(), (0,), (4, 1), (0, 1, 2, 4), (3, 2, 1, 0, 4)]:
                linsystem._Completion(spec, 2, pinned)
                built += 1
        assert len(calls) == built


REFERENCE_CASES_FOR_ENUMERATION = REFERENCE_CASES + [
    ("x+y+2z+2w=0 F_3^2*", [(1, 1, 2, 2)], 3, None,
     PointSet.full_space(2, 3, include_zero=False)),
    ("x+y+z=(1,0) F_5^2", [(1, 1, 1)], 5, [(1, 0)], PointSet.full_space(2, 5)),
]


@st.composite
def enumeration_cases(draw):
    """A system (affine or not) with m in {1, 2} and k <= 5, a point set
    (all of F_p^n when that has at most nine points, or up to six of
    them), a filter, and a pinned map whose vectors mostly lie in the
    point set; with m = 2 and three or more pins, some pinned positions
    are pivots."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(m + 1, 5))
    n = draw(st.integers(1, 2))
    coord = st.integers(0, p - 1)
    vec = st.tuples(*[coord] * n)
    coeffs = draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    constants = draw(st.none() | st.lists(vec, min_size=m, max_size=m))
    spec = SystemSpec.make(coeffs, p, constants)
    if p**n <= 9 and draw(st.booleans()):
        points = PointSet.full_space(n, p)
    else:
        points = PointSet.make(draw(st.lists(vec, min_size=1, max_size=6)), p, n)
    mode = draw(st.sampled_from(["any", "not-all-equal", "distinct",
                                 "span-dim", "distinct-count"]))
    flt = ClassFilter(mode, r=draw(st.integers(1, 3)) if mode == "span-dim" else None,
                      ell=draw(st.integers(1, k)) if mode == "distinct-count" else None)
    positions = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
    member = st.sampled_from(points.points)
    pinned = {pos: draw(st.one_of(member, member, member, vec))
              for pos in positions}
    return spec, points, flt, pinned


def _outcome(run):
    try:
        return [(s.entries, s.distinct_count, s.span_dim, s.all_equal)
                for s in run()]
    except DegenerateSystemError as exc:
        return str(exc)


class TestEnumerateAgainstReference:
    """The single completion kernel against the earlier per-assignment
    loop (``tests/oracles.py``): the same solutions in the same order,
    with the same classification."""

    @settings(max_examples=150)
    @given(enumeration_cases())
    def test_same_sequence(self, case):
        spec, points, flt, pinned = case
        ours = _outcome(lambda: enumerate_solutions(spec, points, flt, pinned))
        assert ours == _outcome(
            lambda: reference_enumerate_solutions(spec, points, flt, pinned))

    @pytest.mark.parametrize("constants", [None, [(1, 0, 0), (0, 1, 0)]])
    def test_pinned_pivots(self, constants):
        # k = 4 < 2m + 1: pinning three positions leaves one unpinned
        # column, so one pivot is pinned and must solve to its pin
        spec = SystemSpec.make(TestFewUnpinnedColumns.ROWS, 3, constants)
        points = PointSet.make(TestFewUnpinnedColumns.POINTS, 3)
        found = 0
        for idx in combinations(range(4), 3):
            assert any(j in idx for j in pivot_columns(spec, pinned=idx))
            for tup in product(points.points, repeat=3):
                pinned = dict(zip(idx, tup))
                ours = _outcome(lambda: enumerate_solutions(
                    spec, points, pinned=pinned))
                assert ours == _outcome(lambda: reference_enumerate_solutions(
                    spec, points, pinned=pinned))
                found += len(ours)
        assert found

    @pytest.mark.parametrize("coeffs,p,constants,points",
                             [case[1:] for case in REFERENCE_CASES_FOR_ENUMERATION],
                             ids=[case[0] for case in REFERENCE_CASES_FOR_ENUMERATION])
    def test_every_filter_on_known_systems(self, coeffs, p, constants, points):
        spec = SystemSpec.make(coeffs, p, constants)
        filters = [ClassFilter.any(), ClassFilter.not_all_equal(),
                   ClassFilter.distinct()]
        filters += [ClassFilter.span_at_least(r) for r in (1, 2, 3)]
        filters += [ClassFilter.distinct_at_least(ell)
                    for ell in range(1, spec.k + 1)]
        for flt in filters:
            ours = _outcome(lambda: enumerate_solutions(spec, points, flt))
            assert ours == _outcome(
                lambda: reference_enumerate_solutions(spec, points, flt))
            assert isinstance(ours, list)


class TestSystemFiles:
    def test_roundtrip(self, tmp_path, sys_m2):
        path = tmp_path / "system.txt"
        write_system_file(path, sys_m2)
        back = read_system_file(path)
        assert back == sys_m2

    def test_roundtrip_with_constants(self, tmp_path):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1, 2)])
        path = tmp_path / "system.txt"
        write_system_file(path, spec)
        back = read_system_file(path)
        assert back == spec
        assert not back.homogeneous

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_system_file(io.StringIO("p=3 m=2 k=3\n1 1 1\n"))
        with pytest.raises(ValueError):
            read_system_file(io.StringIO("p=4 m=1 k=3\n1 1 1\n"))
