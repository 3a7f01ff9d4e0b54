import io
import random
import tracemalloc
from functools import reduce
from itertools import combinations, islice, product
from math import comb
from operator import or_

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    ClassFilter,
    DegenerateSystemError,
    PointSet,
    SolutionTuple,
    SystemSpec,
    count_interesting_tuples,
    count_solutions,
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
from fpsystems.sampling import sampling_step_distinct
from fpsystems.search import AvoidanceProblem, greedy_lower_bound
from .oracles import (
    brute_solutions,
    rank_by_minors,
    reference_completion_setup,
    reference_enumerate_solutions,
    reference_failing_minors,
    reference_is_interesting,
    reference_is_solution,
    reference_restrict_to,
    reference_start,
    reference_walk,
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

    def test_make_eliminates_no_minor(self, spy):
        calls = spy(linsystem._singular_minors)
        spec = SystemSpec.make([(1, 1, 1, 1, 1), (1, 2, 3, 4, 0)], 5)
        assert calls == []
        assert spec.rows_sum_zero and calls == []

    def test_each_minor_eliminated_once(self, spy):
        # one 2 x 2 minor of the ten is singular: columns 0 and 4.  The
        # flag and the report share one scan
        calls = spy(linsystem._singular_minors)
        spec = SystemSpec.make([(1, 1, 1, 1, 1), (1, 2, 3, 4, 1)], 5)
        assert not spec.generic_minors
        rep = validate(spec)
        assert rep.failing_minors == ((0, 4),) and not rep.generic_minors
        assert len(calls) == 1

    def test_failing_minors_match_the_scan_from_scratch(self):
        # small primes and repeated or zero columns make singular minors
        # common, and with them prefixes that every extension fails on
        rng = random.Random(5)
        for p in (2, 3, 5, 7, 11):
            for _ in range(30):
                m, k = rng.randint(1, 4), rng.randint(2, 9)
                columns = [[rng.randrange(p) for _ in range(m)]
                           for _ in range(k)]
                for j in rng.sample(range(k), rng.randint(0, k // 2)):
                    columns[j] = list(rng.choice(columns)) if rng.random() < 0.7 \
                        else [0] * m
                spec = SystemSpec.make(list(zip(*columns)), p)
                assert spec._failing_minors == reference_failing_minors(spec)

    def test_large_validate_in_time(self, deadline):
        # C(20, 8) = 125,970 minors of size 8: each eliminated from
        # scratch, the scan took 5 to 7 s on a 2-core Xeon
        rng = random.Random(1)
        spec = SystemSpec.make([[rng.randrange(11) for _ in range(20)]
                                for _ in range(8)], 11)
        with deadline(3):
            rep = validate(spec)
        assert len(rep.failing_minors) == 12_160

    def test_minor_count_capped_before_any_elimination(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("a minor was eliminated")

        rows = [(1, 1, 1, 1, 1), (1, 2, 3, 4, 0)]
        monkeypatch.setattr(linsystem, "DEFAULT_WORK_CAP", 10)
        assert SystemSpec.make(rows, 5).generic_minors
        monkeypatch.setattr(linsystem, "DEFAULT_WORK_CAP", 9)
        monkeypatch.setattr(linsystem, "_singular_minors", no_elimination)
        with pytest.raises(CapExceededError,
                           match="^10 coefficient minors exceed the cap 9$"):
            SystemSpec.make(rows, 5)


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

    def test_span_dim_encodes_no_entry_per_solution(self, sys_k4, monkeypatch):
        # 1 1 2 2 over F_3^3, span dimension at least 3: the filter ranks
        # the codes the walk holds, so listing every solution encodes no
        # more points than listing the first
        flt = ClassFilter.span_at_least(3)
        encode = linsystem._PointCodes.encode
        calls = []

        def spy(self, v):
            calls.append(1)
            return encode(self, v)

        monkeypatch.setattr(linsystem._PointCodes, "encode", spy)
        counts = []
        for most in (1, None):
            linsystem._completion.cache_clear()
            calls.clear()
            sols = list(islice(enumerate_solutions(
                sys_k4, PointSet.full_space(3, 3), flt), most))
            counts.append(len(calls))
        assert len(sols) == 11232
        assert counts[0] == counts[1]

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
        reduce = linsystem.reduce_vectors
        monkeypatch.setattr(linsystem, "reduce_vectors",
                            lambda xs, p: calls.append(xs) or reduce(xs, p))
        sol = SolutionTuple.create(sys_ap3, ((3,), (4,), (-1,)))
        assert sol.entries == ((0,), (1,), (2,))
        assert calls == [((3,), (4,), (-1,))]
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

    def test_full_space_capped_before_any_point(self, monkeypatch, deadline,
                                                int_digits_4300):
        # 3^(10^8) points were built one by one
        with deadline(1), pytest.raises(
                CapExceededError,
                match=r"^3\^100000000 points exceed the cap 1000000$"):
            PointSet.full_space(10**8, 3)
        monkeypatch.setattr(linsystem, "DEFAULT_WORK_CAP", 8)
        assert len(PointSet.full_space(2, 3, include_zero=False)) == 8
        with pytest.raises(CapExceededError,
                           match="^9 points exceed the cap 8$"):
            PointSet.full_space(2, 3)

    def test_without(self):
        ps = PointSet.full_space(1, 3)
        assert ps.without([(0,)]).points == ((1,), (2,))


def _layout(codes) -> str:
    """The point-code layout of ``codes``: full tables, a single
    coordinate modulo p, or halves split over either."""
    row = codes.add[0]
    return ("tables" if isinstance(row, list) else
            "mod" if isinstance(row, linsystem._ModRow) else
            "split" if isinstance(row.hi, list) else "split over mod")


class TestRestrict:
    """``PointSet.restrict_to`` clears point codes by the subspace's
    basis codes; the earlier test reduced each point in coordinates
    (``reference_restrict_to``)."""

    @pytest.mark.parametrize("p, n, layout", [
        (2, 4, "tables"), (3, 3, "tables"), (3, 6, "split"), (5, 4, "split"),
        (257, 1, "mod"), (65537, 1, "mod"), (1009, 2, "split over mod")])
    def test_same_points_as_the_coordinate_test(self, p, n, layout):
        assert _layout(linsystem._point_codes(p, n)) == layout
        rng = random.Random(p * 10 + n)
        inside = outside = 0
        for d in range(n + 1):
            for _ in range(3):
                v = fplinalg.random_subspace(n, d, p, rng)
                # members of V, combinations of its basis, among points
                # drawn from the whole space, shuffled
                pts = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(30)]
                for _ in range(10):
                    cs = [rng.randrange(p) for _ in v.basis]
                    pts.append(tuple(sum(c * row[j] for c, row in zip(cs, v.basis)) % p
                                     for j in range(n)))
                if p**n <= 1000:
                    pts += rng.sample(list(product(range(p), repeat=n)),
                                      rng.randrange(p**n + 1))
                rng.shuffle(pts)
                points = PointSet.make(pts, p, n)
                want = reference_restrict_to(points, v)
                got = points.restrict_to(v)
                assert (got.p, got.n, got.points) == (want.p, want.n, want.points)
                inside += len(want)
                outside += len(points) - len(want)
        assert inside and outside

    def test_zero_and_whole_space(self):
        points = PointSet.make([(2, 1), (0, 0), (1, 2), (0, 1)], 3)
        zero = fplinalg.span([], 3, 2)
        assert points.restrict_to(zero).points == ((0, 0),)
        assert points.restrict_to(fplinalg.span([(1, 0), (0, 1)], 3)) == points
        assert points.restrict_to(fplinalg.span([(1, 2)], 3)).points == (
            (2, 1), (0, 0), (1, 2))
        assert PointSet.make([()], 5).restrict_to(fplinalg.span([], 5, 0)).points == ((),)

    def test_no_coordinate_reduction(self, monkeypatch):
        def no_reduce(self, v):
            raise AssertionError("a point was reduced in coordinates")

        monkeypatch.setattr(fplinalg.Subspace, "reduce", no_reduce)
        points = PointSet.full_space(3, 3)
        v = fplinalg.span([(1, 1, 0), (0, 1, 2)], 3)
        assert len(points.restrict_to(v)) == 9

    def test_other_prime_or_dimension_refused_before_any_point(self, monkeypatch):
        def unread(self):
            raise AssertionError("a point was read")

        # reduced mod 3, (3, 4) read as (0, 1) and the set gave ((1, 0),)
        five = PointSet.make([(1, 0), (0, 1), (3, 4)], 5, 2)
        empty = PointSet.make([], 3, 2)
        other = PointSet.make([(1, 0, 0)], 3)
        monkeypatch.setattr(PointSet, "_codes", property(unread))
        monkeypatch.setattr(PointSet, "points", property(unread), raising=False)
        line = fplinalg.span([(1, 0)], 3)
        with pytest.raises(ValueError, match="^subspace prime differs from point set prime$"):
            five.restrict_to(line)
        with pytest.raises(ValueError,
                           match="^vector dimension differs from ambient dimension$"):
            empty.restrict_to(fplinalg.span([(1, 0, 0)], 3))
        with pytest.raises(ValueError,
                           match="^vector dimension differs from ambient dimension$"):
            other.restrict_to(line)


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

    def test_completions_capped(self, monkeypatch, deadline):
        # the 676 candidate pairs of eight ones walked 5 s of completions
        points = PointSet.full_space(3, 3, include_zero=False)
        with deadline(2):
            with pytest.raises(CapExceededError, match=(
                    "^1000001 tuple completions exceed the cap 1000000$")):
                count_interesting_tuples(SystemSpec.make([(1,) * 8], 3),
                                         points, (0, 1), 8)
        # six ones over nonzero F_3^2 walk 522 completions in all
        spec = SystemSpec.make([(1,) * 6], 3)
        points = PointSet.full_space(2, 3, include_zero=False)
        monkeypatch.setattr(linsystem, "DEFAULT_WORK_CAP", 522)
        assert count_interesting_tuples(spec, points, (0, 1), 6).count == 48
        monkeypatch.setattr(linsystem, "DEFAULT_WORK_CAP", 521)
        with pytest.raises(CapExceededError,
                           match="^522 tuple completions exceed the cap 521$"):
            count_interesting_tuples(spec, points, (0, 1), 6)

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


def _memo_cases():
    """(coefficients, constants, points, ell): affine systems with m = 2
    and k = 4 over F_3^3, where an index set of three positions leaves
    one unpinned column and so takes a pinned pivot, and homogeneous
    systems with m = 1 and k = 4, 5, whose walks have free positions."""
    vector = st.tuples(*[st.integers(0, 2)] * 3)

    def rows(m, k):
        return st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k),
                        min_size=m, max_size=m)

    affine = st.tuples(rows(2, 4), st.lists(vector, min_size=2, max_size=2))
    homogeneous = st.tuples(st.integers(4, 5).flatmap(lambda k: rows(1, k)), st.none())
    return st.tuples(st.one_of(affine, homogeneous),
                     st.lists(vector, min_size=2, max_size=6, unique=True),
                     st.integers(1, 5))


class TestInterestingMemo:
    """Each index set walks once per pinned partial sum and pinned-pivot
    entry in a call; later tuples with that key take the answer."""

    @settings(max_examples=200)
    @given(_memo_cases())
    def test_same_as_reference(self, case):
        (coeffs, constants), pts, ell = case
        assume(rank_by_minors(coeffs, 3) == len(coeffs))
        spec = SystemSpec.make(coeffs, 3, constants)
        ell = min(ell, spec.k)
        points = PointSet.make(pts, 3)
        tuples = list(product(points.points, repeat=spec.m + 1))
        index_sets = list(combinations(range(spec.k), spec.m + 1))
        expected = [tup for idx in index_sets for tup in tuples
                    if reference_is_interesting(spec, points, idx, tup, ell)]
        assert interesting_tuples(spec, points, index_sets, ell, tuples) == expected

    @pytest.mark.parametrize("coeffs,constants,n,walks", [
        # per index set, one walk per nonzero partial sum: 3 * 26 walks
        # for the 3 * 624 independent pairs, 6 * 8 for the 6 * 48
        ([(1, 1, 1)], None, 3, 78),
        ([(1, 1, 2, 2)], None, 2, 48),
        # a pinned pivot, whose entry is part of the key
        ([(1, 1, 1, 1), (1, 2, 0, 1)], [(1, 0, 0), (0, 1, 2)], 3, None),
    ])
    def test_one_walk_per_key(self, monkeypatch, coeffs, constants, n, walks):
        spec = SystemSpec.make(coeffs, 3, constants)
        points = PointSet.full_space(n, 3, include_zero=False)
        walked = []
        walk = linsystem._Completion.walk

        def spy(self, pools, tables, pins=()):
            walked.append((self.pinned, tuple(self.start(pins)),
                           tuple(pins[i] for _, i in self.pinned_pivots)))
            return walk(self, pools, tables, pins)

        monkeypatch.setattr(linsystem._Completion, "walk", spy)
        index_sets = list(combinations(range(spec.k), spec.m + 1))
        tuples = list(product(points.points, repeat=spec.m + 1))
        found = interesting_tuples(spec, points, index_sets, spec.k, tuples)
        assert found and len(set(walked)) == len(walked)
        assert walks is None or len(walked) == walks

    def test_label_pool_linear_in_the_point_set(self):
        # each point is labelled by its index: one bit per point made
        # the pool quadratic, 3.4 MiB at n = 8 and 27.3 MiB at n = 9
        spec = SystemSpec.make([(1, 1, 1)], 3)
        peaks = []
        for n in (8, 9):
            points = PointSet.full_space(n, 3)
            pair = [(points.points[1], points.points[3])]
            assert interesting_tuples(spec, points, [(0, 1)], 3, pair) == pair
            tracemalloc.start()
            try:
                interesting_tuples(spec, points, [(0, 1)], 3, pair)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0], peaks


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

    def test_each_completion_built_once_across_calls(self, sys_ap3, monkeypatch):
        # greedy pins position 0 (all three columns are equal) and
        # checks its witness unpinned; the deletion step pins each pair
        # of the three positions.  Repeated calls build nothing more
        made = []
        init = linsystem._Completion.__init__

        def spy(self, sys_spec, n, pinned=()):
            made.append(tuple(pinned))
            init(self, sys_spec, n, pinned)

        monkeypatch.setattr(linsystem._Completion, "__init__", spy)
        linsystem._completion.cache_clear()
        problem = AvoidanceProblem(sys_ap3, ClassFilter.not_all_equal(), 2)
        points = PointSet.full_space(2, 3, include_zero=False)
        for seed in (1, 2):
            greedy_lower_bound(problem, restarts=1, rng=random.Random(seed))
        for seed in (1, 2):
            sampling_step_distinct(sys_ap3, points, 3, 2, random.Random(seed))
        assert made == [(0,), (), (0, 1), (0, 2), (1, 2)]


@pytest.fixture(params=[None, 49, 1], ids=["tables", "split", "mod"])
def table_cap(request, monkeypatch):
    """The point-code layouts: the default cap, under which F_p^n has
    full tables while p^(2n) fits; 49, where a space of p <= 7 over two
    or more coordinates (but F_2^2) splits into halves with tables; and
    1, where every coordinate works modulo p."""
    if request.param is not None:
        monkeypatch.setattr(linsystem, "_TABLE_CAP", request.param)
    linsystem._point_codes.cache_clear()
    yield request.param
    linsystem._point_codes.cache_clear()


def _coded_table(codes, table: dict):
    out = codes.table()
    for v, label in table.items():
        out[codes.encode(v)] = label
    return out


@st.composite
def walk_cases(draw):
    """A completion case of rank m <= 2 over n >= 1 coordinates, with a
    labelled pool drawn from F_p^n per free position, a labelled table
    per open pivot and a pinned point per pinned position."""
    spec, n, pinned = draw(completion_cases().filter(
        lambda case: case[0].m <= 2 and case[1] >= 1))
    try:
        setup = reference_completion_setup(spec, n, pinned)
    except DegenerateSystemError:
        assume(False)
    point = st.tuples(*[st.integers(0, spec.p - 1)] * n)
    points = st.lists(point, unique=True, max_size=4)
    pools = [[(v, (pos, i)) for i, v in enumerate(draw(points))]
             for pos in setup["free"]]
    tables = [{v: ("pivot", r, i) for i, v in enumerate(draw(points))}
              for r in setup["open_pivots"]]
    pins = [draw(point) for _ in pinned]
    return spec, n, pinned, pools, tables, pins


class TestPointCodes:
    """Point codes against coordinate arithmetic, in every layout."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_sums_and_multiples(self, table_cap, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 4))
        point = st.tuples(*[st.integers(0, p - 1)] * n)
        u, v, w = data.draw(point), data.draw(point), data.draw(st.integers(0, p - 1))
        codes = linsystem._point_codes(p, n)
        assert isinstance(codes.add, list) == (p ** (2 * n) <= linsystem._TABLE_CAP)
        a, b = codes.encode(u), codes.encode(v)
        assert a == list(product(range(p), repeat=n)).index(u)
        assert codes.decode(a) == u
        assert codes.decode(codes.add[a][b]) == tuple((x + y) % p for x, y in zip(u, v))
        assert codes.decode(codes.scale[w][b]) == tuple(w * y % p for y in v)

    @pytest.mark.parametrize("p, n, layout", [
        (2, 3, "tables"), (3, 4, "tables"), (5, 2, "tables"), (7, 0, "tables"),
        (3, 6, "split"), (5, 4, "split"), (257, 1, "mod"), (65537, 1, "mod"),
        (1009, 2, "split over mod")])
    def test_rank_matches_minors(self, p, n, layout):
        codes = linsystem._point_codes(p, n)
        assert _layout(codes) == layout
        rng = random.Random(p * 10 + n)

        def point():
            return tuple(rng.randrange(p) for _ in range(n))

        for _ in range(40):
            # random points, zero, repeats and combinations of earlier ones
            rows = [point()]
            for _ in range(rng.randrange(6)):
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randrange(p), rng.randrange(p)
                rows.append(rng.choice([point(), (0,) * n, a,
                                        tuple((s * x + t * y) % p for x, y in zip(a, b))]))
            rng.shuffle(rows)
            want = rank_by_minors(rows, p)
            xs = [codes.encode(v) for v in rows]
            assert codes.rank(xs, n + 1) == want
            for limit in range(1, n + 1):
                assert codes.rank(xs, limit) == min(want, limit)

    def test_rank_stops_at_its_limit(self):
        codes = linsystem._point_codes(3, 4)
        xs = iter([0, codes.encode((0, 1, 0, 0)), codes.encode((0, 2, 0, 0)),
                   codes.encode((1, 0, 0, 0)), codes.encode((1, 1, 1, 1))])
        assert codes.rank(xs, 2) == 2
        assert list(xs) == [codes.encode((1, 1, 1, 1))]
        assert codes.rank(iter([]), 1) == 0
        assert linsystem._point_codes(3, 0).rank([0, 0], 1) == 0


class TestStart:
    """The pivots' partial sums with the pins folded in, on point codes,
    against the same sums on coordinates (``reference_start``)."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              max_examples=200)
    @given(st.data())
    def test_matches_coordinate_sums(self, table_cap, data):
        spec, n, pinned = data.draw(completion_cases().filter(lambda case: case[2]))
        try:
            completion = linsystem._Completion(spec, n, pinned)
        except DegenerateSystemError:
            assume(False)
        point = st.tuples(*[st.integers(0, spec.p - 1)] * n)
        pins = [data.draw(point) for _ in pinned]
        codes = completion.codes
        got = completion.start(list(map(codes.encode, pins)))
        assert list(map(codes.decode, got)) == reference_start(completion, pins)

    @pytest.mark.parametrize("constants", [None, [(1, 0, 2), (0, 1, 1)]])
    def test_pinned_pivots_and_constants(self, table_cap, constants):
        # three pins on four columns leave one unpinned, so one pivot is
        # pinned; two pins leave both pivots open
        spec = SystemSpec.make([(1, 1, 1, 0), (0, 1, 2, 1)], 3, constants)
        rng = random.Random(3)
        shapes = set()
        for pinned in [(0, 1, 2), (3, 1, 0), (2, 3), (1,)]:
            completion = linsystem._Completion(spec, 3, pinned)
            shapes.add(bool(completion.pinned_pivots))
            codes = completion.codes
            for _ in range(20):
                pins = [tuple(rng.randrange(3) for _ in range(3)) for _ in pinned]
                got = completion.start(list(map(codes.encode, pins)))
                assert list(map(codes.decode, got)) == reference_start(completion, pins)
        assert shapes == {False, True}


def _labelled(walked) -> list:
    """The oracle walk's (prefix, ends) with each prefix pair's label
    alone, as ``_Completion.walk`` yields it."""
    return [(tuple(label for _, label in prefix), ends) for prefix, ends in walked]


class TestCodedWalk:
    """The walk on point codes against the walk on coordinate tuples
    (``tests/oracles.py``), prefix for prefix, the oracle's (point,
    label) pairs read as the labels the walk yields."""

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.filter_too_much])
    @given(walk_cases())
    def test_same_prefixes_and_ends(self, table_cap, case):
        spec, n, pinned, pools, tables, pins = case
        completion = linsystem._Completion(spec, n, pinned)
        codes = completion.codes
        walked = completion.walk(
            [[(codes.encode(v), label) for v, label in pool] for pool in pools],
            [_coded_table(codes, table) for table in tables],
            [codes.encode(v) for v in pins])
        assert list(walked) == _labelled(reference_walk(completion, pools, tables, pins))


# (coeffs, p, constants, n): free positions in one column class, two
# classes, equal columns split by a pivot (position 0 of 1 1 2 2 is the
# pivot, position 1 its equal column), two equations, affine constants,
# one free position and none
ORBIT_CASES = [
    ([(1,) * 6], 3, None, 2),
    ([(1, 1, 2, 2)], 3, None, 2),
    ([(2, 1, 1, 2, 2)], 3, None, 2),
    ([(1, 1, 1, 0), (0, 1, 1, 1)], 3, None, 2),
    ([(1, 2, 2, 1, 1), (0, 1, 1, 2, 2)], 3, [(1, 0), (0, 1)], 2),
    ([(1, 1, 2, 2, 1)], 5, [(2,)], 1),
    ([(1, 1, 1, 1)], 2, [(1, 0, 1)], 3),
    ([(1, 3, 1, 3)], 5, None, 1),
    ([(1, 1)], 3, [(1, 2)], 2),
    ([(1, 0), (0, 1)], 3, [(1, 0), (0, 2)], 2),
]


orbit_cases = pytest.mark.parametrize(
    "case", ORBIT_CASES, ids=lambda c: f"{c[0]}-p{c[1]}-b{c[2]}-n{c[3]}")


def _bounded_walk(completion, pool, table):
    """The walk over one solution per orbit of equal weight columns, one
    pool at every free position and one table at every open pivot."""
    return completion.walk([pool] * len(completion.free),
                           [table] * len(completion.open_pivots), (),
                           completion._plan[0])


class TestOrbitSupports:
    """The walk over one solution per orbit of equal weight columns
    reaches the supports of the coordinate-tuple walk
    (``tests/oracles.py``), on random pools."""

    @orbit_cases
    def test_walk_takes_every_ordering(self, table_cap, case):
        # the plain walk shares the orbit walk's prefixes with no lower
        # bound, so equal columns still take every ordering
        coeffs, p, constants, n = case
        completion = linsystem._Completion(SystemSpec.make(coeffs, p, constants), n)
        codes = completion.codes
        bits = {v: 1 << i for i, v in enumerate(product(range(p), repeat=n))}
        pool = [(codes.encode(v), bit) for v, bit in bits.items()]
        free, open_pivots = len(completion.free), len(completion.open_pivots)
        walked = completion.walk([pool] * free, [_coded_table(codes, bits)] * open_pivots)
        assert list(walked) == _labelled(reference_walk(
            completion, [list(bits.items())] * free, [bits] * open_pivots))

    @orbit_cases
    def test_free_assignments_counted(self, table_cap, case):
        # over the whole space every free assignment solves the pivots
        # inside it, so the ends count the assignments walked: N^f for
        # the plain walk, and C(N + c - 1, c) multisets per class of c
        # equal free columns, multiplied, for the bounded one, which is
        # the count the exhaustive search caps before it walks
        coeffs, p, constants, n = case
        completion = linsystem._Completion(SystemSpec.make(coeffs, p, constants), n)
        codes = completion.codes
        bits = {v: 1 << i for i, v in enumerate(product(range(p), repeat=n))}
        pool = [(codes.encode(v), bit) for v, bit in bits.items()]
        table = _coded_table(codes, bits)
        size, free = len(pool), len(completion.free)
        classes: dict = {}
        for j in completion.free:
            column = tuple(completion.weights[j])
            classes[column] = classes.get(column, 0) + 1
        multisets = 1
        for c in classes.values():
            multisets *= comb(size + c - 1, c)
        plain = completion.walk([pool] * free, [table] * len(completion.open_pivots))
        assert sum(len(ends) for _, ends in plain) == size ** free
        bounded = _bounded_walk(completion, pool, table)
        assert sum(len(ends) for _, ends in bounded) == multisets
        assert linsystem._orbit_walk_work(completion, size) == multisets

    @orbit_cases
    def test_same_supports_as_the_plain_walk(self, table_cap, case):
        coeffs, p, constants, n = case
        completion = linsystem._Completion(SystemSpec.make(coeffs, p, constants), n)
        codes = completion.codes
        space = list(product(range(p), repeat=n))
        rng = random.Random(4)
        for _ in range(12):
            points = rng.sample(space, rng.randint(0, len(space)))
            bits = {v: 1 << i for i, v in enumerate(points)}
            pool = [(codes.encode(v), bit) for v, bit in bits.items()]
            walked = reference_walk(completion, [list(bits.items())] * len(completion.free),
                                    [bits] * len(completion.open_pivots))
            supports = set()
            for prefix, ends in walked:
                mask = 0
                for _, bit in prefix:
                    mask |= bit
                for end in ends:
                    support = mask
                    for bit in end:
                        support |= bit
                    supports.add(support)
            found = set()
            for prefix, ends in _bounded_walk(completion, pool, _coded_table(codes, bits)):
                for end in ends:
                    found.add(reduce(or_, prefix + end, 0))
            assert found == supports

    def test_each_partial_sum_completed_once(self, monkeypatch):
        # six ones over F_3^2: the four head entries sum to one of the 9
        # points, and each sum is completed once, over the whole pool,
        # whatever lower bound the orbit puts on the last free entry
        spec = SystemSpec.make([(1,) * 6], 3)
        completion = linsystem._Completion(spec, 2)
        codes = completion.codes
        pool = [(codes.encode(v), 1 << i)
                for i, v in enumerate(product(range(3), repeat=2))]
        table = _coded_table(codes, {codes.decode(x): bit for x, bit in pool})
        completed: dict = {}
        ends = linsystem._Completion._ends

        def spy(self, partial, last, tail, *args):
            completed.setdefault(partial, []).append(len(tail))
            return ends(self, partial, last, tail, *args)

        monkeypatch.setattr(linsystem._Completion, "_ends", spy)
        list(_bounded_walk(completion, pool, table))
        assert len(completed) == 9
        assert all(sizes == [9] for sizes in completed.values())


class TestLargePrimes:
    """Primes whose one-coordinate sum table is over the table cap."""

    @pytest.mark.parametrize("p, n", [(1009, 2), (10007, 2), (65537, 1)])
    @pytest.mark.parametrize("affine", [False, True], ids=["homogeneous", "affine"])
    def test_enumeration_matches_brute_force(self, p, n, affine):
        # x + y = 2z on three progressions a, a + d, a + 2d and three
        # more points; the affine system takes its constant from them
        rng = random.Random(p)

        def rand():
            return tuple(rng.randrange(p) for _ in range(n))

        pts = []
        for _ in range(3):
            a, d = rand(), rand()
            pts += [tuple((x + i * y) % p for x, y in zip(a, d)) for i in range(3)]
        pts += [rand() for _ in range(3)]
        constants = None
        if affine:
            x, y, z = pts[0], pts[4], pts[9]
            constants = [tuple((a + b - 2 * c) % p for a, b, c in zip(x, y, z))]
        spec = SystemSpec.make([(1, 1, p - 2)], p, constants)
        points = PointSet.make(pts, p)
        ours = [sol.entries for sol in enumerate_solutions(spec, points)]
        expected = brute_solutions(spec.coeffs, constants, p, list(points), n)
        assert len(ours) == len(set(ours))
        assert sorted(ours) == sorted(expected)
        # the constant tuples, or the chosen solution and its swap
        assert len(expected) >= (2 if affine else len(points))
        # span dimension n, ranked on codes over the split or mod rows
        flt = ClassFilter.span_at_least(n)
        spanning = sorted(xs for xs in expected if rank_by_minors(xs, p) >= n)
        assert sorted(sol.entries for sol in
                      enumerate_solutions(spec, points, flt)) == spanning
        assert count_solutions(spec, points, flt) == len(spanning)
        assert spanning


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
            assert count_solutions(spec, points, flt) == len(ours), flt


def _count(run):
    try:
        return run()
    except DegenerateSystemError as exc:
        return str(exc)


class TestCountAgainstReference:
    """``count_solutions``, read off the walk's supports, against the
    length of the earlier per-assignment listing, over every mode and
    threshold."""

    # a property that draws a mode and a threshold needs more examples
    # than the suite's 40 to meet each off-by-one of the count
    @settings(max_examples=400)
    @given(enumeration_cases())
    def test_same_count(self, case):
        spec, points, flt, _ = case
        assert _count(lambda: count_solutions(spec, points, flt)) == _count(
            lambda: len(list(reference_enumerate_solutions(spec, points, flt))))

    def test_prime_checked(self, sys_ap3):
        with pytest.raises(ValueError, match="prime differs"):
            count_solutions(sys_ap3, PointSet.full_space(1, 5))


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
