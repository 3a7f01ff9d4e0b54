import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    PointSet,
    SystemSpec,
    containment_probability,
    count_weight_solutions,
    enumerate_solutions,
    expected_intersection_size,
    gamma,
    is_interesting,
    max_disjoint_span_family,
    normalize_line_rep,
    proof_dimension_distinct,
    proof_dimension_weight,
    random_subspace,
    rank,
    sampling_step_distinct,
    sampling_step_weight,
    span,
    verify_containment,
    weight,
)
from fpsystems import linsystem, sampling
from fpsystems.sampling import _delete_per_structure
from fpsystems.seeds import spawn, spawner
from .oracles import containment_fraction


class TestContainmentProbability:
    def test_known_fractions(self):
        assert containment_probability(2, 3, 2, 1).exact == Fraction(3, 7)
        assert containment_probability(2, 3, 2, 2).exact == Fraction(1, 7)

    @given(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 4),
           st.integers(1, 4))
    def test_zero_iff_too_many_vectors(self, p, n, d, s):
        if d > n:
            return
        prob = containment_probability(p, n, d, s)
        assert (prob.exact == 0) == (s > d)
        assert 0 <= prob.exact <= prob.upper <= 1

    def test_full_space_contains_everything(self):
        for s in range(1, 4):
            assert containment_probability(3, 3, 3, s).exact == 1

    def test_upper_bound_formula(self):
        prob = containment_probability(3, 4, 2, 2)
        assert prob.upper == Fraction(3**2, 3**4) ** 2

    @pytest.mark.parametrize("p,n,ds", [
        (2, 2, (1, 2)),
        (2, 3, (1, 2, 3)),
        (2, 4, (2,)),
        (3, 2, (1, 2)),
        (3, 3, (1, 2)),
    ])
    def test_matches_subspace_set_oracle(self, p, n, ds):
        for d in ds:
            for s in range(1, min(n, 2) + 1):
                fixed = [tuple(1 if j == i else 0 for j in range(n))
                         for i in range(s)]
                ours = containment_probability(p, n, d, s).exact
                theirs = containment_fraction(n, d, p, fixed)
                assert ours == theirs

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            containment_probability(3, 2, 3, 1)
        with pytest.raises(ValueError):
            containment_probability(3, 2, 1, 0)


class TestVerifyContainment:
    def test_exhaustive_equality(self):
        check = verify_containment(2, 3, 2, 1)
        assert check.method == "exhaustive"
        assert check.within_3sigma
        assert check.frequency == pytest.approx(3 / 7)
        check2 = verify_containment(2, 3, 2, 2)
        assert check2.exact == Fraction(1, 7)
        assert check2.within_3sigma

    def test_exhaustive_grid(self):
        for p, n_max in ((2, 4), (3, 3)):
            for n in range(1, n_max + 1):
                for d in range(0, n + 1):
                    check = verify_containment(p, n, d, 1, method="exhaustive")
                    assert check.within_3sigma

    def test_monte_carlo_within_three_sigma(self):
        check = verify_containment(3, 4, 2, 1, trials=2000, seed=11,
                                   method="monte-carlo")
        assert check.method == "monte-carlo"
        assert check.trials == 2000
        assert check.within_3sigma

    def test_monte_carlo_deterministic(self):
        a = verify_containment(2, 4, 2, 1, trials=500, seed=3,
                               method="monte-carlo")
        b = verify_containment(2, 4, 2, 1, trials=500, seed=3,
                               method="monte-carlo")
        assert a == b

    def test_auto_picks_monte_carlo_over_cap(self, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_ENUM_CAP", 10)
        check = verify_containment(2, 5, 2, 1, trials=200, seed=0)
        assert check.method == "monte-carlo"

    def test_trials_capped(self, deadline):
        # a billion trials ran for hours at about 25 us each
        with deadline(1), pytest.raises(CapExceededError,
                                        match="1000001 trials exceed the cap 1000000"):
            verify_containment(3, 4, 2, 1, trials=10**6 + 1, method="monte-carlo")

    def test_trials_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_WORK_CAP", 10)
        assert verify_containment(3, 4, 2, 1, trials=10, method="monte-carlo").trials == 10
        with pytest.raises(CapExceededError, match="11 trials exceed the cap 10"):
            verify_containment(3, 4, 2, 1, trials=11, method="monte-carlo")

    def test_trials_ignored_when_exhaustive(self):
        check = verify_containment(2, 3, 2, 1, trials=10**9, method="exhaustive")
        assert (check.method, check.trials) == ("exhaustive", 7)

    def test_too_many_fixed_rejected(self):
        with pytest.raises(ValueError):
            verify_containment(2, 3, 2, 4)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify_containment(2, 3, 2, 1, method="guess")


# Results printed by the package before the per-trial set-up and the
# deletion steps were reworked; the same seeds must give them exactly.
CONTAINMENT_FROZEN = [
    ((3, 3, 2, 1), 0, 95, 0.31666666666666665),
    ((3, 3, 2, 1), 7, 91, 0.30333333333333334),
    ((2, 4, 3, 2), 0, 64, 0.21333333333333335),
    ((2, 4, 3, 2), 7, 71, 0.23666666666666666),
    ((3, 4, 3, 2), 0, 31, 0.10333333333333333),
    ((3, 4, 3, 2), 7, 33, 0.11),
    ((5, 3, 2, 1), 0, 67, 0.22333333333333333),
    ((5, 3, 2, 1), 7, 43, 0.14333333333333334),
    ((3, 3, 0, 1), 0, 0, 0.0),
    ((3, 3, 0, 1), 7, 0, 0.0),
    ((2, 3, 3, 2), 0, 300, 1.0),
    ((2, 3, 3, 2), 7, 300, 1.0),
    # three- and four-bit draws, whose rejection rates differ from p = 2, 3, 5
    ((7, 3, 2, 1), 0, 43, 0.14333333333333334),
    ((7, 3, 2, 1), 7, 42, 0.14),
    ((7, 3, 2, 2), 0, 6, 0.02),
    ((7, 3, 2, 2), 7, 9, 0.03),
    ((11, 3, 2, 1), 0, 28, 0.09333333333333334),
    ((11, 3, 2, 1), 7, 18, 0.06),
    ((11, 2, 1, 1), 0, 21, 0.07),
    ((11, 2, 1, 1), 7, 19, 0.06333333333333334),
]
EXHAUSTIVE_FROZEN = [
    ((2, 4, 2, 2), 35, 1),
    ((3, 3, 2, 2), 13, 1),
    ((2, 3, 3, 3), 1, 1),
    ((3, 3, 0, 1), 1, 0),
    ((2, 4, 3, 1), 15, 7),
]
# eleven nonzero points of F_3^3 where the deletion steps leave a survivor
SPARSE = [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 2), (1, 1, 0), (1, 2, 2),
          (2, 0, 0), (2, 1, 2), (2, 2, 1), (1, 1, 1), (0, 1, 2)]
STEP_SYSTEMS = {"ap3": [(1, 1, 1)], "k4": [(1, 1, 2, 2)]}
STEP_POINTS = {
    "full3": PointSet.full_space(3, 3, include_zero=False),
    "full2": PointSet.full_space(2, 3, include_zero=False),
    "sparse": PointSet.make(SPARSE, 3),
}
# (kind, system, points, d, ell or w, seed, kept, deleted, survivors, removed)
STEP_FROZEN = [
    ('distinct', 'ap3', 'full3', 2, 3, 1, 8, 144,
     [],
     [(0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 2),
      (2, 1, 2), (2, 2, 2)]),
    ('distinct', 'ap3', 'sparse', 3, 3, 2, 11, 108,
     [(0, 1, 2)],
     [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1),
      (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 1)]),
    ('distinct', 'ap3', 'sparse', 2, 2, 3, 3, 0,
     [(0, 0, 1), (1, 2, 2), (2, 1, 2)],
     []),
    ('distinct', 'k4', 'full3', 2, 4, 4, 8, 288,
     [],
     [(0, 1, 0), (0, 2, 0), (1, 0, 2), (1, 1, 2), (1, 2, 2), (2, 0, 1),
      (2, 1, 1), (2, 2, 1)]),
    ('distinct', 'k4', 'sparse', 3, 3, 5, 11, 648,
     [],
     [(0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 0),
      (1, 1, 1), (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 1)]),
    ('distinct', 'k4', 'full2', 1, 4, 6, 2, 0,
     [(0, 1), (0, 2)],
     []),
    ('weight', 'ap3', 'full3', 2, 5, 1, 8, 48,
     [],
     [(0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 2),
      (2, 1, 2), (2, 2, 2)]),
    ('weight', 'ap3', 'sparse', 3, 5, 2, 11, 36,
     [(0, 1, 2)],
     [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1),
      (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 1)]),
    ('weight', 'k4', 'full3', 2, 6, 4, 8, 288,
     [],
     [(0, 1, 0), (0, 2, 0), (1, 0, 2), (1, 1, 2), (1, 2, 2), (2, 0, 1),
      (2, 1, 1), (2, 2, 1)]),
    ('weight', 'k4', 'sparse', 3, 6, 5, 11, 112,
     [],
     [(0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 0),
      (1, 1, 1), (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 1)]),
    ('weight', 'k4', 'full2', 2, 2, 6, 8, 144,
     [],
     [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0),
      (2, 1), (2, 2)]),
]


class TestStreamIdentity:
    @pytest.mark.parametrize("params,seed,hits,frequency", CONTAINMENT_FROZEN)
    def test_monte_carlo_containment(self, params, seed, hits, frequency):
        check = verify_containment(*params, trials=300, seed=seed,
                                   method="monte-carlo")
        assert (check.hits, check.frequency) == (hits, frequency)

    @pytest.mark.parametrize("params,total,hits", EXHAUSTIVE_FROZEN)
    def test_exhaustive_containment(self, params, total, hits):
        check = verify_containment(*params, method="exhaustive")
        assert (check.trials, check.hits) == (total, hits)
        assert check.within_3sigma

    @pytest.mark.parametrize(
        "kind,system,points,d,arg,seed,kept,deleted,survivors,removed",
        STEP_FROZEN)
    def test_deletion_steps(self, kind, system, points, d, arg, seed, kept,
                            deleted, survivors, removed):
        step = sampling_step_distinct if kind == "distinct" else sampling_step_weight
        report = step(SystemSpec.make(STEP_SYSTEMS[system], 3),
                      STEP_POINTS[points], arg, d, spawn(seed, "frozen-step"))
        assert (report.kept, report.deleted) == (kept, deleted)
        assert list(report.survivors.points) == survivors
        assert list(report.removed) == removed


class TestSpawner:
    @pytest.mark.parametrize("master", [0, 7, -1, -(2**70) + 3, 2**64,
                                        2**64 + 5, 2**200 - 1])
    @pytest.mark.parametrize("labels", [(), ("containment",), ("ü", "日本"),
                                        ("x", 3, -4), (2**65,)])
    def test_matches_spawn(self, master, labels):
        trial = spawner(master, *labels)
        for last in (0, 1, 2**63, 2**64 + 1, -2, 10**30, "trial", "é"):
            ours, theirs = trial(last), spawn(master, *labels, last)
            assert ours.getstate() == theirs.getstate()
            assert ours.random() == theirs.random()


class TestExpectedIntersection:
    def test_formula(self):
        assert expected_intersection_size(26, 3, 2, 3) == Fraction(8)
        assert expected_intersection_size(5, 3, 2, 3) == Fraction(20, 13)

    def test_empirical_mean_close(self):
        p, n, d = 3, 3, 2
        points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
        expected = float(expected_intersection_size(len(points), n, d, p))
        trials = 600
        total = 0
        for i in range(trials):
            rng = spawn(5, "expect", i)
            v = random_subspace(n, d, p, rng)
            total += sum(1 for x in points if v.contains(x))
        mean = total / trials
        # counts live in [0, 5], so the sample mean's sigma is at most
        # 2.5 / sqrt(trials) by the bounded-variance inequality
        sigma_cap = 2.5 / trials**0.5
        assert abs(mean - expected) <= 3 * sigma_cap


class TestDeletionDiscipline:
    def test_smallest_surviving_member_goes(self):
        structures = [[(1,), (2,)], [(1,), (3,)], [(2,), (3,)]]
        # first takes (1,); second's smallest survivor is (3,); third
        # still has (2,) alive, so it goes too
        assert _delete_per_structure(structures) == {(1,), (2,), (3,)}

    def test_fully_deleted_structure_deletes_nothing(self):
        structures = [[(1,)], [(1,), (2,)], [(1,), (2,)]]
        assert _delete_per_structure(structures) == {(1,), (2,)}

    def test_at_most_one_deletion_per_structure(self):
        structures = [[(i,), (i + 1,)] for i in range(5)]
        assert len(_delete_per_structure(structures)) <= 5

    @given(st.lists(st.lists(st.tuples(st.integers(0, 5)), min_size=1,
                             max_size=4), max_size=8))
    def test_every_structure_loses_a_member_or_was_emptied(self, structures):
        removed = _delete_per_structure(structures)
        for struct in structures:
            assert set(struct) & removed


class TestStepDistinct:
    def test_point_set_over_another_prime_rejected(self, sys_ap3):
        points = PointSet.full_space(2, 5, include_zero=False)
        with pytest.raises(ValueError, match="point set prime differs"):
            sampling_step_distinct(sys_ap3, points, 3, 2, random.Random(1))

    def test_prime_checked_before_sampling_and_cap(self, sys_ap3):
        # over F_5^4 the step would exceed the cap before any prime check
        points = PointSet.full_space(4, 5, include_zero=False)
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="point set prime differs"):
            sampling_step_distinct(sys_ap3, points, 3, 2, rng, cap=1000)
        assert rng.getstate() == state

    def test_certificate_on_survivors(self, sys_ap3):
        points = PointSet.full_space(3, 3, include_zero=False)
        for i in range(5):
            rng = spawn(0, "step", i)
            report = sampling_step_distinct(sys_ap3, points, 3, 2, rng)
            assert report.d == 2
            assert report.surviving == len(report.survivors)
            assert report.surviving == report.kept - len(report.removed)
            assert report.surviving >= report.kept - report.deleted
            leftovers = 0
            for idx in combinations(range(3), 2):
                for tup in product(report.survivors.points, repeat=2):
                    if is_interesting(sys_ap3, points, idx, tup, 3):
                        leftovers += 1
            assert leftovers == 0

    def test_full_dimension_keeps_everything(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        rng = spawn(1, "step-full")
        report = sampling_step_distinct(sys_ap3, points, 3, 2, rng)
        assert report.kept == len(points)
        global_count = 0
        for idx in combinations(range(3), 2):
            for tup in product(points.points, repeat=2):
                if is_interesting(sys_ap3, points, idx, tup, 3):
                    global_count += 1
        assert report.deleted == global_count

    def test_each_candidate_rank_tested_once(self, sys_ap3, monkeypatch):
        # kept^2 candidates, each rank-tested once for all three index
        # sets, plus one pivot_columns per index set's completion
        calls = 0
        counted = linsystem.rref_with_pivots

        def counting(rows, p):
            nonlocal calls
            calls += 1
            return counted(rows, p)

        monkeypatch.setattr(linsystem, "rref_with_pivots", counting)
        points = PointSet.full_space(3, 3, include_zero=False)
        report = sampling_step_distinct(sys_ap3, points, 3, 2,
                                        spawn(0, "step", 0))
        assert report.deleted
        assert calls <= report.kept**2 + 3

    def test_generic_minors_required(self):
        spec = SystemSpec.make([(1, 2, 0)], 3)
        points = PointSet.full_space(2, 3, include_zero=False)
        with pytest.raises(ValueError):
            sampling_step_distinct(spec, points, 3, 1, spawn(0, "x"))

    def test_cap_enforced(self, sys_ap3):
        points = PointSet.full_space(3, 3, include_zero=False)
        with pytest.raises(CapExceededError):
            sampling_step_distinct(sys_ap3, points, 3, 3, spawn(0, "x"),
                                   cap=10)


class TestStepWeight:
    def test_certificate_on_survivors(self, sys_ap3):
        points = PointSet.full_space(3, 3, include_zero=False)
        for i in range(5):
            rng = spawn(0, "wstep", i)
            report = sampling_step_weight(sys_ap3, points, 2, 2, rng)
            assert report.surviving == report.kept - len(report.removed)
            assert report.surviving >= report.kept - report.deleted
            leftover = sum(
                1 for sol in enumerate_solutions(sys_ap3, report.survivors)
                if weight(sol.entries, 3).omega == 2)
            assert leftover == 0

    def test_weight_one_clears_the_subspace(self, sys_ap3):
        # x + x + x = 0 always holds over F_3, so every kept vector forms
        # a constant weight-1 solution and the step removes all of them
        points = PointSet.full_space(2, 3, include_zero=False)
        report = sampling_step_weight(sys_ap3, points, 1, 2, spawn(2, "w1"))
        assert report.kept == len(points)
        assert report.deleted == report.kept
        assert report.surviving == 0
        assert set(report.removed) == set(points)

    def test_zero_in_points_rejected(self, sys_ap3):
        points = PointSet.full_space(2, 3)
        with pytest.raises(ValueError):
            sampling_step_weight(sys_ap3, points, 1, 1, spawn(0, "x"))

    def test_prime_checked_before_sampling_and_cap(self, sys_ap3):
        points = PointSet.full_space(4, 5, include_zero=False)
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="point set prime differs"):
            sampling_step_weight(sys_ap3, points, 1, 4, rng, cap=10)
        assert rng.getstate() == state

    def test_cap_enforced(self, sys_ap3):
        points = PointSet.full_space(3, 3, include_zero=False)
        with pytest.raises(CapExceededError):
            sampling_step_weight(sys_ap3, points, 1, 3, spawn(0, "x"), cap=10)


class TestWeightCounts:
    def test_counts_match_naive_scan(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        by_weight_dim: dict = {}
        for tup in product(points.points, repeat=3):
            if any(sum(v[s] for v in tup) % 3 for s in range(2)):
                continue
            key = (weight(tup, 3).omega, rank(tup, 3))
            by_weight_dim[key] = by_weight_dim.get(key, 0) + 1
        for w in (1, 2, 3):
            for r in range(1, 4):
                report = count_weight_solutions(sys_ap3, points, w, r)
                assert report.count == by_weight_dim.get((w, r), 0)
                assert report.holds
                assert report.dim_claims_ok
                assert report.chosen_sizes_ok

    def test_bound_value(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        report = count_weight_solutions(sys_ap3, points, 2, 2)
        g = gamma(3, 1, 3).gamma
        assert report.bound == pytest.approx(6**6 * 3**6 * g**2 * 8)

    def test_parameter_ranges(self, sys_ap3):
        points = PointSet.full_space(1, 3, include_zero=False)
        with pytest.raises(ValueError):
            count_weight_solutions(sys_ap3, points, 1, 0)
        with pytest.raises(ValueError):
            count_weight_solutions(sys_ap3, points, 1, 4)
        with pytest.raises(ValueError):
            # floor(5/4) = 1 pushed below the 2m + 1 free positions
            count_weight_solutions(sys_ap3, points, 5, 2)

    def test_zero_point_rejected(self, sys_ap3):
        points = PointSet.full_space(1, 3)
        message = "weight machinery needs a point set without zero"
        with pytest.raises(ValueError, match=message):
            count_weight_solutions(sys_ap3, points, 1, 1)
        with pytest.raises(ValueError, match=message):
            max_disjoint_span_family(sys_ap3, points, (), (), 1)
        with pytest.raises(ValueError, match=message):
            sampling_step_weight(sys_ap3, points, 1, 1, spawn(0, "x"))

    def test_gamma_power_overflow_named(self, sys_ap3):
        # two points of F_3^2000: few solutions, but Gamma^2000 overflows
        e1 = (1,) + (0,) * 1999
        points = PointSet.make([e1, tuple(2 * c for c in e1)], 3)
        with pytest.raises(ValueError, match="Gamma\\^n overflows"):
            count_weight_solutions(sys_ap3, points, 1, 1)
        with pytest.raises(ValueError, match="Gamma\\^n overflows"):
            max_disjoint_span_family(sys_ap3, points, (), (), 1)

    def test_ceiling_product_overflow_raises(self, sys_ap3):
        # Gamma^n is a float at these n; the factor times Gamma^n is not
        def two_points(n):
            e1 = (1,) + (0,) * (n - 1)
            return PointSet.make([e1, tuple(2 * c for c in e1)], 3)

        with pytest.raises(ValueError, match="n = 690"):
            count_weight_solutions(sys_ap3, two_points(690), 1, 1)
        with pytest.raises(ValueError, match="n = 698"):
            max_disjoint_span_family(sys_ap3, two_points(698), (), (), 1)

    def test_integer_factor_overflow_raises(self):
        # p^(rk) = 1009^121 is too large for a float
        spec = SystemSpec.make([[1] * 10 + [999]], 1009)
        points = PointSet.make([(1, 0), (0, 1)], 1009)
        with pytest.raises(ValueError, match="n = 2"):
            count_weight_solutions(spec, points, 1, 11)


class TestDisjointFamily:
    def test_empty_family_when_nothing_qualifies(self, sys_k4):
        points = PointSet.make([(1, 0), (2, 0)], 3)
        rep = max_disjoint_span_family(sys_k4, points, (0,), ((1, 0),), 5)
        assert rep.size == 0
        assert rep.family == ()
        assert rep.holds
        assert rep.maximal_certified

    def test_family_bound_and_maximality(self, sys_k4):
        points = PointSet.full_space(2, 3, include_zero=False)
        sols = [sol.entries for sol in enumerate_solutions(sys_k4, points)]
        seen_weights = sorted({weight(s, 3).omega for s in sols})
        ran = 0
        for w in seen_weights:
            idx_size = w // 5
            if sys_k4.k - idx_size < 3:
                continue
            for sol in sols:
                rep_w = weight(sol, 3)
                if rep_w.omega != w:
                    continue
                fixed = tuple(sol[i] for i in rep_w.chosen)
                rep = max_disjoint_span_family(
                    sys_k4, points, rep_w.chosen, fixed, w)
                assert rep.size >= 1
                assert all(weight(e, 3).omega == w for e in rep.family)
                assert rep.holds
                assert rep.maximal_certified
                ran += 1
                break
        assert ran >= 2

    def test_pairwise_disjoint_lines(self, sys_k4):
        points = PointSet.full_space(2, 3, include_zero=False)
        rep = max_disjoint_span_family(sys_k4, points, (), (), 1)
        lines = [frozenset(min(tuple((c * v[s] % 3) for s in range(2))
                               for c in (1, 2)) for v in e)
                 for e in rep.family]
        for a, b in combinations(lines, 2):
            assert not (a & b)

    def test_family_matches_recomputed_lines(self, sys_k4):
        # the family grown from quotient lines derived afresh per
        # solution, modulo the span of the fixed entries
        points = PointSet.full_space(2, 3, include_zero=False)
        sols = [sol.entries for sol in enumerate_solutions(sys_k4, points)]
        cases = {((), ())} | {((i,), (sol[i],)) for sol in sols
                              for i in range(4)}
        checked = 0
        for idx, fixed in sorted(cases):
            u = span(fixed, p=3, ambient_dim=2)
            pinned = [sol.entries for sol in enumerate_solutions(
                sys_k4, points, pinned=dict(zip(idx, fixed)))]
            for w in range(5 * len(idx), 5 * len(idx) + 5):
                family, used = [], set()
                for sol in pinned:
                    rep = weight(sol, 3)
                    if rep.omega != w or rep.chosen != idx:
                        continue
                    lines = {normalize_line_rep(u.reduce(sol[j]), 3)
                             for j in range(4) if j not in idx}
                    if not used & lines:
                        family.append(sol)
                        used |= lines
                rep = max_disjoint_span_family(sys_k4, points, idx, fixed, w)
                assert rep.family == tuple(family)
                checked += len(family)
        assert checked > 0

    def test_wrong_index_size_rejected(self, sys_k4):
        points = PointSet.full_space(2, 3, include_zero=False)
        with pytest.raises(ValueError):
            max_disjoint_span_family(sys_k4, points, (0, 1),
                                     ((1, 0), (0, 1)), 5)

    def test_fixed_must_come_from_points(self, sys_k4):
        points = PointSet.make([(1, 0), (0, 1), (1, 1), (2, 2)], 3)
        with pytest.raises(ValueError):
            max_disjoint_span_family(sys_k4, points, (0,), ((2, 1),), 5)


class TestProofDimensions:
    def test_weight_dimension_brackets_x(self):
        g = gamma(3, 1, 3).gamma
        for n in (50, 100, 200):
            d = proof_dimension_weight(3, g, n, 3)
            x = (3 / g) ** (n / 2) / (6**7 * 3**6)
            assert 3.0**d <= x < 3.0 ** (d + 1)

    def test_distinct_dimension(self):
        assert proof_dimension_distinct(10, 1, 0.25) == 7
        assert proof_dimension_distinct(10, 2, 0.25) == 3
        assert proof_dimension_distinct(100, 1, 0.5) == 50

    def test_exponent_must_be_interior(self):
        with pytest.raises(ValueError):
            proof_dimension_distinct(10, 1, 0.0)
        with pytest.raises(ValueError):
            proof_dimension_distinct(10, 1, 1.0)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            proof_dimension_weight(3, 2.0, 10, 1)
