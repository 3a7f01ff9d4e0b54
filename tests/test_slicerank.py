import math
import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    DegenerateSystemError,
    OrderFamily,
    PointSet,
    SystemSpec,
    Tensor,
    antichain_slice_rank,
    ceiling,
    corollary_orders,
    gamma,
    indicator_tensor,
    is_antichain,
    is_solution,
    monomial_count,
    partitioned_solution_bound,
    read_tensor_file,
    verify_polynomial_identity,
    write_tensor_file,
)
from fpsystems import slicerank
from fpsystems.seeds import spawn
from .oracles import (
    brute_monomial_count,
    brute_solutions,
    grid_min_ratio,
    rank_by_minors,
    reference_indicator_support,
    reference_monomial_count,
    random_antichain,
    reference_antichain_slice_rank,
    reference_partitioned_solution_bound,
    reference_phi,
    unpruned_slice_rank,
)

PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestGamma:
    def test_frozen_values(self):
        assert gamma(3, 1, 3).gamma == pytest.approx(2.755104613, abs=1e-6)
        assert gamma(2, 1, 3).gamma == pytest.approx(1.889881574, abs=1e-6)

    def test_closed_form_minimizer(self):
        # for p=3, m=1, k=3 the optimality condition is quadratic with
        # root (sqrt(33) - 1) / 8
        z = (33**0.5 - 1) / 8
        assert gamma(3, 1, 3).z_star == pytest.approx(z, abs=1e-9)

    def test_boundary_reports_p(self):
        res = gamma(3, 1, 2)
        assert res.at_boundary
        assert res.gamma == 3.0
        assert res.z_star == 1.0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k_off", [1, 2])
    def test_matches_grid_oracle(self, p, k_off):
        m = 1
        k = 2 * m + k_off
        ours = gamma(p, m, k).gamma
        theirs = grid_min_ratio(p, (p - 1) * m / k, step=1e-5)
        assert ours == pytest.approx(theirs, abs=1e-4)

    def test_strictly_below_p_off_boundary(self):
        for p in (2, 3, 5, 7):
            for m in (1, 2):
                for k in range(2 * m + 1, 2 * m + 5):
                    assert gamma(p, m, k).gamma < p

    def test_default_tolerance_bisection_frozen(self):
        # 40 halvings of [0, 1] bring the width to 2^-40 < 1e-12
        res = gamma(3, 1, 3)
        assert res.iterations == 40
        assert res.tolerance == 2.0**-41

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_tolerance_below_float_spacing_returns(self, tol, deadline):
        # the bracket stops at adjacent floats and reports that half-width
        with deadline(5):
            started = time.perf_counter()
            res = gamma(3, 1, 3, tol=tol)
            elapsed = time.perf_counter() - started
        assert elapsed < 1
        assert 0 < res.tolerance <= math.ulp(res.z_star)
        assert res.iterations < 60
        assert res.z_star == pytest.approx((33**0.5 - 1) / 8, abs=1e-15)
        assert res.gamma == pytest.approx(gamma(3, 1, 3).gamma, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 1009, 6043, 10007])
    def test_phi_matches_reference(self, p):
        # 0.1 <= z <= 1 - 1e-9, with points on both sides of the series
        # switch pt = 0.01; z = 0.1 is on the tail branch for p >= 307
        zs = [0.1 + 0.05 * i for i in range(18)]
        zs += [1 - 10**(-e / 4) for e in range(4, 37)]
        zs += [math.exp(-x / p) for x in (0.004, 0.0099, 0.0101, 0.02, 0.5)]
        for z in zs:
            assert slicerank._phi(z, p) == pytest.approx(
                reference_phi(z, p), rel=1e-12, abs=0), z

    @pytest.mark.parametrize("p,m,k,tol", [
        pytest.param(1000003, 1, 3, 1e-12, id="p=1000003"),
        pytest.param(1009, 1, 10**6, 1e-12, id="k=10^6"),
        # alpha = 2 / 10^400 underflows to 0.0, so every midpoint moves hi
        # down: to 2^-997 for tol 1e-300, into the subnormals for 5e-324
        pytest.param(3, 1, 10**400, 1e-300, id="alpha=0-tol=1e-300"),
        pytest.param(3, 1, 10**400, 5e-324, id="alpha=0-subnormal"),
    ])
    def test_edges_return_finite(self, p, m, k, tol, deadline):
        with deadline(5):
            started = time.perf_counter()
            res = gamma(p, m, k, tol=tol)
            elapsed = time.perf_counter() - started
        assert elapsed < 1
        assert not res.at_boundary
        assert 1 <= res.gamma < p
        assert 0 <= res.z_star < 1
        assert 0 <= res.tolerance <= max(tol, math.ulp(res.z_star))

    @given(st.floats(1e-3, 1.0), st.sampled_from(PRIMES_BELOW_50 + [101, 1009]),
           st.floats(0, 50))
    def test_objective_sums_left_to_right(self, z, p, alpha):
        # the same bits on every interpreter: sum() over floats is
        # compensated from Python 3.12 on, a plain loop never is
        total = power = 1.0
        for _ in range(p - 1):
            power *= z
            total += power
        assert slicerank._objective(z, p, alpha) == total / z**alpha

    def test_frozen_bits(self):
        # the value a compensated sum changes in its last bit
        assert gamma(47, 1, 3).gamma == 39.84293254975882

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gamma(3, 0, 3)
        with pytest.raises(ValueError):
            gamma(4, 1, 3)
        # k <= 2m is the boundary case, reported rather than raised
        assert gamma(3, 2, 1).at_boundary


class TestMonomialCount:
    def test_frozen_example(self):
        res = monomial_count(2, 1, 3, 3)
        assert res.count == 4
        assert res.threshold == 1
        assert res.holds

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_brute_force(self, p):
        for n in range(0, 7):
            for k in (3, 4, 5):
                res = monomial_count(p, 1, k, n)
                assert res.count == brute_monomial_count(p, 1, k, n)
                assert res.holds

    @pytest.mark.parametrize("p", PRIMES_BELOW_50 + [211, 1009])
    def test_matches_reference(self, p):
        for m in (1, 2, 3):
            for k in range(2 * m + 1, 2 * m + 7):
                for n in range(13):
                    res = monomial_count(p, m, k, n)
                    assert (res.count, res.threshold) == \
                        reference_monomial_count(p, m, k, n), (p, m, k, n)

    @given(st.sampled_from(PRIMES_BELOW_50 + [53, 97, 101]),
           st.integers(1, 4), st.integers(1, 8), st.integers(0, 16))
    def test_matches_reference_on_draws(self, p, m, k_off, n):
        k = 2 * m + k_off
        res = monomial_count(p, m, k, n)
        assert (res.count, res.threshold) == reference_monomial_count(p, m, k, n)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            monomial_count(3, 1, 2, 4)

    @pytest.mark.parametrize("args", [(3, -1, 0, 2), (3, 0, 3, 2), (3, 1, 3, -1)])
    def test_bad_parameters(self, args):
        # m = -1, k = 0 passes the k >= 2m + 1 test; it must not reach
        # the division by k
        with pytest.raises(ValueError):
            monomial_count(*args)

    def test_power_overflow_names_gamma_and_n(self):
        # the count is exact at n = 2000; Gamma^n is not a float there
        with pytest.raises(ValueError, match=r"Gamma\^n overflows a float at n = 2000"):
            monomial_count(3, 1, 3, 2000)


class TestTensor:
    def test_entries_roundtrip(self):
        t = Tensor.from_entries(3, 4, 3, {(0, 1, 2): 2, (3, 3, 3): 1})
        assert t.entry((0, 1, 2)) == 2
        assert t.entry((0, 0, 0)) == 0
        assert set(t.support) == {(0, 1, 2), (3, 3, 3)}

    def test_values_reduced_mod_p(self):
        t = Tensor.from_entries(3, 2, 2, {(0, 0): 5})
        assert t.entry((0, 0)) == 2

    def test_bad_index_rejected(self):
        t = Tensor.from_entries(3, 2, 2, {(0, 0): 1})
        with pytest.raises(IndexError):
            t.entry((0, 2))
        with pytest.raises(IndexError):
            Tensor.from_entries(3, 2, 2, {(0, 5): 1})

    def test_bad_index_rejected_with_zero_value(self):
        with pytest.raises(IndexError):
            Tensor.from_entries(3, 2, 2, {(0, 5): 3})

    def test_shape_checked_before_values(self):
        calls = 0

        def fn(idx):
            nonlocal calls
            calls += 1
            return 0

        with pytest.raises(CapExceededError):
            Tensor.from_function(2, 200, 3, fn)
        with pytest.raises(ValueError):
            Tensor.from_function(2, 3, 1, fn)
        assert calls == 0

    def test_oversized_file_raises_before_allocating(self, tmp_path):
        path = tmp_path / "big.tensor"
        path.write_text("2 200 3\n0 0 0 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                read_tensor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_holds_nonzero_entries_in_index_order(self):
        t = Tensor.from_entries(3, 2, 2, {(1, 1): 1, (0, 1): 3, (0, 0): 2})
        assert t.entries == (((0, 0), 2), ((1, 1), 1))
        assert t.support == ((0, 0), (1, 1))
        t = Tensor.from_function(3, 2, 2, lambda idx: idx[0] + 2 * idx[1])
        assert t.entries == (((0, 1), 2), ((1, 0), 1))

    @pytest.mark.parametrize("entries,error", [
        ((((3, 0), 1),), IndexError),
        ((((0, 0, 0), 1),), IndexError),
        ((((0, 0), 0),), ValueError),
        ((((0, 0), 3),), ValueError),
        ((((1, 0), 1), ((0, 1), 1)), ValueError),
        ((((0, 1), 1), ((0, 1), 2)), ValueError),
    ])
    def test_direct_entries_checked(self, entries, error):
        with pytest.raises(error):
            Tensor(3, 2, 2, entries)

    def test_file_roundtrip(self, tmp_path):
        t = Tensor.from_entries(5, 3, 3, {(0, 1, 2): 4, (2, 2, 2): 1})
        path = tmp_path / "tensor.txt"
        write_tensor_file(path, t)
        back = read_tensor_file(path)
        assert back == t


class TestOrders:
    def test_corollary_orders_shape(self):
        fam = corollary_orders([(0, 1, 2)], 4)
        assert fam.orders[0] == (0, 1, 2, 3)
        assert fam.orders[1] == (3, 2, 1, 0)
        assert fam.orders[2] == (0, 1, 2, 3)

    def test_two_blocks(self):
        fam = corollary_orders([(0, 1), (2, 3)], 3)
        assert fam.orders[1] == (2, 1, 0)
        assert fam.orders[3] == (2, 1, 0)

    def test_singleton_block_rejected(self):
        with pytest.raises(ValueError):
            corollary_orders([(0,), (1, 2)], 3)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            corollary_orders([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError):
            corollary_orders([(0, 2)], 3)

    def test_diagonal_is_antichain_under_block_orders(self):
        diag = [(i, i, i) for i in range(5)]
        assert not is_antichain(diag, OrderFamily.all_increasing(5, 3))
        assert is_antichain(diag, corollary_orders([(0, 1, 2)], 5))


class TestSliceRank:
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_diagonal_rank_is_length(self, k, length):
        t = Tensor.from_function(2, length, k,
                                 lambda idx: 1 if len(set(idx)) == 1 else 0)
        orders = corollary_orders([tuple(range(k))], length)
        assert antichain_slice_rank(t, orders) == length

    def test_empty_support(self):
        t = Tensor.from_function(2, 3, 3, lambda idx: 0)
        orders = OrderFamily.all_increasing(3, 3)
        assert antichain_slice_rank(t, orders) == 0

    def test_non_antichain_rejected(self):
        t = Tensor.from_entries(2, 3, 3, {(0, 0, 0): 1, (1, 1, 1): 1})
        with pytest.raises(ValueError):
            antichain_slice_rank(t, OrderFamily.all_increasing(3, 3))

    def test_cap_enforced(self):
        diag = {(i, i, i): 1 for i in range(6)}
        t = Tensor.from_entries(2, 6, 3, diag)
        orders = corollary_orders([(0, 1, 2)], 6)
        with pytest.raises(CapExceededError):
            antichain_slice_rank(t, orders, cap=3)

    def test_cap_checked_before_antichain_scan(self, monkeypatch):
        def no_scan(support, orders):
            raise AssertionError("antichain scan ran")

        monkeypatch.setattr(slicerank, "is_antichain", no_scan)
        diag = {(i, i, i): 1 for i in range(6)}
        t = Tensor.from_entries(2, 6, 3, diag)
        with pytest.raises(CapExceededError):
            antichain_slice_rank(t, corollary_orders([(0, 1, 2)], 6), cap=3)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_unpruned_oracle(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 4])
        length = rng.randrange(3, 7)
        from .oracles import random_antichain

        support = random_antichain(rng, length, k, max_size=8)
        if not support:
            return
        t = Tensor.from_entries(3, length, k, {e: 1 for e in support})
        orders = OrderFamily.all_increasing(length, k)
        assert antichain_slice_rank(t, orders) == unpruned_slice_rank(support, k)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_search(self, seed):
        # 9 to 21 elements: beyond the unpruned recursion, within the
        # earlier assignment search
        rng = random.Random(seed)
        k = 3 + seed % 2
        length = 12 if k == 3 else 8
        support: list = []
        while len(support) < 9:
            support = random_antichain(rng, length, k, rng.randrange(9, 22))
        t = Tensor.from_entries(2, length, k, {e: 1 for e in support})
        orders = OrderFamily.all_increasing(length, k)
        assert antichain_slice_rank(t, orders) == \
            reference_antichain_slice_rank(support, k)

    @pytest.mark.parametrize("seed", range(12))
    def test_block_constant_matches_reference_search(self, seed):
        # index tuples constant on each block form an antichain under
        # the block orders
        rng = random.Random(seed)
        k = rng.choice([4, 5])
        axes = list(range(k))
        rng.shuffle(axes)
        blocks = [axes[:2], axes[2:]]
        length = rng.randrange(3, 6)
        entries = {}
        for _ in range(rng.randrange(9, 22)):
            a, b = rng.randrange(length), rng.randrange(length)
            idx = [0] * k
            for ax in blocks[0]:
                idx[ax] = a
            for ax in blocks[1]:
                idx[ax] = b
            entries[tuple(idx)] = 1
        t = Tensor.from_entries(2, length, k, entries)
        orders = corollary_orders(blocks, length)
        assert antichain_slice_rank(t, orders) == \
            reference_antichain_slice_rank(t.support, k)

    def test_fixed_sum_family_within_default_cap(self):
        # {a + b + c = 5} in [6]^3: 21 elements, rank 6
        t = Tensor.from_function(2, 6, 3, lambda idx: int(sum(idx) == 5))
        assert len(t.support) == 21
        assert antichain_slice_rank(t, OrderFamily.all_increasing(6, 3)) == 6


@st.composite
def indicator_cases(draw):
    """A system with m in {1, 2} and k <= 4, affine or not, and k
    columns of up to four vectors drawn from at most three points, so
    columns repeat points."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(max(2, m), 4))
    n = draw(st.integers(1, 2))
    coord = st.integers(0, p - 1)
    vec = st.tuples(*[coord] * n)
    coeffs = draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    constants = draw(st.none() | st.lists(vec, min_size=m, max_size=m))
    pool = draw(st.lists(vec, min_size=1, max_size=3))
    length = draw(st.integers(1, 4))
    cols = [draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
            for _ in range(k)]
    return SystemSpec.make(coeffs, p, constants), cols


class TestIndicator:
    def test_entries_match_direct_check(self, sys_ap3):
        cols = [[(0,), (1,), (2,)]] * 3
        t = indicator_tensor(sys_ap3, cols)
        for idx in product(range(3), repeat=3):
            entries = tuple(cols[pos][i] for pos, i in enumerate(idx))
            assert t.entry(idx) == (1 if is_solution(sys_ap3, entries) else 0)

    @settings(max_examples=150)
    @given(indicator_cases())
    def test_support_matches_dense_scan(self, case):
        spec, cols = case
        try:
            tensor = indicator_tensor(spec, cols)
        except DegenerateSystemError:
            assert rank_by_minors([list(r) for r in spec.coeffs], spec.p) < spec.m
            return
        expected = reference_indicator_support(spec, cols)
        assert tensor.entries == tuple((idx, 1) for idx in expected)

    @pytest.mark.parametrize("p, n", [(10007, 1), (1009, 2)])
    def test_large_prime_matches_dense_scan(self, p, n):
        # x + y = 2z: each column repeats a point, and the progressions
        # a, a + d, a + 2d give solutions beyond the constant ones
        rng = random.Random(p)
        a, d = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        prog = [tuple((x + i * y) % p for x, y in zip(a, d)) for i in range(3)]
        cols = [prog + [prog[0], tuple(rng.randrange(p) for _ in range(n))]
                for _ in range(3)]
        spec = SystemSpec.make([(1, 1, p - 2)], p)
        tensor = indicator_tensor(spec, cols)
        expected = reference_indicator_support(spec, cols)
        assert tensor.entries == tuple((idx, 1) for idx in expected)
        assert len(expected) > 5

    def test_rank_below_m_raises(self):
        # the dense scan gave a 9-entry tensor here
        spec = SystemSpec.make([(1, 1, 1), (2, 2, 2)], 3)
        with pytest.raises(DegenerateSystemError, match="rank below"):
            indicator_tensor(spec, [[(0,), (1,), (2,)]] * 3)

    def test_eighty_points_within_a_second(self, sys_ap3, deadline):
        # x+y+z=0 over the 80 nonzero points of F_3^4: x, y nonzero with
        # x + y nonzero, 80 * 79 solving index tuples
        cols = [list(PointSet.full_space(4, 3, include_zero=False))] * 3
        with deadline(1):
            tensor = indicator_tensor(sys_ap3, cols)
        assert len(tensor.support) == 6320

    def test_shape_capped_before_the_walk(self, sys_ap3, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the solver walked")

        monkeypatch.setattr(slicerank, "_completion", no_walk)
        cols = [list(PointSet.full_space(7, 3))] * 3
        with pytest.raises(CapExceededError):
            indicator_tensor(sys_ap3, cols)

    def test_identity_exhaustive(self, sys_ap3, sys_531):
        cols3 = [list(PointSet.full_space(1, 3))] * 3
        assert verify_polynomial_identity(sys_ap3, cols3)
        cols5 = [list(PointSet.full_space(1, 5))] * 3
        assert verify_polynomial_identity(sys_531, cols5)

    def test_identity_with_constants(self):
        spec = SystemSpec.make([(1, 1, 1)], 3, constants=[(1, 2)])
        cols = [list(PointSet.full_space(2, 3))] * 3
        assert verify_polynomial_identity(spec, cols)

    def test_identity_sampled(self, sys_ap3, monkeypatch):
        cols = [list(PointSet.full_space(2, 3))] * 3
        rng = spawn(0, "identity-test")
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", 10)
        assert verify_polynomial_identity(sys_ap3, cols, samples=200, rng=rng)

    @pytest.mark.parametrize("cap", [10**6, 10], ids=["exhaustive", "sampled"])
    def test_identity_decides_every_entry(self, sys_ap3, monkeypatch, cap):
        # a solve kernel wrong on the last index tuple checked fails the
        # check: each entry is decided, none taken as read
        points = list(PointSet.full_space(2, 3))
        cols = [points] * 3
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", cap)
        if cap == 10:
            draws = spawn(0, "identity")
            for _ in range(200):
                last = tuple(draws.randrange(9) for _ in range(3))
        else:
            last = (8, 8, 8)
        flipped = tuple(points[l] for l in last)
        solves = slicerank._solves
        monkeypatch.setattr(slicerank, "_solves", lambda spec, xs, n: (
            solves(spec, xs, n) != (tuple(xs) == flipped)))
        assert not verify_polynomial_identity(sys_ap3, cols, samples=200,
                                              rng=spawn(0, "identity"))

    def test_sampled_identity_builds_no_tensor(self, sys_ap3, monkeypatch):
        def no_tensor(*args, **kwargs):
            raise AssertionError("a tensor was built")

        monkeypatch.setattr(slicerank.Tensor, "from_function", no_tensor)
        cols = [list(PointSet.full_space(5, 3))] * 3
        assert verify_polynomial_identity(sys_ap3, cols, samples=200,
                                          rng=spawn(1, "identity"))

    @pytest.mark.parametrize("cap", [10, 10**6], ids=["sampled", "exhaustive"])
    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_must_be_positive(self, sys_ap3, monkeypatch, cap, samples):
        # a sampled check of no tuples passed without checking anything
        cols = [list(PointSet.full_space(2, 3))] * 3
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", cap)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_polynomial_identity(sys_ap3, cols, samples=samples,
                                       rng=spawn(0, "identity"))

    @pytest.mark.parametrize("cap", [10, 10**6], ids=["sampled", "exhaustive"])
    def test_samples_capped(self, sys_ap3, monkeypatch, cap, deadline):
        # a billion samples ran for hours at about 17 us each
        cols = [list(PointSet.full_space(2, 3))] * 3
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", cap)
        with deadline(1), pytest.raises(CapExceededError, match="samples"):
            verify_polynomial_identity(sys_ap3, cols, samples=10**9,
                                       rng=spawn(0, "identity"))

    def test_samples_cap_is_inclusive(self, sys_ap3, monkeypatch):
        cols = [list(PointSet.full_space(2, 3))] * 3
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", 10)
        monkeypatch.setattr(slicerank, "_TENSOR_SIZE_CAP", 200)
        assert verify_polynomial_identity(sys_ap3, cols, samples=200,
                                          rng=spawn(0, "identity"))
        with pytest.raises(CapExceededError, match="201 samples exceed the cap 200"):
            verify_polynomial_identity(sys_ap3, cols, samples=201,
                                       rng=spawn(0, "identity"))

    def test_sampled_needs_rng(self, sys_ap3, monkeypatch):
        cols = [list(PointSet.full_space(2, 3))] * 3
        monkeypatch.setattr(slicerank, "DEFAULT_IDENTITY_CAP", 10)
        with pytest.raises(ValueError):
            verify_polynomial_identity(sys_ap3, cols)


class TestCeiling:
    def test_value(self):
        g = gamma(3, 1, 3).gamma
        assert ceiling(3, 1, 3, 2, factor=3).bound == pytest.approx(3 * g**2)
        assert ceiling(3, 1, 3, 1, factor=3).bound == pytest.approx(8.2653, abs=1e-3)
        assert ceiling(3, 1, 3, 2, factor=3).bound == pytest.approx(22.7718, abs=1e-3)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            ceiling(3, 1, 2, 2, factor=2)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            ceiling(3, 1, 3, -1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            slicerank._gamma_power(3.0, -1)

    def test_overflow_named(self):
        with pytest.raises(ValueError,
                           match=r"Gamma\^n overflows a float at n = 2000"):
            ceiling(3, 1, 3, 2000, factor=3)


class TestPartitionedBound:
    def test_block_constant_family_certified(self, sys_ap3):
        sols = [(((1, 0),) * 3), (((0, 1),) * 3)]
        rep = partitioned_solution_bound(sys_ap3, sols, [(0, 1, 2)])
        assert rep.hypothesis_met
        assert rep.family_size == 2
        assert rep.holds

    def test_mixing_family_reports_witness(self, sys_ap3):
        sols = [((v,),) * 3 for v in range(3)]
        rep = partitioned_solution_bound(sys_ap3, sols, [(0, 1, 2)])
        assert not rep.hypothesis_met
        assert rep.witness is not None
        assert len({rep.witness[i] for i in (0, 1, 2)}) > 1
        entries = tuple(sols[l][pos] for pos, l in enumerate(rep.witness))
        assert is_solution(sys_ap3, entries)

    def test_empty_family(self, sys_ap3):
        rep = partitioned_solution_bound(sys_ap3, [], [(0, 1, 2)])
        assert rep.hypothesis_met and rep.holds and rep.family_size == 0

    def test_non_solution_rejected(self, sys_ap3):
        with pytest.raises(ValueError):
            partitioned_solution_bound(sys_ap3, [(((1,),) * 2 + ((2,),))],
                                       [(0, 1, 2)])

    def test_mixed_dimensions_rejected(self, sys_k4):
        # reported witness (2, 0, 0, 1), whose entries mix F_3^1 and F_3^2
        family = [((0,),) * 4, ((1, 1),) * 4, ((1,), (2,), (1,), (2,))]
        with pytest.raises(ValueError, match="candidate vectors have mixed dimensions"):
            partitioned_solution_bound(sys_k4, family, [(0, 1), (2, 3)])

    def test_bad_partition_rejected(self, sys_ap3):
        sols = [(((1,),) * 3)]
        with pytest.raises(ValueError):
            partitioned_solution_bound(sys_ap3, sols, [(0,), (1, 2)])


@st.composite
def families(draw):
    """A rows-sum-zero system with k in 3..5 over F_3 or F_5, a family of
    its solutions over a few points of F_p^n and a partition into blocks
    of size at least two.  Families of constant tuples over a point set
    avoiding the nonconstant solutions have no cross-solutions; other
    families mostly have some."""
    p = draw(st.sampled_from([3, 5]))
    k = draw(st.integers(3, 5))
    n = draw(st.integers(1, 2))
    row = draw(st.lists(st.integers(1, p - 1), min_size=k - 1, max_size=k - 1))
    spec = SystemSpec.make([row + [-sum(row) % p]], p)
    coord = st.integers(0, p - 1)
    pool = draw(st.lists(st.tuples(*[coord] * n), min_size=2, max_size=4,
                         unique=True))
    if draw(st.booleans()):
        family = [(v,) * k for v in pool]
    else:
        sols = brute_solutions([list(spec.coeffs[0])], None, p, pool, n)
        family = draw(st.lists(st.sampled_from(sols), min_size=1, max_size=5))
    sizes = draw(st.sampled_from([s for s in ([k], [2, k - 2], [3, k - 3])
                                  if min(s) >= 2]))
    order = draw(st.permutations(range(k)))
    blocks, start = [], 0
    for size in sizes:
        blocks.append(tuple(order[start:start + size]))
        start += size
    return spec, family, blocks


class TestPartitionedAgainstReference:
    """The bound through the completion kernel against the earlier loop
    with its own pivots (``tests/oracles.py``): same report, witness
    included."""

    @given(families())
    def test_same_report(self, case):
        spec, family, blocks = case
        assert (partitioned_solution_bound(spec, family, blocks)
                == reference_partitioned_solution_bound(spec, family, blocks))

    @pytest.mark.parametrize("coeffs,p,n,pool,blocks,met", [
        # cap set in F_3^2: constant tuples never mix
        ((1, 1, 1), 3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1, 2)], True),
        # the whole line F_3 mixes: (0, 1, 2) solves x + y + z = 0
        ((1, 1, 1), 3, 1, [(0,), (1,), (2,)], [(0, 1, 2)], False),
        ((1, 1, 2, 2), 3, 2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (2, 3)], False),
        # x + 3y + z = 0 over F_5: 2v + 3w = 0 forces w = v
        ((1, 3, 1), 5, 2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)], True),
    ])
    def test_constant_families(self, coeffs, p, n, pool, blocks, met):
        spec = SystemSpec.make([coeffs], p)
        family = [(v,) * spec.k for v in pool]
        ours = partitioned_solution_bound(spec, family, blocks)
        assert ours == reference_partitioned_solution_bound(spec, family, blocks)
        assert ours.hypothesis_met is met

    def test_m2_family(self, sys_m2):
        points = [(1, 0), (0, 1), (1, 1), (2, 3), (4, 4)]
        sols = brute_solutions([list(r) for r in sys_m2.coeffs], None, 5,
                               points, 2)
        for size in range(1, 6):
            family = sols[:size] + sols[-size:]
            for blocks in ([(0, 1, 2, 3, 4)], [(0, 1), (2, 3, 4)],
                           [(4, 0), (1, 3, 2)]):
                assert (partitioned_solution_bound(sys_m2, family, blocks)
                        == reference_partitioned_solution_bound(
                            sys_m2, family, blocks))
