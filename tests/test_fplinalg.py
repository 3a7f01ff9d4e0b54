import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    inverse_mod,
    is_prime,
    normalize_line_rep,
    random_subspace,
    rank,
    read_vector_file,
    rref_with_pivots,
    span,
    write_vector_file,
)
from fpsystems import fplinalg
from fpsystems.fplinalg import check_prime
from fpsystems.weights import _span
from .oracles import (
    rank_by_minors,
    reference_random_subspace,
    reference_rref_with_pivots,
    span_table,
    subspaces_as_sets,
)

PRIMES = st.sampled_from([2, 3, 5, 7])


def matrices(max_dim=4):
    return PRIMES.flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, max_dim).flatmap(
                lambda r: st.integers(1, max_dim).flatmap(
                    lambda c: st.lists(
                        st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                        min_size=r, max_size=r)))))


class TestPrimes:
    def test_small_primes(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            check_prime(6)
        with pytest.raises(ValueError):
            check_prime(1)

    @given(PRIMES, st.integers(1, 100))
    def test_inverse(self, p, a):
        a %= p
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                inverse_mod(a, p)
        else:
            assert a * inverse_mod(a, p) % p == 1


class TestRref:
    def test_rank_matches_minor_oracle_known_case(self):
        # det of [(1,2),(2,1)] is -3, zero mod 3: second row is twice
        # the first, so the rank drops to 1
        assert rank([(1, 2), (2, 1)], 3) == 1
        assert rank_by_minors([[1, 2], [2, 1]], 3) == 1
        assert rank([(1, 2), (2, 1)], 5) == 2

    @given(matrices())
    def test_rank_matches_minor_oracle(self, case):
        p, rows = case
        assert rank(rows, p) == rank_by_minors(rows, p)

    @given(matrices())
    def test_rref_idempotent(self, case):
        p, rows = case
        reduced, pivots = rref_with_pivots(rows, p)
        again, pivots2 = rref_with_pivots(reduced, p)
        assert again == reduced
        assert pivots2 == pivots

    @given(matrices())
    def test_pivot_columns_are_unit(self, case):
        p, rows = case
        reduced, pivots = rref_with_pivots(rows, p)
        for r, c in enumerate(pivots):
            col = [row[c] for row in reduced]
            assert col[r] == 1
            assert all(v == 0 for i, v in enumerate(col) if i != r)

    # 65537 checks elimination in a large field beside the small ones
    REFERENCE_PRIMES = (2, 3, 5, 7, 101, 65537)

    @given(st.sampled_from(REFERENCE_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, 8).flatmap(
            lambda ncols: st.lists(st.lists(
                st.one_of(st.integers(-3 * p, 3 * p), st.booleans()),
                min_size=ncols, max_size=ncols), max_size=6)))))
    def test_matches_reference(self, case):
        p, rows = case
        assert rref_with_pivots(rows, p) == reference_rref_with_pivots(rows, p)

    @pytest.mark.parametrize("p", REFERENCE_PRIMES)
    def test_matches_reference_on_edge_shapes(self, p):
        for rows in ([], [[]], [[], []], [[0, 0], [0, 0]], [[p, -p, 2 * p]],
                     [[True, False], [False, True], [True, True]],
                     [[-1, 1, 0], [1, -1, 0], [0, 0, -1]]):
            assert (rref_with_pivots(rows, p)
                    == reference_rref_with_pivots(rows, p))
        for rows in ([[1, 2], [3]], [[], [1]], [[1], [0], [1, 0]]):
            with pytest.raises(ValueError):
                rref_with_pivots(rows, p)
            with pytest.raises(ValueError):
                reference_rref_with_pivots(rows, p)

    def test_rank_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            rank([[1, 2], [1]], 3)

    @given(PRIMES.flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, 6).flatmap(lambda ncols: st.lists(
            st.one_of(st.just([0] * ncols),
                      st.lists(st.integers(0, p - 1), min_size=ncols,
                               max_size=ncols)),
            max_size=5)))))
    def test_pivot_kernel_matches_rref(self, case):
        # zero rows and the empty matrix included; the forward kernel
        # finds the pivots of the reduced form
        p, rows = case
        ncols = len(rows[0]) if rows else 0
        full = fplinalg._rref([list(r) for r in rows], ncols, p)[1]
        assert fplinalg._pivots([list(r) for r in rows], ncols, p) == full

    @given(PRIMES.flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, 5).flatmap(lambda ncols: st.tuples(
            st.lists(st.lists(st.integers(0, p - 1), min_size=ncols,
                              max_size=ncols), max_size=4),
            st.permutations(range(ncols)))))))
    def test_pivot_order_matches_permuted_copy(self, case):
        # eliminating in a column order finds the pivots of the copy with
        # its columns so permuted, named by their original columns
        p, (rows, order) = case
        ncols = len(order)
        permuted = [[r[c] for c in order] for r in rows]
        expected = tuple(order[c] for c in fplinalg._pivots(permuted, ncols, p))
        assert fplinalg._pivots([list(r) for r in rows], ncols, p,
                                order) == expected


class TestSubspace:
    @given(matrices(3))
    def test_span_is_canonical(self, case):
        p, rows = case
        sp = span(rows, p)
        doubled = span(rows + [rows[0]], p)
        assert sp == doubled
        scaled = span([[c * 2 for c in r] for r in rows], p)
        if p != 2:
            assert sp == scaled

    @given(matrices(3))
    def test_membership_matches_table(self, case):
        p, rows = case
        n = len(rows[0])
        sp = span(rows, p)
        table = span_table([tuple(r) for r in rows], p, n)
        assert len(table) == p**sp.dim
        for v in table:
            assert sp.contains(v)
        assert set(sp.vectors()) == table

    def test_empty_span_needs_dims(self):
        with pytest.raises(ValueError):
            span([])
        zero = span([], p=3, ambient_dim=2)
        assert zero.dim == 0
        assert zero.contains((0, 0))
        assert not zero.contains((1, 0))

    def test_quotient_projection(self):
        u = span([(1, 0, 0)], 3)
        assert u.reduce((1, 1, 0)) == (0, 1, 0)
        assert not u.contains((1, 1, 0))
        assert u.reduce((2, 0, 0)) == (0, 0, 0)

    def test_quotient_line_normalized(self):
        u = span([(1, 0, 0)], 3)
        a = normalize_line_rep(u.reduce((1, 1, 0)), 3)
        b = normalize_line_rep(u.reduce((2, 2, 0)), 3)
        assert a == b == (0, 1, 0)
        with pytest.raises(ValueError):
            normalize_line_rep(u.reduce((1, 0, 0)), 3)

    @pytest.mark.parametrize("basis,n,p", [
        (((2, 0),), 2, 3),            # pivot entry not 1
        (((4, 0),), 2, 3),            # entry not reduced mod p
        (((1, 1), (0, 1)), 2, 3),     # pivot column not cleared
        (((0, 1), (1, 0)), 2, 3),     # pivots not increasing
        (((0, 0),), 2, 3),            # zero row
        (((1, 0),), 3, 3),            # row shorter than the ambient space
        (((1, 0),), 2, 4),            # p not prime
    ])
    def test_constructor_rejects_noncanonical_basis(self, basis, n, p):
        # Subspace(((2, 0),), 2, 3) was accepted, unequal to span([(1, 0)], 3)
        with pytest.raises(ValueError):
            Subspace(basis, n, p)

    def test_constructor_accepts_canonical_basis(self):
        assert Subspace(((1, 0),), 2, 3) == span([(2, 0)], 3)
        assert Subspace(((1, 0, 2), (0, 1, 1)), 3, 3) == span([(1, 1, 0), (2, 0, 1)], 3)
        assert Subspace((), 2, 3) == span([], 3, 2)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3)])
    def test_constructor_paths_agree(self, p, n):
        rng = random.Random(p * 10 + n)
        for d in range(n + 1):
            listed = enumerate_subspaces(n, d, p)
            for sp in listed:
                via = [Subspace(sp.basis, n, p), span(sp.basis, p, n),
                       span(list(sp.vectors()), p, n),
                       _span(sp.basis, range(d), n, p)]
                assert all(u == sp and hash(u) == hash(sp) for u in via)
            assert {random_subspace(n, d, p, rng) for _ in range(20)} <= set(listed)

    @given(PRIMES, st.integers(0, 3))
    def test_line_rep_leading_one(self, p, pad):
        coords = (0,) * pad + (2 % p if p > 2 else 1, 1)
        rep = normalize_line_rep(coords, p)
        lead = next(c for c in rep if c)
        assert lead == 1


class TestEnumeration:
    @pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_counts_match_gaussian_binomial(self, p, n):
        for d in range(n + 1):
            subs = enumerate_subspaces(n, d, p)
            assert len(subs) == gaussian_binomial(n, d, p)
            assert len(set(subs)) == len(subs)
            assert all(sp.dim == d for sp in subs)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
    def test_enumeration_matches_set_oracle(self, p, n):
        for d in range(n + 1):
            ours = {frozenset(sp.vectors()) for sp in enumerate_subspaces(n, d, p)}
            theirs = set(subspaces_as_sets(n, d, p))
            assert ours == theirs

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_subspaces(4, 2, 7, cap=10)

    def test_random_subspace_dim(self):
        rng = random.Random(7)
        for d in range(4):
            sp = random_subspace(4, d, 3, rng)
            assert sp.dim == d
            assert sp.ambient_dim == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 1009, (1 << 31) - 1])
    def test_random_subspace_matches_randrange_reference(self, p):
        for n in range(1, 6):
            for d in range(n + 1):
                for seed in range(4):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    assert (random_subspace(n, d, p, ours)
                            == reference_random_subspace(n, d, p, theirs))
                    assert ours.getstate() == theirs.getstate()

    def test_random_subspace_rejections_match_reference(self, monkeypatch):
        # over F_2 half the draws are >= 2 and most 5 x 5 matrices are
        # singular, so both rejection loops run
        class Counting(random.Random):
            draws = 0

            def getrandbits(self, k):
                self.draws += 1
                return super().getrandbits(k)

        eliminations = []
        kernel = fplinalg._rref
        monkeypatch.setattr(fplinalg, "_rref",
                            lambda *args: eliminations.append(1) or kernel(*args))
        entry_rejections = matrix_rejections = 0
        for seed in range(10):
            ours, theirs = Counting(seed), random.Random(seed)
            before = len(eliminations)
            sampled = random_subspace(5, 5, 2, ours)
            matrices = len(eliminations) - before
            assert sampled == reference_random_subspace(5, 5, 2, theirs)
            assert ours.getstate() == theirs.getstate()
            matrix_rejections += matrices - 1
            entry_rejections += ours.draws - 25 * matrices
        assert matrix_rejections > 0 and entry_rejections > 0

    def test_subspace_count_cap_decided_before_the_count(self, deadline):
        # the Gaussian binomial at (2000, 1000, 3) took 13 s to form
        with deadline(1), pytest.raises(CapExceededError):
            enumerate_subspaces(2000, 1000, 3)
        with deadline(1):
            assert fplinalg._subspace_count(2000, 1000, 3, 10**5) is None
            assert fplinalg._subspace_count(5000, 5000, 3, 10**5) == 1

    @given(PRIMES, st.integers(0, 6), st.integers(0, 6), st.integers(0, 60))
    def test_subspace_count_is_the_capped_gaussian_binomial(self, p, n, d, cap):
        d = min(d, n)
        total = gaussian_binomial(n, d, p)
        assert fplinalg._subspace_count(n, d, p, cap) == (
            total if total <= cap else None)

    def test_gaussian_binomial_symmetry(self):
        for n in range(6):
            for d in range(n + 1):
                assert gaussian_binomial(n, d, 3) == gaussian_binomial(n, n - d, 3)


class TestVectorFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "points.txt"
        vectors = [(0, 1), (2, 2), (1, 0)]
        write_vector_file(path, vectors, 3, 2)
        p, n, back = read_vector_file(path)
        assert (p, n) == (3, 2)
        assert back == vectors

    def test_stream_io(self):
        buf = io.StringIO()
        write_vector_file(buf, [(1,), (4,)], 5, 1)
        p, n, back = read_vector_file(io.StringIO(buf.getvalue()))
        assert (p, n, back) == (5, 1, [(1,), (4,)])

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_vector_file(io.StringIO("p=3\n1 2\n"))
        with pytest.raises(ValueError):
            read_vector_file(io.StringIO("p=3 n=2\n1\n"))
        with pytest.raises(ValueError):
            read_vector_file(io.StringIO(""))

    def test_subspace_contains_operator(self):
        sp = span([(1, 1)], 3)
        assert (2, 2) in sp
        assert (1, 2) not in sp
