import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsystems import (
    CapExceededError,
    PointSet,
    Subspace,
    SystemSpec,
    admissible_sets,
    enumerate_solutions,
    partition_structure,
    random_subspace,
    rref_with_pivots,
    verify_weight_properties,
    weight,
)
from fpsystems import weights
from .oracles import (
    rank_by_minors,
    reference_admissible_sets,
    reference_weight,
    weight_by_definition,
)


def repeating_tuples():
    """(p, tuple) with k <= 6 entries drawn from a pool of at most
    three nonzero vectors in F_p^n, n <= 4, so entries repeat, several
    quotient lines occur, and a pool of one gives an all-equal tuple."""
    def build(t):
        p, n = t
        vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n) \
            .map(tuple).filter(any)
        pools = st.lists(vec, min_size=1, max_size=3)
        entries = pools.flatmap(lambda pool: st.lists(
            st.sampled_from(pool), min_size=2, max_size=6).map(tuple))
        return st.tuples(st.just(p), entries)

    return st.tuples(st.sampled_from([2, 3, 5, 7]),
                     st.integers(1, 4)).flatmap(build)


def invertible_matrices(n, p):
    """n x n matrices over F_p drawn as P L U: a permutation, a unit
    lower triangular and an upper triangular factor with nonzero
    diagonal, so every draw is invertible."""
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    diagonal = st.lists(st.integers(1, p - 1), min_size=n, max_size=n)

    def build(parts):
        perm, low, up, diag = parts
        lower = [[1 if i == j else low[i * n + j] if j < i else 0
                  for j in range(n)] for i in range(n)]
        upper = [[diag[i] if i == j else up[i * n + j] if j > i else 0
                  for j in range(n)] for i in range(n)]
        lu = [[sum(a * b for a, b in zip(row, col)) % p
               for col in zip(*upper)] for row in lower]
        return [lu[i] for i in perm]

    return st.tuples(st.permutations(range(n)), entries, entries,
                     diagonal).map(build)


def nonzero_tuples():
    def build(t):
        p, k, n = t
        vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n) \
            .map(tuple).filter(any)
        return st.tuples(st.just(p),
                         st.lists(vec, min_size=k, max_size=k).map(tuple))

    return st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(2, 4),
                     st.integers(1, 3)).flatmap(build)


class TestAdmissible:
    def test_empty_set_always_admissible(self):
        adm = admissible_sets([(1, 0), (1, 0), (1, 1)], 3)
        assert adm[0].indices == ()

    def test_all_equal_tuple(self):
        adm = admissible_sets([(1, 1)] * 3, 2)
        assert [a.indices for a in adm] == [()]
        assert adm[0].weight == 1
        assert weight([(1, 1)] * 3, 2).omega == 1

    def test_three_lines_example(self):
        entries = [(1, 0), (0, 1), (1, 1)]
        adm = admissible_sets(entries, 2)
        weights = {a.indices: a.weight for a in adm}
        assert weights == {(): 3, (0,): 5, (1,): 5, (2,): 5}
        rep = weight(entries, 2)
        assert rep.omega == 5
        assert rep.chosen == (0,)

    def test_independent_tuple_takes_full_set(self):
        entries = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        rep = weight(entries, 3)
        assert rep.omega == 3 * 4
        assert rep.chosen == (0, 1, 2)
        assert rep.partition == ()

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            admissible_sets([(0, 0), (1, 0)], 3)
        with pytest.raises(ValueError):
            weight([(1, 0), (0, 0)], 3)

    def test_cap_enforced(self):
        entries = [(1,)] * 25
        with pytest.raises(CapExceededError):
            admissible_sets(entries, 3)
        with pytest.raises(CapExceededError):
            weight(entries, 3)
        with pytest.raises(CapExceededError):
            verify_weight_properties(entries, 3)
        # 25 ones sum to 0 mod 5, so the tuple solves the system
        with pytest.raises(CapExceededError):
            partition_structure(entries, SystemSpec.make([(1,) * 25], 5))

    def test_checks_validate_once(self, sys_ap3, monkeypatch):
        calls = []
        checked = weights._checked_tuple
        monkeypatch.setattr(weights, "_checked_tuple",
                            lambda xs, p: calls.append(p) or checked(xs, p))
        entries = [(1, 0), (2, 1), (0, 2)]
        assert verify_weight_properties(entries, 3, sys_spec=sys_ap3).ok
        assert partition_structure(entries, sys_ap3).lemma_ok
        assert calls == [3, 3]

    @given(nonzero_tuples())
    def test_weight_bounds_per_set(self, case):
        p, entries = case
        k = len(entries)
        for adm in admissible_sets(entries, p):
            size = len(adm.indices)
            assert adm.weight <= (k + 1) * size + k
            if size < k:
                assert adm.weight >= (k + 1) * size + 1
            else:
                assert adm.weight == (k + 1) * k


class TestWeight:
    @given(nonzero_tuples())
    def test_matches_definition_oracle(self, case):
        p, entries = case
        assert weight(entries, p).omega == weight_by_definition(
            list(entries), p)

    @given(st.one_of(nonzero_tuples(), repeating_tuples()), st.data())
    def test_invariant_under_injective_maps(self, case, data):
        # omega, the maximizer and the blocks depend only on the linear
        # relations among the entries, which a map injective on their
        # span keeps: an invertible g, or zero padding into F_p^(n+2)
        p, entries = case
        g = data.draw(invertible_matrices(len(entries[0]), p))
        moved = [tuple(sum(a * b for a, b in zip(row, v)) % p for row in g)
                 for v in entries]
        padded = [v + (0, 0) for v in entries]
        rep = weight(entries, p)
        for image in (moved, padded):
            other = weight(image, p)
            assert (other.omega, other.chosen, other.partition) == \
                (rep.omega, rep.chosen, rep.partition)
            assert other == reference_weight(image, p)
        assert rep == reference_weight(entries, p)

    @given(nonzero_tuples())
    def test_chosen_is_smallest_then_lex(self, case):
        p, entries = case
        rep = weight(entries, p)
        ties = [a.indices for a in admissible_sets(entries, p)
                if a.weight == rep.omega]
        best = min(ties, key=lambda idx: (len(idx), idx))
        assert rep.chosen == best

    def test_memo_never_crosses_inputs(self):
        # the same coordinates weigh differently under p=3, where all
        # three lie on one line, and p=5; list and tuple input, and a
        # padded ambient space, each get their own correct report
        # whatever was weighed just before
        coords = [(1, 2), (1, 2), (2, 1)]
        padded = [v + (0,) for v in coords]
        cases = [(coords, 3), (coords, 5), (coords, 3), (tuple(coords), 5),
                 (padded, 5), (coords, 5), (tuple(coords), 3)]
        for entries, p in cases:
            assert weight(entries, p) == reference_weight(entries, p)
        assert (weight(coords, 3).omega, weight(coords, 3).chosen) == (1, ())
        assert (weight(coords, 5).omega, weight(coords, 5).chosen) == (5, (2,))
        assert weight(padded, 5).span_u.ambient_dim == 3
        # the shape memo too, whichever prime comes first: (1, 2), (2, 1)
        # are dependent mod 3 only, and the longer tuple is row reduced
        # under both primes, so both give it one relation shape
        for entries in ([(1, 2), (2, 1)],
                        [(1, 0), (0, 1), (1, 2), (2, 1), (1, 0), (0, 1)]):
            for primes in ((3, 5), (5, 3)):
                weights._weigh.cache_clear()
                weights._weigh_shape.cache_clear()
                for p in primes:
                    assert weight(entries, p) == reference_weight(entries, p)

    def test_one_walk_per_relation_shape(self, sys_ap3, sys_k4, spy):
        # the census flow: weight facts, then the partition, of every
        # solution; the walk runs once per row space of the coordinate
        # matrix, not once per tuple
        weights._weigh.cache_clear()
        weights._weigh_shape.cache_clear()
        walks = spy(weights._admissible_family)
        shapes = set()
        for spec, dims in ((sys_ap3, (1, 2, 3, 4)), (sys_k4, (1, 2))):
            for n in dims:
                points = PointSet.full_space(n, 3, include_zero=False)
                for sol in enumerate_solutions(spec, points):
                    assert verify_weight_properties(sol.entries, 3,
                                                    sys_spec=spec).ok
                    assert partition_structure(sol.entries, spec).lemma_ok
                    shapes.add(rref_with_pivots(list(zip(*sol.entries)), 3))
        assert len(walks) == len(shapes) == 14

    def test_partition_groups_equal_lines(self):
        entries = [(1, 0), (2, 0), (0, 1), (0, 2)]
        rep = weight(entries, 3)
        assert rep.chosen == ()
        assert rep.partition == ((0, 1), (2, 3))
        assert len(rep.lines) == 2


class TestProperties:
    def test_all_equal(self):
        rep = verify_weight_properties([(1, 1)] * 3, 2)
        assert rep.omega == 1
        assert rep.chosen_size == 0
        assert rep.span_dim == 1
        assert rep.ok

    def test_independent_tuple(self):
        rep = verify_weight_properties(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert rep.chosen_size == 3
        assert rep.ok

    @given(nonzero_tuples())
    def test_holds_on_arbitrary_tuples(self, case):
        # omega's three structural facts do not need solutionhood
        p, entries = case
        assert verify_weight_properties(entries, p).ok

    def test_solution_witness_checked(self, sys_ap3):
        with pytest.raises(ValueError):
            verify_weight_properties([(1,), (1,), (2,)], 3, sys_spec=sys_ap3)
        rep = verify_weight_properties([(1,), (1,), (1,)], 3, sys_spec=sys_ap3)
        assert rep.ok

    @given(st.one_of(nonzero_tuples(), repeating_tuples()))
    def test_span_dim_is_the_rank(self, case):
        p, entries = case
        rep = verify_weight_properties(entries, p)
        assert rep.span_dim == rank_by_minors([list(x) for x in entries], p)

    @pytest.mark.parametrize("entries,p,lines,rank", [
        # three lines outside an empty chosen set, independent or not
        ([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 1)],
         3, 3, 3),
        ([(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (2, 2)], 3, 3, 2),
        ([(1, 2, 0, 0)] * 4, 5, 1, 1),
    ])
    def test_span_dim_from_the_lines(self, entries, p, lines, rank):
        assert len(weight(entries, p).lines) == lines
        rep = verify_weight_properties(entries, p)
        assert rep.span_dim == rank == rank_by_minors(entries, p)
        assert rep.ok

    def test_system_prime_must_match(self):
        spec = SystemSpec.make([(1, 1, 1)], 3)
        # (1, 0) three times solves x+y+z=0 over F_3 but not over F_5
        with pytest.raises(ValueError, match="F_5.*F_3"):
            verify_weight_properties([(1, 0)] * 3, 5, sys_spec=spec)
        assert verify_weight_properties([(1, 0)] * 3, 3, sys_spec=spec).ok

    def test_system_length_must_match(self, sys_ap3):
        # the first three entries solve x+y+z=0, the fourth is extra
        entries = [(1,), (1,), (1,), (2,)]
        with pytest.raises(ValueError, match="expected 3 vectors, got 4"):
            verify_weight_properties(entries, 3, sys_spec=sys_ap3)
        with pytest.raises(ValueError, match="expected 3 vectors, got 4"):
            partition_structure(entries, sys_ap3)
        with pytest.raises(ValueError, match="expected 3 vectors, got 2"):
            partition_structure(entries[:2], sys_ap3)

    def test_enumerated_solutions_all_pass(self, sys_ap3):
        points = PointSet.full_space(2, 3, include_zero=False)
        count = 0
        for sol in enumerate_solutions(sys_ap3, points):
            rep = verify_weight_properties(sol.entries, 3, sys_spec=sys_ap3)
            assert rep.ok
            count += 1
        assert count > 0


class TestPartition:
    def test_all_equal_single_block(self, sys_ap3):
        rep = partition_structure([(1,), (1,), (1,)], sys_ap3)
        assert rep.blocks == ((0, 1, 2),)
        assert rep.min_block_size == 3
        assert rep.lemma_ok

    def test_non_solution_rejected(self, sys_ap3):
        with pytest.raises(ValueError):
            partition_structure([(1,), (1,), (2,)], sys_ap3)

    def test_rows_sum_zero_required(self):
        spec = SystemSpec.make([(1, 1, 2)], 3)
        with pytest.raises(ValueError):
            partition_structure([(1,), (1,), (2,)], spec)

    def test_blocks_at_least_two_on_solutions(self, sys_ap3, sys_k4):
        for spec, n in ((sys_ap3, 2), (sys_k4, 1), (sys_k4, 2)):
            points = PointSet.full_space(n, 3, include_zero=False)
            for sol in enumerate_solutions(spec, points):
                rep = partition_structure(sol.entries, spec)
                assert rep.lemma_ok
                assert len(rep.blocks) <= spec.k // 2 or not rep.blocks
                assert len(set(rep.lines)) == len(rep.lines)

    def test_block_union_is_complement(self, sys_k4):
        points = PointSet.full_space(2, 3, include_zero=False)
        for sol in enumerate_solutions(spec := sys_k4, points):
            rep = partition_structure(sol.entries, spec)
            flat = sorted(i for b in rep.blocks for i in b)
            assert flat == sorted(set(range(spec.k)) - set(rep.chosen))
            break


def _all_tuples(p, n, k):
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    return list(product(vectors, repeat=k))


class TestAgainstReference:
    """The walk over the admissible family against the 2^k scan."""

    @pytest.mark.parametrize("p,n,k", [(2, 3, 3), (3, 2, 3), (2, 2, 4), (3, 2, 4)])
    def test_every_tuple(self, p, n, k):
        for entries in _all_tuples(p, n, k):
            self.check(entries, p)

    @given(nonzero_tuples())
    def test_random_tuples(self, case):
        p, entries = case
        self.check(entries, p)

    @staticmethod
    def check(entries, p):
        # equal omega, chosen, span_u, partition and lines; equal
        # admissible lists: indices, span_u, weight and lines, in order
        adm = reference_admissible_sets(entries, p)
        assert admissible_sets(entries, p) == adm
        assert weight(entries, p) == reference_weight(entries, p, adm)


_AP3 = SystemSpec.make([(1, 1, 1)], 3)
_AFFINE = SystemSpec.make([(1, 1, 1)], 3, constants=[(0, 0)])
_ONES21 = SystemSpec.make([(1,) * 21], 3)
_SOL = ((1, 0), (2, 1), (0, 2))
_EMPTY = (ValueError, "empty tuple has no weight")
_MIXED = (ValueError, "tuple entries have mixed dimensions")
_ZERO = (ValueError, "tuple entries must be nonzero")
_NOT_INT = (ValueError, "invalid literal for int() with base 10: 'x'")
_CAP = (CapExceededError, "admissible listing capped at k <= 20, got 21")
_NOT_PRIME = (ValueError, "4 is not prime")
_NO_SOLVE = (ValueError, "tuple does not solve the supplied system")
_CHECKS = {
    "weight": lambda entries, p, sys_spec: weight(entries, p),
    "admissible_sets": lambda entries, p, sys_spec: admissible_sets(entries, p),
    "verify_weight_properties": lambda entries, p, sys_spec:
        verify_weight_properties(entries, p, sys_spec=sys_spec),
    "partition_structure": lambda entries, p, sys_spec:
        partition_structure(entries, sys_spec),
}
# name -> (entries, p, system, and the outcome of each check in _CHECKS
# order: an exception type and message, or None for a return)
BAD_INPUTS = {
    "empty-tuple": ((), 3, _AP3, [_EMPTY] * 4),
    "mixed-dimensions": (((1, 0), (1,), (1, 1)), 3, _AP3, [_MIXED] * 4),
    "zero-entry": (((1, 0), (0, 0), (2, 0)), 3, _AP3, [_ZERO] * 4),
    "non-integer-string": (((1, "x"), (2, 1), (0, 2)), 3, _AP3, [_NOT_INT] * 4),
    "k-21": (((1,),) * 21, 3, _ONES21, [_CAP] * 4),
    "non-prime-p": (_SOL, 4, _AP3, [_NOT_PRIME] * 3 + [None]),
    # partition_structure takes the system's prime, over which the
    # tuple solves nothing
    "system-over-another-prime": (
        _SOL, 3, SystemSpec.make([(1, 1, 3)], 5),
        [None, None, (ValueError, "tuple is over F_3 but the system is over F_5"),
         _NO_SOLVE]),
    "wrong-k": (((1,), (1,), (1,), (2,)), 3, _AP3,
                [None, None] + [(ValueError, "expected 3 vectors, got 4")] * 2),
    "non-solution": (((1, 0), (1, 0), (2, 0)), 3, _AP3,
                     [None, None, _NO_SOLVE, _NO_SOLVE]),
    "affine-system": (
        _SOL, 3, _AFFINE,
        [None, None, (ValueError, "property check expects a homogeneous system"),
         (ValueError, "partition structure expects a homogeneous system")]),
    "rows-not-summing-to-zero": (
        ((1, 0), (1, 0), (2, 0)), 3, SystemSpec.make([(1, 1, 2)], 3),
        [None, None, None,
         (ValueError, "partition structure expects rows summing to zero")]),
    # two faults each: the one reported is the one checked first
    "mixed-dimensions-and-zero-entry": (((1, 0), (0,), (1, 1)), 3, _AP3,
                                        [_MIXED] * 4),
    "zero-entry-and-wrong-k": (((1, 0), (0, 0), (2, 0), (1, 1)), 3, _AP3,
                               [_ZERO] * 4),
    "empty-tuple-and-affine-system": (
        (), 3, _AFFINE,
        [_EMPTY] * 3
        + [(ValueError, "partition structure expects a homogeneous system")]),
    "non-integer-string-and-non-prime-p": (((1, "x"), (2, 1), (0, 2)), 4, _AP3,
                                           [_NOT_PRIME] * 3 + [_NOT_INT]),
    "k-21-and-non-solution": (((1,),) * 20 + ((2,),), 3, _ONES21, [_CAP] * 4),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_errors_and_their_precedence(name):
    entries, p, sys_spec, outcomes = BAD_INPUTS[name]
    for (check, call), outcome in zip(_CHECKS.items(), outcomes):
        if outcome is None:
            call(entries, p, sys_spec)
            continue
        with pytest.raises(Exception) as info:
            call(entries, p, sys_spec)
        assert (type(info.value), str(info.value)) == outcome, check


class TestWorkPerCall:
    def test_census_pair_costs(self, sys_k4, spy, monkeypatch):
        # the weight facts, then the partition, of a tuple not weighed
        # before: one elimination ranks its relation shape and one spans
        # its chosen entries; each call solves the system once; the block
        # lines are reduced inline
        weights._weigh.cache_clear()
        eliminations = spy(weights._rref)
        solves = spy(weights._solves)
        reduces = []
        reduce = Subspace.reduce
        monkeypatch.setattr(Subspace, "reduce",
                            lambda self, v: reduces.append(v) or reduce(self, v))
        entries = ((0, 1, 1), (0, 0, 1), (0, 0, 2), (0, 1, 0))
        assert verify_weight_properties(entries, 3, sys_spec=sys_k4).ok
        rep = partition_structure(entries, sys_k4)
        assert (rep.chosen, rep.blocks, rep.lines) == ((0,), ((1, 2, 3),),
                                                       ((0, 0, 1),))
        assert (len(eliminations), len(solves), len(reduces)) == (2, 2, 0)

    def test_spans_keep_their_pivots(self):
        spans = [weight([(0, 2, 1, 0), (0, 1, 0, 2), (0, 0, 0, 1), (0, 2, 0, 0)],
                        3).span_u,
                 random_subspace(5, 3, 3, random.Random(0)),
                 random_subspace(4, 0, 5, random.Random(0))]
        assert [sub.dim for sub in spans] == [2, 3, 0]
        for sub in spans:
            # in echelon form each row leads with its pivot
            assert sub.pivots == tuple(
                next(j for j, v in enumerate(row) if v) for row in sub.basis)
            again = Subspace(sub.basis, sub.ambient_dim, sub.p)
            assert again == sub
            assert hash(again) == hash(sub)
            assert again.pivots == sub.pivots
