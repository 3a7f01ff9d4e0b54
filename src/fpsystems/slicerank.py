"""Slice rank toolbox: the rate constant Gamma, monomial counting,
indicator tensors of linear systems, and exact slice rank on antichain
supports.

Gamma(p, m, k) is the minimum of (1 + z + ... + z^(p-1)) / z^((p-1)m/k)
over 0 < z <= 1.  Writing phi(z) for the mean of the distribution
proportional to (z^0, ..., z^(p-1)) on {0, ..., p-1}, the log derivative
of the objective is (phi(z) - (p-1)m/k) / z and phi increases strictly
from 0 to (p-1)/2 on (0, 1].  So for k >= 2m + 1 the minimizer is the
unique root of phi(z) = (p-1)m/k, found here by bisection; for
k <= 2m the objective decreases on all of (0, 1] and the minimum is the
boundary value p at z = 1, reported rather than raised.

With t = -ln z, phi sums in closed form to 1/expm1(t) - p/expm1(pt),
so each bisection step costs O(1) instead of O(p).  Three branches
keep it accurate and finite:

- pt < 0.01: the two terms nearly cancel, so phi is the series
  (p-1)/2 - (p^2-1)t/12 + (p^4-1)t^3/720, whose next term is below
  (pt)^5/7560 of the value;
- pt > 700: p/expm1(pt) is below half an ulp of the first term and
  expm1 would overflow on subnormal z, so phi is z/(1-z);
- otherwise the closed form itself.

Measured over every prime p <= 10007 and 0.1 <= z <= 1 - 10^-9, the
relative error is at most 7e-14 against the direct sum (kept as
``tests/oracles.reference_phi``) and below 9e-14 against a 60-digit
evaluation, the worst cases just past the series switch, where the
closed form loses up to 4/(pt) ulps to cancellation; the direct sum's
own error is at most 2e-14.  The objective is still the direct sum,
taken once at the final midpoint, so Gamma is bit for bit the value
the sum gives there.

For a k-dimensional array whose support S is an antichain in the
product of k total orders on [L], the slice rank equals the size of a
minimum k-partite hitting set (Sawin and Tao, "Notes on the slice rank
of tensors", 2016): one set of projections per axis such that every
element of S has its projection taken on some axis.  It is searched
exactly by branching on an uncovered element over its k projections
(the 3-hitting-set branching of Niedermeier and Rossmanith, 2003).
Uncovered elements that are pairwise disjoint on every axis each need
a projection of their own, so their number, picked greedily, bounds
what the branch still has to take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product, repeat
from math import comb, expm1, isinf, log
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceededError
from .fplinalg import check_prime, read_lines, reduce_coords, write_lines
from .linsystem import SystemSpec, _Completion, is_solution

DEFAULT_SUPPORT_CAP = 40
DEFAULT_CROSS_CAP = 10**7
DEFAULT_IDENTITY_CAP = 10**5
_TENSOR_SIZE_CAP = 2 * 10**6


@dataclass(frozen=True)
class GammaResult:
    """Value and minimizer of the Gamma objective."""

    gamma: float
    z_star: float
    iterations: int
    tolerance: float
    at_boundary: bool


def _phi(z: float, p: int) -> float:
    """The mean of j under weights z^j on {0, ..., p-1}, for 0 < z <= 1,
    by the three branches in the module docstring."""
    t = -log(z)
    pt = p * t
    if pt < 1e-2:
        return (p - 1) / 2 - (p * p - 1) * t / 12 + (p**4 - 1) * t**3 / 720
    if pt > 700:
        return z / (1 - z)
    return 1 / expm1(t) - p / expm1(pt)


def _objective(z: float, p: int, alpha: float) -> float:
    """(1 + z + ... + z^(p-1)) / z^alpha, each power one product from the
    last and the sum taken left to right, in O(1) memory."""
    return sum(accumulate(repeat(z, p - 1), mul, initial=1.0)) / z**alpha


def gamma(p, m: int, k: int, tol: float = 1e-12) -> GammaResult:
    """Minimize (1 + z + ... + z^(p-1)) / z^((p-1)m/k) over 0 < z <= 1.

    Requires m >= 1 and k >= 1.  For k <= 2m the minimum sits at the
    boundary z = 1 with value p; this is reported with at_boundary set,
    not raised.  Otherwise the interior minimizer is bracketed by
    bisection on the monotone mean phi until the bracket width drops
    below tol, or until its ends are adjacent floats; ``tolerance`` is
    the half-width actually reached.
    """
    p = check_prime(p)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if not 0 < tol < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    if k <= 2 * m:
        return GammaResult(float(p), 1.0, 0, 0.0, True)
    alpha = (p - 1) * m / k
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:  # adjacent floats: no narrower bracket
            break
        if _phi(mid, p) < alpha:
            lo = mid
        else:
            hi = mid
        iterations += 1
    z_star = (lo + hi) / 2
    return GammaResult(_objective(z_star, p, alpha), z_star, iterations,
                       (hi - lo) / 2, False)


@dataclass(frozen=True)
class MonomialCountResult:
    count: int
    threshold: int
    bound: float
    holds: bool


def _gamma_power(value: float, n: int, factor: int = 1) -> float:
    """factor * Gamma^n as a finite float; a ValueError for n < 0, or one
    naming n when Gamma^n, the factor or their product overflows."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    try:
        power = value**n
    except OverflowError:
        raise ValueError(f"Gamma^n overflows a float at n = {n}") from None
    try:
        bound = factor * power
    except OverflowError:  # an int factor too large for a float
        bound = float("inf")
    if isinf(bound):
        raise ValueError(f"c * Gamma^n overflows a float at n = {n}")
    return bound


@dataclass(frozen=True)
class Ceiling:
    """The slice-rank ceiling factor * Gamma(p, m, k)^n."""

    gamma: GammaResult
    bound: float

    def holds(self, count: int) -> bool:
        """Whether a count stays within the ceiling, compared as floats."""
        return count <= self.bound


def ceiling(p, m: int, k: int, n: int, factor: int = 1) -> Ceiling:
    """The ceiling factor * Gamma^n at the default tolerance; needs n >= 0,
    k >= 2m + 1 and a ceiling within the float range."""
    g = gamma(p, m, k)
    if g.at_boundary:
        raise ValueError(f"ceiling needs k >= 2m + 1, got k = {k}, m = {m}")
    return Ceiling(g, _gamma_power(g.gamma, n, factor))


def monomial_count(p, m: int, k: int, n: int) -> MonomialCountResult:
    """Exact number of degree tuples (d_1, ..., d_n) in {0, ..., p-1}^n
    with sum at most T = floor((p-1)mn/k), against the ceiling Gamma^n.

    By inclusion-exclusion over the coordinates forced to d_i >= p, the
    count is sum_{j=0}^{min(n, T // p)} (-1)^j C(n, j) C(T - jp + n, n),
    exact in integers for every n with O(n) binomials.
    """
    ceil = ceiling(p, m, k, n)
    p = int(p)
    threshold = (m * n * (p - 1)) // k
    count = sum((-1)**j * comb(n, j) * comb(threshold - j * p + n, n)
                for j in range(min(n, threshold // p) + 1))
    return MonomialCountResult(count, threshold, ceil.bound, ceil.holds(count))


def _check_shape(length: int, k: int) -> None:
    """Reject a dense [L]^k shape before any of its values is built."""
    if length < 1 or k < 2:
        raise ValueError("need L >= 1 and k >= 2")
    # L = 1 counts as 2: its index tuples, order family and rank search
    # still grow with k; the bit-length test spares the power for huge k
    if (k > _TENSOR_SIZE_CAP.bit_length()
            or max(length, 2)**k > _TENSOR_SIZE_CAP):
        raise CapExceededError(f"dense tensor [{length}]^{k} exceeds the "
                               f"cap {_TENSOR_SIZE_CAP} on max(L, 2)^k")


def _check_index(idx: Sequence[int], length: int, k: int) -> None:
    if len(idx) != k or any(not 0 <= i < length for i in idx):
        raise IndexError(f"index {tuple(idx)} out of range")


@dataclass(frozen=True)
class Tensor:
    """A k-dimensional array over F_p on index set [L]^k, held by its
    support.

    ``entries`` lists the (index tuple, nonzero value) pairs in
    lexicographic index order, which the constructor checks; indices
    are 0 based.  The support is the list of their index tuples.
    """

    p: int
    length: int
    k: int
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        _check_shape(self.length, self.k)
        for idx, val in self.entries:
            _check_index(idx, self.length, self.k)
            if not 0 < val < self.p:
                raise ValueError(f"value {val} at {idx} is not a nonzero residue")
        if any(a >= b for (a, _), (b, _) in zip(self.entries, self.entries[1:])):
            raise ValueError("entries must be in increasing index order")

    @classmethod
    def from_function(cls, p, length: int, k: int,
                      fn: Callable[[tuple[int, ...]], int]) -> "Tensor":
        p = check_prime(p)
        _check_shape(length, k)
        values = ((idx, fn(idx) % p) for idx in product(range(length), repeat=k))
        return cls(p, length, k, tuple((idx, val) for idx, val in values if val))

    @classmethod
    def from_entries(cls, p, length: int, k: int,
                     entries: dict[tuple[int, ...], int]) -> "Tensor":
        p = check_prime(p)
        _check_shape(length, k)
        for idx in entries:  # zero values too, though they are dropped
            _check_index(idx, length, k)
        return cls(p, length, k, tuple(sorted(
            (idx, val % p) for idx, val in entries.items() if val % p)))

    @cached_property
    def _values(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    def entry(self, idx: Sequence[int]) -> int:
        _check_index(idx, self.length, self.k)
        return self._values.get(tuple(idx), 0)

    @cached_property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(idx for idx, _ in self.entries)


@dataclass(frozen=True)
class OrderFamily:
    """k total orders on {0, ..., L-1}, each given as a permutation read
    from smallest to largest."""

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("need at least one order")
        length = len(self.orders[0])
        base = tuple(range(length))
        for perm in self.orders:
            if tuple(sorted(perm)) != base:
                raise ValueError("each order must be a permutation of range(L)")

    @property
    def k(self) -> int:
        return len(self.orders)

    @property
    def length(self) -> int:
        return len(self.orders[0])

    @cached_property
    def _ranks(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for perm in self.orders:
            rank_of = [0] * len(perm)
            for pos, elem in enumerate(perm):
                rank_of[elem] = pos
            out.append(tuple(rank_of))
        return tuple(out)

    @classmethod
    def all_increasing(cls, length: int, k: int) -> "OrderFamily":
        return cls(tuple(tuple(range(length)) for _ in range(k)))


def _blocks(partition: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The blocks, each sorted; every block must have at least two axes,
    and together they must cover the axes 0, 1, ... exactly once."""
    blocks = [tuple(sorted(set(b))) for b in partition]
    if any(len(b) < 2 for b in blocks):
        raise ValueError("every block must have at least two axes")
    covered = sorted(i for b in blocks for i in b)
    if covered != list(range(len(covered))):
        raise ValueError("blocks must partition the axis range exactly")
    return blocks


def corollary_orders(partition: Sequence[Sequence[int]], length: int) -> OrderFamily:
    """Order family attached to a partition of the k axes into blocks of
    size at least two: the smallest axis of each block gets the
    increasing order, the second smallest the reversed order, and every
    other axis the increasing order.  Under these orders the support of
    a block-constant family of index tuples is an antichain."""
    blocks = _blocks(partition)
    k = sum(len(b) for b in blocks)
    increasing = tuple(range(length))
    reversed_order = tuple(range(length - 1, -1, -1))
    orders: list[tuple[int, ...]] = [increasing] * k
    for b in blocks:
        orders[b[1]] = reversed_order
    return OrderFamily(tuple(orders))


def is_antichain(support: Sequence[Sequence[int]], orders: OrderFamily) -> bool:
    """Whether no two distinct support elements are comparable in the
    product of the axis orders."""
    pts = [tuple(e) for e in support]
    ranks = orders._ranks
    k = orders.k
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if a == b:
                continue
            if all(ranks[ax][a[ax]] <= ranks[ax][b[ax]] for ax in range(k)):
                return False
            if all(ranks[ax][b[ax]] <= ranks[ax][a[ax]] for ax in range(k)):
                return False
    return True


def antichain_slice_rank(tensor: Tensor, orders: OrderFamily,
                         cap: int = DEFAULT_SUPPORT_CAP) -> int:
    """Exact slice rank of a tensor whose support is an antichain.

    Equal to the size of a minimum k-partite hitting set of the support:
    one set of projections per axis, every support element hit on some
    axis.  The search starts from the best single axis, takes one of the
    k projections of the first uncovered element per branch, and prunes
    when the projections taken plus the number of greedily picked
    uncovered elements pairwise disjoint on every axis reach the
    incumbent.  Supports above ``cap`` elements are refused before the
    antichain test.
    """
    if orders.k != tensor.k or orders.length != tensor.length:
        raise ValueError("order family does not match the tensor shape")
    support = tensor.support
    size = len(support)
    if size > cap:
        raise CapExceededError(f"support size {size} exceeds the cap {cap}")
    if not is_antichain(support, orders):
        raise ValueError("tensor support is not an antichain under these orders")
    axes = range(tensor.k)
    taken: list[set[int]] = [set() for _ in axes]
    best = min(len({e[ax] for e in support}) for ax in axes)

    def walk(count: int) -> None:
        nonlocal best
        uncovered = [e for e in support
                     if not any(e[ax] in taken[ax] for ax in axes)]
        if not uncovered:
            best = count
            return
        seen: list[set[int]] = [set() for _ in axes]
        bound = 0
        for e in uncovered:
            if not any(e[ax] in seen[ax] for ax in axes):
                bound += 1
                for ax in axes:
                    seen[ax].add(e[ax])
        if count + bound >= best:
            return
        e = uncovered[0]
        for ax in axes:
            taken[ax].add(e[ax])
            walk(count + 1)
            taken[ax].remove(e[ax])

    walk(0)
    return best


def _candidate_columns(sys_spec: SystemSpec, columns: Sequence[Sequence]) -> list[list[tuple]]:
    """The k columns reduced mod p, checked for one positive length and one dimension."""
    if len(columns) != sys_spec.k:
        raise ValueError(f"need {sys_spec.k} candidate columns")
    cols = [[reduce_coords(v, sys_spec.p) for v in col] for col in columns]
    lengths = {len(col) for col in cols}
    if len(lengths) != 1:
        raise ValueError("candidate columns have unequal lengths")
    if lengths.pop() < 1:
        raise ValueError("candidate columns are empty")
    dims = {len(v) for col in cols for v in col}
    if len(dims) != 1:
        raise ValueError("candidate vectors have mixed dimensions")
    return cols


def _solving_indices(sys_spec: SystemSpec,
                     cols: Sequence[Sequence[tuple[int, ...]]]) -> Iterator[tuple[int, ...]]:
    """Every index tuple (l_1, ..., l_k) whose entries cols[i][l_i],
    reduced vectors of one dimension, solve the system, once each, in
    the order of the pivot solver's walk: a free entry is labelled by
    its index, a pivot entry by the indices holding that point in its
    column."""
    completion = _Completion(sys_spec, len(cols[0][0]))
    pools = [[(x, l) for l, x in enumerate(cols[pos])] for pos in completion.free]
    tables: list[dict[tuple[int, ...], list[int]]] = [{} for _ in completion.pivots]
    for table, pos in zip(tables, completion.pivots):
        for l, x in enumerate(cols[pos]):
            table.setdefault(x, []).append(l)
    head, last = completion.free[:-1], completion.free[-1:]
    idx = [0] * sys_spec.k
    for prefix, ends in completion.walk(pools, tables):
        for pos, (_, l) in zip(head, prefix):
            idx[pos] = l
        for end in ends:
            for pos, l in zip(last, end):
                idx[pos] = l
            for pivot_choice in product(*end[len(last):]):
                for pos, l in zip(completion.pivots, pivot_choice):
                    idx[pos] = l
                yield tuple(idx)


def indicator_tensor(sys_spec: SystemSpec, columns: Sequence[Sequence]) -> Tensor:
    """The 0/1 tensor recording which mixed tuples solve the system.

    ``columns`` gives, for each of the k variable positions, a list of L
    candidate vectors; entry (l_1, ..., l_k) is 1 exactly when taking
    the l_i-th candidate in position i solves the system.  The support
    is read off the pivot solver's walk, after the [L]^k shape cap, so
    the coefficient rank must be m (DegenerateSystemError otherwise).
    """
    cols = _candidate_columns(sys_spec, columns)
    _check_shape(len(cols[0]), sys_spec.k)
    return Tensor.from_entries(sys_spec.p, len(cols[0]), sys_spec.k,
                               dict.fromkeys(_solving_indices(sys_spec, cols), 1))


def verify_polynomial_identity(
    sys_spec: SystemSpec,
    columns: Sequence[Sequence],
    samples: int = 1000,
    rng=None,
) -> bool:
    """Check that the product formula reproduces the indicator tensor.

    The solution indicator factors over equations j and coordinates s as
    1 - (sum_i a_{j,i} x_i(s) - b_j(s))^(p-1) in F_p, by Fermat's little
    theorem.  All L^k index tuples are checked when that count is within
    ``DEFAULT_IDENTITY_CAP``, otherwise ``samples`` uniformly drawn
    tuples (which needs a seeded rng).  No tensor is built: each checked
    entry of the indicator tensor is decided on its own by
    ``is_solution``.  ``samples`` must be positive on either path, as a
    sampled check of no tuples would pass vacuously, and within the
    dense tensor cap, so a sampled check does no more work than the
    largest [L]^k tensor (CapExceededError otherwise).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > _TENSOR_SIZE_CAP:
        raise CapExceededError(f"{samples} samples exceed the cap {_TENSOR_SIZE_CAP}")
    cols = _candidate_columns(sys_spec, columns)
    p, k, m = sys_spec.p, sys_spec.k, sys_spec.m
    n = len(cols[0][0])
    bs = sys_spec.constant_rows(n)
    length = len(cols[0])

    def product_formula(xs) -> int:
        acc = 1
        for j in range(m):
            row = sys_spec.coeffs[j]
            for s in range(n):
                lin = (sum(row[i] * xs[i][s] for i in range(k)) - bs[j][s]) % p
                acc = (acc * (1 - pow(lin, p - 1, p))) % p
                if acc == 0:
                    return 0
        return acc

    if length**k <= DEFAULT_IDENTITY_CAP:
        tuples: Iterable[tuple[int, ...]] = product(range(length), repeat=k)
    else:
        if rng is None:
            raise ValueError("sampled verification needs a seeded rng")
        tuples = (tuple(rng.randrange(length) for _ in range(k))
                  for _ in range(samples))
    rows = ([cols[i][l] for i, l in enumerate(idx)] for idx in tuples)
    return all(product_formula(xs) == is_solution(sys_spec, xs) for xs in rows)


@dataclass(frozen=True)
class PartitionedBoundReport:
    """Outcome of the cross-solution hypothesis check and rank ceiling."""

    hypothesis_met: bool
    witness: tuple[int, ...] | None
    family_size: int
    bound: float | None
    holds: bool | None


def partitioned_solution_bound(
    sys_spec: SystemSpec,
    solutions: Sequence[Sequence],
    partition: Sequence[Sequence[int]],
) -> PartitionedBoundReport:
    """Check a family of solutions for cross-solutions that mix family
    members within a block, and apply the k * Gamma^n ceiling when none
    exist.

    ``solutions`` is a list of L solution k-tuples, all in one F_p^n
    (ValueError otherwise), and ``partition`` splits the k positions
    into blocks of size at least two.  If every
    mixed index tuple (l_1, ..., l_k) solving the system is constant on
    each block, the family size L is certified to be at most
    k * Gamma^n; otherwise the first violating index tuple is reported
    and no ceiling is claimed.
    """
    blocks = _blocks(partition)
    if sum(len(b) for b in blocks) != sys_spec.k:
        raise ValueError(f"blocks must cover the {sys_spec.k} variable positions")
    sols = [tuple(reduce_coords(x, sys_spec.p) for x in sol)
            for sol in solutions]
    for sol in sols:
        if not is_solution(sys_spec, sol):
            raise ValueError("family contains a non-solution")
    length = len(sols)
    k = sys_spec.k
    if length == 0:
        return PartitionedBoundReport(True, None, 0, None, True)
    # the family's entries at position i make up column i
    cols = _candidate_columns(sys_spec, list(zip(*sols)))
    if length**k > DEFAULT_CROSS_CAP:
        raise CapExceededError(f"{length}^{k} cross tuples exceed the cap {DEFAULT_CROSS_CAP}")
    n = len(cols[0][0])
    witness = next((idx for idx in _solving_indices(sys_spec, cols)
                    if any(len({idx[i] for i in b}) > 1 for b in blocks)), None)
    if witness is not None:
        return PartitionedBoundReport(False, witness, length, None, None)
    ceil = ceiling(sys_spec.p, sys_spec.m, k, n, factor=k)
    return PartitionedBoundReport(True, None, length, ceil.bound,
                                  ceil.holds(length))


def write_tensor_file(dest, tensor: Tensor) -> None:
    """Write a tensor: header ``p L k``, then one line per support
    element with the k indices (0 based) and the value."""
    lines = [f"{tensor.p} {tensor.length} {tensor.k}"]
    for idx, val in tensor.entries:
        lines.append(" ".join(str(i) for i in idx) + f" {val}")
    write_lines(dest, lines)


def read_tensor_file(src) -> Tensor:
    lines = read_lines(src, "tensor")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("tensor header must be: p L k")
    p, length, k = (int(t) for t in head)
    entries: dict[tuple[int, ...], int] = {}
    for ln in lines[1:]:
        toks = [int(t) for t in ln.split()]
        if len(toks) != k + 1:
            raise ValueError(f"expected {k} indices and a value: {ln!r}")
        idx = tuple(toks[:-1])
        if idx in entries:
            raise ValueError(f"repeated index {idx} in line {ln!r}")
        entries[idx] = toks[-1]
    return Tensor.from_entries(p, length, k, entries)
