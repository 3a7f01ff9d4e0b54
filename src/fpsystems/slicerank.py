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

For a k-dimensional array whose support is an antichain in the product
of k total orders on [L], the slice rank equals the minimum over ways
of assigning each support element to one of the k axes of the total
number of distinct projections collected per axis; that minimum is
computed exactly by a branch and bound search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, isinf
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceededError
from .fplinalg import check_prime, coords_of, read_lines, reduce_coords, write_lines
from .linsystem import SystemSpec, _Completion, is_solution

DEFAULT_SUPPORT_CAP = 14
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


def _powers(z: float, p: int) -> list[float]:
    """The floats 1, z, ..., z^(p-1), each one product from the last."""
    powers = [1.0]
    for _ in range(p - 1):
        powers.append(powers[-1] * z)
    return powers


def _phi(z: float, p: int) -> float:
    powers = _powers(z, p)
    return sum(j * powers[j] for j in range(p)) / sum(powers)


def _objective(z: float, p: int, alpha: float) -> float:
    return sum(_powers(z, p)) / z**alpha


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


@dataclass(frozen=True)
class Tensor:
    """A dense k-dimensional array over F_p on index set [L]^k.

    Values are stored row-major; indices are 0 based.  The support is
    the list of index tuples with nonzero value.
    """

    p: int
    length: int
    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_shape(self.length, self.k)
        if len(self.values) != self.length**self.k:
            raise ValueError("value count does not match L^k")

    @classmethod
    def from_function(cls, p, length: int, k: int,
                      fn: Callable[[tuple[int, ...]], int]) -> "Tensor":
        p = check_prime(p)
        _check_shape(length, k)
        vals = tuple(fn(idx) % p for idx in product(range(length), repeat=k))
        return cls(p, length, k, vals)

    @classmethod
    def from_entries(cls, p, length: int, k: int,
                     entries: dict[tuple[int, ...], int]) -> "Tensor":
        p = check_prime(p)
        _check_shape(length, k)
        vals = [0] * length**k
        for idx, val in entries.items():
            if len(idx) != k or any(not 0 <= i < length for i in idx):
                raise IndexError(f"index {idx} out of range")
            flat = 0
            for i in idx:
                flat = flat * length + i
            vals[flat] = val % p
        return cls(p, length, k, tuple(vals))

    def entry(self, idx: Sequence[int]) -> int:
        if len(idx) != self.k or any(not 0 <= i < self.length for i in idx):
            raise IndexError(f"index {tuple(idx)} out of range")
        flat = 0
        for i in idx:
            flat = flat * self.length + i
        return self.values[flat]

    @cached_property
    def support(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for flat, val in enumerate(self.values):
            if val:
                idx = []
                rest = flat
                for _ in range(self.k):
                    rest, i = divmod(rest, self.length)
                    idx.append(i)
                out.append(tuple(reversed(idx)))
        return tuple(out)


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


def corollary_orders(partition: Sequence[Sequence[int]], length: int) -> OrderFamily:
    """Order family attached to a partition of the k axes into blocks of
    size at least two: the smallest axis of each block gets the
    increasing order, the second smallest the reversed order, and every
    other axis the increasing order.  Under these orders the support of
    a block-constant family of index tuples is an antichain."""
    blocks = [tuple(sorted(set(b))) for b in partition]
    if any(len(b) < 2 for b in blocks):
        raise ValueError("every block must have at least two axes")
    covered = sorted(i for b in blocks for i in b)
    k = len(covered)
    if covered != list(range(k)):
        raise ValueError("blocks must partition the axis range exactly")
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

    Equal to the minimum over assignments of support elements to axes of
    the total number of distinct projections collected on each axis.
    The search assigns elements one at a time, most projection-sharing
    first, pruning whenever the partial count reaches the incumbent
    (the count never decreases as elements are added).
    """
    if orders.k != tensor.k or orders.length != tensor.length:
        raise ValueError("order family does not match the tensor shape")
    support = tensor.support
    size = len(support)
    if size > cap:
        raise CapExceededError(f"support size {size} exceeds the cap {cap}")
    if not is_antichain(support, orders):
        raise ValueError("tensor support is not an antichain under these orders")
    k = tensor.k
    share = []
    for e in support:
        share.append(sum(1 for f in support if f != e
                         for ax in range(k) if f[ax] == e[ax]))
    elems = [e for _, e in sorted(zip(share, support),
                                  key=lambda t: (-t[0], t[1]))]
    projections: list[set[int]] = [set() for _ in range(k)]
    best = min(len({e[ax] for e in support}) for ax in range(k))

    def greedy() -> int:
        sets: list[set[int]] = [set() for _ in range(k)]
        for e in elems:
            ax = min(range(k), key=lambda i: (e[i] not in sets[i], len(sets[i])))
            sets[ax].add(e[ax])
        return sum(len(s) for s in sets)

    best = min(best, greedy())

    def walk(idx: int, partial: int) -> None:
        nonlocal best
        if partial >= best:
            return
        if idx == len(elems):
            best = partial
            return
        e = elems[idx]
        axes = sorted(range(k), key=lambda i: e[i] not in projections[i])
        for ax in axes:
            proj = e[ax]
            if proj in projections[ax]:
                walk(idx + 1, partial)
            else:
                projections[ax].add(proj)
                walk(idx + 1, partial + 1)
                projections[ax].remove(proj)

    walk(0, 0)
    return best


def _candidate_columns(sys_spec: SystemSpec, columns: Sequence[Sequence]) -> list[list[tuple]]:
    """The k columns reduced mod p, checked for one positive length and one dimension."""
    if len(columns) != sys_spec.k:
        raise ValueError(f"need {sys_spec.k} candidate columns")
    cols = [[reduce_coords(coords_of(v), sys_spec.p) for v in col] for col in columns]
    lengths = {len(col) for col in cols}
    if len(lengths) != 1:
        raise ValueError("candidate columns have unequal lengths")
    if lengths.pop() < 1:
        raise ValueError("candidate columns are empty")
    dims = {len(v) for col in cols for v in col}
    if len(dims) != 1:
        raise ValueError("candidate vectors have mixed dimensions")
    return cols


def indicator_tensor(sys_spec: SystemSpec, columns: Sequence[Sequence]) -> Tensor:
    """The 0/1 tensor recording which mixed tuples solve the system.

    ``columns`` gives, for each of the k variable positions, a list of L
    candidate vectors; entry (l_1, ..., l_k) is 1 exactly when taking
    the l_i-th candidate in position i solves the system.
    """
    cols = _candidate_columns(sys_spec, columns)
    return Tensor.from_function(
        sys_spec.p, len(cols[0]), sys_spec.k,
        lambda idx: int(is_solution(sys_spec, [cols[i][l] for i, l in enumerate(idx)])))


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
    ``is_solution``.
    """
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

    ``solutions`` is a list of L solution k-tuples and ``partition``
    splits the k positions into blocks of size at least two.  If every
    mixed index tuple (l_1, ..., l_k) solving the system is constant on
    each block, the family size L is certified to be at most
    k * Gamma^n; otherwise the first violating index tuple is reported
    and no ceiling is claimed.
    """
    blocks = [tuple(sorted(set(b))) for b in partition]
    if any(len(b) < 2 for b in blocks):
        raise ValueError("every block must have at least two positions")
    covered = sorted(i for b in blocks for i in b)
    if covered != list(range(sys_spec.k)):
        raise ValueError("blocks must partition the variable positions")
    sols = [tuple(reduce_coords(coords_of(x), sys_spec.p) for x in sol)
            for sol in solutions]
    for sol in sols:
        if not is_solution(sys_spec, sol):
            raise ValueError("family contains a non-solution")
    length = len(sols)
    k = sys_spec.k
    if length == 0:
        return PartitionedBoundReport(True, None, 0, None, True)
    if length**k > DEFAULT_CROSS_CAP:
        raise CapExceededError(f"{length}^{k} cross tuples exceed the cap {DEFAULT_CROSS_CAP}")
    n = len(sols[0][0])
    # free entries are labelled by their family index, pivot entries by
    # the family indices holding that point at that position
    completion = _Completion(sys_spec, n)
    pools = [[(sol[pos], l) for l, sol in enumerate(sols)] for pos in completion.free]
    tables: list[dict[tuple[int, ...], list[int]]] = []
    for r in completion.open_pivots:
        table: dict[tuple[int, ...], list[int]] = {}
        for l, sol in enumerate(sols):
            table.setdefault(sol[completion.pivots[r]], []).append(l)
        tables.append(table)
    head = completion.free[:-1]
    last = completion.free[-1:]

    def cross_tuples() -> Iterator[tuple[int, ...]]:
        idx = [0] * k
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

    witness = next((idx for idx in cross_tuples()
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
    for idx in tensor.support:
        lines.append(" ".join(str(i) for i in idx) + f" {tensor.entry(idx)}")
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
        entries[tuple(toks[:-1])] = toks[-1]
    return Tensor.from_entries(p, length, k, entries)
