"""Extremal search: largest subsets of F_p^n avoiding a solution type.

A point set A avoids a solution type when no k-tuple drawn from A
solves the system and passes the type filter (not all equal, all
distinct, span at least r, at least ell distinct entries).  Both
questions depend only on a tuple's support, the set of distinct points
it uses, so the exhaustive search runs on a support index that each
call builds once.  Every point is numbered by its position in the point
order.  Every solution in the point space is enumerated once, with the
free positions ranging over the space and the pivot positions solved
from them, and its support is kept as an int bitmask, listed under each
point it uses.  The filter (``ClassFilter.admits_support``) is applied
per support, not per tuple, and only admitted supports are kept.

The search is a depth first scan over points in order, carrying the
current set and the candidates that can still join it, both as
bitmasks.  When x joins the set, a candidate z is blocked exactly when
some admitted support S through x has S minus (set + x) equal to {z}.
Supports missing x or z were screened when those points became
candidates, so one pass over the supports through x replaces solving
the system again per candidate.  Candidate-count pruning cuts branches
that cannot beat the incumbent.

For a homogeneous system the avoidance property is invariant under
invertible linear maps, which act transitively on nonzero points, so
any avoiding set with a nonzero member maps to one containing the first
nonzero point of the order; with symmetry reduction on, that point is
forced into the set and the only sets considered separately are those
inside {0}.

The greedy bound runs on point spaces far too large for an index.  It
scans the points in order and keeps a point unless it completes an
admitted solution with the members kept so far.  A point x is decided
by a walk: for each position in turn it pins x there and ranges the
other free positions over the members and x, at a cost set by the
member count, not by the space.  A position whose column lies in every
pivot basis cannot be pinned; it stays a pivot, and its solved entry
must equal x.  Positions with equal coefficient columns are pinned
once, at the first of them: swapping the entries at two such positions
maps solutions to solutions with the same support, and admission
depends on the support alone, so x completes an admitted solution at
one of them exactly when it does at the first.

The same walks fill a blocked set, so a rejected point often needs no
walk.  Where a pinned position leaves exactly one open pivot, that
pivot is looked up in the whole space rather than among the members
and x, so each solution the walk finds either lies in the members and
x, and rejects x, or has one point z outside them, at the pivot.  When
x is kept, each such z whose support with z is admitted is blocked:
its solution lies in the members and z, and members only grow, so z
would be rejected whenever it comes.  When x is rejected those
solutions use a point that is not kept, so they block nothing.  Where
more pivots are open they are looked up among the members and x alone,
as a whole-space lookup would find solutions with several points
outside, which block nothing.  A blocked point is rejected without a
walk, and every other point still gets the full walk, so the kept
members, the witness and the node count are those of the plain scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .errors import CapExceededError
from .fplinalg import reduce_coords
from .linsystem import (
    ClassFilter,
    PointSet,
    SystemSpec,
    _Completion,
    enumerate_solutions,
)
from .slicerank import ceiling

DEFAULT_POINT_CAP = 81
GREEDY_POINT_CAP = 10**6


@dataclass(frozen=True)
class AvoidanceProblem:
    """A solution type to avoid inside F_p^n."""

    sys_spec: SystemSpec
    mode: ClassFilter
    n: int
    exclude_zero: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        k = self.sys_spec.k
        if self.mode.mode == "span-dim" and not 2 <= self.mode.r <= k:
            raise ValueError(f"need 2 <= r <= {k}")
        if self.mode.mode == "distinct-count" and not 2 <= self.mode.ell <= k:
            raise ValueError(f"need 2 <= ell <= {k}")

    def check_point_cap(self, cap_points: int) -> int:
        """The number of points in the space; raise CapExceededError,
        before the space is built, when it exceeds ``cap_points``."""
        count = self.sys_spec.p ** self.n - self.exclude_zero
        if count > cap_points:
            raise CapExceededError(f"{count} points exceed the cap {cap_points}")
        return count

    def _space(self) -> PointSet:
        return PointSet.full_space(self.n, self.sys_spec.p,
                                   include_zero=not self.exclude_zero)

    def point_order(self) -> tuple[tuple[int, ...], ...]:
        return self._space().points


@dataclass(frozen=True)
class SearchResult:
    best_size: int
    witness: PointSet
    optimal: bool
    nodes: int


def _selected(items: Sequence, mask: int) -> Iterator:
    """The items at the positions set in ``mask``, in order."""
    while mask:
        low = mask & -mask
        yield items[low.bit_length() - 1]
        mask ^= low


class _SupportIndex:
    """Supports of every admitted solution in the point space, as
    bitmasks over positions in the point order."""

    def __init__(self, problem: AvoidanceProblem,
                 order: Sequence[tuple[int, ...]]):
        sys_spec, mode = problem.sys_spec, problem.mode
        k, p = sys_spec.k, sys_spec.p
        bits = {v: 1 << i for i, v in enumerate(order)}
        positions = range(len(order))
        # per point x, the admitted supports through x without x's own bit
        self.through: list[list[int]] = [[] for _ in order]
        # points whose all-equal tuple is an admitted solution
        self.singles = 0
        for support in set(_Completion(sys_spec, problem.n).supports(bits)):
            if not mode.admits_support(k, support.bit_count(),
                                       _selected(order, support), p):
                continue
            if support & (support - 1) == 0:
                self.singles |= support
            for i in _selected(positions, support):
                self.through[i].append(support ^ (1 << i))

    def blocked_by(self, x: int, inside: int) -> int:
        """Points z outside ``inside`` (which holds x) that complete an
        admitted solution through x with the points of ``inside``."""
        blocked = 0
        outside = ~inside
        for rest in self.through[x]:
            left = rest & outside
            # left is never 0: inside avoids, as x was a candidate
            if left & (left - 1) == 0:
                blocked |= left
        return blocked


class _DepthFirst:
    """Depth first scan with an incumbent shared across branches."""

    def __init__(self, index: _SupportIndex):
        self.index = index
        self.best_size = -1
        self.best_members: tuple = ()
        self.nodes = 0

    def record(self, members: Sequence[int]) -> None:
        if len(members) > self.best_size:
            self.best_size = len(members)
            self.best_members = tuple(members)

    def run(self, members: list, inside: int, candidates: int) -> None:
        """Explore every avoiding superset of ``members`` (bitmask
        ``inside``) within the ``candidates`` bitmask, lowest bit first."""
        self.nodes += 1
        self.record(members)
        while candidates:
            if len(members) + candidates.bit_count() <= self.best_size:
                break
            low = candidates & -candidates
            candidates ^= low
            x = low.bit_length() - 1
            members.append(x)
            self.run(members, inside | low,
                     candidates & ~self.index.blocked_by(x, inside | low))
            members.pop()


def _verify_witness(problem: AvoidanceProblem,
                    members: Sequence[tuple[int, ...]]) -> PointSet:
    witness = PointSet.make(members, problem.sys_spec.p, problem.n)
    for _ in enumerate_solutions(problem.sys_spec, witness, problem.mode):
        raise AssertionError("witness fails re-verification")
    return witness


def exhaustive_max(
    problem: AvoidanceProblem,
    cap_points: int = DEFAULT_POINT_CAP,
    symmetry: bool | None = None,
    point_order: Sequence[Sequence[int]] | None = None,
) -> SearchResult:
    """Provably maximum size of an avoiding set, by depth first search.

    The result does not depend on the point order.  Symmetry reduction
    (on by default for homogeneous systems, unavailable otherwise)
    restricts the branch exploration as described in the module notes.
    """
    problem.check_point_cap(cap_points)
    if point_order is None:
        order = problem.point_order()
    else:
        order = tuple(reduce_coords(v, problem.sys_spec.p) for v in point_order)
        expected = problem.point_order()
        if set(order) != set(expected) or len(order) != len(expected):
            raise ValueError("point order must permute the problem's point space")
    if symmetry is None:
        symmetry = problem.sys_spec.homogeneous
    if symmetry and not problem.sys_spec.homogeneous:
        raise ValueError("symmetry reduction needs a homogeneous system")

    index = _SupportIndex(problem, order)
    everything = (1 << len(order)) - 1
    best: tuple = ()
    walker = _DepthFirst(index)
    if symmetry:
        zero = (0,) * problem.n
        if zero in order and not index.singles >> order.index(zero) & 1:
            best = (order.index(zero),)
        anchor = next((i for i, v in enumerate(order) if any(v)), None)
        if anchor is not None and not index.singles >> anchor & 1:
            inside = 1 << anchor
            candidates = (everything & ~inside & ~index.singles
                          & ~index.blocked_by(anchor, inside))
            walker.run([anchor], inside, candidates)
    else:
        walker.run([], 0, everything & ~index.singles)
    if len(walker.best_members) > len(best):
        best = walker.best_members
    witness = _verify_witness(problem, [order[i] for i in best])
    return SearchResult(len(best), witness, True, walker.nodes)


def greedy_lower_bound(
    problem: AvoidanceProblem,
    restarts: int = 0,
    rng: random.Random | None = None,
) -> SearchResult:
    """Greedy avoiding set: scan points in order and keep what fits.

    With restarts > 0 the order is reshuffled per restart (rng needed)
    and the largest set wins.  Lower bound only, never claimed optimal.
    Point spaces above ``GREEDY_POINT_CAP`` points, and more than
    ``GREEDY_POINT_CAP`` point scans over all passes, are refused
    before the space is built.

    Each pass keeps a blocked set: points z with an admitted solution
    whose support lies in the kept members and z.  Members only grow,
    so a blocked point is rejected without a walk.  Every other point x
    is decided by its walk, which looks a check's open pivot up in the
    whole space when it is the only one, and so also finds the points z
    that complete a solution with the members and x at that pivot; they
    join the blocked set when x is kept.  Kept members, witness and
    nodes are those of the plain scan (see the module notes).
    """
    count = problem.check_point_cap(GREEDY_POINT_CAP)
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if restarts > 0 and rng is None:
        raise ValueError("restarts need a seeded rng")
    scans = (restarts + 1) * count
    if scans > GREEDY_POINT_CAP:
        raise CapExceededError(f"{restarts + 1} passes over {count} points: "
                               f"{scans} point scans exceed the cap "
                               f"{GREEDY_POINT_CAP}")
    space = problem._space()
    order = list(space.points)
    sys_spec = problem.sys_spec
    # one check per distinct coefficient column, at its first position
    columns = list(zip(*sys_spec.coeffs))
    checks = [_Completion(sys_spec, problem.n, pinned=(pos,))
              for pos, col in enumerate(columns) if col not in columns[:pos]]
    mode, k, p = problem.mode, sys_spec.k, sys_spec.p
    nodes = 0

    def rejects(x, xbit: int, pool: list, bits: dict, blocked: set,
                found: set) -> bool:
        """Whether x completes an admitted solution with the pool, the
        members and then x as ``bits`` numbers them.  Otherwise ``found``
        has gained every point z outside the pool and not yet blocked
        that completes one with the pool and z, as a check's open pivot."""
        for check in checks:
            # a single open pivot is looked up in the whole space, each
            # point its own label; more of them in the pool, by bit
            one_open = len(check.open_pivots) == 1
            tables = ([space._members] if one_open
                      else [bits] * len(check.open_pivots))
            for prefix, ends in check.walk([bits.items()] * len(check.free),
                                           tables, (x,)):
                mask = xbit
                for _, bit in prefix:
                    mask |= bit
                for end in ends:
                    support = mask
                    for bit in end[:-1] if one_open else end:
                        support |= bit
                    if one_open:
                        z = end[-1]
                        zbit = bits.get(z)
                        if zbit is None:
                            if (z not in found and z not in blocked
                                    and mode.admits_support(
                                        k, support.bit_count() + 1,
                                        chain(_selected(pool, support), (z,)),
                                        p)):
                                found.add(z)
                            continue
                        support |= zbit
                    if mode.admits_support(k, support.bit_count(),
                                           _selected(pool, support), p):
                        return True
        return False

    def one_pass(pts: Sequence[tuple[int, ...]]) -> list:
        """Keep each point unless it is blocked or completes an admitted
        solution with the points kept so far; bits number the kept
        points."""
        nonlocal nodes
        members: list = []
        bits: dict = {}
        blocked: set = set()
        for x in pts:
            nodes += 1
            if x in blocked:
                continue
            xbit = bits[x] = 1 << len(members)
            found: set = set()
            # bits, in insertion order, is the pool: the members, then x
            if rejects(x, xbit, members + [x], bits, blocked, found):
                del bits[x]
            else:
                members.append(x)
                blocked |= found
        return members

    best = one_pass(order)
    for _ in range(restarts):
        shuffled = list(order)
        rng.shuffle(shuffled)
        cand = one_pass(shuffled)
        if len(cand) > len(best):
            best = cand
    witness = _verify_witness(problem, best)
    return SearchResult(len(best), witness, False, nodes)


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    best_size: int
    bound: float | None
    holds: bool | None
    margin: float
    witness_found: bool | None
    notes: str


def verify_theorem_bound(
    problem: AvoidanceProblem,
    theorem: str,
    cap_points: int = DEFAULT_POINT_CAP,
) -> BoundReport:
    """Check one of the three headline statements at desk scale.

    ``tao``: every set avoiding not-all-equal solutions of a
    rows-sum-zero system with k >= 2m + 1 has size at most
    k * Gamma^n, checked against the exhaustive maximum.

    ``distinct``: for k >= 3m with all maximal minors nonsingular, sets
    avoiding fully distinct solutions are exponentially smaller than
    the whole space; the constants are not effective at this scale, so
    the report records the exhaustive maximum, its margin below
    p^n - 1, and whether the nonzero space itself already contains a
    fully distinct solution.

    ``rank``: same shape for span dimension >= r with k >= 2m + r - 1.
    """
    sys_spec = problem.sys_spec
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    if theorem == "tao":
        ceil = ceiling(p, m, k, problem.n, factor=k)
        if not sys_spec.rows_sum_zero:
            raise ValueError("rows must sum to zero")
        if problem.mode.mode != "not-all-equal":
            raise ValueError("this statement is about not-all-equal solutions")
        result = exhaustive_max(problem, cap_points=cap_points)
        return BoundReport("tao", result.best_size, ceil.bound,
                           ceil.holds(result.best_size),
                           ceil.bound - result.best_size, None,
                           "exhaustive maximum against k * Gamma^n")
    if theorem == "distinct":
        if k < 3 * m:
            raise ValueError("need k >= 3m")
        if not sys_spec.generic_minors:
            raise ValueError("all m x m minors must be nonsingular")
        if problem.mode.mode != "distinct":
            raise ValueError("this statement is about fully distinct solutions")
    elif theorem == "rank":
        if problem.mode.mode != "span-dim":
            raise ValueError("this statement is about span dimension")
        if k < 2 * m + problem.mode.r - 1:
            raise ValueError("need k >= 2m + r - 1")
    else:
        raise ValueError(f"unknown statement {theorem!r}")
    result = exhaustive_max(problem, cap_points=cap_points)
    full = PointSet.full_space(problem.n, p, include_zero=False)
    witness_found = next(
        (True for _ in enumerate_solutions(sys_spec, full, problem.mode)), False)
    space = p**problem.n - 1
    margin = space - result.best_size
    return BoundReport(theorem, result.best_size, None, None, margin,
                       witness_found,
                       "constants are not effective; margin is against p^n - 1")
