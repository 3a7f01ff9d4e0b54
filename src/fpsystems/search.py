"""Extremal search: largest subsets of F_p^n avoiding a solution type.

A point set A avoids a solution type when no k-tuple drawn from A
solves the system and passes the type filter (not all equal, all
distinct, span at least r, at least ell distinct entries).  Both
questions depend only on a tuple's support, the set of distinct points
it uses, so the exhaustive search runs on a support index that each
call builds once.  Every point is numbered by its position in the point
order, and the order is encoded once: the order check, the support
index and the frame read the same codes.  The supports are walked with
the free positions ranging over the space and the pivot positions
solved from them on point codes (see ``linsystem``).  Free positions
with equal coefficient columns enter every pivot alike, so swapping
their entries keeps a solution and its support; the walk gives them
nondecreasing positions (``_Completion.walk`` bounded by ``_plan``),
one solution per orbit of such swaps, and still reaches every support.
So it takes C(N + c - 1, c) assignments per class of c equal free
columns over N points, the classes multiplied, and ``exhaustive_max``
counts them before the index is built and refuses more than
``DEFAULT_WORK_CAP``: six ones, distinct, over F_3^4 takes 32,801,517,
and its index took 1.8 GB before the first node.  Each support is kept
as an int bitmask, listed under each point it uses.  The filter is applied per
support, not per tuple, and only admitted supports are kept;
``span-dim`` ranks the codes of the support's points
(``ClassFilter._span_admits``, ``_PointCodes.rank``) and decodes none.
On six ones over F_3^3 the walk over orbits takes about 0.07 s, and
the walk over every ordering of the five free entries 3.5 s, for the
same 31,149 supports (Python 3.11, 2-core Xeon).

The search is a depth first scan over points in order, carrying the
current set and the candidates that can still join it, both as
bitmasks.  When x joins the set, a candidate z is blocked exactly when
some admitted support S through x has S minus (set + x) equal to {z}.
Supports missing x or z were screened when those points became
candidates, so one pass over the supports through x replaces solving
the system again per candidate.  Candidate-count pruning cuts branches
that cannot beat the incumbent.

Each subtree reads the supports through live lists: per point, the
list of the enclosing subtree less every support through a dead point,
one neither in the set nor a candidate.  A point dead at a node stays
dead below it, as the set grows only from the candidates and the
candidates only shrink.  A support through a dead point d leaves d
outside the set, so it blocks nothing, or d alone, which is no
candidate: the candidate sets, and with them the node count and the
witness, are those of the full lists.  A node's view is made at its
first candidate, and a list in it is filtered on its first read, by a
child, so later children share it.  The node reads its own candidate's
list from its parent's view unless a child has filled its own: no
later reader would share a copy filtered for it alone.  Under the
frame root, six ones distinct over F_3^3 (1,861 nodes) takes 0.18 to
0.26 s with live lists against 0.39 to 0.43 s with the full lists, and
``1 1 2 2`` distinct over F_3^4 (1,615 nodes) 0.27 to 0.34 s against
0.78 to 0.94 s, whole searches on the same 2-core Xeon.

The witness is re-checked by one walk of the unpinned solver over its
codes, each distinct support of a solution inside it tested with the
filter; an admitted one fails the call.  Every completion, unpinned or
pinned, comes from ``linsystem._completion``, built once per (system,
n, pinned positions), and each walk yields the bits of its points, the
labels its pool pairs with their codes.

Symmetry reduction forces a frame, flat by flat.  For a homogeneous
system the avoidance property is invariant under GL(n, p), which acts
transitively on ordered linearly independent points.  So every avoiding
set whose span has dimension d maps to one that holds the first basis
b_1, ..., b_d the order meets, each the first point of the order
outside the span of those before it, and lies in their span.  When the
rows also sum to zero, a translation maps solutions to solutions, and
the filters that ``ClassFilter.least`` decides (``any``,
``not-all-equal``, ``distinct``, ``distinct-count``) admit a solution
and its translate alike.  With zero in the space the problem is then
invariant under AGL(n, p), which acts transitively on ordered affinely
independent points, and the same holds for affine spans and the first
affine frame, which starts at the first point of the order.
``span-dim`` reads the points themselves, and without zero the space is
no longer closed under translation, so both keep the basis.  ``_flag``
yields the frame points and their flats for d = 0, ..., n; the linear
flat of dimension 0 is {0}, with nothing forced.  Flat by flat the
frame point joins the set, and the scan runs on the candidates inside
the flat when they can beat the incumbent, which carries from flat to
flat.  A frame point that is no candidate ends the loop: no avoiding
set then spans more.  Over F_3^3 this takes the cap-set search from
37,787 nodes without symmetry to 174, and the six-ones distinct search
from 417,885 to 1,861.  It proves the cap-set maximum over F_3^4, 20,
in 16.9 million nodes, in about a minute on a 2-core Xeon.

The greedy bound runs on point spaces far too large for an index.  It
scans the points in order and keeps a point unless it completes an
admitted solution with the members kept so far.  It holds points as
their codes, which number the space in its order, ranks codes for the
span-dimension filter, and decodes points only for the witness.  A
point x is decided by a walk: for each position in turn it pins x there
and ranges the other free positions over the members and x, at a cost
set by the member count, not by the space.  A position whose column
lies in every pivot basis cannot be pinned; it stays a pivot, and its
solved entry must equal x.  Positions with equal coefficient columns
are pinned once, at the first of them: swapping the entries at two
such positions maps solutions to solutions with the same support, and
admission depends on the support alone, so x completes an admitted
solution at one of them exactly when it does at the first.  For the
same reason each walk takes one ordering per orbit of the free
positions with equal weight columns, as the support walk does: such a
swap keeps every pivot entry, the open pivot looked up in the whole
space included, and the support.  Six ones, distinct, over F_3^6 with
three restarts takes 0.38 s on the command line against 0.98 s over
every ordering, the same answer and nodes (medians of five runs,
Python 3.11, 2-core Xeon).

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

from .errors import _capped
from .fplinalg import reduce_vectors
from .linsystem import (
    DEFAULT_WORK_CAP,
    ClassFilter,
    PointSet,
    SystemSpec,
    _Completion,
    _completion,
    _orbit_walk_work,
    _point_codes,
)
from .slicerank import ceiling

DEFAULT_POINT_CAP = 81
GREEDY_POINT_CAP = 10**6
# statement -> (filter mode, zero excluded by default, what it is about)
_STATEMENTS = {
    "tao": ("not-all-equal", False, "not-all-equal solutions"),
    "distinct": ("distinct", True, "fully distinct solutions"),
    "rank": ("span-dim", True, "span dimension"),
}


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
        return _capped(self.sys_spec.p, cap_points,
                       "{} points exceed the cap {cap}", self.n,
                       int(self.exclude_zero))

    def point_order(self) -> tuple[tuple[int, ...], ...]:
        return PointSet.full_space(self.n, self.sys_spec.p,
                                   include_zero=not self.exclude_zero).points


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


def _admitted_supports(completion: _Completion, problem: AvoidanceProblem,
                       encoded: Sequence[int]) -> Iterator[int]:
    """Each distinct support, as a bitmask over positions in ``encoded``,
    of an admitted solution with every entry among the points of codes
    ``encoded``, walked with ``completion``, an unpinned completion of
    the problem's system, over one solution per orbit of swaps at equal
    weight columns (``_Completion.walk`` bounded by ``_plan``), which
    reaches every support.  Each point is labelled by its bit, so the
    labels increase in pool order; ``span-dim`` ranks the codes at a
    support's bits."""
    codes = completion.codes
    pool = [(code, 1 << i) for i, code in enumerate(encoded)]
    table = codes.table()
    for code, bit in pool:
        table[code] = bit
    supports: set[int] = set()
    for prefix, ends in completion.walk([pool] * len(completion.free),
                                        [table] * len(completion.open_pivots),
                                        (), completion._plan[0]):
        mask = 0
        for bit in prefix:
            mask |= bit
        for end in ends:
            support = mask
            for bit in end:
                support |= bit
            supports.add(support)
    mode = problem.mode
    least = mode.least(problem.sys_spec.k)
    for support in supports:
        count = support.bit_count()
        if (count >= least if least is not None else
                mode._span_admits(count, codes, _selected(encoded, support))):
            yield support


def _support_index(completion: _Completion, problem: AvoidanceProblem,
                   encoded: Sequence[int]) -> tuple[list, int]:
    """The admitted supports of the point space, the codes ``encoded``
    in the point order, as bitmasks over positions in that order: per
    point x, those through x without x's own bit; and the points whose
    all-equal tuple is an admitted solution."""
    through: list[list[int]] = [[] for _ in encoded]
    singles = 0
    positions = range(len(encoded))
    for support in _admitted_supports(completion, problem, encoded):
        if support & (support - 1) == 0:
            singles |= support
        for i in _selected(positions, support):
            through[i].append(support ^ (1 << i))
    return through, singles


def _blocked(rests: list[int], inside: int) -> int:
    """Points z outside ``inside`` that complete an admitted solution with
    the points of ``inside``, from the supports ``rests`` through a point
    of ``inside``, each without that point's bit."""
    blocked = 0
    outside = ~inside
    for rest in rests:
        left = rest & outside
        # left is never 0: inside avoids, as its newest point was a
        # candidate
        if left & (left - 1) == 0:
            blocked |= left
    return blocked


class _Live:
    """The support lists of one subtree of the search: per point, the
    list of the enclosing subtree's view less every support through a
    point of ``dead``, the points neither in the set nor a candidate
    anywhere in the subtree.  Such a support never blocks a candidate
    there.  Each list is filtered on its first read."""

    __slots__ = ("outer", "dead", "lists")

    def __init__(self, outer: "_Live | None", dead: int, lists: list):
        self.outer, self.dead, self.lists = outer, dead, lists

    def through(self, x: int) -> list[int]:
        rests = self.lists[x]
        if rests is None:
            dead = self.dead
            rests = self.lists[x] = [rest for rest in self.outer.through(x)
                                     if not rest & dead]
        return rests


class _DepthFirst:
    """Depth first scan with an incumbent shared across branches."""

    def __init__(self, size: int):
        self.size = size
        self.best_size = -1
        self.best_members: tuple = ()
        self.nodes = 0

    def run(self, members: list, inside: int, candidates: int,
            outer: _Live) -> None:
        """Explore every avoiding superset of ``members`` (bitmask
        ``inside``) within the ``candidates`` bitmask, lowest bit first.
        ``outer`` is the view of the enclosing subtree.  The node's own
        view, less the dead points outside both masks, is made at its
        first candidate, for its children to read.  The node reads a
        candidate's list there when a child has filled it, else from
        ``outer``, whose filled lists its siblings share."""
        self.nodes += 1
        if len(members) > self.best_size:
            self.best_size = len(members)
            self.best_members = tuple(members)
        live = None
        dead = ~(inside | candidates)
        while candidates:
            if len(members) + candidates.bit_count() <= self.best_size:
                break
            low = candidates & -candidates
            candidates ^= low
            x = low.bit_length() - 1
            if live is None:
                live = _Live(outer, dead, [None] * self.size)
            rests = live.lists[x]
            if rests is None:
                rests = outer.through(x)
            here = inside | low
            left = candidates & ~_blocked(rests, here)
            members.append(x)
            self.run(members, here, left, live)
            members.pop()


def _flag(codes, encoded: Sequence[int],
          affine: bool) -> Iterator[tuple[int | None, int]]:
    """The frame the symmetric root forces, flat by flat: per dimension
    d = 0, 1, ..., the position of the point the frame adds at d, or None
    where nothing is forced, and the bitmask of the flat spanned so far.
    The affine frame starts at the first point of the order, forced; the
    linear one at zero, which is not.  Each later point is the first of
    the order outside the flat, and the flat grows by its multiples:
    f + t (x - origin) for every f in the flat and t in F_p.  The points
    are the codes ``encoded`` of ``codes``, in the point order."""
    position = codes.table()
    for i, code in enumerate(encoded):
        position[code] = i
    add, scale = codes.add, codes.scale
    origin = encoded[0] if affine else 0
    flat = [origin]
    at = position[origin]
    mask = 0 if at is None else 1 << at
    yield (at if affine else None), mask
    minus = scale[codes.p - 1][origin]
    full = (1 << len(encoded)) - 1
    while mask != full:
        rest = full & ~mask
        x = (rest & -rest).bit_length() - 1
        step = add[encoded[x]][minus]
        grown = [add[f][scale[t][step]] for t in range(1, codes.p) for f in flat]
        for code in grown:
            mask |= 1 << position[code]
        flat += grown
        yield x, mask


def _affine_root(problem: AvoidanceProblem) -> bool:
    """Whether the problem is invariant under every affine bijection of
    F_p^n: a homogeneous system whose rows sum to zero, a filter decided
    by the distinct count alone, which translating every entry keeps,
    and zero in the space."""
    sys_spec = problem.sys_spec
    return (sys_spec.homogeneous and sys_spec.rows_sum_zero
            and not problem.exclude_zero
            and problem.mode.least(sys_spec.k) is not None)


def _verify_witness(completion: _Completion, problem: AvoidanceProblem,
                    members: Sequence[tuple[int, ...]]) -> PointSet:
    """The members as a point set, re-verified to contain no admitted
    solution by one walk over its codes."""
    witness = PointSet.make(members, problem.sys_spec.p, problem.n)
    if next(_admitted_supports(completion, problem, list(witness._codes.values())),
            None) is not None:
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
    count = problem.check_point_cap(cap_points)
    n = problem.n
    order = (problem.point_order() if point_order is None
             else reduce_vectors(point_order, problem.sys_spec.p))
    encoded = list(map(_point_codes(problem.sys_spec.p, n).encode, order))
    # distinct codes of points of F_p^n, as many as the space has and
    # zero left out where the problem excludes it, are the space
    if (len(set(encoded)) != count or len(order) != count
            or any(len(v) != n for v in order)
            or problem.exclude_zero and 0 in encoded):
        raise ValueError("point order must permute the problem's point space")
    if symmetry is None:
        symmetry = problem.sys_spec.homogeneous
    if symmetry and not problem.sys_spec.homogeneous:
        raise ValueError("symmetry reduction needs a homogeneous system")

    completion = _completion(problem.sys_spec, n, ())
    _capped(_orbit_walk_work(completion, count), DEFAULT_WORK_CAP,
            "{} support walk assignments exceed the cap {cap}")
    through, singles = _support_index(completion, problem, encoded)
    walker = _DepthFirst(len(order))
    root = _Live(None, 0, through)
    full = (1 << len(order)) - 1
    flag = (_flag(completion.codes, encoded, _affine_root(problem)) if symmetry
            else [(None, full)])
    members: list[int] = []
    inside, candidates = 0, full & ~singles
    for x, flat in flag:
        if x is not None:
            if not candidates >> x & 1:
                break
            members.append(x)
            inside |= 1 << x
            candidates &= ~inside & ~_blocked(through[x], inside)
        if len(members) + (candidates & flat).bit_count() > walker.best_size:
            walker.run(members, inside, candidates & flat, root)
    best = walker.best_members
    witness = _verify_witness(completion, problem, [order[i] for i in best])
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
    _capped((restarts + 1) * count, GREEDY_POINT_CAP,
            f"{restarts + 1} passes over {count} points: {{}} point scans "
            f"exceed the cap {{cap}}")
    sys_spec = problem.sys_spec
    # one check per distinct coefficient column, at its first position
    columns = list(zip(*sys_spec.coeffs))
    checks = [_completion(sys_spec, problem.n, (pos,))
              for pos, col in enumerate(columns) if col not in columns[:pos]]
    codes = checks[0].codes
    # the space in its order: the codes from 0, or from 1 without zero
    first = int(problem.exclude_zero)
    order = list(range(first, count + first))
    # a single open pivot is looked up in the whole space, each point
    # its own label; more of them among the pool, by bit
    space = codes.table()
    for z in order:
        space[z] = z
    mode = problem.mode
    least = mode.least(sys_spec.k)
    nodes = 0

    def admitted(pool: list, support: int, *more: int) -> bool:
        """Whether the filter admits a solution on the points at the bits
        of ``support`` in the pool, then ``more``, all codes; ``span-dim``
        ranks them, the one filter that reads them."""
        count = support.bit_count() + len(more)
        if least is not None:
            return count >= least
        return mode._span_admits(count, codes, chain(
            (z for z, _ in _selected(pool, support)), more))

    def rejects(x: int, pool: list, bits: list | dict, blocked: set,
                found: set) -> bool:
        """Whether x completes an admitted solution with the pool, the
        (code, bit) pairs of the members and then x, which ``bits``
        indexes by code.  Otherwise ``found`` has gained every point z
        outside the pool and not yet blocked that completes one with the
        pool and z, as a check's open pivot."""
        xbit = pool[-1][1]
        for check in checks:
            one_open = len(check.open_pivots) == 1
            tables = [space] if one_open else [bits] * len(check.open_pivots)
            for prefix, ends in check.walk([pool] * len(check.free), tables, (x,),
                                           check._plan[0]):
                mask = xbit
                for bit in prefix:
                    mask |= bit
                for end in ends:
                    support = mask
                    for bit in end[:-1] if one_open else end:
                        support |= bit
                    if one_open:
                        z = end[-1]
                        zbit = bits[z]
                        if zbit is None:
                            if (z not in found and z not in blocked
                                    and admitted(pool, support, z)):
                                found.add(z)
                            continue
                        support |= zbit
                    if admitted(pool, support):
                        return True
        return False

    def one_pass(pts: Sequence[int]) -> list:
        """Keep each point unless it is blocked or completes an admitted
        solution with the points kept so far; bits number the kept
        points."""
        nonlocal nodes
        pool: list = []
        bits = codes.table()
        blocked: set = set()
        for x in pts:
            nodes += 1
            if x in blocked:
                continue
            bits[x] = 1 << len(pool)
            pool.append((x, bits[x]))
            found: set = set()
            if rejects(x, pool, bits, blocked, found):
                pool.pop()
                bits[x] = None
            else:
                blocked |= found
        return [z for z, _ in pool]

    best = one_pass(order)
    for _ in range(restarts):
        shuffled = list(order)
        rng.shuffle(shuffled)
        cand = one_pass(shuffled)
        if len(cand) > len(best):
            best = cand
    witness = _verify_witness(_completion(sys_spec, problem.n, ()), problem,
                              list(map(codes.decode, best)))
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
    the report records the exhaustive maximum, its margin below the
    size of the problem's point space (p^n - 1 without zero, p^n with
    it), and whether that space itself already contains a fully
    distinct solution.

    ``rank``: same shape for span dimension >= r with k >= 2m + r - 1.

    The problem's filter mode must be the statement's, as ``_STATEMENTS``
    lists it.
    """
    if theorem not in _STATEMENTS:
        raise ValueError(f"unknown statement {theorem!r}")
    mode, _, subject = _STATEMENTS[theorem]
    sys_spec = problem.sys_spec
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    if theorem == "tao":
        ceil = ceiling(p, m, k, problem.n, factor=k)
        if not sys_spec.rows_sum_zero:
            raise ValueError("rows must sum to zero")
    elif theorem == "distinct":
        if k < 3 * m:
            raise ValueError("need k >= 3m")
        if not sys_spec.generic_minors:
            raise ValueError("all m x m minors must be nonsingular")
    if problem.mode.mode != mode:
        raise ValueError(f"this statement is about {subject}")
    if theorem == "rank" and k < 2 * m + problem.mode.r - 1:
        raise ValueError("need k >= 2m + r - 1")
    result = exhaustive_max(problem, cap_points=cap_points)
    if theorem == "tao":
        return BoundReport("tao", result.best_size, ceil.bound,
                           ceil.holds(result.best_size),
                           ceil.bound - result.best_size, None,
                           "exhaustive maximum against k * Gamma^n")
    # margin over the problem's own point space, the one the search ran
    # over; avoidance is hereditary, so that space holds an admitted
    # solution exactly when its largest avoiding set is smaller than it
    margin = problem.check_point_cap(cap_points) - result.best_size
    space = "p^n - 1" if problem.exclude_zero else "p^n"
    return BoundReport(theorem, result.best_size, None, None, margin,
                       margin > 0,
                       f"constants are not effective; margin is against {space}")
