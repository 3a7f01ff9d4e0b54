"""Admissible sets and the weight of a tuple of nonzero vectors.

For a tuple (x_1, ..., x_k) of nonzero vectors in V = F_p^n, a subset
I of positions is admissible when the vectors x_i, i in I, are linearly
independent and no other entry of the tuple lies in U = span(x_i : i in I).
The weight of an admissible I is (k+1)|I| plus the number of distinct
lines spanned by the images of the remaining entries in V/U.  The weight
of the tuple, omega, is the maximum over admissible subsets; the chosen
maximizer is tie-broken deterministically (smallest size, then
lexicographic), and the positions outside it partition into blocks with
equal quotient lines.

Admissible sets are closed under taking subsets: a dependent I has
only dependent supersets, and an outside x_j in span(x_I) either joins
a superset J, which makes J dependent, or stays in span(x_J).  So the
family is walked depth first from the empty set, extending admissible
sets by larger positions only, and no subtree below a rejected set is
entered.  Each node keeps the residue of every outside entry modulo U,
scaled to lead 1.  Adding i takes the residue of x_i, whose first
nonzero column c holds 1, as the next basis vector and clears column c
from the other residues; the extension is admissible exactly when none
of them becomes zero.  The leads of these incremental basis vectors are
the reduced row echelon pivot columns of U, so every residue is the
canonical representative that ``Subspace.reduce`` returns, up to the
scaling, and the residues are the quotient lines themselves.  At most
k - |I| < k + 1 lines remain outside I, so omega is attained only on
admissible sets of the largest size, and only those get their lines
counted.

Each public operation validates its input once per call and weighs the
checked tuple through a small least-recently-used memo keyed on the
reduced tuple, because several flows weigh one tuple more than once (the
weight facts, then the partition structure, of each solution).  The
walk also gives the rank of the whole tuple: the chosen entries are
independent and every other entry lies on its quotient line, so the
rank is |I| plus the rank of those lines.  A supplied system is checked
against the validated tuple by one unchecked solve.

These definitions never look at any linear system, so every operation
here accepts an arbitrary tuple of nonzero vectors; the operations tied
to a solution hypothesis take the system as an explicit witness and
verify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import CapExceededError
from .fplinalg import Subspace, _lead_one, _rref, check_prime, reduce_coords
from .linsystem import SystemSpec, _solution_dim, _solves

ADMISSIBLE_K_CAP = 20
# reports are frozen, so callers can share them; the flows that weigh a
# tuple again do so at once, so a few entries catch every repeat
_WEIGHT_MEMO_SIZE = 16


def _checked_tuple(entries: Sequence, p: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    xs = tuple(reduce_coords(x, p) for x in entries)
    if not xs:
        raise ValueError("empty tuple has no weight")
    dims = {len(x) for x in xs}
    if len(dims) != 1:
        raise ValueError("tuple entries have mixed dimensions")
    if any(not any(x) for x in xs):
        raise ValueError("tuple entries must be nonzero")
    return xs, dims.pop()


def _capped_tuple(entries: Sequence, p):
    p = check_prime(p)
    xs, n = _checked_tuple(entries, p)
    if len(xs) > ADMISSIBLE_K_CAP:
        raise CapExceededError(
            f"admissible listing capped at k <= {ADMISSIBLE_K_CAP}, got {len(xs)}")
    return xs, n, p


def _extend(res: tuple, i: int, p: int) -> tuple | None:
    """The residues once x_i joins the set, or None when an outside
    entry falls in the larger span."""
    b = res[i]
    c = b.index(1)  # residues lead with 1, so this is the lead column
    out = list(res)
    out[i] = None
    for j, v in enumerate(res):
        if j == i or v is None or not v[c]:
            continue
        t = v[c]
        w = [(a - t * e) % p for a, e in zip(v, b)]
        lead = next((a for a in w if a), 0)
        if not lead:
            return None
        if lead != 1:
            inv = pow(lead, -1, p)
            w = [inv * a % p for a in w]
        out[j] = tuple(w)
    return tuple(out)


def _admissible_family(xs, p: int) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Every admissible set I with its residues, depth first from the
    empty set in lexicographic order.  The residue of an outside entry is
    its canonical representative modulo span(x_I) scaled to lead 1, that
    is, its quotient line; entries inside I have None."""
    k = len(xs)
    stack = [((), tuple(_lead_one(x, p) for x in xs))]
    while stack:
        idx, res = stack.pop()
        yield idx, res
        # pushed last first, so the children pop in increasing order
        for i in range(k - 1, idx[-1] if idx else -1, -1):
            child = _extend(res, i, p)
            if child is not None:
                stack.append((idx + (i,), child))


def _span(xs, idx, n: int, p: int) -> Subspace:
    return Subspace._from_rref(_rref([list(xs[i]) for i in idx], n, p)[0], n, p)


@dataclass(frozen=True)
class AdmissibleSet:
    """An admissible index set with its span and weight."""

    indices: tuple[int, ...]
    span_u: Subspace
    weight: int
    lines: tuple[tuple[int, ...], ...]


def admissible_sets(entries: Sequence, p) -> list[AdmissibleSet]:
    """Every admissible subset of positions, by size then lexicographic.

    The family can hold all 2^k subsets, so k is capped.
    """
    xs, n, p = _capped_tuple(entries, p)
    k = len(xs)
    out = []
    for idx, res in _admissible_family(xs, p):
        lines = sorted({r for r in res if r is not None})
        out.append(AdmissibleSet(idx, _span(xs, idx, n, p),
                                 (k + 1) * len(idx) + len(lines), tuple(lines)))
    out.sort(key=lambda a: (len(a.indices), a.indices))
    return out


@dataclass(frozen=True)
class WeightReport:
    """omega, the tie-broken maximizer, and the induced line partition."""

    omega: int
    chosen: tuple[int, ...]
    span_u: Subspace
    partition: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]


def weight(entries: Sequence, p) -> WeightReport:
    """The weight of a tuple of nonzero vectors.

    Returns omega, the chosen maximizer I (smallest size first, then
    lexicographically smallest), the subspace it spans, and the blocks
    of positions outside I grouped by their quotient line, ordered by
    smallest member.
    """
    xs, n, p = _capped_tuple(entries, p)
    return _weigh(xs, n, p)


@lru_cache(maxsize=_WEIGHT_MEMO_SIZE)
def _weigh(xs, n: int, p: int) -> WeightReport:
    top, widest = 0, []
    for idx, res in _admissible_family(xs, p):
        if len(idx) > top:
            top, widest = len(idx), []
        if len(idx) == top:
            widest.append((idx, res))
    # widest is in lexicographic order, so a strict gain keeps the first
    # tie; positions are grouped in order, so blocks follow their smallest
    best = None
    for idx, res in widest:
        by_line: dict[tuple[int, ...], list[int]] = {}
        for j, r in enumerate(res):
            if r is not None:
                by_line.setdefault(r, []).append(j)
        if best is None or len(by_line) > len(best[1]):
            best = (idx, by_line)
    chosen, by_line = best
    return WeightReport(
        omega=(len(xs) + 1) * top + len(by_line),
        chosen=chosen,
        span_u=_span(xs, chosen, n, p),
        partition=tuple(tuple(members) for members in by_line.values()),
        lines=tuple(by_line),
    )


def _tuple_rank(rep: WeightReport, n: int, p: int) -> int:
    """The rank of the weighed tuple: dim U plus the rank of the
    quotient lines of the outside entries in V/U.  Distinct lines are
    pairwise independent, so only three or more need an elimination."""
    lines = rep.lines
    if len(lines) > 2:
        return len(rep.chosen) + len(_rref([list(v) for v in lines], n, p)[0])
    return len(rep.chosen) + len(lines)


def _check_witness(sys_spec: SystemSpec, xs, p: int) -> None:
    """Raise unless the checked tuple solves the system over F_p.  The
    solve kernel zips rows with columns and checks nothing, so the
    prime and the length k are checked first."""
    if sys_spec.p != p:
        raise ValueError(
            f"tuple is over F_{p} but the system is over F_{sys_spec.p}")
    if not _solves(sys_spec, xs, _solution_dim(sys_spec, xs)):
        raise ValueError("tuple does not solve the supplied system")


@dataclass(frozen=True)
class WeightPropertyReport:
    omega: int
    chosen_size: int
    span_dim: int
    omega_valid: bool
    size_valid: bool
    span_valid: bool

    @property
    def ok(self) -> bool:
        return self.omega_valid and self.size_valid and self.span_valid


def verify_weight_properties(
    entries: Sequence, p, sys_spec: SystemSpec | None = None
) -> WeightPropertyReport:
    """Check the three structural facts about omega.

    omega is never 0 and never one of the multiples (k+1), 2(k+1), ...,
    (k-1)(k+1); the chosen maximizer has exactly floor(omega / (k+1))
    elements; and the span of the whole tuple has dimension at least
    omega / (k+1), that dimension read off the walk.  When a system is
    supplied it must be over the same prime and the tuple must solve it.
    """
    xs, n, p = _capped_tuple(entries, p)
    k = len(xs)
    if sys_spec is not None:
        if sys_spec.constants is not None:
            raise ValueError("property check expects a homogeneous system")
        _check_witness(sys_spec, xs, p)
    rep = _weigh(xs, n, p)
    forbidden = {0} | {(k + 1) * t for t in range(1, k)}
    omega_valid = rep.omega not in forbidden
    size_valid = len(rep.chosen) == rep.omega // (k + 1)
    span_dim = _tuple_rank(rep, n, p)
    span_valid = span_dim * (k + 1) >= rep.omega
    return WeightPropertyReport(rep.omega, len(rep.chosen), span_dim,
                                omega_valid, size_valid, span_valid)


@dataclass(frozen=True)
class PartitionReport:
    """The quotient-line partition outside the chosen maximizer."""

    omega: int
    chosen: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]
    min_block_size: int
    lemma_ok: bool


def partition_structure(entries: Sequence, sys_spec: SystemSpec) -> PartitionReport:
    """Partition the positions outside the chosen maximizer by quotient line.

    Requires a genuine solution of a homogeneous system whose rows sum
    to zero.  For such tuples every block must have at least two
    members; ``lemma_ok`` records whether that held (a False value is a
    finding, not an exception).
    """
    if sys_spec.constants is not None:
        raise ValueError("partition structure expects a homogeneous system")
    if not sys_spec.rows_sum_zero:
        raise ValueError("partition structure expects rows summing to zero")
    xs, n, p = _capped_tuple(entries, sys_spec.p)
    _check_witness(sys_spec, xs, p)
    rep = _weigh(xs, n, p)
    sizes = [len(b) for b in rep.partition]
    min_size = min(sizes) if sizes else 0
    distinct_lines = len(set(rep.lines)) == len(rep.lines)
    return PartitionReport(
        omega=rep.omega,
        chosen=rep.chosen,
        blocks=rep.partition,
        lines=rep.lines,
        min_block_size=min_size,
        lemma_ok=distinct_lines and (not sizes or min_size >= 2),
    )
