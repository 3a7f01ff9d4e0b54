"""Exact linear algebra over the prime field F_p.

Vectors are plain integer tuples reduced mod p and matrices are
sequences of such rows, so every computation here is exact.  Subspaces
are stored through their reduced row echelon bases, which makes them
canonical: two subspaces are equal exactly when their stored bases
agree, so they can be hashed, compared, enumerated and counted
directly.  ``Subspace.reduce`` gives the coset representative of a
vector modulo a subspace (the one vanishing on the pivot columns), and
``normalize_line_rep`` scales a nonzero one to lead 1.  The module also
holds the line-based reading and writing shared by the vector, system
and tensor file formats.

Each object has one canonical form, decided here: a vector is the tuple
``reduce_coords`` returns, a line is that tuple scaled to lead 1, and a
subspace is what ``span`` returns (the ``Subspace`` constructor refuses
any other basis).  Every public entry point that takes vectors reduces
them through ``reduce_coords``, or ``reduce_vectors`` for a sequence of
vectors, so (4,) and (1,) are the same point of F_3^1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import _capped

MAX_PRIME = (1 << 31) - 1
DEFAULT_SUBSPACE_CAP = 10**6


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    """Normalize p to a validated prime int."""
    p = int(p)
    if not 2 <= p <= MAX_PRIME:
        raise ValueError(f"prime must satisfy 2 <= p <= 2^31 - 1, got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return pow(a, -1, p)


def reduce_coords(coords, p: int) -> tuple[int, ...]:
    """The point of F_p^n with these coordinates: each entry of the int
    sequence as an int reduced mod p.  The one normaliser of vectors."""
    return tuple([int(c) % p for c in coords])


def reduce_vectors(vectors, p: int) -> tuple[tuple[int, ...], ...]:
    """``reduce_coords`` of each vector in the sequence, in one pass."""
    return tuple([tuple([int(c) % p for c in v]) for v in vectors])


def _lead_one(v, p: int) -> tuple[int, ...] | None:
    """The reduced vector v scaled so its first nonzero coordinate is 1;
    None when v is zero."""
    lead = next((a for a in v if a), 0)
    if lead == 0:
        return None
    if lead != 1:
        inv = inverse_mod(lead, p)
        v = [(inv * a) % p for a in v]
    return tuple(v)


def _matrix(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], int]:
    """The rows reduced mod p as a fresh work matrix, with its column
    count; a ValueError when the rows have unequal lengths."""
    # mutable rows, so not built by reduce_coords
    work = [[int(c) % p for c in r] for r in rows]
    ncols = len(work[0]) if work else 0
    if any(len(r) != ncols for r in work):
        raise ValueError("rows have unequal lengths")
    return work, ncols


def rref_with_pivots(
    rows: Iterable[Sequence[int]], p: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over F_p.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared
    elsewhere, pivot columns strictly increasing) together with the
    pivot column indices.  The output rows are a canonical basis of the
    row space, so identical row spaces give identical outputs.
    """
    return _rref(*_matrix(rows, p), p)


def _rref(work: list, ncols: int, p: int
          ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The elimination behind ``rref_with_pivots``: ``work`` lists rows
    of length ncols with entries already in range(p).  The list is
    overwritten; the rows themselves are only read."""
    nrows = len(work)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = row
        while sel < nrows and not work[sel][col]:
            sel += 1
        if sel == nrows:
            continue
        piv = work[sel]
        work[sel] = work[row]
        c = piv[col]
        if c != 1:
            inv = pow(c, -1, p)
            piv = [inv * v % p for v in piv]
        work[row] = piv
        for r in range(nrows):
            wr = work[r]
            c = wr[col]
            if c and r != row:
                work[r] = [(a - c * b) % p for a, b in zip(wr, piv)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return tuple(map(tuple, work[:row])), tuple(pivots)


def _pivots(work: list, ncols: int, p: int,
            order: Sequence[int] | None = None) -> tuple[int, ...]:
    """The pivot columns of the row echelon form of ``work``, which is
    as for ``_rref`` and is overwritten the same way.  The elimination
    only runs forward: it clears below each pivot, never above, and
    scales no row, so it answers rank questions and nothing more.  An
    ``order`` of the columns,
    ``range(ncols)`` by default, is the order they are eliminated in:
    the pivots are then those of the rows with their columns so
    permuted, named by their original indices."""
    nrows = len(work)
    pivots: list[int] = []
    row = 0
    for col in range(ncols) if order is None else order:
        if row >= nrows:
            break
        sel = row
        while sel < nrows and not work[sel][col]:
            sel += 1
        if sel == nrows:
            continue
        piv = work[sel]
        # the rows from ``row`` to ``sel`` are zero in this column, so
        # only those after ``sel`` need clearing
        work[sel] = work[row]
        work[row] = piv
        c = piv[col]
        neg = p - (1 if c == 1 else pow(c, -1, p))
        for r in range(sel + 1, nrows):
            wr = work[r]
            c = wr[col]
            if c:
                f = neg * c
                work[r] = [(a + f * b) % p for a, b in zip(wr, piv)]
        pivots.append(col)
        row += 1
    return tuple(pivots)


def _coset_rep(y: Sequence[int], basis, pivots, p: int) -> Sequence[int]:
    """The reduced vector y less the combination of the reduced row
    echelon rows ``basis``, with pivot columns ``pivots``, that clears
    y on those columns; no check is made."""
    for row, col in zip(basis, pivots):
        c = y[col]
        if c:
            y = [(a - c * b) % p for a, b in zip(y, row)]
    return y


def rank(rows, p) -> int:
    """Rank over F_p of the given rows."""
    p = check_prime(p)
    return len(_pivots(*_matrix(rows, p), p))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n held in canonical form.

    ``basis`` is the reduced row echelon basis (possibly empty for the
    zero subspace).  Equality and hashing follow from the dataclass
    fields, which is sound because the basis is canonical.  The
    constructor enforces that form: it raises ValueError unless p is
    prime, every row has ambient_dim entries and the basis is its own
    reduced row echelon form.  ``span`` builds one from any vectors.
    ``pivots`` holds the pivot column of each basis row; it is set with
    the basis and is not a field, so it takes no part in equality.
    """

    basis: tuple[tuple[int, ...], ...]
    ambient_dim: int
    p: int

    def __post_init__(self):
        check_prime(self.p)
        if any(len(r) != self.ambient_dim for r in self.basis):
            raise ValueError(f"basis rows must have {self.ambient_dim} entries")
        basis, pivots = rref_with_pivots(self.basis, self.p)
        if basis != self.basis:
            raise ValueError("basis is not a tuple of rows in reduced row echelon form")
        object.__setattr__(self, "pivots", pivots)

    @classmethod
    def _from_rref(cls, basis: tuple[tuple[int, ...], ...],
                   pivots: tuple[int, ...], ambient_dim: int, p: int) -> Subspace:
        """The subspace with this basis and these pivot columns, trusted
        to be the reduced row echelon form over the prime p of rows of
        length ambient_dim, as ``_rref`` returns them."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "p", p)
        return self

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical coset representative of v modulo this subspace.

        The representative vanishes on every pivot column of the basis;
        it is zero exactly when v lies in the subspace.
        """
        y = reduce_coords(v, self.p)
        if len(y) != self.ambient_dim:
            raise ValueError("vector dimension differs from ambient dimension")
        return tuple(_coset_rep(y, self.basis, self.pivots, self.p))

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All p^dim vectors of the subspace, in a deterministic order."""
        n, p = self.ambient_dim, self.p
        for cs in product(range(p), repeat=self.dim):
            acc = [0] * n
            for c, row in zip(cs, self.basis):
                if c:
                    for j in range(n):
                        acc[j] = (acc[j] + c * row[j]) % p
            yield tuple(acc)


def span(vectors: Sequence, p=None, ambient_dim: int | None = None) -> Subspace:
    """Subspace spanned by the given vectors over F_p.

    For an empty collection ambient_dim must be supplied too; otherwise
    it is inferred from the vectors and checked for consistency.
    """
    vs = list(vectors)
    if not vs:
        if p is None or ambient_dim is None:
            raise ValueError("empty span needs explicit p and ambient_dim")
        return Subspace._from_rref((), (), ambient_dim, check_prime(p))
    if p is None:
        raise ValueError("span needs p")
    p = check_prime(p)
    vs = reduce_vectors(vs, p)
    dims = {len(v) for v in vs}
    if len(dims) != 1:
        raise ValueError("vectors have mixed ambient dimensions")
    n = dims.pop()
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("vectors do not match the requested ambient dimension")
    return Subspace._from_rref(*rref_with_pivots(vs, p), n, p)


def normalize_line_rep(coords: Sequence[int], p: int) -> tuple[int, ...]:
    """Scale a nonzero vector so its leading nonzero coordinate is 1."""
    rep = _lead_one(reduce_coords(coords, p), p)
    if rep is None:
        raise ValueError("cannot normalize the zero vector")
    return rep


def gaussian_binomial(n: int, d: int, p: int) -> int:
    """Number of d-dimensional subspaces of F_p^n."""
    p = check_prime(p)
    if d < 0 or d > n:
        return 0
    # the count is symmetric in d and n - d, so the shorter product serves
    d = min(d, n - d)
    num = 1
    den = 1
    for i in range(d):
        num *= p**n - p**i
        den *= p**d - p**i
    return num // den


def _subspace_count(n: int, d: int, p: int, cap: int,
                    phrase: str | None = None) -> int | None:
    """``gaussian_binomial(n, d, p)`` when it is at most cap; over it,
    None, or CapExceededError with ``phrase`` when one is given.

    The count is at least p^(d(n-d)), so that power refuses a count far
    above the cap before its huge product is formed."""
    if _capped(p, cap, phrase, d * (n - d)) is None:
        return None
    return _capped(gaussian_binomial(n, d, p), cap, phrase)


def enumerate_subspaces(n: int, d: int, p, cap: int = DEFAULT_SUBSPACE_CAP) -> list[Subspace]:
    """All d-dimensional subspaces of F_p^n, each exactly once.

    Subspaces are generated directly in canonical form: choose the pivot
    columns of the echelon basis, then fill the free entries in every
    possible way.  Raises CapExceededError when the total count exceeds
    the cap.
    """
    p = check_prime(p)
    if d < 0 or d > n:
        raise ValueError(f"dimension {d} out of range for ambient {n}")
    _subspace_count(n, d, p, cap, f"the {d}-dimensional subspaces of "
                    f"F_{p}^{n} exceed the cap {{cap}}")
    out: list[Subspace] = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free_cells = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                      if j not in pivot_set]
        for assignment in product(range(p), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(d)]
            for i in range(d):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free_cells, assignment):
                rows[i][j] = val
            out.append(Subspace._from_rref(tuple(tuple(r) for r in rows),
                                           pivots, n, p))
    return out


def random_subspace(n: int, d: int, p, rng: random.Random) -> Subspace:
    """A uniformly random d-dimensional subspace of F_p^n.

    Samples a d x n matrix with uniform entries and rejects until it has
    full rank; every d-dimensional subspace is the row space of equally
    many full-rank matrices, so the row space is uniform.

    The draws are those of ``rng.randint(0, p - 1)`` on a
    ``random.Random``: each entry, row by row, takes
    ``getrandbits(p.bit_length())`` again while it is at least p, and a
    rank-deficient matrix is redrawn whole.  So the result and the
    generator's state afterwards are those of a loop filling the matrix
    entry by entry with the standard library's uniform integer below p.
    """
    p = check_prime(p)
    if d < 0 or d > n:
        raise ValueError(f"dimension {d} out of range for ambient {n}")
    if d == 0:
        return Subspace._from_rref((), (), n, p)
    draw = rng.getrandbits
    while True:
        basis, pivots = _rref(_draw_rows(n, d, p, draw), n, p)
        if len(basis) == d:
            return Subspace._from_rref(basis, pivots, n, p)


def _draw_rows(n: int, d: int, p: int, draw) -> list[list[int]]:
    """A d x n matrix of uniform entries below p, drawn row by row: each
    entry takes ``draw(p.bit_length())`` again while it is at least p,
    which is what ``random.Random.randint(0, p - 1)`` does with its
    ``getrandbits``."""
    bits = p.bit_length()
    rows = []
    for _ in range(d):
        row = []
        for _ in range(n):
            x = draw(bits)
            while x >= p:
                x = draw(bits)
            row.append(x)
        rows.append(row)
    return rows


def read_lines(src, what: str) -> list[str]:
    """The stripped non-blank lines of a text file or readable stream;
    a ValueError naming ``what`` when there are none."""
    text = src.read() if hasattr(src, "read") else Path(src).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty {what} file")
    return lines


def write_lines(dest, lines: Iterable[str]) -> None:
    """Write one line each, newline-terminated, to a path or a writable
    stream."""
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def write_vector_file(dest, vectors: Sequence, p: int, n: int) -> None:
    """Write vectors in the text format: header ``p=<p> n=<n>``, then one
    vector per line with space-separated coordinates."""
    lines = [f"p={p} n={n}"]
    for v in vectors:
        cs = reduce_coords(v, p)
        if len(cs) != n:
            raise ValueError("vector length differs from header dimension")
        lines.append(" ".join(map(str, cs)))
    write_lines(dest, lines)


def _header_fields(line: str, keys: Sequence[str]) -> dict[str, int]:
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"malformed header token {tok!r}")
        key, _, val = tok.partition("=")
        fields[key] = int(val)
    missing = [k for k in keys if k not in fields]
    if missing:
        raise ValueError(f"header is missing {missing}")
    return fields


def read_vector_file(src) -> tuple[int, int, list[tuple[int, ...]]]:
    """Read the vector text format; returns (p, n, vectors)."""
    lines = read_lines(src, "vector")
    fields = _header_fields(lines[0], ("p", "n"))
    p, n = check_prime(fields["p"]), fields["n"]
    vectors = []
    for ln in lines[1:]:
        cs = reduce_coords(ln.split(), p)
        if len(cs) != n:
            raise ValueError(f"expected {n} coordinates, got {len(cs)}: {ln!r}")
        vectors.append(cs)
    return p, n, vectors
