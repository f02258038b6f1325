"""Exact linear algebra over GF(2).

Rows are stored as Python int bitmasks, so a row operation is a single
XOR no matter how wide the matrix is.  Matrices act on column vectors,
which are also int bitmasks: bit j of a vector is coordinate j.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); bit j of data[i] is entry (i, j)."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.data) != self.rows:
            raise ValueError("inconsistent BitMatrix shape")
        data = self.data
        if data and (min(data) < 0 or max(data) >> self.cols):
            raise ValueError("row has bits outside [0, cols)")

    @staticmethod
    def zeros(rows, cols):
        return BitMatrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n):
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows, cols):
        """Build from an iterable of rows, each a list of 0/1 or an int bitmask."""
        data = []
        for row in rows:
            if isinstance(row, int):
                data.append(row)
            else:
                if len(row) != cols:
                    raise ValueError("row length != cols")
                data.append(sum((1 << j) for j, x in enumerate(row) if x & 1))
        return BitMatrix(len(data), cols, tuple(data))

    def entry(self, i, j):
        return (self.data[i] >> j) & 1

    def to_lists(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self):
        return all(r == 0 for r in self.data)

    def transpose(self):
        cols = [0] * self.cols
        for i, row in enumerate(self.data):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        return BitMatrix(self.cols, self.rows, tuple(cols))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.data, other.data)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for row in self.data:
            acc = 0
            r = row
            while r:
                k = (r & -r).bit_length() - 1
                acc ^= other.data[k]
                r &= r - 1
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec):
        """Matrix times column vector (int bitmask) over GF(2)."""
        out = 0
        for i, row in enumerate(self.data):
            if (row & vec).bit_count() & 1:
                out |= 1 << i
        return out

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple(a | (b << self.cols) for a, b in zip(self.data, other.data))
        return BitMatrix(self.rows, self.cols + other.cols, data)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return BitMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    @staticmethod
    def block_diag(blocks):
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        data = []
        off = 0
        for b in blocks:
            data.extend(r << off for r in b.data)
            off += b.cols
        return BitMatrix(rows, cols, tuple(data))

    def _eliminate(self):
        """Row-reduce a working copy; return (reduced rows, pivots as (row, col))."""
        work = list(self.data)
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, len(work)):
                if (work[i] >> c) & 1:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(len(work)):
                if i != r and ((work[i] >> c) & 1):
                    work[i] ^= work[r]
            pivots.append((r, c))
            r += 1
            if r == len(work):
                break
        return work, pivots

    def rank(self):
        return len(self._eliminate()[1])

    def kernel_basis(self):
        """Basis of {v : self @ v = 0}, as column-vector bitmasks."""
        work, pivots = self._eliminate()
        pivot_cols = {c for _, c in pivots}
        basis = []
        for f in range(self.cols):
            if f in pivot_cols:
                continue
            v = 1 << f
            for r, c in pivots:
                if (work[r] >> f) & 1:
                    v |= 1 << c
            basis.append(v)
        return tuple(basis)

    def solve(self, b):
        """One solution x of self @ x = b, or None if inconsistent."""
        aug = BitMatrix(self.rows, self.cols + 1,
                        tuple(r | (((b >> i) & 1) << self.cols)
                              for i, r in enumerate(self.data)))
        work, pivots = aug._eliminate()
        x = 0
        for r, c in pivots:
            if c == self.cols:
                return None
            if (work[r] >> self.cols) & 1:
                x |= 1 << c
        return x


def rank(m):
    return m.rank()


def kernel_basis(m):
    return list(m.kernel_basis())


def quotient_dims(sub, ambient_dim):
    """dim(F2^ambient / span(sub)) for column vectors given as bitmasks."""
    span = BitMatrix(len(sub), ambient_dim, tuple(sub))
    return ambient_dim - span.rank()


class EchelonSpan:
    """Growing echelon basis over GF(2) with coordinates on tagged generators.

    Vectors added with a tag get a coordinate slot; untagged vectors only
    enlarge the span.  reduce() expresses a vector over the span and reports
    the tagged coordinates that were used.
    """

    def __init__(self):
        self._rows = {}  # pivot bit index -> (vector, coord mask)
        self.n_tagged = 0

    def reduce(self, v):
        coords = 0
        while v:
            p = v.bit_length() - 1
            row = self._rows.get(p)
            if row is None:
                return v, coords
            v ^= row[0]
            coords ^= row[1]
        return 0, coords

    def add(self, v, tagged=False):
        """Insert v; return True if it was independent of the current span."""
        v, coords = self.reduce(v)
        if v == 0:
            return False
        if tagged:
            coords ^= 1 << self.n_tagged
            self.n_tagged += 1
        self._rows[v.bit_length() - 1] = (v, coords)
        return True


def homology_reps(d_out, d_in):
    """Homology at the middle of  C_in --d_in--> C --d_out--> C_out.

    Returns (reps, project) where reps is a list of cycle vectors giving a
    basis of ker(d_out)/im(d_in) and project(cycle) -> coordinate bitmask.
    """
    span = EchelonSpan()
    for col in d_in.transpose().data:
        span.add(col, tagged=False)
    reps = []
    for v in d_out.kernel_basis():
        if span.add(v, tagged=True):
            reps.append(v)

    def project(cycle):
        residue, coords = span.reduce(cycle)
        if residue:
            raise ValueError("vector not in cycle span")
        return coords

    return reps, project
