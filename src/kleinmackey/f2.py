"""Exact linear algebra over GF(2).

Rows are stored as Python int bitmasks, so a row operation is a single
XOR no matter how wide the matrix is.  Matrices act on column vectors,
which are also int bitmasks: bit j of a vector is coordinate j.

Rank, kernel basis and the image used by homology all come from one
routine, column_reduction, which reads a list of column vectors.  A matrix's
rows are its transpose's columns, so homology_reps takes each differential
by its columns, stored as the rows of its transpose, and reduces them with
no transpose.  Boundary matrices have two to four nonzeros per column, so
reducing them is close to linear in their size.

homology_reps clears (Chen-Kerber 2011, Bauer-Kerber-Reininghaus 2014): it
reduces d_out skipping every column that is a pivot (leading bit) of the
reduced d_in.  The reduced column of d_in with pivot p is a boundary e_p +
(lower bits), so column p of d_out is a sum of earlier columns and reduces
to zero.  Its kernel vector differs from that boundary by a cycle on
earlier cells, which the kernel vectors of earlier columns span, so the
greedy pass over the kernel would never pick it: skipping it leaves the
representatives and the projection unchanged.  A walk over the degrees
from the top down has each d_in reduced before the d_out it clears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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
        """Build from an iterable of rows, each a list of 0/1."""
        data = []
        for row in rows:
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

    @cached_property
    def _image(self):
        # The span of the rows, kept on the matrix so that it lives and dies
        # with it: homology_reps reads a differential's kernel at one degree
        # and its image at the next, and takes each differential as its
        # columns, the rows here.
        return column_reduction(self.data)[0]

    def _cleared_kernel(self, cleared):
        """Kernel of the rows' reduction, skipping the rows in cleared.  The
        span is the same either way, so it is kept as _image."""
        span, kernel = column_reduction(self.data, cleared)
        self.__dict__.setdefault("_image", span)
        return kernel

    def rank(self):
        # Row rank equals column rank, and the rows need no transpose.  Not
        # kept: ranked matrices are often the maps of long-lived functors,
        # such as the catalog's, and their reductions would stay with them.
        return len(column_reduction(self.data)[0])

    def kernel_basis(self):
        """Basis of {v : self @ v = 0}, as column-vector bitmasks."""
        return column_reduction(self.transpose().data)[1]


def column_reduction(columns, cleared=()):
    """One left-to-right reduction of column vectors: (span, kernel).

    Each column is XORed with the stored reduced column of its leading bit
    until it vanishes or has a new leading bit.  span holds the reduced
    independent columns keyed by leading bit, each tagged with the mask of
    original columns that sums to it; they span the image.  kernel holds,
    for each column f that reduces to zero, e_f plus the earlier independent
    columns that sum to it, in column order.  That is the reduced-echelon
    kernel basis, because the pivot columns of the reduced echelon form are
    the leftmost independent columns (Edelsbrunner-Letscher-Zomorodian 2002,
    Zomorodian-Carlsson 2005).  Columns whose index is in cleared are
    skipped; the caller vouches that each reduces to zero, so the span is
    the same and the kernel loses only their vectors.
    """
    span = EchelonSpan()
    kernel = []
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        residue, coords = span.reduce(col)
        if residue:
            span.insert(residue, coords | 1 << j)
        else:
            kernel.append(coords | 1 << j)
    return span, tuple(kernel)


class EchelonSpan:
    """Growing echelon basis over GF(2) with coordinates on tagged generators.

    Vectors added with a tag get a coordinate slot; untagged vectors only
    enlarge the span.  reduce() expresses a vector over the span and reports
    the tagged coordinates that were used.
    """

    def __init__(self):
        self._rows = {}  # pivot bit index -> (vector, coord mask)
        self.n_tagged = 0

    def __len__(self):
        return len(self._rows)

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
        self.insert(v, coords)
        return True

    def insert(self, v, coords):
        """Store v, nonzero and already reduced, with its coordinate mask."""
        self._rows[v.bit_length() - 1] = (v, coords)

    def pivots(self):
        """The leading bits of the stored vectors."""
        return self._rows.keys()

    def untagged(self):
        """A new span of the same vectors, with no tagged coordinates."""
        out = EchelonSpan()
        out._rows = {p: (v, 0) for p, (v, _) in self._rows.items()}
        return out


def homology_reps(d_out, d_in):
    """Homology at the middle of  C_in --d_in--> C --d_out--> C_out.

    Each differential is given by its columns, as the transpose of its
    matrix: row j of d_out is the image of basis vector j of C, and row j
    of d_in that of basis vector j of C_in.  Returns (reps, project) where
    reps is a list of cycle vectors giving a basis of ker(d_out)/im(d_in)
    and project(cycle) -> coordinate bitmask.  d_out is reduced clearing the
    pivots of d_in's image, and keeps that image, so a differential passed
    as d_out here and as d_in at the next degree down is reduced once.  The
    cleared kernel is valid next to this d_in only, so it is not kept.
    """
    span = d_in._image
    kernel = d_out._cleared_kernel(span.pivots())
    span = span.untagged()
    reps = []
    for v in kernel:
        if span.add(v, tagged=True):
            reps.append(v)

    def project(cycle):
        residue, coords = span.reduce(cycle)
        if residue:
            raise ValueError("vector not in cycle span")
        return coords

    return reps, project
