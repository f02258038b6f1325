import pytest
from hypothesis import find, given, strategies as st

from kleinmackey import f2
from kleinmackey.f2 import BitMatrix, EchelonSpan, homology_reps


def M(rows, cols):
    return BitMatrix.from_rows(rows, cols)


def times(m, vec):
    """m times the column vector vec (an int bitmask), as a bitmask."""
    return (BitMatrix(1, m.cols, (vec,)) @ m.transpose()).data[0]


def test_rank_examples():
    assert BitMatrix.identity(3).rank() == 3
    assert BitMatrix.zeros(2, 5).rank() == 0
    assert M([[1, 1], [1, 1]], 2).rank() == 1


def test_kernel_examples():
    assert BitMatrix.identity(2).kernel_basis() == ()
    assert M([[1, 1]], 2).kernel_basis() == (0b11,)
    assert len(BitMatrix.zeros(2, 3).kernel_basis()) == 3


def test_degenerate_shapes():
    assert BitMatrix.zeros(0, 4).rank() == 0
    assert BitMatrix.zeros(4, 0).rank() == 0
    assert len(BitMatrix.zeros(0, 4).kernel_basis()) == 4


def test_row_range_check():
    assert BitMatrix(2, 3, (0b111, 0)).rows == 2
    assert BitMatrix(1, 0, (0,)).cols == 0
    for rows, cols, data in ((1, 3, (-1,)), (2, 3, (0, 0b1000)), (1, 0, (1,))):
        with pytest.raises(ValueError):
            BitMatrix(rows, cols, data)
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (0,))


def test_matmul_apply_transpose():
    a = M([[1, 1, 0], [0, 1, 1]], 3)
    b = M([[1, 0], [1, 1], [0, 1]], 2)
    assert (a @ b).to_lists() == [[0, 1], [1, 0]]
    assert times(a, 0b011) == 0b10  # (1,1,0) column vector kills row 0

    assert a.transpose().transpose() == a


def test_homology_reps_chain():
    # 0 -> F2^2 --[1 1]--> F2 -> 0 has homology (0, 1-dim) in the two spots;
    # homology_reps takes each differential as its transpose
    d_out = M([[1, 1]], 2)
    d_in = BitMatrix.zeros(2, 0)
    reps, project = homology_reps(d_out.transpose(), d_in.transpose())
    assert len(reps) == 1
    assert project(reps[0]) == 1


def bit_matrices_of(rows, cols):
    return st.lists(st.integers(0, (1 << cols) - 1), min_size=rows,
                    max_size=rows).map(lambda data: BitMatrix(rows, cols, tuple(data)))


def bit_matrices():
    return st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda shape: bit_matrices_of(*shape))


@given(bit_matrices())
def test_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()


@given(bit_matrices())
def test_rank_nullity(m):
    assert m.cols == m.rank() + len(m.kernel_basis())


@given(bit_matrices())
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert times(m, v) == 0


@given(bit_matrices())
def test_transpose_matches_entries(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    for j in range(m.cols):
        assert t.data[j] == sum(1 << i for i in range(m.rows) if m.entry(i, j))


def _homology_reps_bitwise(d_out, d_in):
    """homology_reps with the columns of d_in read one entry at a time and
    the cycles taken from the row-elimination kernel basis."""
    span = EchelonSpan()
    for j in range(d_in.cols):
        span.add(sum(1 << i for i in range(d_in.rows) if d_in.entry(i, j)))
    reps = [v for v in _reference_kernel_basis(d_out) if span.add(v, tagged=True)]
    return reps, span


@st.composite
def chain_pairs(draw):
    """d_out: C -> C_out and d_in: C_in -> C with d_out @ d_in = 0."""
    n_in, n, n_out = (draw(st.integers(0, 6)) for _ in range(3))
    d_out = draw(bit_matrices_of(n_out, n))
    kernel = d_out.kernel_basis()
    cols = [0] * n_in
    for j in range(n_in):
        for v in kernel:
            if draw(st.booleans()):
                cols[j] ^= v
    d_in = BitMatrix.from_rows([[(col >> i) & 1 for col in cols] for i in range(n)], n_in)
    return d_out, d_in


@given(chain_pairs())
def test_homology_reps_matches_bitwise_reference(pair):
    d_out, d_in = pair
    reps, project = homology_reps(d_out.transpose(), d_in.transpose())
    ref_reps, ref_span = _homology_reps_bitwise(d_out, d_in)
    assert reps == ref_reps
    # both projections are linear, so agreeing on a basis of cycles suffices
    for cycle in d_out.kernel_basis():
        assert project(cycle) == ref_span.reduce(cycle)[1]


def test_clearing_other_columns_changes_homology(monkeypatch):
    # the cleared columns must be the pivots of d_in: shifted by one, they
    # drop cycles that no boundary accounts for, on some chain pair
    reduce = f2.column_reduction
    monkeypatch.setattr(f2, "column_reduction",
                        lambda columns, cleared=(): reduce(columns, {p + 1 for p in cleared}))
    find(chain_pairs(), lambda pair: homology_reps(pair[0].transpose(), pair[1].transpose())[0]
         != _homology_reps_bitwise(*pair)[0])


# Dense row elimination, kept as the reference: the column reduction must
# reproduce it exactly, with the same rank and the same kernel vectors in the
# same order.


def _reference_eliminate(m):
    """Row-reduce a working copy; return (reduced rows, pivots as (row, col))."""
    work = list(m.data)
    pivots = []
    r = 0
    for c in range(m.cols):
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


def _reference_rank(m):
    return len(_reference_eliminate(m)[1])


def _reference_kernel_basis(m):
    work, pivots = _reference_eliminate(m)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = 1 << f
        for r, c in pivots:
            if (work[r] >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return tuple(basis)


def wide_bit_matrices():
    return st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
        lambda shape: bit_matrices_of(*shape))


@given(wide_bit_matrices())
def test_rank_and_kernel_match_row_elimination(m):
    assert m.rank() == _reference_rank(m)
    assert m.kernel_basis() == _reference_kernel_basis(m)


def test_zero_rows_and_columns_match_row_elimination():
    for rows in range(4):
        for cols in range(4):
            for m in (BitMatrix.zeros(rows, cols), BitMatrix(rows, cols, tuple(
                    (1 << cols) - 1 for _ in range(rows)))):
                assert m.rank() == _reference_rank(m)
                assert m.kernel_basis() == _reference_kernel_basis(m)
