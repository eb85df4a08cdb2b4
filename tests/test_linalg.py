from fractions import Fraction

from hypothesis import given, settings, strategies as st

from schubert_git import linalg


# --- reference: dense Fraction Gauss–Jordan, for these tests only -----------


def _reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    piv_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(piv_row, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[piv_row], m[pivot] = m[pivot], m[piv_row]
        p = m[piv_row][col]
        m[piv_row] = [x / p for x in m[piv_row]]
        for r in range(n_rows):
            if r != piv_row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == n_rows:
            break
    return m, pivots


def _reference_rank(rows):
    return len(_reference_rref(rows)[1])


def _reference_left_nullspace(rows):
    if not rows:
        return []
    n_rows = len(rows)
    transpose = [[rows[r][c] for r in range(n_rows)] for c in range(len(rows[0]))]
    reduced, pivots = _reference_rref(transpose)
    basis = []
    for free in (c for c in range(n_rows) if c not in pivots):
        vec = [Fraction(0)] * n_rows
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = -reduced[row_idx][free]
        basis.append(vec)
    normalized, _ = _reference_rref(basis)
    return [row for row in normalized if any(row)]


# --- strategies ---------------------------------------------------------------

_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def _matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 6))
    return [draw(st.lists(_entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]


@st.composite
def _low_rank_matrices(draw):
    # A product through an inner dimension below both sides is rank deficient.
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    inner = draw(st.integers(0, 3))
    a = [draw(st.lists(_entries, min_size=inner, max_size=inner)) for _ in range(n_rows)]
    b = [draw(st.lists(_entries, min_size=n_cols, max_size=n_cols)) for _ in range(inner)]
    return [
        [sum((a[r][k] * b[k][c] for k in range(inner)), Fraction(0)) for c in range(n_cols)]
        for r in range(n_rows)
    ]


def _check_kernel(rows, kernel):
    n_cols = len(rows[0]) if rows else 0
    for vec in kernel:
        assert len(vec) == len(rows)
        assert all(isinstance(x, Fraction) for x in vec)
        for c in range(n_cols):
            assert sum(vec[r] * rows[r][c] for r in range(len(rows))) == 0
    leads = [next(i for i, x in enumerate(vec) if x) for vec in kernel]
    assert leads == sorted(set(leads))
    for vec, lead in zip(kernel, leads):
        assert vec[lead] == 1
        assert all(other[lead] == 0 for other in kernel if other is not vec)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrices(), _low_rank_matrices()))
def test_matches_reference(rows):
    assert linalg.rank(rows) == _reference_rank(rows)
    kernel = linalg.left_nullspace(rows)
    assert kernel == _reference_left_nullspace(rows)
    assert len(kernel) + linalg.rank(rows) == len(rows)
    _check_kernel(rows, kernel)


def test_edge_shapes():
    assert linalg.rank([]) == 0
    assert linalg.left_nullspace([]) == []
    # Rows without columns: every row is a relation.
    assert linalg.rank([[], []]) == 0
    assert linalg.left_nullspace([[], []]) == [[1, 0], [0, 1]]
    zero = [[0, 0, 0]] * 3
    assert linalg.rank(zero) == 0
    assert linalg.left_nullspace(zero) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_integer_input_and_fraction_output():
    rows = [[2, 4, 0], [1, 2, 0], [0, 0, 3], [Fraction(1, 2), 1, 1]]
    assert linalg.rank(rows) == 2
    kernel = linalg.left_nullspace(rows)
    assert kernel == [
        [1, 0, Fraction(4, 3), -4],
        [0, 1, Fraction(2, 3), -2],
    ]
    assert all(type(x) is Fraction for vec in kernel for x in vec)
    _check_kernel(rows, kernel)


def test_inputs_unchanged():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    copy = [list(r) for r in rows]
    linalg.rank(rows)
    linalg.left_nullspace(rows)
    assert rows == copy
