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


def _sparse(rows):
    """Dense rows as sparse ``{column: value}`` rows without zero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _dense(vectors, length):
    out = []
    for vec in vectors:
        row = [Fraction(0)] * length
        for r, x in vec.items():
            row[r] = x
        out.append(row)
    return out


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
    """``rows`` sparse, ``kernel`` sparse: ``c M = 0``, no stored zeros,
    integral entries held as ``int``, and reduced row echelon form."""
    for vec in kernel:
        assert all(0 <= r < len(rows) for r in vec)
        assert all(type(x) in (int, Fraction) and x != 0 for x in vec.values())
        assert all(type(x) is int or x.denominator != 1 for x in vec.values())
        product = {}
        for r, x in vec.items():
            for c, y in rows[r].items():
                product[c] = product.get(c, 0) + x * y
        assert not any(product.values())
    leads = [min(vec) for vec in kernel]
    assert leads == sorted(set(leads))
    for vec, lead in zip(kernel, leads):
        assert vec[lead] == 1
        assert all(lead not in other for other in kernel if other is not vec)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrices(), _low_rank_matrices()), st.randoms(use_true_random=False))
def test_matches_reference(rows, rng):
    sparse = _sparse(rows)
    rank = linalg.rank(sparse)
    assert rank == _reference_rank(rows)
    kernel = linalg.left_nullspace(sparse)
    assert _dense(kernel, len(rows)) == _reference_left_nullspace(rows)
    assert len(kernel) + rank == len(rows)
    _check_kernel(sparse, kernel)
    # Renumbering the columns onto scattered keys changes neither result.
    keys = rng.sample(range(10_000), len(rows[0]) if rows else 0)
    renumbered = [{keys[c]: x for c, x in row.items()} for row in sparse]
    assert linalg.rank(renumbered) == rank
    assert linalg.left_nullspace(renumbered) == kernel


def test_edge_shapes():
    assert linalg.rank([]) == 0
    assert linalg.left_nullspace([]) == []
    # Rows with no entries: every row is a relation.
    assert linalg.rank([{}, {}]) == 0
    assert linalg.left_nullspace([{}, {}]) == [{0: 1}, {1: 1}]
    assert linalg.left_nullspace([{}, {}, {}]) == [{0: 1}, {1: 1}, {2: 1}]


def test_non_contiguous_column_keys():
    rows = [{3: 1, 10_000: 2}, {10_000: 4, 3: 2}, {7: -1}]
    assert linalg.rank(rows) == 2
    kernel = linalg.left_nullspace(rows)
    assert kernel == [{0: 1, 1: Fraction(-1, 2)}]
    _check_kernel(rows, kernel)


def test_stored_zeros_are_ignored():
    rows = [{0: 0, 1: 1}, {1: 2, 4: Fraction(0)}]
    assert linalg.rank(rows) == 1
    assert linalg.left_nullspace(rows) == [{0: 1, 1: Fraction(-1, 2)}]


def test_kernel_stores_no_zeros():
    # Rows 0 and 2 are independent of everything; only row 1 = 2 * row 3
    # enters the kernel, so the vector has two entries, not four.
    rows = [{0: 1}, {1: 2, 2: 2}, {5: 1}, {1: 1, 2: 1}]
    kernel = linalg.left_nullspace(rows)
    assert kernel == [{1: 1, 3: -2}]
    _check_kernel(rows, kernel)


def test_integer_input_and_fraction_output():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {2: 3}, {0: Fraction(1, 2), 1: 1, 2: 1}]
    assert linalg.rank(rows) == 2
    kernel = linalg.left_nullspace(rows)
    assert kernel == [
        {0: 1, 2: Fraction(4, 3), 3: -4},
        {1: 1, 2: Fraction(2, 3), 3: -2},
    ]
    _check_kernel(rows, kernel)


def test_inputs_unchanged():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    copy = [dict(r) for r in rows]
    linalg.rank(rows)
    linalg.left_nullspace(rows)
    assert rows == copy
