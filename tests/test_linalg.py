import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsiegel import linalg, symplectic
from fsiegel.checks import _CHECKS, DEFAULT_CAP_GROUP, DEFAULT_CAP_POINTS, run_check
from fsiegel.errors import ShapeError
from fsiegel.field import FieldParams, _is_prime
from fsiegel.lagrangian import PointTable, enumerate_lagrangians, lagrangian_count
from fsiegel.linalg import (
    Mat,
    RowTable,
    block,
    block_diag,
    det_stack,
    entry_bytes,
    kernel_stack,
    lookup_rows,
    mm,
    rcef,
    rcef_stack,
    rref,
    rref_stack,
    solve,
    stack_keys,
)
from fsiegel.symplectic import (
    TAG_SP_0, TAG_SP_F, TAGS, EnumeratedGroup, enumerate_symplectic, generators, group_order, make_space,
)

from oracles import (
    all_scalars,
    all_subspaces,
    canonical_span,
    det_arr,
    det_by_permutations,
    kernel_arr,
    mat_det,
    mat_kernel,
    padd,
    parse_mat,
    pmul,
    span_size_rank,
)


def _random_mat(fp, rows, cols, rng):
    return Mat(
        fp,
        [[(rng.randrange(fp.q), rng.randrange(fp.q)) for _ in range(cols)] for _ in range(rows)],
    )


def test_ring_op_examples():
    fp = FieldParams(3)
    eye = Mat.identity(fp, 2)
    assert eye.star() == eye
    assert Mat.build(fp, [[fp.s]]).star() == Mat.build(fp, [[-fp.s]])
    rng = random.Random(0)
    m = _random_mat(fp, 3, 4, rng)
    assert m.T.T == m


def test_shape_errors():
    fp = FieldParams(3)
    with pytest.raises(ShapeError):
        Mat.identity(fp, 2) @ Mat.identity(fp, 3)
    with pytest.raises(ShapeError):
        Mat.identity(fp, 2) + Mat.zeros(fp, 2, 3)
    with pytest.raises(ShapeError):
        mat_det(Mat.zeros(fp, 2, 3))
    with pytest.raises(ShapeError):
        Mat.zeros(fp, 2, 3).inv()


def test_det_examples():
    fp = FieldParams(3)
    assert mat_det(Mat.identity(fp, 3)) == fp.one
    m = Mat.build(fp, [[fp.s, 1], [1, fp.s]])
    assert mat_det(m) == fp.one  # s^2 - 1 = 2 - 1
    assert Mat.build(fp, [[0], [0]]).rank() == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_det_against_permutation_expansion(q):
    fp = FieldParams(q)
    rng = random.Random(q)
    swaps = singular = 0
    for _ in range(200):
        n = rng.randrange(1, 4)
        m = _random_mat(fp, n, n, rng)
        swapped = m.a.copy()
        swapped[0, 0] = 0  # the first pivot comes from a lower row
        repeated = m.a.copy()
        repeated[-1] = repeated[0]
        for a in (m.a, swapped, repeated):
            rows = tuple(tuple((int(a[i, j, 0]), int(a[i, j, 1])) for j in range(n)) for i in range(n))
            d = det_by_permutations(q, fp.eps, rows)
            assert det_arr(fp, a) == d
            assert (mat_det(Mat(fp, a)).re, mat_det(Mat(fp, a)).im) == d
        swaps += bool(swapped[1:, 0].any()) and det_arr(fp, swapped) != (0, 0)
        if n > 1:
            assert det_arr(fp, repeated) == (0, 0)
            singular += 1
    assert swaps > 20 and singular > 20


@pytest.mark.parametrize("q", [3, 5, 7])
def test_inverse_det_rank_agree_on_random_matrices(q):
    fp = FieldParams(q)
    rng = random.Random(17 * q)
    for _ in range(10_000):
        n = rng.randrange(1, 4)
        m = _random_mat(fp, n, n, rng)
        inv = m.inv()
        nonsingular = mat_det(m) != fp.zero
        assert (inv is not None) == nonsingular
        assert (m.rank() == n) == nonsingular
        if inv is not None:
            assert m @ inv == Mat.identity(fp, n)


def test_kernel_basis():
    fp = FieldParams(3)
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = _random_mat(fp, rows, cols, rng)
        k = mat_kernel(m)
        assert m.rank() + k.cols == cols
        if k.cols:
            assert (m @ k).is_zero
            assert k.rank() == k.cols


def test_solve():
    fp = FieldParams(5)
    rng = random.Random(11)
    for _ in range(200):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = _random_mat(fp, rows, cols, rng)
        x = _random_mat(fp, cols, 1, rng)
        b = a @ x
        sol = solve(a, b)
        assert sol is not None and a @ sol == b
    # inconsistent system
    a = Mat.build(fp, [[1], [0]])
    b = Mat.build(fp, [[0], [1]])
    assert solve(a, b) is None


def _canonical(m: Mat) -> Mat:
    """The column span's canonical representative: `rcef`, zero columns dropped."""
    return Mat(m.fp, rcef(m.fp, m.a)[0])


def test_canonical_examples():
    fp = FieldParams(3)
    assert _canonical(Mat.build(fp, [[2], [0]])).encode() == "1;0"
    got = _canonical(Mat.build(fp, [[fp.s], [1]]))
    assert got.encode() == "1;0+2*s"  # scale by s^{-1} = 2s
    rng = random.Random(2)
    m = _random_mat(fp, 4, 2, rng)
    once = _canonical(m)
    assert _canonical(once) == once


def test_canonical_characterizes_line_spans_exhaustively():
    # all 80 nonzero vectors of E^2 at q = 3, grouped into the 10 lines
    fp = FieldParams(3)
    cols = [
        (a, b)
        for a in all_scalars(3)
        for b in all_scalars(3)
        if (a, b) != ((0, 0), (0, 0))
    ]
    canon = {}
    for a, b in cols:
        m = Mat.build(fp, [[a], [b]])
        canon[(a, b)] = _canonical(m).encode()
    lines = {}
    for a, b in cols:
        # same line iff the cross term vanishes
        placed = False
        for rep in lines:
            ra, rb = rep
            cross = (
                (a[0] * rb[0] + fp.eps * a[1] * rb[1] - b[0] * ra[0] - fp.eps * b[1] * ra[1]) % 3,
                (a[0] * rb[1] + a[1] * rb[0] - b[0] * ra[1] - b[1] * ra[0]) % 3,
            )
            if cross == (0, 0):
                lines[rep].append((a, b))
                placed = True
                break
        if not placed:
            lines[(a, b)] = [(a, b)]
    assert len(lines) == 10
    for rep, members in lines.items():
        forms = {canon[m] for m in members}
        assert len(forms) == 1
    assert len({canon[rep] for rep in lines}) == 10


def test_canonical_invariant_under_span_change():
    fp = FieldParams(3)
    rng = random.Random(9)
    for _ in range(100):
        m = _random_mat(fp, 4, 2, rng)
        while m.rank() != 2:
            m = _random_mat(fp, 4, 2, rng)
        g = _random_mat(fp, 2, 2, rng)
        while mat_det(g) == fp.zero:
            g = _random_mat(fp, 2, 2, rng)
        assert _canonical(m) == _canonical(m @ g)


def test_canonical_matches_oracle_on_planes():
    # spot-check the canonical form against the hand-rolled oracle
    fp = FieldParams(3)
    count = 0
    for cols in all_subspaces(3, fp.eps, 3, 2):
        canon_cols, _ = canonical_span(3, fp.eps, cols)
        m = Mat.build(fp, [[cols[c][r] for c in range(2)] for r in range(3)])
        got = _canonical(m)
        want = Mat.build(fp, [[canon_cols[c][r] for c in range(2)] for r in range(3)])
        assert got == want
        count += 1
    assert count == (3**2) ** 2 + (3**2) + 1  # plane count in dimension 3


@pytest.mark.parametrize("q", [3, 5])
def test_rank_transpose_star_invariance(q):
    fp = FieldParams(q)
    rng = random.Random(q + 1)
    for _ in range(300):
        m = _random_mat(fp, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert m.rank() == m.T.rank() == m.star().rank()


def test_rank_against_span_counting_oracle():
    fp = FieldParams(3)
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 3)
        m = _random_mat(fp, rows, cols, rng)
        col_tuples = tuple(
            tuple((int(m.a[r, c, 0]), int(m.a[r, c, 1])) for r in range(rows)) for c in range(cols)
        )
        assert m.rank() == span_size_rank(3, fp.eps, col_tuples, rows)


def test_is_rational_and_text():
    fp = FieldParams(5)
    m = Mat.build(fp, [[1, 2], [fp.s, 4]])
    assert not all(x.is_rational for x in (m[i, j] for i in range(2) for j in range(2)))
    r = Mat.build(fp, [[1, 2], [3, 4]])
    assert all(x.is_rational for x in (r[i, j] for i in range(2) for j in range(2)))
    assert parse_mat(fp, m.encode()) == m
    assert m.encode() == "1,2;0+1*s,4"


def test_block_assembly():
    fp = FieldParams(3)
    eye = Mat.identity(fp, 2)
    z = Mat.zeros(fp, 2, 2)
    j = block(fp, [[z, eye], [-eye, z]])
    assert j.shape == (4, 4)
    assert j @ j == -Mat.identity(fp, 4)


def test_block_diag_equals_block_with_zero_blocks():
    fp = FieldParams(5)
    rng = np.random.default_rng(14)
    shapes = [(2, 3), (0, 0), (1, 1), (0, 2), (3, 0), (2, 2)]
    mats = [Mat(fp, rng.integers(0, 5, size=(r, c, 2))) for r, c in shapes]
    for blocks in (mats, mats[:1], mats[1:2], [mats[1], mats[1]], mats[2:5], [mats[5], mats[1], mats[5]]):
        grid = [
            [b if i == j else Mat.zeros(fp, b.rows, c.cols) for j, c in enumerate(blocks)]
            for i, b in enumerate(blocks)
        ]
        assert block_diag(fp, *blocks) == block(fp, grid)
    assert block_diag(fp, mats[1]).shape == (0, 0)


def test_mm_writes_the_stacked_pairs_of_both_parts():
    fp = FieldParams(7)
    rng = np.random.default_rng(15)
    a, b = rng.integers(0, 7, size=(5, 3, 4, 2)), rng.integers(0, 7, size=(4, 2, 2))
    ar, ai, br, bi = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    want = np.stack([(ar @ br + fp.eps * (ai @ bi)) % 7, (ar @ bi + ai @ br) % 7], axis=-1)
    got = mm(fp, a, b)
    assert got.dtype == linalg.PAIR_DTYPE and np.array_equal(got, want)


def test_products_past_the_int32_bound_are_exact():
    # at q = 20011 (eps = 2) a sum of 4 products of pairs can reach 4 (q - 1)^2 (1 + eps) > 2^31,
    # so `mm` over an inner dimension of 4 must multiply in int64; one product per entry stays
    # below 2^31, so `scalar_mm` and the scalar `rref` stay in int32 there
    fp = FieldParams(20011)
    q, eps = fp.q, fp.eps
    assert 4 * (q - 1) ** 2 * (1 + eps) > 2**31 > (q - 1) ** 2 * (1 + eps)
    assert linalg.product_dtype(fp, 4) is np.int64 and linalg.product_dtype(fp, 1) is np.int32
    rng = np.random.default_rng(20011)
    a, b = rng.integers(0, q, size=(6, 3, 4, 2)), rng.integers(0, q, size=(4, 5, 2))
    a[0], b[:, 0] = q - 1, q - 1  # the largest sums
    for x, y in ((a, b), (a[:, :, :1], b[:1])):
        x32, y32 = x.astype(np.int32), y.astype(np.int32)
        want = [
            [[_pair_dot(q, eps, row, [col[j] for col in y]) for j in range(y.shape[1])] for row in m] for m in x
        ]
        got = mm(fp, x32, y32)
        assert got.dtype == linalg.PAIR_DTYPE and got.tolist() == [[list(map(list, r)) for r in m] for m in want]
    for dtype, exact in ((np.int32, False), (np.int64, True)):  # the real parts, multiplied unguarded
        x, y = a[0].astype(dtype), b.astype(dtype)
        re = (x[..., 0] @ y[..., 0] + eps * (x[..., 1] @ y[..., 1])) % q
        assert np.array_equal(re, mm(fp, a[0], b)[..., 0]) == exact
    c = (q - 1, q - 2)
    got = linalg.scalar_mm(fp, c, a.astype(np.int32))
    want = [[[list(pmul(q, eps, c, tuple(e))) for e in row] for row in m] for m in a.tolist()]
    assert got.dtype == linalg.PAIR_DTYPE and got.tolist() == want
    for m in [a[i] for i in range(len(a))] + [np.full((3, 4, 2), q - 1)]:
        red, pivots = rcef(fp, m.astype(np.int32))
        cols, want_pivots = canonical_span(q, eps, [[tuple(e) for e in col] for col in m.swapaxes(0, 1).tolist()])
        assert red.dtype == linalg.PAIR_DTYPE and tuple(pivots) == want_pivots
        assert red.swapaxes(0, 1).tolist() == [[list(e) for e in col] for col in cols]
    assert fp._code_tables is None  # 48 q^2 bytes: none of these routes may build them


def _pair_dot(q, eps, xs, ys):
    """sum x_k y_k over pairs, with Python integers."""
    out = (0, 0)
    for x, y in zip(xs, ys):
        out = padd(q, out, pmul(q, eps, tuple(x), tuple(y)))
    return list(out)


def _slot_arrays(value, path: str, found: dict, seen: set) -> None:
    """Every array the value reaches through tuples, dicts and instance attributes, by path;
    fields are skipped (their tables are pinned in test_field)."""
    if id(value) in seen or isinstance(value, FieldParams):
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        found[path] = value
    elif isinstance(value, (tuple, list, dict)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            _slot_arrays(v, f"{path}[{k!r}]", found, seen)
    else:
        names = list(getattr(value, "__dict__", ()))
        for cls in type(value).__mro__:
            slots = cls.__dict__.get("__slots__", ())
            names += [slots] if isinstance(slots, str) else list(slots)
        for name in names:
            if hasattr(value, name):
                _slot_arrays(getattr(value, name), f"{path}.{name}", found, seen)


# int32 row maps from their introduction (`orbits._action_table`), and F values read off squares
_INT32_NON_PAIRS = ("_cell_actions", "_m_rows", "_square_scalars")


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (23, 1)])
def test_the_cell_slot_stores_pairs_as_int32_and_keys_counts_rows_as_int64(q, n):
    # every (re, im) array the checks leave in the cell slot is int32, and every key, count and
    # row array int64 (or intp), so a later change cannot fall back to either silently
    for check in _CHECKS:
        run_check(check, q, n, DEFAULT_CAP_GROUP, DEFAULT_CAP_POINTS)
    found, seen = {}, set()
    for entry, value in symplectic._slot.items():
        if entry != "cell":
            _slot_arrays(value, f"{entry[0].__name__}{entry[1:]}", found, seen)
    pairs = {p for p, a in found.items() if a.ndim >= 3 and a.shape[-1] == 2}
    assert any(p.startswith("_point_table") for p in pairs) and any(p.startswith("_enumerated") for p in pairs)
    for path, arr in found.items():
        if path in pairs or path.startswith(_INT32_NON_PAIRS):
            assert arr.dtype == linalg.PAIR_DTYPE == np.int32, path
        elif arr.dtype.kind != "b":
            assert arr.dtype in (np.int64, np.intp) or arr.dtype.kind == "S", path
    assert any(p.endswith(".keys") for p in found) and any(p.endswith(".h_rank") for p in found)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=50)
def test_star_is_antihomomorphism(a, b, c, d):
    fp = FieldParams(3)
    m1 = Mat.build(fp, [[fp.e(a, b), 1], [0, fp.e(c, d)]])
    m2 = Mat.build(fp, [[1, fp.e(c, a)], [fp.e(d, b), 2]])
    assert (m1 @ m2).star() == m2.star() @ m1.star()


# -- the stacked kernel against the scalar one ---------------------------------

def _assert_stack_matches_scalar(fp, stack):
    red, ranks = rref_stack(fp, stack)
    cred, cranks = rcef_stack(fp, stack)
    assert red.dtype == cred.dtype == linalg.PAIR_DTYPE
    for i, a in enumerate(stack):
        want, pivots = rref(fp, a)
        assert ranks[i] == len(pivots)
        assert red[i].tobytes() == want.tobytes()
        want, pivots = rcef(fp, a)
        r = len(pivots)
        assert cranks[i] == r
        assert cred[i][:, :r].tobytes() == np.ascontiguousarray(want).tobytes()
        assert not cred[i][:, r:].any()


@st.composite
def _stacks(draw):
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 23]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    size = draw(st.integers(0, 6))
    entries = st.integers(0, q - 1)
    flat = draw(st.lists(entries, min_size=size * rows * cols * 2, max_size=size * rows * cols * 2))
    stack = np.array(flat, dtype=np.int64).reshape(size, rows, cols, 2)
    # zero out whole rows or columns in some matrices to force rank deficiency
    for i in range(size):
        if rows and draw(st.booleans()):
            stack[i, draw(st.integers(0, rows - 1))] = 0
        if cols and draw(st.booleans()):
            stack[i, :, draw(st.integers(0, cols - 1))] = 0
    return FieldParams(q), stack


@given(_stacks())
@settings(max_examples=300, deadline=None)
def test_stacked_kernel_matches_scalar_on_random_stacks(case):
    fp, stack = case
    _assert_stack_matches_scalar(fp, stack)


@st.composite
def _square_stacks(draw):
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 23]))
    m, size = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    flat = draw(st.lists(st.integers(0, q - 1), min_size=size * m * m * 2, max_size=size * m * m * 2))
    stack = np.array(flat, dtype=np.int64).reshape(size, m, m, 2)
    # zero the top of the first column in some matrices, so their pivots need row swaps
    for i in range(size):
        if m and draw(st.booleans()):
            stack[i, : draw(st.integers(1, m)), 0] = 0
    return FieldParams(q), stack


@given(_square_stacks())
@settings(max_examples=300, deadline=None)
def test_det_stack_matches_det_arr_on_random_stacks(case):
    fp, stack = case
    assert det_stack(fp, stack).tolist() == [list(det_arr(fp, a)) for a in stack]


@pytest.mark.parametrize("q", [3, 5, 7, 23, 1009])
def test_stacked_kernel_edge_shapes(q):
    fp = FieldParams(q)
    rng = np.random.default_rng(q)
    for rows, cols in [(4, 2), (2, 4), (1, 6), (6, 1), (3, 3)]:
        stack = rng.integers(0, q, size=(40, rows, cols, 2))
        stack[:5] = 0  # zero matrices
        stack[5:10, :, -1] = stack[5:10, :, 0]  # repeated column: rank-deficient
        stack[10:15, 0] = 0  # zero first row
        stack[15:20] = rng.integers(0, q, size=(5, rows, 1, 1)) * (np.arange(2) == 0)  # rational rank one
        _assert_stack_matches_scalar(fp, stack)
        if rows == cols:
            assert det_stack(fp, stack).tolist() == [list(det_arr(fp, a)) for a in stack]
    # a stack longer than one pass of the column loop, with mixed ranks
    stack = rng.integers(0, q, size=(700, 3, 3, 2)) * (rng.random((700, 3, 1, 1)) < 0.7)
    _assert_stack_matches_scalar(fp, stack)
    # leading axes are kept; a stack of none is fine
    stack = rng.integers(0, q, size=(3, 4, 4, 2, 2))
    red, ranks = rcef_stack(fp, stack)
    assert red.shape == stack.shape and ranks.shape == (3, 4)
    red, ranks = rref_stack(fp, np.zeros((0, 3, 2, 2), dtype=np.int64))
    assert red.shape == (0, 3, 2, 2) and ranks.shape == (0,)


def test_a_cells_space_and_rational_generators_build_no_code_tables(fresh_cell):
    """The stacked elimination builds its field's tables on first use: a cell's space and its
    spf generators must not pay for them, not even at q = 20011, where they would take 19 GB.
    (sp0's generators do, through M, whose square roots read the log table.)"""
    for q, n in [(3, 2), (23, 1), (7, 2), (20011, 1)]:
        sp = make_space(q, n)
        generators(sp, TAG_SP_F)
        assert sp.fp._code_tables is None, (q, n)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 1)])
def test_stacked_kernel_matches_scalar_on_all_generator_images(q, n):
    sp = make_space(q, n)
    bases = np.stack([w.basis.a for w in enumerate_lagrangians(q, n)])
    for tag in TAGS:
        mats = np.stack([g.mat.a for g in generators(sp, tag)])
        images = mm(sp.fp, mats[None], bases[:, None])
        red, ranks = rcef_stack(sp.fp, images)
        assert np.all(ranks == n)
        for f in range(len(bases)):
            for g in range(len(mats)):
                want, _ = rcef(sp.fp, images[f, g])
                assert red[f, g].tobytes() == np.ascontiguousarray(want).tobytes()


# -- the stacked null space against the scalar one ------------------------------

def _assert_kernel_stack_matches_scalar(fp, stack):
    num, m, k = stack.shape[:3]
    ker = kernel_stack(fp, stack)
    assert ker.shape == (num, k, k, 2) and ker.dtype == linalg.PAIR_DTYPE
    assert not mm(fp, stack, ker).any()  # annihilates a
    for i, a in enumerate(stack):
        nullity = k - len(rref(fp, a)[1])
        nonzero = ker[i].any(axis=(0, 2))
        assert nonzero.tolist() == [True] * nullity + [False] * (k - nullity)
        got, want = rcef(fp, ker[i])[0], rcef(fp, kernel_arr(fp, a))[0]
        assert got.shape == want.shape and np.array_equal(got, want)  # same span


@given(_stacks())
@settings(max_examples=300, deadline=None)
def test_kernel_stack_matches_scalar_on_random_stacks(case):
    fp, stack = case
    _assert_kernel_stack_matches_scalar(fp, stack)


@pytest.mark.parametrize("q", [3, 5, 7, 23])
def test_kernel_stack_zero_full_rank_wide_and_tall(q):
    fp = FieldParams(q)
    rng = np.random.default_rng(q)
    for m, k in [(4, 2), (2, 4), (1, 6), (6, 1), (3, 3), (0, 3), (3, 0)]:
        _assert_kernel_stack_matches_scalar(fp, np.zeros((5, m, k, 2), dtype=np.int64))
        stack = rng.integers(0, q, size=(40, m, k, 2))
        r = min(m, k)
        stack[:20, :r, :r] = 0  # identity block in the corner: full rank min(m, k)
        stack[:20, np.arange(r), np.arange(r), 0] = 1
        _assert_kernel_stack_matches_scalar(fp, stack)
    # a stack longer than one pass of the column loop, with mixed ranks
    stack = rng.integers(0, q, size=(700, 3, 4, 2)) * (rng.random((700, 3, 1, 1)) < 0.6)
    _assert_kernel_stack_matches_scalar(fp, stack)


def test_stack_keys_and_lookup_rows_full_and_empty():
    fp = FieldParams(5)
    rng = np.random.default_rng(11)
    stack = rng.integers(0, 5, (30, 3, 2, 2))
    keys = stack_keys(stack, 5)
    # the entries in memory order are the base-5 digits, the first most significant
    assert keys.tolist() == [int("".join(map(str, m.ravel().tolist())), 5) for m in stack]
    order = np.argsort(keys)
    assert [entry_bytes(Mat(fp, m).a) for m in stack[order]] == sorted(entry_bytes(Mat(fp, m).a) for m in stack)
    found = lookup_rows(keys[order], keys)
    assert np.array_equal(stack[order][found], stack)
    have = {entry_bytes(Mat(fp, m).a) for m in stack}
    absent = np.array([m for m in rng.integers(0, 5, (40, 3, 2, 2)) if entry_bytes(Mat(fp, m).a) not in have][:4])
    assert lookup_rows(keys[order], stack_keys(absent, 5)).tolist() == [-1] * 4
    # an empty stack has empty keys; no probe is found among empty keys
    empty = stack[:0]
    assert stack_keys(empty, 5).shape == (0,)
    assert lookup_rows(keys, stack_keys(empty, 5)).shape == (0,)
    assert lookup_rows(stack_keys(empty, 5), keys).tolist() == [-1] * len(stack)


@pytest.mark.parametrize("q,shape", [(5, (3, 2, 2)), (5, (4, 4, 2))])  # one int64 word, then wide codes
def test_stack_keys_by_blocks_equal_the_keys_of_one_block(monkeypatch, q, shape):
    stack = np.random.default_rng(q).integers(0, q, (300,) + shape).astype(np.int32)
    whole = stack_keys(stack, q)  # 300 rows: one block of the default size
    monkeypatch.setattr(linalg, "_STACK_CHUNK", 7)  # 43 blocks, the last one short
    assert np.array_equal(stack_keys(stack, q), whole)
    assert np.array_equal(stack_keys(stack[::2, 1:], q), stack_keys(np.ascontiguousarray(stack[::2, 1:]), q))


def _byte_keys(stack: np.ndarray) -> np.ndarray:
    """`entry_bytes` (`Mat.key`) of each array of a stack, as one `S` array."""
    flat = np.ascontiguousarray(stack, dtype=">i8").reshape(len(stack), -1)
    return flat.view(f"S{8 * flat.shape[1]}").ravel()


def _default_cap_cells(count, cap):
    return [(q, n) for n in (1, 2, 3) for q in range(3, 200) if _is_prime(q) and count(q, n) <= cap]


def test_codes_order_every_default_cap_table_as_its_byte_keys():
    """Every point and group table the default caps admit is sorted, strictly, both by its
    codes and by its `Mat.key` bytes: the two orders agree on it."""
    tables = [
        (q, enumerate_lagrangians(q, n, DEFAULT_CAP_POINTS).bases)
        for q, n in _default_cap_cells(lagrangian_count, DEFAULT_CAP_POINTS)
    ]
    groups = _default_cap_cells(lambda q, n: group_order(TAG_SP_F, q, n), DEFAULT_CAP_GROUP)
    assert len(tables) == 35 and len(groups) == 14  # n = 1 to q = 139 and to q = 43; (3,2), and (5,2)'s points
    tables += [
        (q, enumerate_symplectic(make_space(q, n), tag, DEFAULT_CAP_GROUP).arr)
        for q, n in groups
        for tag in (TAG_SP_F, TAG_SP_0)
    ]
    for q, stack in tables:
        codes, keys = stack_keys(stack, q), _byte_keys(stack)
        assert codes.dtype == np.int64
        assert np.all(codes[1:] > codes[:-1]) and np.all(keys[1:] > keys[:-1])


@pytest.mark.parametrize("q,shape", [(5, (4, 4, 2)), (17, (4, 2, 2))])
def test_wide_codes_sort_and_look_up_as_the_byte_keys(q, shape):
    """Past 2^63 a code is big-endian words of packed digits: it sorts and looks up as `Mat.key`."""
    rng = np.random.default_rng(q)
    stack = rng.integers(0, q, (300,) + shape)
    stack[1::3] = stack[::3]  # repeated arrays
    stack[2::3, :2] = stack[::3, :2]  # arrays that share their first rows
    codes = stack_keys(stack, q)
    assert codes.dtype.kind == "S" and q ** int(np.prod(shape)) >= 2**63
    order = np.argsort(codes, kind="stable")
    assert np.array_equal(order, np.argsort(_byte_keys(stack), kind="stable"))
    keys = np.unique(codes, return_index=True)[0]
    assert np.array_equal(keys[lookup_rows(keys, codes)], codes)
    absent = rng.integers(0, q, (20,) + shape)
    absent = absent[~np.isin(_byte_keys(absent), _byte_keys(stack))]
    assert len(absent) and np.all(lookup_rows(keys, stack_keys(absent, q)) == -1)


def _byte_keyings(tree) -> list[str]:
    """The function around each `.tobytes()` call and each `S` dtype of a view, cast or array."""
    found = []

    def s_dtype(node) -> bool:
        if isinstance(node, ast.JoinedStr) and node.values:
            node = node.values[0]
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value[:1] == "S"

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            attr = getattr(node.func, "attr", None)
            dtypes = node.args if attr in ("view", "astype") else []
            dtypes = dtypes + [k.value for k in node.keywords if k.arg == "dtype"]
            if attr == "tobytes" or any(s_dtype(d) for d in dtypes):
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_linalg_keys_a_stack_by_bytes():
    """Tables key their rows by `stack_keys` codes, and the API's byte keys (`Mat.key`,
    `Lagrangian.key`, and the oracles' member keys and transporter words) are `entry_bytes`:
    no module but `linalg` makes bytes of an array."""
    found = sorted(
        (path.name, owner)
        for path in Path(linalg.__file__).parent.glob("*.py")
        if path.name != "linalg.py"
        for owner in _byte_keyings(ast.parse(path.read_text()))
    )
    assert found == []
    assert "stack_keys" in _byte_keyings(ast.parse(Path(linalg.__file__).read_text()))  # the scan sees views


def _callers(name: str) -> list[str]:
    """The `src/fsiegel` modules that call `name`, once per call."""
    return sorted(
        path.name
        for path in Path(linalg.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_only_involutions_calls_det_stack():
    """Determinants are computed only where a report reads them; a test against zero is a rank."""
    assert _callers("det_stack") == ["involutions.py"]


def test_only_linalg_calls_sorted_stack():
    """One owner sorts a table's rows: `RowTable`, which the point and group tables extend."""
    assert _callers("sorted_stack") == ["linalg.py"]
    assert issubclass(PointTable, RowTable) and issubclass(EnumeratedGroup, RowTable)


@pytest.mark.parametrize(
    "build",
    [
        lambda: enumerate_lagrangians(3, 2),
        lambda: enumerate_symplectic(make_space(5, 1), TAG_SP_0, DEFAULT_CAP_GROUP),
        lambda: RowTable(np.random.default_rng(3).integers(0, 3, (50, 2, 3, 2)), 3),
    ],
    ids=["points", "sp0", "plain"],
)
def test_a_table_finds_its_rows_and_keeps_them_in_a_sub_table(build):
    table = build()
    assert np.array_equal(table.rows(table.arr), np.arange(len(table)))
    assert np.all(table.keys[1:] > table.keys[:-1]) and np.array_equal(table.keys, stack_keys(table.arr, table.q))
    twos = np.full((1,) + table.arr.shape[1:], 2)  # rank 1: no point, no group element, none of the 50 drawn
    assert table.rows(twos).tolist() == [-1]
    tables = [table]
    assert hasattr(table, "where") == isinstance(table, EnumeratedGroup)  # only a group table has sub-tables
    if isinstance(table, EnumeratedGroup):
        mask = np.random.default_rng(7).random(len(table)) < 0.3
        sub = table.where(mask)
        assert type(sub) is type(table) and len(sub) == np.count_nonzero(mask)
        assert np.array_equal(sub.arr, table.arr[mask]) and np.array_equal(sub.keys, table.keys[mask])
        assert np.array_equal(sub.rows(table.arr), np.where(mask, np.cumsum(mask) - 1, -1))
        tables.append(sub)
    for t in tables:
        for arr in (t.arr, t.keys):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]
