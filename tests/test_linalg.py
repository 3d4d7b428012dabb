import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsiegel.errors import ShapeError
from fsiegel.field import make_fields
from fsiegel.lagrangian import enumerate_lagrangians
from fsiegel.linalg import (
    Mat,
    block,
    column_echelon_canonical,
    kernel_arr,
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
from fsiegel.symplectic import TAGS, generators, make_space

from oracles import (
    all_scalars,
    all_subspaces,
    canonical_span,
    det_by_permutations,
    span_size_rank,
)


def _random_mat(fp, rows, cols, rng):
    return Mat(
        fp,
        [[(rng.randrange(fp.q), rng.randrange(fp.q)) for _ in range(cols)] for _ in range(rows)],
    )


def test_ring_op_examples():
    fp = make_fields(3)
    eye = Mat.identity(fp, 2)
    assert eye.star() == eye
    assert Mat.build(fp, [[fp.s]]).star() == Mat.build(fp, [[-fp.s]])
    rng = random.Random(0)
    m = _random_mat(fp, 3, 4, rng)
    assert m.T.T == m


def test_shape_errors():
    fp = make_fields(3)
    with pytest.raises(ShapeError):
        Mat.identity(fp, 2) @ Mat.identity(fp, 3)
    with pytest.raises(ShapeError):
        Mat.identity(fp, 2) + Mat.zeros(fp, 2, 3)
    with pytest.raises(ShapeError):
        Mat.zeros(fp, 2, 3).det()
    with pytest.raises(ShapeError):
        Mat.zeros(fp, 2, 3).inv()


def test_det_examples():
    fp = make_fields(3)
    assert Mat.identity(fp, 3).det() == fp.one
    m = Mat.build(fp, [[fp.s, 1], [1, fp.s]])
    assert m.det() == fp.one  # s^2 - 1 = 2 - 1
    assert Mat.build(fp, [[0], [0]]).rank() == 0


@pytest.mark.parametrize("q", [3, 5])
def test_det_against_permutation_expansion(q):
    fp = make_fields(q)
    rng = random.Random(q)
    for _ in range(200):
        n = rng.randrange(1, 4)
        m = _random_mat(fp, n, n, rng)
        rows = tuple(
            tuple((int(m.a[i, j, 0]), int(m.a[i, j, 1])) for j in range(n)) for i in range(n)
        )
        d = det_by_permutations(q, fp.eps, rows)
        assert (m.det().re, m.det().im) == d


@pytest.mark.parametrize("q", [3, 5, 7])
def test_inverse_det_rank_agree_on_random_matrices(q):
    fp = make_fields(q)
    rng = random.Random(17 * q)
    for _ in range(10_000):
        n = rng.randrange(1, 4)
        m = _random_mat(fp, n, n, rng)
        inv = m.inv()
        nonsingular = m.det() != fp.zero
        assert (inv is not None) == nonsingular
        assert (m.rank() == n) == nonsingular
        if inv is not None:
            assert m @ inv == Mat.identity(fp, n)


def test_kernel_basis():
    fp = make_fields(3)
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = _random_mat(fp, rows, cols, rng)
        k = m.kernel()
        assert m.rank() + k.cols == cols
        if k.cols:
            assert (m @ k).is_zero
            assert k.rank() == k.cols


def test_solve():
    fp = make_fields(5)
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


def test_canonical_examples():
    fp = make_fields(3)
    assert column_echelon_canonical(Mat.build(fp, [[2], [0]])).encode() == "1;0"
    got = column_echelon_canonical(Mat.build(fp, [[fp.s], [1]]))
    assert got.encode() == "1;0+2*s"  # scale by s^{-1} = 2s
    rng = random.Random(2)
    m = _random_mat(fp, 4, 2, rng)
    once = column_echelon_canonical(m)
    assert column_echelon_canonical(once) == once


def test_canonical_characterizes_line_spans_exhaustively():
    # all 80 nonzero vectors of E^2 at q = 3, grouped into the 10 lines
    fp = make_fields(3)
    cols = [
        (a, b)
        for a in all_scalars(3)
        for b in all_scalars(3)
        if (a, b) != ((0, 0), (0, 0))
    ]
    canon = {}
    for a, b in cols:
        m = Mat.build(fp, [[a], [b]])
        canon[(a, b)] = column_echelon_canonical(m).encode()
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
    fp = make_fields(3)
    rng = random.Random(9)
    for _ in range(100):
        m = _random_mat(fp, 4, 2, rng)
        while m.rank() != 2:
            m = _random_mat(fp, 4, 2, rng)
        g = _random_mat(fp, 2, 2, rng)
        while g.det() == fp.zero:
            g = _random_mat(fp, 2, 2, rng)
        assert column_echelon_canonical(m) == column_echelon_canonical(m @ g)


def test_canonical_matches_oracle_on_planes():
    # spot-check the canonical form against the hand-rolled oracle
    fp = make_fields(3)
    count = 0
    for cols in all_subspaces(3, fp.eps, 3, 2):
        canon_cols, _ = canonical_span(3, fp.eps, cols)
        m = Mat.build(fp, [[cols[c][r] for c in range(2)] for r in range(3)])
        got = column_echelon_canonical(m)
        want = Mat.build(fp, [[canon_cols[c][r] for c in range(2)] for r in range(3)])
        assert got == want
        count += 1
    assert count == (3**2) ** 2 + (3**2) + 1  # plane count in dimension 3


@pytest.mark.parametrize("q", [3, 5])
def test_rank_transpose_star_invariance(q):
    fp = make_fields(q)
    rng = random.Random(q + 1)
    for _ in range(300):
        m = _random_mat(fp, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert m.rank() == m.T.rank() == m.star().rank()


def test_rank_against_span_counting_oracle():
    fp = make_fields(3)
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 3)
        m = _random_mat(fp, rows, cols, rng)
        col_tuples = tuple(
            tuple((int(m.a[r, c, 0]), int(m.a[r, c, 1])) for r in range(rows)) for c in range(cols)
        )
        assert m.rank() == span_size_rank(3, fp.eps, col_tuples, rows)


def test_is_rational_and_text():
    fp = make_fields(5)
    m = Mat.build(fp, [[1, 2], [fp.s, 4]])
    assert not m.is_rational
    assert Mat.build(fp, [[1, 2], [3, 4]]).is_rational
    assert Mat.parse(fp, m.encode()) == m
    assert m.encode() == "1,2;0+1*s,4"


def test_block_assembly():
    fp = make_fields(3)
    eye = Mat.identity(fp, 2)
    z = Mat.zeros(fp, 2, 2)
    j = block(fp, [[z, eye], [-eye, z]])
    assert j.shape == (4, 4)
    assert j @ j == -Mat.identity(fp, 4)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=50)
def test_star_is_antihomomorphism(a, b, c, d):
    fp = make_fields(3)
    m1 = Mat.build(fp, [[fp.e(a, b), 1], [0, fp.e(c, d)]])
    m2 = Mat.build(fp, [[1, fp.e(c, a)], [fp.e(d, b), 2]])
    assert (m1 @ m2).star() == m2.star() @ m1.star()


# -- the stacked kernel against the scalar one ---------------------------------

def _assert_stack_matches_scalar(fp, stack):
    red, ranks = rref_stack(fp, stack)
    cred, cranks = rcef_stack(fp, stack)
    assert red.dtype == cred.dtype == np.int64
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
    q = draw(st.sampled_from([3, 5, 7, 23]))
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
    return make_fields(q), stack


@given(_stacks())
@settings(max_examples=300, deadline=None)
def test_stacked_kernel_matches_scalar_on_random_stacks(case):
    fp, stack = case
    _assert_stack_matches_scalar(fp, stack)


@pytest.mark.parametrize("q", [3, 5, 7, 23])
def test_stacked_kernel_edge_shapes(q):
    fp = make_fields(q)
    rng = np.random.default_rng(q)
    for rows, cols in [(4, 2), (2, 4), (1, 6), (6, 1), (3, 3)]:
        stack = rng.integers(0, q, size=(40, rows, cols, 2))
        stack[:5] = 0  # zero matrices
        stack[5:10, :, -1] = stack[5:10, :, 0]  # repeated column: rank-deficient
        stack[10:15, 0] = 0  # zero first row
        stack[15:20] = rng.integers(0, q, size=(5, rows, 1, 1)) * (np.arange(2) == 0)  # rational rank one
        _assert_stack_matches_scalar(fp, stack)
    # a stack longer than one pass of the column loop, with mixed ranks
    stack = rng.integers(0, q, size=(700, 3, 3, 2)) * (rng.random((700, 3, 1, 1)) < 0.7)
    _assert_stack_matches_scalar(fp, stack)
    # leading axes are kept; a stack of none is fine
    stack = rng.integers(0, q, size=(3, 4, 4, 2, 2))
    red, ranks = rcef_stack(fp, stack)
    assert red.shape == stack.shape and ranks.shape == (3, 4)
    red, ranks = rref_stack(fp, np.zeros((0, 3, 2, 2), dtype=np.int64))
    assert red.shape == (0, 3, 2, 2) and ranks.shape == (0,)


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
    assert ker.shape == (num, k, k, 2) and ker.dtype == np.int64
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
    fp = make_fields(q)
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
    fp = make_fields(5)
    stack = np.random.default_rng(11).integers(0, 5, (30, 3, 2, 2))
    keys = stack_keys(stack)
    assert np.array_equal(keys, np.array([Mat(fp, m).key() for m in stack], dtype=keys.dtype))
    order = np.argsort(keys)
    assert [Mat(fp, m).key() for m in stack[order]] == sorted(Mat(fp, m).key() for m in stack)
    found = lookup_rows(keys[order], stack)
    assert np.array_equal(stack[order][found], stack)
    absent = stack[:4].copy()
    absent[:, 0, 0, 0] = 9  # no entry of the stack is 9
    assert lookup_rows(keys[order], absent).tolist() == [-1] * 4
    # an empty stack has empty keys; no probe is found among empty keys
    empty = stack[:0]
    assert stack_keys(empty).shape == (0,)
    assert lookup_rows(keys, empty).shape == (0,)
    assert lookup_rows(stack_keys(empty), stack).tolist() == [-1] * len(stack)
