import random

import numpy as np
import pytest

from fsiegel.errors import ParameterError, ResourceLimitError, ShapeError
from fsiegel.linalg import Mat, mm
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    enumerate_symplectic,
    frontier_closure,
    generators,
    group_element,
    group_order,
    h_0,
    h_e,
    is_member,
    make_space,
    omega,
    permutation_embed,
)


def _random_mat(fp, n, rng):
    return Mat(fp, [[(rng.randrange(fp.q), rng.randrange(fp.q)) for _ in range(n)] for _ in range(n)])


def _random_vec(sp, rng):
    fp = sp.fp
    return Mat(fp, [[(rng.randrange(fp.q), rng.randrange(fp.q))] for _ in range(sp.dim)])


def test_form_values_on_basis():
    sp = make_space(3, 2)
    e = sp.e_vec
    n = sp.n
    assert omega(sp, e(0), e(n)) == sp.fp.one
    assert omega(sp, e(n), e(0)) == -sp.fp.one
    assert omega(sp, e(0), e(1)) == sp.fp.zero
    assert h_0(sp, e(0), e(0)) == -sp.fp.one
    assert h_0(sp, e(n), e(n)) == sp.fp.one
    assert h_0(sp, e(0), e(1)) == sp.fp.zero


def test_form_shape_errors():
    sp = make_space(3, 1)
    bad = Mat.zeros(sp.fp, 3, 1)
    with pytest.raises(ShapeError):
        omega(sp, bad, bad)


def test_j_squares_to_minus_identity():
    for q, n in [(3, 1), (3, 2), (5, 1)]:
        sp = make_space(q, n)
        assert sp.j @ sp.j == -sp.identity


def test_membership_examples():
    sp = make_space(3, 1)
    fp = sp.fp
    assert all(is_member(sp, sp.identity, tag) for tag in (TAG_SP_E, TAG_SP_F, TAG_SP_0))
    assert is_member(sp, sp.j, TAG_SP_F)
    assert not is_member(sp, sp.j, TAG_SP_0)
    g = Mat.build(fp, [[fp.s, 0], [0, -fp.s]])
    assert is_member(sp, g, TAG_SP_0)


def test_membership_wrong_size():
    sp = make_space(3, 1)
    with pytest.raises(ShapeError):
        is_member(sp, Mat.identity(sp.fp, 3), TAG_SP_E)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_membership_routes_agree_on_random_matrices(q, n):
    # mostly negatives; both evaluation routes run inside is_member and
    # raise on disagreement
    sp = make_space(q, n)
    rng = random.Random(q * 100 + n)
    for _ in range(2500):
        g = _random_mat(sp.fp, sp.dim, rng)
        for tag in (TAG_SP_E, TAG_SP_F, TAG_SP_0):
            is_member(sp, g, tag)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2)])
def test_membership_routes_agree_on_full_groups(q, n):
    sp = make_space(q, n)
    for tag in (TAG_SP_F, TAG_SP_0):
        grp = enumerate_symplectic(sp, tag, 10**5)
        for g in grp:
            assert is_member(sp, g.mat, tag)


@pytest.mark.parametrize("tag", [TAG_SP_F, TAG_SP_0])
def test_group_table_rows_are_sorted_elements(tag):
    sp = make_space(5, 1)
    table = enumerate_symplectic(sp, tag, 10**5)
    elements = list(table)
    keys = [g.mat.key() for g in elements]
    assert len(table) == len(set(keys)) == group_order(tag, 5, 1)
    assert keys == sorted(keys) and all(g.tag == tag for g in elements)
    assert np.array_equal(table.keys, np.array(keys, dtype=table.keys.dtype))
    assert np.array_equal(table.rows(table.arr), np.arange(len(table)))
    # 2I scales the form by 4, and 4 != 1 mod 5
    assert table.rows((2 * sp.identity).a[None]).tolist() == [-1]
    with pytest.raises(ValueError):
        table.arr[0, 0, 0, 0] = 1  # the cached table is read-only
    mask = np.random.default_rng(5).random(len(table)) < 0.3
    sub = table.where(mask)
    assert sub.tag == tag and np.array_equal(sub.arr, table.arr[mask])
    assert [g.mat.key() for g in sub] == [k for k, kept in zip(keys, mask) if kept]
    assert np.array_equal(sub.rows(table.arr[mask]), np.arange(len(sub)))


def test_generator_closure_sizes():
    sp = make_space(3, 1)
    gens = generators(sp, TAG_SP_F)
    assert len(gens) == 2
    assert gens[0].mat == Mat.build(sp.fp, [[1, 1], [0, 1]])
    assert gens[1].mat == Mat.build(sp.fp, [[1, 0], [1, 1]])
    assert len(enumerate_symplectic(sp, TAG_SP_F, 100)) == 24
    assert len(enumerate_symplectic(make_space(5, 1), TAG_SP_F, 10**4)) == 120
    assert len(enumerate_symplectic(make_space(3, 2), TAG_SP_F, 10**5)) == 51840


def test_every_generator_is_validated_member():
    for q, n in [(3, 1), (3, 2), (5, 1)]:
        sp = make_space(q, n)
        for tag in (TAG_SP_E, TAG_SP_F, TAG_SP_0):
            for g in generators(sp, tag):
                assert is_member(sp, g.mat, tag)


def test_group_order_formula():
    assert group_order(TAG_SP_F, 3, 1) == 24
    assert group_order(TAG_SP_F, 3, 2) == 51840
    assert group_order(TAG_SP_F, 5, 1) == 120
    assert group_order(TAG_SP_0, 5, 2) == 9_360_000
    assert group_order(TAG_SP_E, 3, 1) == 720


def test_frontier_closure_basics():
    sp = make_space(3, 1)
    eye = sp.identity.a

    def step(mats):
        return lambda frontier: mm(sp.fp, frontier[:, None], mats[None])

    members, parent, via = frontier_closure(eye, step(eye[None]), cap=10)
    assert len(members) == 1 and np.array_equal(members[0], eye)
    assert parent.tolist() == via.tolist() == [-1]
    gens = np.stack([g.mat.a for g in generators(sp, TAG_SP_F)])
    with pytest.raises(ResourceLimitError, match="closure exceeds cap 10"):
        frontier_closure(eye, step(gens), cap=10)


def test_enumeration_cap_precheck():
    sp = make_space(5, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_symplectic(sp, TAG_SP_F, 10**6)  # order 9,360,000


def test_sp_e_closure_order():
    sp = make_space(3, 1)
    assert len(enumerate_symplectic(sp, TAG_SP_E, 10**4)) == 720


def test_permutation_embed():
    sp = make_space(3, 1)  # n = 1: only the identity permutation
    g = permutation_embed(sp, Mat.identity(sp.fp, 1))
    assert g.mat == sp.identity

    sp2 = make_space(3, 2)
    swap = Mat.build(sp2.fp, [[0, 1], [1, 0]])
    g2 = permutation_embed(sp2, swap)
    assert is_member(sp2, g2.mat, TAG_SP_F)
    assert is_member(sp2, g2.mat, TAG_SP_0)

    sp3 = make_space(3, 3)
    cyc = Mat.build(sp3.fp, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    g3 = permutation_embed(sp3, cyc)
    assert is_member(sp3, g3.mat, TAG_SP_F)
    assert is_member(sp3, g3.mat, TAG_SP_0)

    with pytest.raises(ParameterError):
        permutation_embed(sp2, Mat.build(sp2.fp, [[1, 1], [0, 1]]))


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_form_preservation_randomized(q, n):
    sp = make_space(q, n)
    rng = random.Random(1000 + q * 10 + n)
    gens = {tag: generators(sp, tag) for tag in (TAG_SP_E, TAG_SP_F, TAG_SP_0)}
    for _ in range(1000):
        v, w = _random_vec(sp, rng), _random_vec(sp, rng)
        for tag, gg in gens.items():
            g = gg[rng.randrange(len(gg))]
            gv, gw = g.mat @ v, g.mat @ w
            assert omega(sp, gv, gw) == omega(sp, v, w)
            if tag == TAG_SP_0:
                assert h_0(sp, gv, gw) == h_0(sp, v, w)
            if tag == TAG_SP_F:
                assert h_e(sp, gv, gw) == h_e(sp, v, w)


def test_h_e_preserved_by_full_rational_group_exhaustively():
    sp = make_space(3, 1)
    fp = sp.fp
    vecs = [Mat(fp, [[(a, b)], [(c, d)]]) for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
    group = enumerate_symplectic(sp, TAG_SP_F, 100)
    rng = random.Random(3)
    pick = [vecs[rng.randrange(len(vecs))] for _ in range(20)]
    for g in group:
        for v in pick:
            for w in pick:
                assert h_e(sp, g.mat @ v, g.mat @ w) == h_e(sp, v, w)


def test_anti_hermitian_law():
    sp = make_space(5, 2)
    rng = random.Random(4)
    for _ in range(300):
        v, w = _random_vec(sp, rng), _random_vec(sp, rng)
        assert h_e(sp, w, v) == -(h_e(sp, v, w).conj())
        assert h_0(sp, w, v) == h_0(sp, v, w).conj()


def test_group_element_ops():
    sp = make_space(3, 1)
    gens = generators(sp, TAG_SP_F)
    g = gens[0] * gens[1]
    assert is_member(sp, g.mat, TAG_SP_F)
    assert (g * g.inverse()).mat == sp.identity
    with pytest.raises(ParameterError):
        group_element(sp, sp.j, TAG_SP_0)
