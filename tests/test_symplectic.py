import ast
import gc
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from fsiegel import symplectic
from fsiegel.cayley import cayley
from fsiegel.checks import run_check
from fsiegel.cli import strip_volatile
from fsiegel.errors import ParameterError, ResourceLimitError, ShapeError
from fsiegel.lagrangian import enumerate_lagrangians
from fsiegel.linalg import PAIR_DTYPE, Mat, conj_arr, mm, stack_keys
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    TAGS,
    _generator_stack,
    _generator_stacks,
    enumerate_symplectic,
    frontier_closure,
    generators,
    group_element,
    group_order,
    h_0,
    h_e,
    is_member,
    make_space,
    members,
    omega,
    permutation_embed,
    v_k_orbit_size,
)

from oracles import frontier_closure_by_rows, generators_by_blocks, is_member_by_mats


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
    # mostly negatives; both evaluation routes run inside members and
    # raise on disagreement
    sp = make_space(q, n)
    stack = np.random.default_rng(q * 100 + n).integers(0, q, (2500, sp.dim, sp.dim, 2))
    for tag in TAGS:
        assert members(sp, stack, tag).shape == (2500,)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2)])
def test_membership_routes_agree_on_full_groups(q, n):
    sp = make_space(q, n)
    for tag in (TAG_SP_F, TAG_SP_0):
        assert members(sp, enumerate_symplectic(sp, tag, 10**5).arr, tag).all()


def _words(sp, tag, count, rng):
    """`count` products of six generators of the tagged group, as a stack."""
    gens = _generator_stack(sp, generators(sp, tag))
    out = np.broadcast_to(sp.identity.a, (count,) + sp.identity.a.shape)
    for _ in range(6):
        out = mm(sp.fp, out, gens[rng.integers(0, len(gens), count)])
    return out


def _near_members(sp, g, rng):
    """The members g of a group, then matrices that break about one of its block conditions:
    g under (I, B; 0, I), (I, 0; C, I) and diag(x I, y I), for random B, C and scalars
    x, y (of norm one half the time), and g with its off-diagonal blocks b, c replaced
    by b w and conj(b w), for a diagonal w with entries of norm one."""
    fp, n, q = sp.fp, sp.n, sp.q
    count = len(g)
    eye = np.broadcast_to(Mat.identity(fp, n).a, (count, n, n, 2))
    zero = np.zeros_like(eye)
    circle = [(x.re, x.im) for x in fp.elements() if x.norm() == fp.one]
    nonzero = [(x.re, x.im) for x in fp.elements() if x != fp.zero]

    def diagonal(width, pool=None):
        """Diagonal matrices of `width` drawn entries each (1: a scalar times I)."""
        pool = np.array(pool or (circle if rng.random() < 0.5 else nonzero))
        out = np.zeros((count, n, n, 2), dtype=np.int64)
        out[:, np.arange(n), np.arange(n)] = pool[rng.integers(0, len(pool), (count, width))]
        return out

    def blocks(a, b, c, d):
        return np.concatenate([np.concatenate([a, b], axis=-2), np.concatenate([c, d], axis=-2)], axis=-3)

    rand = lambda: rng.integers(0, q, (count, n, n, 2))  # noqa: E731
    factors = [blocks(eye, rand(), zero, eye), blocks(eye, zero, rand(), eye)]
    factors += [blocks(diagonal(1), zero, zero, diagonal(1)) for _ in range(2)]
    b = mm(fp, g[:, :n, n:], diagonal(n, circle))
    swapped = blocks(g[:, :n, :n], b, conj_arr(b, q), g[:, n:, n:])
    return np.concatenate([g] + [mm(fp, f, g) for f in factors] + [swapped])


def _assert_members_match_the_oracle(sp, stack):
    """`members` of the stack equals the scalar oracle row by row, for every tag; returns the masks."""
    got = {tag: members(sp, stack, tag) for tag in TAGS}
    for tag, mask in got.items():
        assert mask.tolist() == [is_member_by_mats(sp, Mat(sp.fp, g), tag) for g in stack]
    return got


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_members_match_the_scalar_oracle(q, n):
    sp = make_space(q, n)
    rng = np.random.default_rng(q * 10 + n)
    near = [_near_members(sp, _words(sp, tag, 20, rng), rng) for tag in TAGS]
    stack = np.concatenate([rng.integers(0, q, (200, sp.dim, sp.dim, 2))] + near)
    got = _assert_members_match_the_oracle(sp, stack)
    assert all(0 < mask.sum() < len(stack) // 2 for mask in got.values())  # mostly non-members
    with pytest.raises(ShapeError):
        members(sp, stack[:, :, :-1], TAG_SP_E)
    with pytest.raises(ShapeError):
        members(sp, stack[0, 0], TAG_SP_E)
    with pytest.raises(ParameterError):
        members(sp, stack, "gl")


@pytest.mark.parametrize("tag", [TAG_SP_F, TAG_SP_0])
def test_members_match_the_scalar_oracle_on_group_rows(tag):
    sp = make_space(3, 2)
    got = _assert_members_match_the_oracle(sp, enumerate_symplectic(sp, tag, 10**5).arr[::50])
    assert got[tag].all() and got[TAG_SP_E].all()


@pytest.mark.parametrize("tag", [TAG_SP_F, TAG_SP_0])
def test_group_table_rows_are_sorted_elements(tag):
    sp = make_space(5, 1)
    table = enumerate_symplectic(sp, tag, 10**5)
    elements = list(table)
    keys = [g.mat.key() for g in elements]
    assert len(table) == len(set(keys)) == group_order(tag, 5, 1)
    assert keys == sorted(keys) and all(g.tag == tag for g in elements)
    assert np.array_equal(table.keys, stack_keys(np.stack([g.mat.a for g in elements]), 5))
    assert np.array_equal(table.rows(table.arr), np.arange(len(table)))
    # 2I scales the form by 4, and 4 != 1 mod 5
    assert table.rows((2 * sp.identity).a[None]).tolist() == [-1]
    with pytest.raises(ValueError):
        table.arr[0, 0, 0, 0] = 1  # the cached table is read-only
    mask = np.random.default_rng(5).random(len(table)) < 0.3
    sub = table.where(mask)
    assert sub.tag == tag and np.array_equal(sub.arr, table.arr[mask])
    assert [g.mat.key() for g in sub] == [k for k, kept in zip(keys, mask) if kept]
    assert np.array_equal(sub.keys, table.keys[mask])
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

    members, parent, via = frontier_closure(eye, step(eye[None]), 3, cap=10)
    assert len(members) == 1 and np.array_equal(members[0], eye)
    assert parent.tolist() == via.tolist() == [-1]
    gens = np.stack([g.mat.a for g in generators(sp, TAG_SP_F)])
    with pytest.raises(ResourceLimitError, match="closure exceeds cap 10"):
        frontier_closure(eye, step(gens), 3, cap=10)


def _assert_closures_agree(seed, step, q, cap=None):
    """`frontier_closure` and the per-row oracle at the same chunk size: the same
    (members, parent, via), or the same error after the same frontier chunks;
    returns the members or the error."""
    out = []
    routes = (
        lambda logged: frontier_closure(seed, logged, q, cap),
        lambda logged: frontier_closure_by_rows(seed, logged, cap, chunk=symplectic._FRONTIER_CHUNK),
    )
    for route in routes:
        chunks = []

        def logged(frontier):
            chunks.append(frontier.tobytes())
            return step(frontier)

        try:
            out.append((route(logged), chunks))
        except ResourceLimitError as exc:
            out.append((str(exc), chunks))
    (got, got_chunks), (ref, ref_chunks) = out
    assert got_chunks == ref_chunks
    if isinstance(ref, str):
        assert got == ref
        return ref
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got[0]


def _group_step(sp, tag):
    mats = _generator_stack(sp, generators(sp, tag))
    return lambda frontier: mm(sp.fp, frontier[:, None], mats[None])


@pytest.mark.parametrize("q,n", [(3, 1), (7, 1), (23, 1), (3, 2)])
@pytest.mark.parametrize("tag", [TAG_SP_F, TAG_SP_0])
def test_group_closure_matches_the_per_row_oracle(q, n, tag):
    sp = make_space(q, n)
    members = _assert_closures_agree(sp.identity.a, _group_step(sp, tag), q)
    assert len(members) == group_order(tag, q, n)


def test_orbit_closures_match_the_per_row_oracle():
    """The closures `orbit()` makes: V_k's orbits under sp0 at (3,2) and (5,2), and L+'s
    under spf and sp0 at (3,2)."""
    from fsiegel.cayley import v_k
    from fsiegel.lagrangian import l_plus, span_images
    from fsiegel.orbits import orbit

    for q in (3, 5):
        sp = make_space(q, 2)
        mats = _generator_stack(sp, generators(sp, TAG_SP_0))
        sizes = [
            len(_assert_closures_agree(v_k(sp, k).basis.a, lambda f: span_images(sp, mats, f), q))
            for k in range(3)
        ]
        assert sizes == [v_k_orbit_size(q, 2, k) for k in range(3)]
    sp = make_space(3, 2)
    for tag in (TAG_SP_F, TAG_SP_0):
        gens = generators(sp, tag)
        mats = _generator_stack(sp, gens)
        members = _assert_closures_agree(l_plus(sp).basis.a, lambda f: span_images(sp, mats, f), 3)
        assert orbit(l_plus(sp), gens).size == len(members)


def test_int_row_closures_match_the_per_row_oracle():
    from fsiegel.orbits import _action_table

    sp = make_space(3, 2)
    table = enumerate_lagrangians(3, 2, 20000)
    action = _action_table(table, _generator_stack(sp, generators(sp, TAG_SP_F)))
    assert stack_keys(np.arange(5)[:, None], 5).tolist() == [0, 1, 2, 3, 4]  # a row codes itself
    sizes = set()
    for s in (0, 1, 2, 100, len(table) - 1):
        seed = np.array([s], dtype=action.dtype)
        sizes.add(len(_assert_closures_agree(seed, lambda f: action[f[:, 0], :, None], len(table))))
    assert sizes == {40, 240, 540}


def test_capped_closure_raises_at_the_same_element():
    sp = make_space(23, 1)
    step = _group_step(sp, TAG_SP_0)
    order = group_order(TAG_SP_0, 23, 1)
    for cap in (1, 21, 100, 1000, order - 1):
        assert _assert_closures_agree(sp.identity.a, step, 23, cap) == f"closure exceeds cap {cap}"
    assert len(_assert_closures_agree(sp.identity.a, step, 23, order)) == order


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2), (23, 1)])
def test_generator_stacks_are_the_per_element_build(q, n):
    """Each tag's stack is the per-element build bit for bit, in its order, and its inverse
    stack holds each generator's scalar inverse; `generators` reads the same matrices."""
    sp = make_space(q, n)
    for tag in TAGS:
        gens, invs, elements = _generator_stacks(q, n, tag)
        want = generators_by_blocks(sp, tag)
        assert gens.dtype == invs.dtype == PAIR_DTYPE and not (gens.flags.writeable or invs.flags.writeable)
        assert np.array_equal(gens, np.stack([g.mat.a for g in want]))
        assert np.array_equal(invs, np.stack([g.mat.inv().a for g in want]))
        assert generators(sp, tag) is elements and list(elements) == list(want)


def test_generators_are_built_and_verified_once(monkeypatch, fresh_cell):
    sp = make_space(5, 1)
    checked = []
    real = symplectic.members
    monkeypatch.setattr(symplectic, "members", lambda *args: checked.append(args[2]) or real(*args))
    first = {tag: generators(sp, tag) for tag in (TAG_SP_F, TAG_SP_0)}
    # one `members` call per tag checks its whole stack (building M checks one "sp" element)
    assert checked.count(TAG_SP_F) == checked.count(TAG_SP_0) == 1
    checked.clear()
    for tag in (TAG_SP_F, TAG_SP_0):
        assert generators(sp, tag) is first[tag] and isinstance(first[tag], tuple)
    assert checked == []


def test_a_cells_tables_are_released_once_the_grid_moves_on():
    points = weakref.ref(enumerate_lagrangians(3, 2).bases)
    group = weakref.ref(enumerate_symplectic(make_space(3, 2), TAG_SP_F, 10**5).arr)
    run_check("lemma4", 3, 1, 10**5, 10**5)
    gc.collect()
    assert points() is None and group() is None


def test_a_cells_space_generators_and_similitude_are_released_once_the_grid_moves_on():
    # tuples and slotted objects take no weak reference: each is watched through the arrays it holds
    sp = make_space(3, 2)
    held = [weakref.ref(sp), weakref.ref(cayley(3, 2).m.a)]
    held += [weakref.ref(g.mat.a) for tag in (TAG_SP_F, TAG_SP_0) for g in generators(sp, tag)]
    del sp
    run_check("lemma4", 3, 1, 10**5, 10**5)
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)


def _is_lru_cache(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"
    )


def test_lru_cache_decorates_only_make_fields():
    """Per-cell objects live in the cell slot; a process-lifetime cache holds per-field constants only."""
    found = []
    for path in sorted(Path(symplectic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node of a decorator, by the name it decorates; any other use is named by its line
        decorates = {
            id(sub): node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for dec in node.decorator_list
            for sub in ast.walk(dec)
        }
        found += [(path.name, decorates.get(id(node), node.lineno)) for node in ast.walk(tree) if _is_lru_cache(node)]
    assert found == [("field.py", "make_fields")]


def test_the_cell_slot_is_keyed_on_the_whole_cell_and_memoizes():
    before = strip_volatile(run_check("lemma4", 3, 1, 10**5, 10**5))
    run_check("involutions", 5, 1, 10**5, 10**5)  # the same n at another q
    assert strip_volatile(run_check("lemma4", 3, 1, 10**5, 10**5)) == before
    assert enumerate_lagrangians(3, 1) is enumerate_lagrangians(3, 1)
    assert len(enumerate_lagrangians(3, 2)) == 820  # the same q at another n


def test_generator_stack_takes_elements_matrices_and_an_empty_list():
    sp = make_space(3, 2)
    gens = generators(sp, TAG_SP_F)
    stack = _generator_stack(sp, gens)
    assert stack.shape == (len(gens), 4, 4, 2)
    assert np.array_equal(stack, np.stack([g.mat.a for g in gens]))
    assert np.array_equal(_generator_stack(sp, [g.mat for g in gens]), stack)
    assert _generator_stack(sp, []).shape == (0, 4, 4, 2)


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
