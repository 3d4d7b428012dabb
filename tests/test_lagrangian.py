import random

import numpy as np
import pytest

from fsiegel.errors import (
    ConsistencyError,
    NotIsotropicError,
    ParameterError,
    RankDeficientError,
    ResourceLimitError,
)
from fsiegel.field import make_fields
from fsiegel.linalg import Mat, entry_bytes, stack_keys
from fsiegel.symplectic import TAG_SP_0, TAG_SP_F, generators, make_space
from fsiegel.lagrangian import (
    PointTable,
    StratumLabel,
    _conj_intersections,
    _h_e_radicals,
    _point_table,
    conjugate_pair_dims,
    enumerate_lagrangians,
    from_basis,
    h_e_radical,
    intersection_with_conj,
    l_minus,
    l_plus,
    lagrangian_count,
    siegel,
    strata,
    witnesses,
)
from fsiegel.orbits import act, orbit
from fsiegel.cayley import v_k

from oracles import (
    all_subspaces,
    chart_bases_by_bottom_blocks,
    hermitian_type,
    is_isotropic,
    random_symmetric_by_calls,
)


def test_from_basis_examples():
    sp = make_space(3, 2)
    fp = sp.fp
    lp = from_basis(sp, Mat(fp, [[(1, 0), (0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 0)], [(0, 0), (0, 0)]]))
    assert lp == l_plus(sp)
    lm = from_basis(sp, Mat(fp, [[(0, 0), (0, 0)], [(0, 0), (0, 0)], [(1, 0), (0, 0)], [(0, 0), (1, 0)]]))
    assert lm == l_minus(sp)

    sp1 = make_space(3, 1)
    line = from_basis(sp1, Mat.build(sp1.fp, [[1], [1]]))
    assert line.encode() == "1;1"


def test_from_basis_errors():
    sp = make_space(3, 2)
    fp = sp.fp
    with pytest.raises(RankDeficientError):
        from_basis(sp, Mat(fp, [[(1, 0), (2, 0)], [(0, 0), (0, 0)], [(0, 0), (0, 0)], [(0, 0), (0, 0)]]))
    # span(e_1, e_3) pairs the two transverse coordinates: not isotropic
    with pytest.raises(NotIsotropicError):
        from_basis(sp, Mat(fp, [[(1, 0), (0, 0)], [(0, 0), (0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 0)]]))
    with pytest.raises(ParameterError):
        from_basis(sp, Mat.identity(fp, 4))


def test_siegel_map_examples():
    sp = make_space(3, 1)
    fp = sp.fp
    assert siegel(sp, Mat.zeros(fp, 1, 1)) == l_minus(sp)
    assert siegel(sp, Mat.build(fp, [[fp.s]])).label().h_rank == 1

    sp2 = make_space(3, 2)
    w = siegel(sp2, Mat.identity(sp2.fp, 2))
    assert w.label().o_type == 0

    with pytest.raises(ParameterError):
        siegel(sp2, Mat.build(sp2.fp, [[0, 1], [2, 0]]))


def test_image_membership():
    sp = make_space(3, 2)
    assert l_minus(sp).in_siegel_image()
    assert not l_plus(sp).in_siegel_image()


def test_gram_values():
    sp = make_space(3, 2)
    fp = sp.fp
    # h_0 restricted to a diagonal Siegel point is diag(1 - N(d_j))
    for d1 in fp.elements():
        z = Mat.diag(fp, [d1, fp.one])
        w = siegel(sp, z)
        g = w.gram("h_0")
        expect = Mat.diag(fp, [fp.one - d1.norm(), fp.zero])
        # gram is computed on the canonical basis, so compare by rank only
        assert g.rank() == expect.rank()


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1)])
def test_h_rank_of_siegel_points_matches_z_minus_conj(q, n):
    sp = make_space(q, n)
    fp = sp.fp
    for z_val in fp.elements():
        z = Mat.diag(fp, [z_val])
        w = siegel(sp, z)
        assert w.label().h_rank == (z - z.conj()).rank()


def test_h_rank_of_siegel_points_n2_exhaustive():
    sp = make_space(3, 2)
    fp = sp.fp
    count = 0
    for a in fp.elements():
        for b in fp.elements():
            for c in fp.elements():
                z = Mat.build(fp, [[a, b], [b, c]])
                w = siegel(sp, z)
                assert w.label().h_rank == (z - z.conj()).rank()
                count += 1
    assert count == 729


def test_type_equals_gram_rank_via_orthonormalization_oracle():
    fp = make_fields(3)
    for q, n in [(3, 1), (3, 2)]:
        for w in enumerate_lagrangians(q, n):
            g = w.gram("h_0")
            gram_pairs = [
                [(int(g.a[i, j, 0]), int(g.a[i, j, 1])) for j in range(n)] for i in range(n)
            ]
            assert hermitian_type(q, fp.eps, gram_pairs) == w.label().o_type


def test_conjugate_examples():
    sp = make_space(3, 1)
    fp = sp.fp
    real = from_basis(sp, Mat.build(fp, [[1], [2]]))
    assert real.conj() == real
    assert conjugate_pair_dims(real) == (1, 1)

    line = from_basis(sp, Mat.build(fp, [[fp.s], [1]]))
    assert line.conj() != line
    assert conjugate_pair_dims(line) == (2, 0)

    sp2 = make_space(3, 2)
    w = siegel(sp2, Mat.identity(sp2.fp, 2))
    assert conjugate_pair_dims(w) == (2, 2)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2)])
def test_conjugate_pair_dims_and_radical_for_all_points(q, n):
    for w in enumerate_lagrangians(q, n):
        r = w.label().h_rank
        assert conjugate_pair_dims(w) == (n + r, n - r)
        assert intersection_with_conj(w) == h_e_radical(w)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 1), (7, 1)])
def test_stacked_lemma4_subspaces_match_scalar(q, n):
    sp = make_space(q, n)
    table = _point_table(q, n)
    inter, inter_rank = _conj_intersections(sp, table.bases)
    rad, rad_rank = _h_e_radicals(sp, table.bases)
    assert inter.shape == (len(table), 2 * n, 2 * n, 2)
    assert rad.shape == (len(table), 2 * n, n, 2)
    for i, w in enumerate(table):
        for stack, ranks, want in (
            (inter, inter_rank, intersection_with_conj(w)),
            (rad, rad_rank, h_e_radical(w)),
        ):
            r = want.cols
            assert ranks[i] == r
            assert stack[i][:, :r].tobytes() == want.a.tobytes()
            assert not stack[i][:, r:].any()


def test_lemma4_check_fails_when_both_kernels_come_back_empty(monkeypatch):
    from fsiegel import checks, lagrangian

    assert checks.check_lemma4(3, 2, 10**5, 10**5)["ok"]
    empty = lambda fp, a: np.zeros((len(a), a.shape[2], a.shape[2], 2), dtype=np.int64)  # noqa: E731
    monkeypatch.setattr(lagrangian, "kernel_stack", empty)
    assert not checks.check_lemma4(3, 2, 10**5, 10**5)["ok"]


@pytest.mark.parametrize(
    "q,n,count", [(3, 1, 10), (5, 1, 26), (7, 1, 50), (3, 2, 820)]
)
def test_enumeration_counts(q, n, count):
    assert lagrangian_count(q, n) == count
    assert len(enumerate_lagrangians(q, n)) == count


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
def test_table_iterates_in_sorted_order(q, n):
    table = enumerate_lagrangians(q, n)
    points = list(table)
    shuffled = random.Random(q * 10 + n).sample(points, len(points))
    assert sorted(shuffled) == points
    assert len(set(points)) == len(points) == lagrangian_count(q, n)
    assert [w.key for w in points] == [entry_bytes(b) for b in table.bases]
    assert np.array_equal(table.rows(table.bases), np.arange(len(table)))


def test_points_and_matrices_sort_by_their_codes_when_an_entry_needs_two_bytes():
    # at q = 257 an entry may be 256 = 0x100: the byte keys still sort as the table codes
    sp = make_space(257, 1)
    points = [siegel(sp, Mat.build(sp.fp, [[(re, im)]])) for re in (0, 1, 255, 256) for im in (0, 255, 256)]
    order = np.argsort(stack_keys(np.stack([w.basis.a for w in points]), 257), kind="stable").tolist()
    assert len(set(points)) == 12
    assert sorted(points) == [points[i] for i in order]
    assert sorted(w.basis.key() for w in points) == [points[i].basis.key() for i in order]


def test_table_rows_marks_points_off_the_table():
    sp = make_space(3, 2)
    table = enumerate_lagrangians(3, 2)
    orbit_table = orbit(v_k(sp, 2), generators(sp, TAG_SP_0)).table
    rows = orbit_table.rows(table.bases)
    assert np.count_nonzero(rows >= 0) == len(orbit_table) < len(table)
    assert np.array_equal(orbit_table.bases[rows[rows >= 0]], table.bases[rows >= 0])


def test_empty_point_table_finds_no_row():
    sp = make_space(3, 2)
    table = enumerate_lagrangians(3, 2)
    empty = PointTable(sp, table.bases[:0])
    assert len(empty) == 0 and list(empty) == []
    assert empty.rows(table.bases[:5]).tolist() == [-1] * 5
    assert table.rows(empty.bases).shape == (0,)


def test_cold_theorem1_builds_fewer_lagrangians_than_points(monkeypatch, fresh_cell):
    from fsiegel import checks, lagrangian

    built = []
    init = lagrangian.Lagrangian.__init__

    def counting(self, space, basis):
        built.append(1)
        init(self, space, basis)

    monkeypatch.setattr(lagrangian.Lagrangian, "__init__", counting)
    rec = checks.run_check("theorem1", 3, 2, 10**5, 10**5)
    assert rec["data"]["rational_orbit_sizes"] == [40, 240, 540]
    assert built == []  # the chart builder, the derived action tables and the partitions work on rows
    l_plus(make_space(3, 2))
    assert built  # the counter is live


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_lagrangians(7, 2, cap=1000)


def test_wrong_enumeration_count_is_an_inconsistency(monkeypatch, fresh_cell):
    from fsiegel import checks, lagrangian

    true_count = lagrangian.lagrangian_count
    monkeypatch.setattr(lagrangian, "lagrangian_count", lambda q, n: true_count(q, n) + 1)
    with pytest.raises(ConsistencyError, match="count formula gives 11"):
        checks.run_check("lemma4", 3, 1, 10**5, 10**5)


CHART_CELLS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]


@pytest.mark.parametrize("q,n", CHART_CELLS)
def test_chart_table_matches_closure_of_l_plus(q, n):
    from fsiegel.lagrangian import span_images
    from fsiegel.symplectic import TAG_SP_E, frontier_closure

    sp = make_space(q, n)
    gens = np.stack([g.mat.a for g in generators(sp, TAG_SP_E)])
    closure = frontier_closure(l_plus(sp).basis.a, lambda f: span_images(sp, gens, f), q)[0]
    assert _point_table(q, n).bases.tobytes() == PointTable(sp, closure).bases.tobytes()


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)])  # (3, 3): minors of size 3
def test_chart_minor_filter_matches_bottom_block_ranks(q, n):
    assert _point_table(q, n).bases.tobytes() == chart_bases_by_bottom_blocks(q, n).tobytes()


def test_each_principal_minor_is_ranked_once_per_block(monkeypatch, fresh_cell):
    """(3,2) in blocks of 64: 3^6 = 729 Z make 12 blocks, each ranking its 3 principal minors
    once; the table's labels and image flags take 3 more ranks."""
    from fsiegel import lagrangian, linalg

    calls = []
    monkeypatch.setattr(linalg, "_STACK_CHUNK", 64)
    monkeypatch.setattr(lagrangian, "rank_stack", lambda fp, a: calls.append(a.shape) or linalg.rank_stack(fp, a))
    lagrangian._point_table(3, 2)
    assert len(calls) == 3 * 12 + 3


@pytest.mark.parametrize("q,n", CHART_CELLS)
def test_chart_table_rows_are_isotropic(q, n):
    from fsiegel.linalg import mm

    sp = make_space(q, n)
    bases = _point_table(q, n).bases
    assert not mm(sp.fp, mm(sp.fp, bases.swapaxes(1, 2), sp.j.a), bases).any()


def test_chart_filter_that_keeps_duplicates_is_an_inconsistency(monkeypatch, fresh_cell):
    from fsiegel import lagrangian

    monkeypatch.setattr(lagrangian, "rank_stack", lambda fp, a: np.zeros(len(a), dtype=np.int64))  # every minor singular
    with pytest.raises(ConsistencyError, match="count formula gives 10"):
        lagrangian._point_table(3, 1)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1)])
def test_enumeration_matches_line_filter(q, n):
    fp = make_fields(q)
    found = {w.key for w in enumerate_lagrangians(q, n)}
    oracle = set()
    for cols in all_subspaces(q, fp.eps, 2, 1):
        m = Mat.build(fp, [[cols[0][0]], [cols[0][1]]])
        oracle.add(from_basis(make_space(q, n), m).key)
    assert found == oracle


def test_enumeration_matches_isotropic_filter_3_2():
    fp = make_fields(3)
    sp = make_space(3, 2)
    found = {w.key for w in enumerate_lagrangians(3, 2)}
    oracle = set()
    total = 0
    for cols in all_subspaces(3, fp.eps, 4, 2):
        total += 1
        if is_isotropic(3, fp.eps, cols, 2):
            m = Mat.build(fp, [[cols[c][r] for c in range(2)] for r in range(4)])
            oracle.add(from_basis(sp, m).key)
    assert total == 7462  # all planes in E^4
    assert found == oracle


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
def test_label_bounds_and_consistency(q, n):
    h_str, o_str = strata(q, n)
    total = lagrangian_count(q, n)
    assert sum(len(x) for x in h_str) == total
    assert sum(len(x) for x in o_str) == total
    for w in enumerate_lagrangians(q, n):
        lab = w.label()
        assert 0 <= lab.h_rank <= n and 0 <= lab.o_type <= n


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
def test_label_invariance_under_generators(q, n):
    sp = make_space(q, n)
    rng = random.Random(q * n)
    points = enumerate_lagrangians(q, n)
    sample = [points[rng.randrange(len(points))] for _ in range(60)]
    for g in generators(sp, TAG_SP_F):
        for w in sample:
            assert act(g, w).label().h_rank == w.label().h_rank
    for g in generators(sp, TAG_SP_0):
        for w in sample:
            assert act(g, w).label().o_type == w.label().o_type


@pytest.mark.parametrize("q,n,cell", [(3, 1, 9), (3, 2, 729)])
def test_siegel_image_cell_size(q, n, cell):
    pts = enumerate_lagrangians(q, n)
    assert sum(1 for w in pts if w.in_siegel_image()) == cell == q ** (n * (n + 1))


def test_v_k_labels():
    sp = make_space(3, 2)
    for k in range(3):
        w = v_k(sp, k)
        assert w.gram("h_e").is_zero
        assert w.label() == StratumLabel(0, 2 - k)


# -- witnesses ---------------------------------------------------------------

def test_witnesses_3_1():
    recs = {r.name: r for r in witnesses(3, 1)}
    assert recs["diag_image_o1"].lagrangian == l_minus(make_space(3, 1))
    assert recs["diag_image_o1"].status == "verified"
    assert recs["mixed_nonimage_o1"].status == "verified"


def test_witnesses_3_2():
    recs = {r.name: r for r in witnesses(3, 2)}
    names = set(recs)
    assert {
        "diag_image_o0",
        "diag_image_o1",
        "diag_image_o2",
        "mixed_nonimage_o1",
        "mixed_nonimage_o2",
        "even_null_nonimage",
        "coordinate_span_k1",
        "coordinate_span_k1_transported",
    } <= names
    assert all(r.status == "verified" for r in recs.values())
    fp = make_fields(3)
    assert recs["even_null_nonimage"].params["b"] == (fp.one + fp.s).encode()


def test_witnesses_odd_cell():
    recs = {r.name: r for r in witnesses(3, 3)}
    odd = recs["odd_null_nonimage"]
    assert odd.status == "verified"
    assert odd.params == {"c": "1", "d": "1"}
    assert odd.lagrangian.label().o_type == 0
    assert not odd.lagrangian.in_siegel_image()


def test_witnesses_odd_unavailable_when_minus_one_square():
    recs = {r.name: r for r in witnesses(5, 3)}
    assert recs["odd_null_nonimage"].status == "unavailable"


def test_witness_transporter_moves_into_image():
    recs = {r.name: r for r in witnesses(3, 2)}
    start = recs["coordinate_span_k1"]
    moved = recs["coordinate_span_k1_transported"]
    assert not start.lagrangian.in_siegel_image()
    assert moved.lagrangian.in_siegel_image()


# -- the Siegel criterion's sampled branch against its scalar loop --------------

def _scalar_siegel_criterion(q: int, n: int) -> dict:
    """The sampled `check_siegel_criterion`, one `randrange` call per draw, one scalar
    product per letter and one scalar rank per word: the reference for its stacked route."""
    from fsiegel import checks

    sp = make_space(q, n)
    rng = checks._rng("siegel-criterion", q, n)
    gens = checks.generators(sp, TAG_SP_F)

    def denominator(g: Mat, z: Mat) -> Mat:
        _, _, c, d = sp.blocks(g)
        return c @ z + d

    def random_word() -> Mat:
        g = sp.identity
        for _ in range(12):
            g = g @ gens[rng.randrange(len(gens))].mat
        return g

    invertible_ok = True
    samples = 0
    while samples < 1000:
        z = random_symmetric_by_calls(sp, rng)
        if (z - z.conj()).rank() != n:
            continue
        g = random_word()
        samples += 1
        if denominator(g, z).rank() != n:
            invertible_ok = False
    converse = []
    while len(converse) < 10:
        z = random_symmetric_by_calls(sp, rng)
        if (z - z.conj()).rank() == n:
            continue
        has_inv = has_sing = False
        for _ in range(4000):
            rk = denominator(random_word(), z).rank()
            has_inv |= rk == n
            has_sing |= rk < n
            if has_inv and has_sing:
                break
        converse.append({"z": z.encode(), "invertible_found": has_inv, "singular_found": has_sing})
    converse_ok = all(c["invertible_found"] and c["singular_found"] for c in converse)
    return {
        "mode": "sampled",
        "cases": samples,
        "degenerate_witnesses": converse,
        "subchecks": {
            "denominator_always_invertible": invertible_ok,
            "degenerate_converse_witnesses": converse_ok,
        },
        "ok": invertible_ok and converse_ok,
    }


@pytest.mark.parametrize("q,n", [(3, 2), (7, 1), (7, 2), (3, 3)])
def test_sampled_siegel_criterion_matches_scalar_loop(q, n):
    from fsiegel.checks import check_siegel_criterion

    assert check_siegel_criterion(q, n, 10**5, 10**5) == _scalar_siegel_criterion(q, n)


def test_siegel_criterion_draws_every_word_when_no_denominator_is_singular(monkeypatch):
    # with the identity as the only generator every word is I and C Z + D = I,
    # so no degenerate Z completes its pair and all 4000 words are drawn for each:
    # the check's generator ends where the scalar loop's does, after 12 * (1000 + 10 * 4000) letters
    from fsiegel import checks
    from fsiegel.symplectic import GroupElement

    letters, rngs = [], []

    class Counting(random.Random):
        def randrange(self, *args):
            if args == (1,):
                letters.append(1)
            return super().randrange(*args)

    def counting_rng(check, q, n):
        rngs.append(Counting(f"fsiegel:{check}:{q}:{n}"))
        return rngs[-1]

    # the check reads the generator stack, the scalar loop the generators
    monkeypatch.setattr(checks, "generators", lambda sp, tag: [GroupElement(sp.identity, tag)])
    monkeypatch.setattr(checks, "_generator_stacks", lambda q, n, tag: (make_space(q, n).identity.a[None],) * 2)
    monkeypatch.setattr(checks, "_rng", counting_rng)
    data = checks.check_siegel_criterion(7, 1, 10**5, 10**5)
    assert letters == []  # the letters are replayed from the generator's words
    assert [w["singular_found"] for w in data["degenerate_witnesses"]] == [False] * 10
    assert all(w["invertible_found"] for w in data["degenerate_witnesses"])
    assert _scalar_siegel_criterion(7, 1) == data  # the same later Z's
    assert len(letters) == 12 * (1000 + 10 * 4000)
    assert rngs[0].getstate() == rngs[1].getstate()


def test_sampled_siegel_criterion_matches_scalar_loop_over_small_chunks(monkeypatch):
    # eight words hold no whole pair: the chunk grows, and every pair straddles a chunk edge
    from fsiegel import checks, sampling

    monkeypatch.setattr(sampling, "_WORD_CHUNK", 8)
    assert checks.check_siegel_criterion(3, 2, 10**5, 10**5) == _scalar_siegel_criterion(3, 2)


@pytest.mark.parametrize("bound", [1, 2, 3, 6, 7, 8, 12, 23, 255, 256, 257])
def test_draws_equal_successive_randrange_calls(bound):
    from fsiegel.sampling import _draws

    for seed in (0, 1, "fsiegel:siegel-criterion:7:2"):
        rng, twin = random.Random(seed), random.Random(seed)
        for count in (0, 1, 13, 1000):
            assert _draws(rng, bound, count).tolist() == [twin.randrange(bound) for _ in range(count)]
            assert rng.getstate() == twin.getstate()


class _WordCounting(random.Random):
    """A generator that counts the 32-bit words it hands out."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


@pytest.mark.parametrize("q,n", [(3, 1), (7, 2), (5, 3), (23, 2)])
def test_stacked_symmetric_parse_equals_successive_random_symmetric(q, n):
    from fsiegel.linalg import symmetric_stack
    from fsiegel.sampling import _reads, _words

    sp, t = make_space(q, n), n * (n + 1) // 2
    words = _words(random.Random(q), 300)
    values, first, ends = _reads(words, q, 2 * t)
    zs = symmetric_stack(values[first[:, None] + np.arange(2 * t)].reshape(-1, t, 2), n)
    assert len(zs) == len(ends) > 0
    for p in range(len(words)):  # every start position: a twin generator past p words
        twin = _WordCounting(q)
        _words(twin, p)
        z = random_symmetric_by_calls(sp, twin)
        if p < len(zs):
            assert Mat(sp.fp, zs[p].astype(np.int64)) == z and ends[p] == twin.words
        else:  # a start position that is not listed has no whole Z in the words
            assert twin.words > len(words)


def test_random_symmetric_draws_the_upper_triangle_re_then_im():
    from fsiegel import checks

    sp = make_space(7, 3)
    rng, twin = random.Random(1), random.Random(1)
    for _ in range(20):
        z = checks._random_symmetric(sp, rng)
        for i in range(3):
            for j in range(i, 3):
                x = sp.fp.e(twin.randrange(7), twin.randrange(7))
                assert z[i, j] == x == z[j, i]
    assert rng.getstate() == twin.getstate()


def test_sampled_siegel_criterion_makes_no_scalar_products(monkeypatch):
    from fsiegel import checks

    sp = make_space(7, 1)
    gens = generators(sp, TAG_SP_F)  # built outside the counted cell
    calls = {"matmul": 0, "rank": 0}
    matmul, rank, rank_stack = Mat.__matmul__, Mat.rank, checks.rank_stack
    ranked_im = []  # the Z - conj(Z) ranked, the stacks with a zero real part

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def recorded(fp, a):
        if not a[..., 0].any():
            ranked_im.extend(m.tobytes() for m in a)
        return rank_stack(fp, a)

    monkeypatch.setattr(checks, "generators", lambda sp, tag: gens)
    monkeypatch.setattr(Mat, "__matmul__", counted("matmul", matmul))
    monkeypatch.setattr(Mat, "rank", counted("rank", rank))
    monkeypatch.setattr(checks, "rank_stack", recorded)
    rec = checks.run_check("siegel-criterion", 7, 1, 10**5, 10**5)
    assert rec["status"] == "pass" and rec["data"]["mode"] == "sampled"
    assert calls == {"matmul": 0, "rank": 0}
    # at most one rank per distinct Im(Z), an element of F
    assert 0 < len(ranked_im) == len(set(ranked_im)) <= 7


def test_the_exhaustive_siegel_criterion_skips_over_the_group_cap():
    """The exhaustive mode (n = 1, q <= 5) enumerates the rational group, so it is capped;
    only the sampled mode is not."""
    from fsiegel import checks

    rec = checks.run_check("siegel-criterion", 5, 1, 10, 2 * 10**4)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": "group order 120 exceeds cap 10"})
