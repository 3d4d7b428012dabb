import random

import numpy as np
import pytest

from fsiegel import involutions
from fsiegel.checks import run_check
from fsiegel.errors import ParameterError, ResourceLimitError
from fsiegel.field import FieldParams, epsilon_f
from fsiegel.linalg import Mat, block_diag, det_stack, entry_bytes, mm
from fsiegel.symplectic import (
    TAG_SP_F,
    EnumeratedGroup,
    GroupElement,
    enumerate_symplectic,
    frontier_closure,
    generators,
    make_space,
)
from fsiegel.lagrangian import from_basis
from fsiegel.involutions import (
    _equivariant,
    _pairing_identity,
    anti_involutions,
    classify_involutions,
    correspondence_report,
    eigenspace_suite,
    involution_form_report,
    scaled_involutions,
)

from oracles import (
    act,
    conjugation_closure,
    det_arr,
    eigenspace_model,
    eigenspace_report,
    gram,
    involution_form,
    label,
    mat_det,
    mat_kernel,
    pairing_identity_holds,
    smallest_nonresidue,
    strata,
    sub_block,
)

CAP = 10**5


@pytest.mark.parametrize("q,n,count", [(3, 1, 6), (5, 1, 30), (7, 1, 42)])
def test_anti_involution_counts(q, n, count):
    assert len(anti_involutions(q, n, CAP)) == count


def test_anti_involution_count_q5_is_example_formula():
    q = 5
    assert len(anti_involutions(q, 1, CAP)) == q * (q + 1)


def test_j_is_always_an_anti_involution():
    for q, n in [(3, 1), (5, 1), (3, 2)]:
        sp = make_space(q, n)
        keys = {entry_bytes(t.mat.a) for t in anti_involutions(q, n, CAP)}
        assert entry_bytes(sp.j.a) in keys


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        anti_involutions(5, 2, 10**4)


def test_involution_form_values():
    sp = make_space(3, 1)
    fp = sp.fp
    t = GroupElement(sp.j, TAG_SP_F)
    bt = involution_form(t)
    assert bt == sp.j @ sp.j  # = -I
    assert bt == -sp.identity
    assert mat_det(bt) == fp.one
    with pytest.raises(ParameterError):
        involution_form(GroupElement(sp.identity, TAG_SP_F))


@pytest.mark.parametrize("q", [3, 5])
def test_involution_form_discriminants_exhaustive(q):
    fp = FieldParams(q)
    for t in anti_involutions(q, 1, CAP):
        bt = involution_form(t)
        assert bt.is_symmetric()
        det = mat_det(bt)
        assert det == fp.one
        assert fp.is_square_in_f(det.re)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2), (23, 1)])
def test_det_stack_matches_det_arr_on_every_involution_form(q, n):
    sp = make_space(q, n)
    forms = mm(sp.fp, sp.j.a, anti_involutions(q, n, CAP).arr)
    assert len(forms)
    assert det_stack(sp.fp, forms).tolist() == [list(det_arr(sp.fp, f)) for f in forms]


def test_eigenline_of_j_q3():
    sp = make_space(3, 1)
    fp = sp.fp
    w = eigenspace_model(GroupElement(sp.j, TAG_SP_F))
    assert w.encode() == "1;0+1*s"
    # the column is an eigenvector for the chosen square root of -1
    i = fp.sqrt(fp.e(-1))
    vec = w.basis
    assert sp.j @ vec == i * vec
    assert label(w).h_rank == 1


def test_eigenlines_match_closed_forms_q5():
    # at q = 5 the eigenvalue lies in the base field and the lower
    # triangular family all share the same eigenline
    sp = make_space(5, 1)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    assert i.is_rational
    for x in range(5):
        t = Mat.build(fp, [[-i, 0], [fp.e(x), i]])
        w = eigenspace_model(GroupElement(t, TAG_SP_F))
        assert w.encode() == "0;1"
    t = Mat.build(fp, [[i, fp.e(1)], [0, -i]])
    assert eigenspace_model(GroupElement(t, TAG_SP_F)).encode() == "1;0"


@pytest.mark.parametrize("q,n", [(3, 1), (7, 1)])
def test_eigenspace_reports_nonsquare_branch(q, n):
    for t in anti_involutions(q, n, CAP):
        rep = eigenspace_report(t)
        assert rep["nonzero"] and rep["dims_split"]
        assert rep["conjugate_swaps"]
        assert rep["no_rational_vectors"]
        assert rep["orthogonal_decomposition"]
        assert rep["top_stratum"]


def test_eigenspace_reports_square_branch():
    for t in anti_involutions(5, 1, CAP):
        rep = eigenspace_report(t)
        assert rep["nonzero"] and rep["dims_split"]
        assert rep["null_stratum"]


def test_pairing_identity_exhaustive_3_1():
    sp = make_space(3, 1)
    fp = sp.fp
    pairs = [
        (Mat.column(fp, [fp.e(a), fp.e(b)]), Mat.column(fp, [fp.e(c), fp.e(d)]))
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    ]
    for t in anti_involutions(3, 1, CAP):
        assert pairing_identity_holds(t, pairs)


def test_correspondence_bijective_nonsquare():
    rep = correspondence_report(3, 1, CAP, 10**4)
    assert rep["branch"] == "nonsquare"
    assert rep["bijective"] and rep["equivariant"]
    assert rep["count"] == 6 == rep["stratum_size"]


def test_correspondence_square_branch():
    rep = correspondence_report(5, 1, CAP, 10**4)
    assert rep["branch"] == "square"
    assert rep["single_orbit"]
    assert rep["isotropy_is_diagonal_subgroup"]
    assert rep["isotropy_order"] == 4  # diag(a, 1/a)
    assert rep["homogeneous_count_matches"]  # 120 / 4 = 30
    assert rep["image_is_null_stratum"]
    assert not rep["injective"] and rep["max_fiber"] > 1
    assert rep["cayley_carries_seed_to_j"]


def _scalar_equivariant(ants, models, gens) -> bool:
    """The scalar route: act(g, W_T) == W_{g T g^-1}, one pair at a time."""
    by_key = {entry_bytes(t.mat.a): w for t, w in zip(ants, models)}
    return all(
        act(g, by_key[entry_bytes(t.mat.a)]) == by_key.get(entry_bytes((g.mat @ t.mat @ g.mat.inv()).a))
        for t in ants
        for g in gens
    )


@pytest.mark.parametrize("q", [3, 5, 7])
def test_stacked_equivariance_matches_the_scalar_loop(q):
    sp = make_space(q, 1)
    ants = anti_involutions(q, 1, CAP)
    gens = generators(sp, TAG_SP_F)
    rows = involutions._conjugation_rows(q, 1, -1)
    models = [eigenspace_model(t) for t in ants]
    stack = np.stack([w.basis.a for w in models])
    mats = np.stack([g.mat.a for g in gens])
    assert _equivariant(sp, rows, stack, mats) and _scalar_equivariant(ants, models, gens)
    # give the first anti-involution the eigenspace of one with another eigenspace
    other = next(w for w in models if w != models[0])
    bad = [other] + models[1:]
    bad_stack = np.stack([w.basis.a for w in bad])
    assert not _equivariant(sp, rows, bad_stack, mats)
    assert not _scalar_equivariant(ants, bad, gens)


def test_involutions_refuse_over_either_cap_before_any_work(monkeypatch):
    def fail(q, n):
        raise AssertionError("the anti-involutions were computed")

    monkeypatch.setattr(involutions, "_square_scalars", fail)
    rec = run_check("involutions", 3, 2, 10**5, 100)
    assert rec["status"] == "skipped-resource"
    assert rec["data"] == {"reason": "820 Lagrangians exceed cap 100"}
    # over both caps, the group reason comes first
    rec = run_check("involutions", 3, 2, 100, 100)
    assert rec["data"] == {"reason": "group order 51840 exceeds cap 100"}


def test_correspondence_count_matches_top_stratum_3_2():
    h_str, _ = strata(3, 2)
    assert len(anti_involutions(3, 2, CAP)) == len(h_str[2]) == 540


def test_conjugation_invariance_of_the_set():
    sp = make_space(3, 1)
    keys = {entry_bytes(t.mat.a) for t in anti_involutions(3, 1, CAP)}
    grp = enumerate_symplectic(sp, TAG_SP_F, CAP)
    for g in grp:
        ginv = g.mat.inv()
        for t in anti_involutions(3, 1, CAP):
            assert entry_bytes((g.mat @ t.mat @ ginv).a) in keys


@pytest.mark.parametrize("q", [3, 7, 23])
def test_square_filters_match_a_direct_filter(q):
    sp = make_space(q, 1)
    g = enumerate_symplectic(sp, TAG_SP_F, CAP)
    squares = [Mat(sp.fp, t) @ Mat(sp.fp, t) for t in g.arr]
    for a in (1, -1, smallest_nonresidue(q)):
        target = sp.fp.e(a) * sp.identity
        want = g.arr[[s == target for s in squares]]
        assert np.array_equal(scaled_involutions(q, 1, a, CAP).arr, want)
    assert np.array_equal(anti_involutions(q, 1, CAP).arr, scaled_involutions(q, 1, -1, CAP).arr)


def test_scaled_involutions_examples():
    assert [len(scaled_involutions(7, 1, a, CAP)) for a in (2, 4)] == [0, 0]
    s1 = scaled_involutions(3, 1, 1, CAP)
    sp = make_space(3, 1)
    assert {entry_bytes(t.mat.a) for t in s1} == {entry_bytes(sp.identity.a), entry_bytes((-sp.identity).a)}


def test_empty_scaled_set_is_an_empty_table():
    sp = make_space(7, 1)
    empty = scaled_involutions(7, 1, 2, CAP)
    assert len(empty) == 0 and list(empty) == [] and empty.keys.shape == (0,)
    assert empty.rows(np.stack([sp.identity.a, sp.j.a])).tolist() == [-1, -1]


def _scalar_form_equivariant(q, n) -> bool:
    """The scalar route: J (g T g^-1) == t(g^-1) (J T) g^-1, one pair (T, g) at a time."""
    sp = make_space(q, n)
    gens = [(g.mat, g.mat.inv()) for g in generators(sp, TAG_SP_F)]
    return all(
        sp.j @ (g @ t.mat @ ginv) == ginv.T @ (sp.j @ t.mat) @ ginv
        for t in anti_involutions(q, n, CAP)
        for g, ginv in gens
    )


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_form_report_equivariance_matches_the_scalar_loop(q, n, monkeypatch):
    assert involution_form_report(q, n, CAP)["equivariant"] and _scalar_form_equivariant(q, n)
    # with g for its own inverse both sides differ for every pair: the generators are not involutions
    real = involutions._generator_stacks
    monkeypatch.setattr(involutions, "_generator_stacks", lambda q, n, tag: (real(q, n, tag)[0],) * 2)
    monkeypatch.setattr(Mat, "inv", lambda self: self)
    assert not involution_form_report(q, n, CAP)["equivariant"]
    assert not _scalar_form_equivariant(q, n)


@pytest.mark.parametrize("q", [5, 13])
def test_isotropy_masks_match_the_scalar_loops(q):
    """The square branch's isotropy and diagonal sets, against one `Mat` test per element."""
    sp = make_space(q, 1)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    h_seed = Mat.diag(fp, [i, -i])
    group = enumerate_symplectic(sp, TAG_SP_F, CAP)
    isotropy = {entry_bytes(g.mat.a) for g in group if g.mat @ h_seed == h_seed @ g.mat}
    diagonal = {
        entry_bytes(g.mat.a)
        for g in group
        if sub_block(g.mat, 0, 1, 1, 2).is_zero and sub_block(g.mat, 1, 2, 0, 1).is_zero
    }
    rep = correspondence_report(q, 1, CAP, 10**4)
    assert rep["isotropy_is_diagonal_subgroup"] and isotropy == diagonal
    assert rep["isotropy_order"] == len(isotropy) == q - 1  # diag(a, 1/a)
    assert rep["homogeneous_count_matches"]


def test_classification_3_1():
    rep = classify_involutions(3, 1, CAP)
    assert rep["total"] == 2
    assert rep["observed_k"] == [0, 2]
    assert rep["eigenspaces_nondegenerate"] and rep["reconstruction"]
    assert rep["each_class_single_orbit"]
    assert all(c["size"] == 1 for c in rep["classes"])


def test_classification_3_2():
    rep = classify_involutions(3, 2, CAP)
    assert set(rep["observed_k"]) <= {0, 2, 4}
    assert rep["each_class_single_orbit"]
    sizes = {c["k"]: c["size"] for c in rep["classes"]}
    assert sizes[0] == sizes[4] == 1
    assert sizes[2] == 90  # nondegenerate planes in the rational space


# ---------------------------------------------------------------------------
# the stacked routes against the scalar ones, kept here as the oracle
# ---------------------------------------------------------------------------

def _scalar_eigenspace(sp, t: Mat, value) -> Mat:
    return mat_kernel(t - value * sp.identity)


def _scalar_eigenspace_model(t: GroupElement):
    """The +i eigenspace of one anti-involution, through the scalar kernel."""
    sp = make_space(t.mat.fp.q, t.mat.rows // 2)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    return from_basis(sp, _scalar_eigenspace(sp, t.mat, i))


def _scalar_eigenspace_report(t: GroupElement) -> dict:
    """The eigenspace contracts of one anti-involution, through scalar kernels and ranks."""
    sp = make_space(t.mat.fp.q, t.mat.rows // 2)
    fp = sp.fp
    q = fp.q
    i = fp.sqrt(fp.e(-1))
    ker_p = _scalar_eigenspace(sp, t.mat, i)
    ker_m = _scalar_eigenspace(sp, t.mat, -i)
    out = {"plus_dim": ker_p.cols, "minus_dim": ker_m.cols}
    out["nonzero"] = ker_p.cols > 0 and ker_m.cols > 0
    out["dims_split"] = ker_p.cols + ker_m.cols == sp.dim
    w = from_basis(sp, ker_p)
    out["lagrangian"] = True  # from_basis validates isotropy and rank
    if epsilon_f(q) == -1:
        wm = from_basis(sp, ker_m)
        out["conjugate_swaps"] = from_basis(sp, w.basis.conj()) == wm
        joined = Mat(fp, np.concatenate([ker_p.a, ker_p.conj().a], axis=1))
        out["no_rational_vectors"] = joined.rank() == sp.dim
        cross = w.basis.T @ sp.j @ wm.basis.conj()
        out["orthogonal_decomposition"] = cross.is_zero
        out["top_stratum"] = gram(w, "h_e").rank() == sp.n
    else:
        out["null_stratum"] = gram(w, "h_e").rank() == 0
    return out


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)])
def test_eigenspace_suite_matches_the_scalar_reports(q, n):
    sp = make_space(q, n)
    ants = anti_involutions(q, n, CAP)
    models, rep = eigenspace_suite(sp, ants.arr)
    for row, t in enumerate(ants):
        assert {k: v[row].item() for k, v in rep.items()} == _scalar_eigenspace_report(t)
        assert models[row].tobytes() == _scalar_eigenspace_model(t).basis.a.tobytes()
        assert eigenspace_model(t) == _scalar_eigenspace_model(t)
    # a unipotent generator has neither eigenvalue: only its own row fails
    extra = np.concatenate([ants.arr, generators(sp, TAG_SP_F)[0].mat.a[None]])
    _, rep = eigenspace_suite(sp, extra)
    assert rep["dims_split"].tolist() == [True] * len(ants) + [False]
    assert not rep["lagrangian"][-1] and rep["lagrangian"][:-1].all()


def test_a_non_lagrangian_eigenspace_is_a_fail_record(monkeypatch, fresh_cell):
    """A row with no Lagrangian +i eigenspace fails the cell instead of raising."""
    sp = make_space(3, 1)
    gen = generators(sp, TAG_SP_F)[0]
    bad = EnumeratedGroup(sp, TAG_SP_F, np.concatenate([anti_involutions(3, 1, CAP).arr, gen.mat.a[None]]))
    real = involutions.scaled_involutions
    monkeypatch.setattr(
        involutions, "scaled_involutions", lambda q, n, a, cap: bad if a % q == q - 1 else real(q, n, a, cap)
    )
    rec = run_check("involutions", 3, 1, CAP, 10**4)
    assert rec["status"] == "fail"
    assert not rec["data"]["subchecks"]["eigenspace_suite"]
    assert not rec["data"]["correspondence"]["equivariant"]
    with pytest.raises(ParameterError):
        eigenspace_model(gen)


@pytest.mark.parametrize("q,n", [(3, 1), (7, 1), (3, 2)])
def test_stacked_pairing_identity_matches_the_scalar_pairs(q, n):
    """All 81 rational pairs for each anti-involution at (3,1); 200 seeded (T, v, w) elsewhere."""
    sp = make_space(q, n)
    fp = sp.fp
    ants = anti_involutions(q, n, CAP)
    rng = random.Random(f"pairing:{q}:{n}")
    col = lambda: Mat.column(fp, [fp.e(rng.randrange(q)) for _ in range(sp.dim)])  # noqa: E731
    if (q, n) == (3, 1):
        vecs = [Mat.column(fp, [fp.e(a), fp.e(b)]) for a in range(3) for b in range(3)]
        pairs = [(v, w) for v in vecs for w in vecs]
        triples = [(t, pairs) for t in ants]
    else:
        triples = [(ants[rng.randrange(len(ants))], [(col(), col())]) for _ in range(200)]
        pairs = [p for _, (p,) in triples]
    assert _pairing_identity(sp, ants.arr).all()
    assert all(pairing_identity_holds(t, ps) for t, ps in triples)
    # the identity is no anti-involution: both routes reject it
    assert not _pairing_identity(sp, np.concatenate([ants.arr, sp.identity.a[None]]))[-1]
    assert not pairing_identity_holds(GroupElement(sp.identity, TAG_SP_F), pairs)


def _scalar_classification(q, n):
    """Per involution: nondegenerate eigenspaces, reconstruction, and classes by fixed dimension."""
    sp = make_space(q, n)
    fp = sp.fp
    classes: dict[int, int] = {}
    nondeg_ok = rebuild_ok = True
    for t in scaled_involutions(q, n, 1, CAP):
        plus = _scalar_eigenspace(sp, t.mat, fp.one)
        minus = _scalar_eigenspace(sp, t.mat, -fp.one)
        classes[plus.cols] = classes.get(plus.cols, 0) + 1
        for base in (plus, minus):
            if base.cols:
                nondeg_ok &= (base.T @ sp.j @ base).rank() == base.cols
        basis = Mat(fp, np.concatenate([plus.a, minus.a], axis=1))
        signs = Mat.diag(fp, [fp.one] * plus.cols + [-fp.one] * minus.cols)
        inv_basis = basis.inv()
        rebuild_ok &= inv_basis is not None and basis @ signs @ inv_basis == t.mat
    return nondeg_ok, rebuild_ok, classes


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_classification_matches_the_scalar_loop(q, n):
    rep = classify_involutions(q, n, CAP)
    nondeg_ok, rebuild_ok, classes = _scalar_classification(q, n)
    assert rep["eigenspaces_nondegenerate"] is nondeg_ok is True
    assert rep["reconstruction"] is rebuild_ok is True
    assert rep["observed_k"] == sorted(classes)
    assert {c["k"]: c["size"] for c in rep["classes"]} == classes


def _seed_of_the_square_branch(sp):
    fp, eye = sp.fp, Mat.identity(sp.fp, sp.n)
    i = fp.sqrt(fp.e(-1))
    return block_diag(fp, i * eye, (-i) * eye)


def _classes(q, n):
    """The T^2 = I sub-table and its rows by fixed-space dimension."""
    sp = make_space(q, n)
    invs = scaled_involutions(q, n, 1, CAP)
    dims = involutions._eigenspaces(sp, invs.arr, sp.fp.one)[1]
    return invs, [np.flatnonzero(dims == k) for k in np.flatnonzero(np.bincount(dims)).tolist()]


def _walk(rows, seed):
    """The rows a conjugation table reaches from one seed row, sorted."""
    return np.sort(frontier_closure(np.array([seed]), lambda f: rows[f[:, 0], :, None], len(rows))[0][:, 0])


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)])
def test_conjugation_table_orbits_match_the_matrix_closure(q, n):
    """Each orbit verdict, and the orbit each table walk reaches, against a BFS over matrices."""
    sp = make_space(q, n)
    gens = generators(sp, TAG_SP_F)
    if epsilon_f(q) == 1:
        ants, seed = anti_involutions(q, n, CAP), _seed_of_the_square_branch(sp)
        want = conjugation_closure(sp, seed, gens, len(ants) + 1)
        assert correspondence_report(q, n, CAP, CAP)["single_orbit"] == np.array_equal(want, ants.keys)
        walked = _walk(involutions._conjugation_rows(q, n, -1), ants.rows(seed.a[None])[0])
        assert np.array_equal(ants.keys[walked], want)
    invs, classes = _classes(q, n)
    table = involutions._conjugation_rows(q, n, 1)
    verdicts = [c["single_orbit"] for c in classify_involutions(q, n, CAP)["classes"]]
    assert len(verdicts) == len(classes)
    for rows, verdict in zip(classes, verdicts):
        want = conjugation_closure(sp, invs[rows[0]].mat, gens, len(invs) + 1)
        assert verdict and np.array_equal(want, invs.keys[rows])
        assert np.array_equal(invs.keys[_walk(table, rows[0])], want)


def _mutated(table, row, col, value):
    bad = table.copy()
    bad[row, col] = value
    return bad


def test_a_mutated_anti_involution_table_fails_the_orbit_and_equivariance(monkeypatch):
    """At (5,1), the square branch: one entry redirected to another row, or set to -1, turns
    every verdict read off the table false."""
    assert correspondence_report(5, 1, CAP, CAP)["single_orbit"]
    table = involutions._conjugation_rows(5, 1, -1)
    for value in ((table[7, 1] + 1) % len(table), -1):
        bad = _mutated(table, 7, 1, value)
        monkeypatch.setattr(involutions, "_conjugation_rows", lambda q, n, a: bad)
        corr = correspondence_report(5, 1, CAP, CAP)
        assert not corr["single_orbit"] and not corr["equivariant"]
        assert not involution_form_report(5, 1, CAP)["equivariant"]


def test_a_mutated_involution_table_fails_the_affected_class(monkeypatch):
    """At (3,2): an entry of a class row redirected inside its own class, or set to -1, fails
    that class only."""
    _, classes = _classes(3, 2)
    assert all(c["single_orbit"] for c in classify_involutions(3, 2, CAP)["classes"])
    table = involutions._conjugation_rows(3, 2, 1)
    big = max(range(len(classes)), key=lambda c: len(classes[c]))
    members = classes[big]
    row = members[1]
    for value in (members[members != table[row, 0]][0], -1):
        bad = _mutated(table, row, 0, value)
        monkeypatch.setattr(involutions, "_conjugation_rows", lambda q, n, a: bad)
        verdicts = [c["single_orbit"] for c in classify_involutions(3, 2, CAP)["classes"]]
        assert verdicts == [c != big for c in range(len(classes))]
