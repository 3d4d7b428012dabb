import numpy as np
import pytest

from fsiegel import involutions
from fsiegel.checks import run_check
from fsiegel.errors import ParameterError, ResourceLimitError
from fsiegel.field import make_fields, sqrt_in_e
from fsiegel.linalg import Mat
from fsiegel.symplectic import TAG_SP_F, GroupElement, enumerate_symplectic, generators, make_space
from fsiegel.lagrangian import strata
from fsiegel.orbits import act
from fsiegel.involutions import (
    _equivariant,
    anti_involutions,
    classify_involutions,
    correspondence_report,
    eigenspace_model,
    eigenspace_report,
    involution_form,
    involution_form_report,
    pairing_identity_holds,
    scaled_involutions,
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
        keys = {t.mat.key() for t in anti_involutions(q, n, CAP)}
        assert sp.j.key() in keys


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
    assert bt.det() == fp.one
    with pytest.raises(ParameterError):
        involution_form(GroupElement(sp.identity, TAG_SP_F))


@pytest.mark.parametrize("q", [3, 5])
def test_involution_form_discriminants_exhaustive(q):
    fp = make_fields(q)
    for t in anti_involutions(q, 1, CAP):
        bt = involution_form(t)
        assert bt.is_symmetric()
        det = bt.det()
        assert det == fp.one
        assert fp.is_square_in_f(det.re)


def test_eigenline_of_j_q3():
    sp = make_space(3, 1)
    fp = sp.fp
    w = eigenspace_model(GroupElement(sp.j, TAG_SP_F))
    assert w.encode() == "1;0+1*s"
    # the column is an eigenvector for the chosen square root of -1
    i = sqrt_in_e(fp.e(-1))
    vec = w.basis
    assert sp.j @ vec == i * vec
    assert w.label().h_rank == 1


def test_eigenlines_match_closed_forms_q5():
    # at q = 5 the eigenvalue lies in the base field and the lower
    # triangular family all share the same eigenline
    sp = make_space(5, 1)
    fp = sp.fp
    i = sqrt_in_e(fp.e(-1))
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
    by_key = {t.mat.key(): w for t, w in zip(ants, models)}
    return all(
        act(g, by_key[t.mat.key()]) == by_key.get((g.mat @ t.mat @ g.mat.inv()).key())
        for t in ants
        for g in gens
    )


@pytest.mark.parametrize("q", [3, 5, 7])
def test_stacked_equivariance_matches_the_scalar_loop(q):
    sp = make_space(q, 1)
    ants = anti_involutions(q, 1, CAP)
    gens = generators(sp, TAG_SP_F)
    models = [eigenspace_model(t) for t in ants]
    stack = np.stack([w.basis.a for w in models])
    assert _equivariant(sp, ants, stack, gens) and _scalar_equivariant(ants, models, gens)
    # give the first anti-involution the eigenspace of one with another eigenspace
    other = next(w for w in models if w != models[0])
    bad = [other] + models[1:]
    bad_stack = np.stack([w.basis.a for w in bad])
    assert not _equivariant(sp, ants, bad_stack, gens)
    assert not _scalar_equivariant(ants, bad, gens)


def test_involutions_refuse_over_either_cap_before_any_work(monkeypatch):
    def fail(q, n):
        raise AssertionError("the anti-involutions were computed")

    monkeypatch.setattr(involutions, "_anti_involutions", fail)
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
    keys = {t.mat.key() for t in anti_involutions(3, 1, CAP)}
    grp = enumerate_symplectic(sp, TAG_SP_F, CAP)
    for g in grp:
        ginv = g.mat.inv()
        for t in anti_involutions(3, 1, CAP):
            assert (g.mat @ t.mat @ ginv).key() in keys


def test_scaled_involutions_examples():
    assert [len(scaled_involutions(7, 1, a, CAP)) for a in (2, 4)] == [0, 0]
    s1 = scaled_involutions(3, 1, 1, CAP)
    sp = make_space(3, 1)
    assert {t.mat.key() for t in s1} == {sp.identity.key(), (-sp.identity).key()}


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
    isotropy = {g.mat.key() for g in group if g.mat @ h_seed == h_seed @ g.mat}
    diagonal = {
        g.mat.key() for g in group if g.mat.block(0, 1, 1, 2).is_zero and g.mat.block(1, 2, 0, 1).is_zero
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
