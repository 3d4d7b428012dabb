import importlib

import pytest

from fsiegel.checks import run_check
from fsiegel.errors import ParameterError
from fsiegel.field import make_fields, tau_f
from fsiegel.linalg import Mat, block
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    generators,
    is_member,
    make_space,
)
from fsiegel.lagrangian import l_plus, strata
from fsiegel.orbits import act
from fsiegel.cayley import (
    cayley,
    map_strata,
    orthogonal_group_elements,
    partial_cayley,
    stabilizer_structure,
    unitary_diagonal_subgroup,
    unitary_group_elements,
    v_k,
    verify_conjugation,
)


def test_cayley_3_1_closed_form():
    cd = cayley(3, 1)
    fp = make_fields(3)
    assert cd.branch == "minus-one-nonsquare"
    assert cd.normalized
    # -2 = 1 mod 3, so the normalization scalar is 1 and C = (s, 1; 1, s)
    assert cd.c.mat == Mat.build(fp, [[fp.s, 1], [1, fp.s]])
    assert cd.c.mat.det() == fp.one
    assert is_member(make_space(3, 1), cd.c.mat, TAG_SP_E)
    assert cd.c_conformal == fp.e(tau_f(3)) * fp.s


def test_cayley_conformal_spot_value_3_1():
    sp = make_space(3, 1)
    fp = sp.fp
    cd = cayley(3, 1)
    c = cd.c.mat
    e1, e2 = sp.e_vec(0), sp.e_vec(1)
    lhs = ((c @ e1).T @ sp.d_form @ (c @ e2).conj()).at(0, 0)
    assert lhs == fp.s  # = tau * i * h_e(e_1, e_2)


def test_inverse_conjugate_identity_nonsquare_branch():
    for q in (3, 7, 11):
        cd = cayley(q, 1)
        fp = make_fields(q)
        c = cd.c.mat
        assert c.inv() == fp.e(-tau_f(q)) * c.conj()


def test_cayley_square_branch_is_unnormalized_similitude():
    cd = cayley(5, 1)
    fp = make_fields(5)
    assert cd.branch == "minus-one-square"
    assert not cd.normalized and cd.c is None
    # the multiplier has non-square norm, so no scalar can normalize it
    assert fp.sqrt(cd.multiplier) is None
    assert not fp.is_square_in_f(cd.multiplier.norm().re)
    # conformal factor is purely imaginary
    assert cd.conformal.conj() == -cd.conformal


def test_paper_parameter_family_fails_square_branch():
    # with norm(v) = -1 and b purely imaginary the block similitude does
    # not conjugate the rational group into the h_0-unitary one
    fp = make_fields(5)
    sp = make_space(5, 1)
    eye = Mat.identity(fp, 1)
    failures = 0
    trials = 0
    for v in fp.elements():
        if v.norm() != fp.e(-1):
            continue
        b = fp.s
        m = block(fp, [[v * eye, b * eye], [eye, (v * b) * eye]])
        if m.det() == fp.zero:
            continue
        trials += 1
        m_inv = m.inv()
        bad = any(
            not is_member(sp, m @ g.mat @ m_inv, TAG_SP_0) for g in generators(sp, TAG_SP_F)
        )
        failures += bad
    assert trials > 0 and failures == trials


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_conjugation_forward_backward(q, n):
    cd = cayley(q, n)
    rep = verify_conjugation(cd, q, n, cap_group=10**5)
    assert rep["forward_ok"] and rep["backward_ok"] and rep["identity_fixed"]


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2)])
def test_conjugate_closure_equals_unitary_group(q, n):
    cd = cayley(q, n)
    rep = verify_conjugation(cd, q, n, cap_group=10**5)
    assert rep["closure_matches_order"]
    assert rep["conjugate_set_equal"]


def test_scalar_invariance_of_conjugation():
    # the raw similitude and its normalized multiple induce the same map
    cd = cayley(3, 1)
    sp = make_space(3, 1)
    m, c = cd.m, cd.c.mat
    m_inv, c_inv = m.inv(), c.inv()
    for g in generators(sp, TAG_SP_F):
        assert m @ g.mat @ m_inv == c @ g.mat @ c_inv


def test_partial_cayley_values_3_1():
    sp = make_space(3, 1)
    fp = sp.fp
    t0 = partial_cayley(sp, 0)
    assert t0.mat == sp.identity
    t1 = partial_cayley(sp, 1)
    # sqrt(2)/2 = 2s at q = 3
    two_s = fp.e(0, 2)
    assert t1.mat == Mat.build(fp, [[two_s, -two_s], [two_s, two_s]])
    assert is_member(sp, t1.mat, TAG_SP_E)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 2), (7, 1)])
def test_partial_cayley_carries_seed(q, n):
    sp = make_space(q, n)
    for k in range(n + 1):
        tk = partial_cayley(sp, k)
        assert is_member(sp, tk.mat, TAG_SP_E)
        assert act(tk, l_plus(sp)) == v_k(sp, k)


def test_v_k_range_errors():
    sp = make_space(3, 2)
    with pytest.raises(ParameterError):
        v_k(sp, 3)
    with pytest.raises(ParameterError):
        partial_cayley(sp, -1)


def test_small_group_scans():
    fp = make_fields(3)
    assert len(orthogonal_group_elements(fp, 0)) == 1
    assert len(orthogonal_group_elements(fp, 1)) == 2
    assert len(orthogonal_group_elements(fp, 2)) == 8  # anisotropic plane form
    assert len(unitary_group_elements(fp, 0)) == 1
    assert len(unitary_group_elements(fp, 1)) == 4
    assert len(unitary_group_elements(fp, 2)) == 96
    fp5 = make_fields(5)
    assert len(unitary_group_elements(fp5, 1)) == 6
    assert len(orthogonal_group_elements(fp5, 1)) == 2


def test_stabilizer_structure_spot_values_3_1():
    rep0 = stabilizer_structure(3, 1, 0, cap_group=10**5, cap_points=10**4)
    assert rep0["mode"] == "full"
    assert rep0["filtered_order"] == 4 and rep0["predicted_order"] == 4
    assert rep0["orbit_size"] == 6
    assert rep0["filtered_matches_predicted"] and rep0["orbit_stabilizer_consistent"]
    assert rep0["levi_contained"] and rep0["unipotent_contained"]

    rep1 = stabilizer_structure(3, 1, 1, cap_group=10**5, cap_points=10**4)
    assert rep1["filtered_order"] == 6 and rep1["predicted_order"] == 6
    assert rep1["orbit_size"] == 4


def test_stabilizer_structure_overcount_at_rank_two():
    # the filtered stabilizers at n = 2 are strictly larger than the
    # predicted product for k >= 1; the factors themselves stay contained
    rep = stabilizer_structure(3, 2, 1, cap_group=10**5, cap_points=10**4)
    assert rep["filtered_order"] == 216 and rep["predicted_order"] == 24
    assert rep["orbit_stabilizer_consistent"]
    assert rep["levi_contained"] and rep["unipotent_contained"]
    rep2 = stabilizer_structure(3, 2, 2, cap_group=10**5, cap_points=10**4)
    assert rep2["filtered_order"] == 1296 and rep2["predicted_order"] == 216
    assert rep2["levi_contained"] and rep2["unipotent_contained"]


def test_stabilizer_structure_reduced_mode():
    rep = stabilizer_structure(5, 2, 0, cap_group=10**4, cap_points=2 * 10**4)
    assert rep["mode"] == "reduced"
    assert rep["quotient_matches_orbit"]
    assert "filtered_order" not in rep


def test_stabilizers_refuse_over_the_orbit_cap_before_scanning(monkeypatch):
    def scan(fp, m):
        raise AssertionError("the unitary scan ran before the orbit cap was met")

    monkeypatch.setattr(importlib.import_module("fsiegel.cayley"), "unitary_group_elements", scan)
    rec = run_check("stabilizers", 7, 2, 10**5, 5000)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": "orbit exceeds cap 5000"})


def test_stabilizers_refuse_an_oversized_scan():
    rec = run_check("stabilizers", 11, 2, 10**5, 2 * 10**4)
    assert rec["status"] == "skipped-resource"
    assert rec["data"] == {"reason": "scan of 214358881 candidate matrices exceeds limit"}


def test_unitary_diagonal_subgroup():
    rep = unitary_diagonal_subgroup(3, 1, 10**5)
    assert rep["matches"] and rep["count"] == 4
    rep2 = unitary_diagonal_subgroup(3, 2, 10**5)
    assert rep2["matches"] and rep2["count"] == 96


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_map_strata_exact(q, n):
    rep = map_strata(q, n, cap_points=2 * 10**4)
    assert rep["all_mapped"] and rep["counts_match"]
    assert all(not row["strata_literally_equal"] for row in rep["strata"] if row["h_count"])


def test_map_strata_is_bijection_on_points():
    cd = cayley(3, 1)
    h_str, o_str = strata(3, 1)
    images = set()
    for stratum in h_str:
        for w in stratum:
            images.add(act(cd.m, w).key)
    assert len(images) == 10
