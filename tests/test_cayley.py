import importlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from fsiegel import checks, symplectic
from fsiegel.checks import _conformal_pairs, _rng, run_check
from fsiegel.errors import ConsistencyError, ParameterError
from fsiegel.field import make_fields, tau_f
from fsiegel.linalg import Mat, block, mm, stack_keys
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    EnumeratedGroup,
    GroupElement,
    _generator_stack,
    enumerate_symplectic,
    generators,
    gl_order,
    is_member,
    make_space,
    members,
    orthogonal_order,
    unitary_order,
    v_k_orbit_size,
)
from fsiegel.lagrangian import PointTable, enumerate_lagrangians, from_basis, l_minus, l_plus, strata, witnesses
from fsiegel.orbits import _action_table, act, orbit
from fsiegel.involutions import _anti_involution_suite, _square_scalars
from fsiegel.cayley import (
    CayleyData,
    _cell_actions,
    _m_rows,
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

from oracles import (
    levi_by_two_blocks,
    map_strata_by_images,
    orthogonal_by_scan,
    unipotent_by_slots,
    unitary_by_scan,
    v_k_span_by_hand,
    witness_spans_by_hand,
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


def test_conjugation_checks_each_direction_with_one_stacked_membership_call(monkeypatch):
    """One `members` call per direction, over the whole generator stack, and no `is_member`."""
    cayley_mod = importlib.import_module("fsiegel.cayley")
    symplectic = importlib.import_module("fsiegel.symplectic")

    cd = cayley(3, 2)
    verify_conjugation(cd, 3, 2, 10**5)  # fills the generators and the group tables
    stacks, scalar = [], []
    monkeypatch.setattr(cayley_mod, "members", lambda sp, g, t: stacks.append((len(g), t)) or members(sp, g, t))
    monkeypatch.setattr(symplectic, "is_member", lambda *a: scalar.append(a) or is_member(*a))
    rep = verify_conjugation(cd, 3, 2, 10**5)
    assert rep["forward_ok"] and rep["backward_ok"] and rep["generators"] == 6
    assert stacks == [(6, TAG_SP_0), (6, TAG_SP_F)] and scalar == []


def test_conjugation_flags_do_not_rest_on_the_cached_similitude(fresh_cell):
    """A `cd` built before the cell slot is emptied is checked like any other."""
    cd = cayley(3, 1)
    symplectic._slot.clear()
    assert cayley(3, 1) is not cd
    rep = verify_conjugation(cd, 3, 1, 10**5)
    assert rep["forward_ok"] and rep["backward_ok"]


@pytest.mark.parametrize("tag", [TAG_SP_0, TAG_SP_F])
def test_cayley_refuses_a_generator_that_does_not_conjugate(tag, monkeypatch, fresh_cell):
    """A conjugated generator outside its group turns its flag false and the record `fail`; M still builds."""
    cayley_mod = importlib.import_module("fsiegel.cayley")

    def first_row_out(sp, g, t):
        found = members(sp, g, t)
        if t == tag:
            found[0] = False
        return found

    monkeypatch.setattr(cayley_mod, "members", first_row_out)
    rec = run_check("cayley", 3, 1, 10**5, 10**4)
    sub = rec["data"]["subchecks"]
    assert rec["status"] == "fail"
    assert (sub["forward_ok"], sub["backward_ok"]) == (tag != TAG_SP_0, tag != TAG_SP_F)
    assert all(v for k, v in sub.items() if k not in ("forward_ok", "backward_ok"))
    assert cayley(3, 1).branch == "minus-one-nonsquare"


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2)])
def test_conjugate_closure_equals_unitary_group(q, n):
    cd = cayley(q, n)
    rep = verify_conjugation(cd, q, n, cap_group=10**5)
    assert rep["closure_matches_order"]
    assert rep["conjugate_set_equal"]


@pytest.mark.parametrize("q", [3, 5])
def test_conjugate_set_matches_the_scalar_loop(q):
    cd = cayley(q, 1)
    sp = cd.space
    m, m_inv = cd.m, cd.m.inv()
    gf = enumerate_symplectic(sp, TAG_SP_F, 10**5)
    g0 = enumerate_symplectic(sp, TAG_SP_0, 10**5)
    scalar = {(m @ g.mat @ m_inv).key() for g in gf} == {g.mat.key() for g in g0}
    assert verify_conjugation(cd, q, 1, 10**5)["conjugate_set_equal"] and scalar
    # the identity in place of M leaves the rational group, which is not the unitary one
    fake = SimpleNamespace(space=sp, m=sp.identity)
    rep = verify_conjugation(fake, q, 1, 10**5)
    assert not rep["conjugate_set_equal"]
    # cayley() never checked this M's generator conjugations, so they do not read true
    assert not rep["forward_ok"] and not rep["backward_ok"]
    assert {g.mat.key() for g in gf} != {g.mat.key() for g in g0}


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


@pytest.mark.parametrize("q", [3, 5, 7])
def test_v_k_equals_the_entry_by_entry_span(q):
    for n in range(1, 5):
        sp = make_space(q, n)
        for k in range(n + 1):
            assert v_k(sp, k) == from_basis(sp, Mat(sp.fp, v_k_span_by_hand(n, k)))


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_witness_bases_equal_the_entry_by_entry_spans(q):
    fp = make_fields(q)
    for n in range(1, 6):
        sp = make_space(q, n)
        want = {name: from_basis(sp, Mat(fp, cols)) for name, cols in witness_spans_by_hand(fp, n).items()}
        got = {r.name: r.lagrangian for r in witnesses(q, n) if r.lagrangian is not None}
        assert got == want


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (23, 1), (3, 2)])
def test_stabilizer_factors_equal_the_two_block_and_slot_references(q, n, monkeypatch):
    """The two stacks `stabilizer_structure` looks up in the stabilizer's rows, the Levi
    factors and the T_k-conjugated unipotents, equal the references as sets."""
    looked_up = []
    rows = EnumeratedGroup.rows

    def recording(self, mats):
        looked_up.append(np.array(mats))
        return rows(self, mats)

    monkeypatch.setattr(EnumeratedGroup, "rows", recording)
    sp = make_space(q, n)
    fp = sp.fp
    for k in range(n + 1):
        looked_up.clear()
        assert stabilizer_structure(q, n, k, 10**5, 2 * 10**4)["mode"] == "full"
        levi, uni = looked_up
        tk = partial_cayley(sp, k).mat
        want_levi = levi_by_two_blocks(fp, orthogonal_group_elements(fp, k), unitary_group_elements(fp, n - k))
        want_uni = mm(fp, mm(fp, tk.a, unipotent_by_slots(sp, k)), tk.inv().a)
        for got, want in ((levi, want_levi), (uni, want_uni)):
            assert len(got) == len(want) == len(set(stack_keys(want, q).tolist()))
            assert set(stack_keys(got, q).tolist()) == set(stack_keys(want, q).tolist())


def test_small_group_counts():
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


@pytest.mark.parametrize(
    "over_e,q,m",
    [(True, 3, 1), (True, 3, 2), (True, 5, 1), (True, 5, 2), (True, 7, 1), (True, 7, 2), (True, 23, 1)]
    + [(False, q, k) for q in (3, 5, 7) for k in (1, 2, 3)]
    + [(False, 23, 1), (False, 23, 2)],
)
def test_small_groups_are_the_scans_stacks(over_e, q, m):
    fp = make_fields(q)
    got = (unitary_group_elements if over_e else orthogonal_group_elements)(fp, m)
    want = (unitary_by_scan if over_e else orthogonal_by_scan)(fp, m)
    assert np.array_equal(np.stack([g.a for g in got]), np.stack([w.a for w in want]))
    assert len(want) == (unitary_order if over_e else orthogonal_order)(q, m)


@pytest.mark.parametrize("over_e,q,m", [(True, 3, 3), (True, 11, 2), (False, 3, 4), (False, 7, 3)])
def test_small_groups_past_the_scans_have_their_closed_form_orders(over_e, q, m):
    fp = make_fields(q)
    got = (unitary_group_elements if over_e else orthogonal_group_elements)(fp, m)
    assert len(got) == (unitary_order if over_e else orthogonal_order)(q, m)


def test_orthogonal_order_spot_values():
    assert [orthogonal_order(q, k) for q, k in [(3, 0), (3, 2), (5, 2), (7, 2), (3, 4)]] == [1, 8, 8, 16, 1152]


@pytest.mark.parametrize(
    "build,order_name,message",
    [
        (orthogonal_group_elements, "orthogonal_order", "closure of the O(2) reflections has 8 elements, its closed form 9"),
        (unitary_group_elements, "unitary_order", "closure of the U(2) reflections has 96 elements, its closed form 97"),
    ],
)
def test_a_reflection_closure_short_of_its_closed_form_is_refused(monkeypatch, build, order_name, message):
    cayley_mod = importlib.import_module("fsiegel.cayley")
    order = getattr(cayley_mod, order_name)
    monkeypatch.setattr(cayley_mod, order_name, lambda q, m: order(q, m) + 1)
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        build(make_fields(3), 2)


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
    def build(fp, m):
        raise AssertionError("the unitary group was built before the orbit cap was met")

    monkeypatch.setattr(importlib.import_module("fsiegel.cayley"), "unitary_group_elements", build)
    rec = run_check("stabilizers", 7, 2, 10**5, 5000)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": "orbit exceeds cap 5000"})


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (3, 2), (5, 2)])
def test_v_k_orbit_size_equals_the_bfs_orbit(q, n):
    sp = make_space(q, n)
    gens = generators(sp, TAG_SP_0)
    assert [v_k_orbit_size(q, n, k) for k in range(n + 1)] == [orbit(v_k(sp, k), gens).size for k in range(n + 1)]


def test_v_k_orbit_size_closed_forms():
    assert [v_k_orbit_size(7, 2, k) for k in range(3)] == [102900, 16800, 400]
    assert [gl_order(7, k) for k in range(3)] == [1, 6, 2016]
    assert [unitary_order(7, m) for m in range(3)] == [1, 8, 2688]


def test_stabilizers_refuse_the_orbit_from_its_closed_form(monkeypatch):
    cayley_mod = importlib.import_module("fsiegel.cayley")

    def refuse(*args, **kwargs):
        raise AssertionError("the stabilizer of V_k was built before the orbit cap was met")

    for name in ("enumerate_lagrangians", "_cell_actions", "v_k", "partial_cayley", "generators"):
        monkeypatch.setattr(cayley_mod, name, refuse)
    rec = run_check("stabilizers", 7, 2, 10**5, 5000)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": "orbit exceeds cap 5000"})


@pytest.mark.parametrize("cap", [540, 600, 819])
def test_stabilizers_skip_on_the_point_table_when_only_the_orbit_fits(cap):
    """V_0's orbit at (3, 2) has 540 points and the cell 820: the orbit is walked in the cell's table,
    so a cap in between refuses the table."""
    assert v_k_orbit_size(3, 2, 0) == 540
    rec = run_check("stabilizers", 3, 2, 10**5, cap)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": f"820 Lagrangians exceed cap {cap}"})


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (3, 2), (5, 2)])
def test_the_checks_orbit_sizes_are_the_closed_forms(q, n):
    sizes = [v_k_orbit_size(q, n, k) for k in range(n + 1)]
    assert checks.check_theorem1(q, n, 10**5, 10**5)["unitary_orbit_sizes"] == sorted(sizes)
    per_k = checks.check_stabilizers(q, n, 10**5, 10**5)["per_k"]
    assert [entry["orbit_size"] for entry in per_k] == sizes


def test_stabilizers_refuse_a_bfs_orbit_that_differs_from_its_closed_form(monkeypatch):
    cayley_mod = importlib.import_module("fsiegel.cayley")
    monkeypatch.setattr(cayley_mod, "v_k_orbit_size", lambda q, n, k: v_k_orbit_size(q, n, k) + 1)
    with pytest.raises(ConsistencyError, match="orbit of V_0 has 6 points, its closed form 7"):
        stabilizer_structure(3, 1, 0, cap_group=10**5, cap_points=10**4)


def test_stabilizers_refuse_a_v_k_outside_the_point_table(monkeypatch):
    cayley_mod = importlib.import_module("fsiegel.cayley")
    sp = make_space(3, 1)
    off = PointTable(sp, l_minus(sp).basis.a[None])  # V_0 is L+
    monkeypatch.setattr(cayley_mod, "enumerate_lagrangians", lambda q, n, cap=None: off)
    with pytest.raises(ConsistencyError, match="V_0 is not a point of the cell's table"):
        stabilizer_structure(3, 1, 0, cap_group=10**5, cap_points=10**4)


def test_stabilizers_at_11_2_refuse_the_orbit_over_the_point_cap():
    assert v_k_orbit_size(11, 2, 0) == 1623820
    rec = run_check("stabilizers", 11, 2, 10**5, 2 * 10**4)
    assert rec["status"] == "skipped-resource"
    assert rec["data"] == {"reason": "orbit exceeds cap 20000"}


def _scalar_zero_block_report(q, n) -> dict:
    """The scalar route: one `Mat` block test per element of the unitary group.

    It reads the unitary scan from the module, so a patched scan reaches both routes.
    """
    sp = make_space(q, n)
    fp = sp.fp
    group = enumerate_symplectic(sp, TAG_SP_0, 10**5)
    got = {g.mat.key() for g in group if g.mat.block(n, 2 * n, 0, n).is_zero}
    u_elems = importlib.import_module("fsiegel.cayley").unitary_group_elements(fp, n)
    zero = Mat.zeros(fp, n, n)
    want = {block(fp, [[a, zero], [zero, a.conj()]]).key() for a in u_elems}
    return {"matches": got == want, "count": len(got), "unitary_order": len(u_elems)}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_zero_block_mask_matches_the_scalar_loop(q, monkeypatch):
    assert unitary_diagonal_subgroup(q, 1, 10**5) == _scalar_zero_block_report(q, 1)
    # one unitary fewer: both routes see the sets differ, and count the same zero-block members
    one_fewer = lambda fp, m: unitary_group_elements(fp, m)[1:]  # noqa: E731
    monkeypatch.setattr(importlib.import_module("fsiegel.cayley"), "unitary_group_elements", one_fewer)
    rep = unitary_diagonal_subgroup(q, 1, 10**5)
    assert rep == _scalar_zero_block_report(q, 1) and not rep["matches"]


def test_cold_stabilizers_cell_builds_few_group_elements(monkeypatch, fresh_cell):
    built = []
    init = symplectic.GroupElement.__init__

    def counting(self, mat, tag):
        built.append(1)
        init(self, mat, tag)

    monkeypatch.setattr(symplectic.GroupElement, "__init__", counting)
    rec = run_check("stabilizers", 3, 2, 10**5, 2 * 10**4)
    # |Sp(4,3)| = 51,840 over the orbit sizes 540, 240 and 40
    assert [k["filtered_order"] for k in rec["data"]["per_k"]] == [96, 216, 1296]
    assert 0 < len(built) < 1000  # 51,840 elements in the group


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


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 2)])
def test_map_strata_matches_the_per_stratum_images(q, n):
    assert map_strata(q, n, 10**5)["strata"] == map_strata_by_images(cayley(q, n), q, n, 10**5)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (23, 1), (3, 2), (5, 2)])
def test_cell_actions_equal_the_direct_tables(q, n):
    sp = make_space(q, n)
    cell = enumerate_lagrangians(q, n)
    actions = _cell_actions(q, n)
    for tag in (TAG_SP_F, TAG_SP_0):
        direct = _action_table(cell, _generator_stack(sp, generators(sp, tag)))
        assert np.array_equal(actions[tag], direct)
        assert not actions[tag].flags.writeable
    assert not any(a.flags.writeable for a in _m_rows(q, n))
    if n == 1:  # the square table and the suite read the whole rational group
        models, rep = _anti_involution_suite(q, n)
        assert not any(a.flags.writeable for a in (_square_scalars(q, n), models, *rep.values()))


@pytest.mark.parametrize("tag,match", [(TAG_SP_F, "lower generator"), (TAG_SP_0, "sp0 generator")])
def test_a_perturbed_generator_breaks_the_table_build(tag, match, monkeypatch, fresh_cell):
    """One changed entry fails l_b J u_b = J (spf, sp0 still conjugate to it) or h_g M = M g (sp0)."""
    cayley_mod = importlib.import_module("fsiegel.cayley")

    sp = make_space(3, 2)
    m = cayley(3, 2).m
    gens = {t: list(generators(sp, t)) for t in (TAG_SP_F, TAG_SP_0)}
    g = gens[tag][-1]  # in spf the last lower generator, paired by place with the last upper one
    bad = g.mat.a.copy()
    bad[0, 0, 0] = (bad[0, 0, 0] + 1) % 3
    gens[tag][-1] = GroupElement(Mat(sp.fp, bad), tag)
    if tag == TAG_SP_F:
        gens[TAG_SP_0] = [GroupElement(m @ h.mat @ m.inv(), TAG_SP_0) for h in gens[TAG_SP_F]]
    monkeypatch.setattr(cayley_mod, "generators", lambda sp_, t: tuple(gens[t]))
    with pytest.raises(ConsistencyError, match=match):
        _cell_actions(3, 2)


def test_a_reordered_lower_family_breaks_the_table_build(monkeypatch, fresh_cell):
    """Each lower generator pairs with the upper one in its place, not with the one of the same b."""
    cayley_mod = importlib.import_module("fsiegel.cayley")

    sp = make_space(3, 2)
    m = cayley(3, 2).m
    spf = list(generators(sp, TAG_SP_F))
    half = len(spf) // 2
    spf[half:] = spf[half:][1:] + spf[half:][:1]  # the same lower family, rotated by one
    gens = {TAG_SP_F: spf, TAG_SP_0: [GroupElement(m @ g.mat @ m.inv(), TAG_SP_0) for g in spf]}
    monkeypatch.setattr(cayley_mod, "generators", lambda sp_, t: tuple(gens[t]))
    with pytest.raises(ConsistencyError, match="lower generator"):
        _cell_actions(3, 2)


def test_theorem1_and_strata_map_canonicalize_five_images_per_point(monkeypatch, fresh_cell):
    """Three upper translations, J and M: 820 x 5 images at (3,2), against 820 x 13 before."""
    images = []

    def counting(real):
        def wrapper(sp, mats, bases):
            images.append(len(mats) * len(bases))
            return real(sp, mats, bases)
        return wrapper

    for name, mod in list(sys.modules.items()):
        if name.startswith("fsiegel") and hasattr(mod, "span_images"):
            monkeypatch.setattr(mod, "span_images", counting(mod.span_images))
    rec = run_check("theorem1", 3, 2, 10**5, 10**5)
    assert rec["data"]["rational_orbit_sizes"] == [40, 240, 540]
    assert sum(images) == 820 * 5 == 4100
    assert run_check("strata-map", 3, 2, 10**5, 10**5)["status"] == "pass"
    assert sum(images) == 4100


def test_map_strata_is_bijection_on_points():
    cd = cayley(3, 1)
    h_str, o_str = strata(3, 1)
    images = set()
    for stratum in h_str:
        for w in stratum:
            images.add(act(cd.m, w).key)
    assert len(images) == 10


def _scalar_conformal_pairs(sp, rng):
    """The pairs of criterion 07's loop: all of them at (3,1), else 1000 seeded, v then w."""
    fp = sp.fp
    if (fp.q, sp.n) == (3, 1):
        vecs = [Mat.column(fp, [x, y]) for x in fp.elements() for y in fp.elements()]
        return [(v, w) for v in vecs for w in vecs]
    col = lambda: Mat.column(  # noqa: E731
        fp, [fp.e(rng.randrange(fp.q), rng.randrange(fp.q)) for _ in range(sp.dim)]
    )
    return [(col(), col()) for _ in range(1000)]


def _scalar_conformal(sp, m, conformal, pairs) -> bool:
    """Criterion 07's loop: one scalar t(M v) D conj(M w) per pair."""
    return all(
        ((m @ v).T @ sp.d_form @ (m @ w).conj()).at(0, 0) == conformal * (v.T @ sp.j @ w.conj()).at(0, 0)
        for v, w in pairs
    )


@pytest.mark.parametrize("q,n,mode", [(3, 1, "exhaustive"), (7, 1, "sampled")])
def test_stacked_conformal_pairs_match_the_scalar_loop(q, n, mode, monkeypatch):
    sp = make_space(q, n)
    cd = cayley(q, n)
    vs, ws, got = _conformal_pairs(sp, _rng("cayley", q, n))
    pairs = _scalar_conformal_pairs(sp, _rng("cayley", q, n))
    assert got == mode and len(vs) == len(pairs)
    assert np.array_equal(vs, np.stack([v.a for v, _ in pairs]))
    assert np.array_equal(ws, np.stack([w.a for _, w in pairs]))
    subchecks = lambda: run_check("cayley", q, n, 10**5, 10**4)["data"]["subchecks"]  # noqa: E731
    assert subchecks()["conformal_identity"] and _scalar_conformal(sp, cd.m, cd.conformal, pairs)
    # a negated conformal factor breaks the identity on both routes
    negated = CayleyData(*(getattr(cd, k) for k in CayleyData.__slots__))
    negated.conformal = -cd.conformal
    monkeypatch.setattr(checks, "cayley", lambda q, n: negated)
    assert not subchecks()["conformal_identity"]
    assert not _scalar_conformal(sp, cd.m, -cd.conformal, pairs)
