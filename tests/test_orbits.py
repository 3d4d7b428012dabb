import random

import numpy as np
import pytest

from fsiegel.errors import ResourceLimitError, VerificationFailure
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    GroupElement,
    enumerate_symplectic,
    generators,
    group_order,
    make_space,
)
from fsiegel.lagrangian import PointTable, enumerate_lagrangians, l_minus, l_plus, strata
from fsiegel.orbits import (
    act,
    apply_word,
    orbit,
    partition,
    stabilizer_elements,
    stabilizer_order,
)
from fsiegel.cayley import v_k


def _table(points) -> PointTable:
    """A point table of an explicit list of points, repeats kept."""
    return PointTable(points[0].space, np.stack([w.basis.a for w in points]))


def test_act_examples():
    sp = make_space(3, 1)
    assert act(GroupElement(sp.identity, TAG_SP_F), l_plus(sp)) == l_plus(sp)
    assert act(sp.j, l_plus(sp)) == l_minus(sp)


def test_act_group_law_randomized():
    sp = make_space(3, 2)
    rng = random.Random(6)
    gens = generators(sp, TAG_SP_F)
    pts = enumerate_lagrangians(3, 2)
    for _ in range(50):
        g = gens[rng.randrange(len(gens))]
        w = pts[rng.randrange(len(pts))]
        assert act(g, act(g.inverse(), w)) == w


def test_orbit_partition_sizes_3_1():
    sp = make_space(3, 1)
    pts = enumerate_lagrangians(3, 1)
    pf = partition(pts, generators(sp, TAG_SP_F), invariant="h_rank")
    assert sorted(pf.sizes()) == [4, 6]
    by_label = {lab.h_rank: orb.size for orb, lab in zip(pf.orbits, pf.labels)}
    assert by_label == {0: 4, 1: 6}
    assert not pf.conflicts

    p0 = partition(pts, generators(sp, TAG_SP_0), invariant="o_type")
    assert sorted(p0.sizes()) == [4, 6]
    by_label = {lab.o_type: orb.size for orb, lab in zip(p0.orbits, p0.labels)}
    assert by_label == {0: 4, 1: 6}
    assert not p0.conflicts


def test_partition_single_fixed_point():
    sp = make_space(3, 1)
    eye = GroupElement(sp.identity, TAG_SP_F)
    rep = partition(_table([l_plus(sp)]), [eye])
    assert len(rep.orbits) == 1 and rep.orbits[0].size == 1


def test_partition_is_schedule_independent():
    sp = make_space(3, 2)
    pts = enumerate_lagrangians(3, 2)
    gens = generators(sp, TAG_SP_F)
    a = partition(pts, gens, invariant="h_rank")
    b = partition(pts, list(reversed(gens)), invariant="h_rank")
    assert a.as_sets() == b.as_sets()
    assert [o.representative for o in a.orbits] == [o.representative for o in b.orbits]


def test_orbit_representative_is_minimum():
    sp = make_space(3, 1)
    pts = enumerate_lagrangians(3, 1)
    pf = partition(pts, generators(sp, TAG_SP_F))
    for orb in pf.orbits:
        assert orb.representative == min(orb.members)


def _partition_by_seed_orbits(points, gens, invariant):
    """The partition as one `orbit()` per unvisited seed in sorted order, scalar labels."""
    visited, orbits, labels, conflicts = set(), [], [], []
    for p in sorted(points):
        if p.key in visited:
            continue
        rec = orbit(p, gens)
        visited |= rec.member_keys()
        lab = p.label()
        bad = [w for w in rec.members if getattr(w.label(), invariant) != getattr(lab, invariant)]
        if bad:
            conflicts.append((p, bad[0], bad[0].label()))
        orbits.append(rec)
        labels.append(lab)
    return orbits, labels, conflicts


@pytest.mark.parametrize("tag,invariant", [(TAG_SP_E, "h_rank"), (TAG_SP_F, "h_rank"), (TAG_SP_0, "o_type")])
def test_partition_matches_one_orbit_per_seed(tag, invariant):
    sp = make_space(3, 2)
    pts = enumerate_lagrangians(3, 2)
    gens = generators(sp, tag)
    part = partition(pts, gens, invariant=invariant)
    orbits, labels, conflicts = _partition_by_seed_orbits(pts, gens, invariant)
    assert part.as_sets() == {o.member_keys() for o in orbits}
    assert [o.representative for o in part.orbits] == [o.representative for o in orbits]
    assert part.labels == labels
    assert part.conflicts == conflicts
    assert (tag == TAG_SP_E) == bool(conflicts)  # sp is transitive, so h_rank conflicts
    for orb in part.orbits:
        assert orb.members == sorted(orb.members)
        for w in orb.members:
            assert apply_word(orb.transporters[w.key], orb.representative, gens) == w


@pytest.mark.parametrize("tag,invariant", [(TAG_SP_E, "h_rank"), (TAG_SP_F, "h_rank"), (TAG_SP_0, "o_type")])
def test_partition_of_a_shuffled_list_matches_the_cell_table(tag, invariant):
    sp = make_space(3, 2)
    cell = enumerate_lagrangians(3, 2)
    points = list(cell)
    random.Random(5).shuffle(points)
    gens = generators(sp, tag)
    a = partition(cell, gens, invariant=invariant)
    b = partition(_table(points), gens, invariant=invariant)
    assert [o.representative for o in b.orbits] == [o.representative for o in a.orbits]
    assert b.sizes() == a.sizes()
    assert b.labels == a.labels
    assert b.conflicts == a.conflicts
    assert b.as_sets() == a.as_sets()


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2)])
def test_theorem1_row_subchecks_match_the_point_objects(q, n):
    from fsiegel.checks import check_theorem1

    sp = make_space(q, n)
    sub = check_theorem1(q, n, 10**5, 10**5)["subchecks"]
    h_str, o_str = strata(q, n)
    cell = enumerate_lagrangians(q, n)
    meets_image = True
    for name, tag, inv, str_ in (
        ("rational_orbits_equal_h_strata", TAG_SP_F, "h_rank", h_str),
        ("unitary_orbits_equal_o_strata", TAG_SP_0, "o_type", o_str),
    ):
        part = partition(cell, generators(sp, tag), invariant=inv)
        want = part.as_sets() == {frozenset(w.key for w in s) for s in str_} and not part.conflicts
        assert sub[name] == want
        meets_image &= all(any(w.in_siegel_image() for w in o.members) for o in part.orbits)
    assert sub["every_orbit_meets_image"] == meets_image


def test_orbit_members_are_sorted_rows_of_their_own_table():
    sp = make_space(3, 2)
    rec = orbit(v_k(sp, 1), generators(sp, TAG_SP_0))
    assert rec.representative == v_k(sp, 1)
    assert np.array_equal(rec.rows, np.arange(rec.size))
    assert rec.members == list(rec.table) == sorted(rec.members)
    assert set(rec.transporters) == rec.member_keys()


def test_orbit_computes_no_labels(monkeypatch):
    from fsiegel import checks, lagrangian

    calls = []
    rank_stack = lagrangian.rank_stack

    def counting(fp, a):
        calls.append(1)
        return rank_stack(fp, a)

    monkeypatch.setattr(lagrangian, "rank_stack", counting)
    assert checks.run_check("stabilizers", 3, 2, 10**5, 10**5)["status"] == "fail"
    assert calls == []  # the cell's three orbits
    sp = make_space(3, 2)
    rec = orbit(v_k(sp, 1), generators(sp, TAG_SP_0))
    assert calls == []
    # read once, the three label arrays are computed together
    assert set(rec.table.o_type.tolist()) == {1} and len(calls) == 3
    assert rec.table.h_rank is rec.table.h_rank and len(calls) == 3


def test_partition_of_a_non_closed_subset_raises():
    sp = make_space(3, 2)
    with pytest.raises(VerificationFailure, match="orbit escaped the supplied point set"):
        partition(_table([l_plus(sp)]), generators(sp, TAG_SP_F))


def test_partition_of_repeated_points_raises():
    sp = make_space(3, 1)
    eye = GroupElement(sp.identity, TAG_SP_F)
    with pytest.raises(VerificationFailure, match="orbits do not cover the point set"):
        partition(_table([l_plus(sp), l_plus(sp)]), [eye])


def test_transporter_words():
    sp = make_space(3, 2)
    gens = generators(sp, TAG_SP_0)
    rec = orbit(l_plus(sp), gens)
    rng = random.Random(12)
    members = rec.members
    for _ in range(25):
        w = members[rng.randrange(len(members))]
        assert apply_word(rec.transporters[w.key], rec.representative, gens) == w


def test_orbit_cap():
    sp = make_space(3, 2)
    with pytest.raises(ResourceLimitError):
        orbit(l_plus(sp), generators(sp, TAG_SP_0), cap=10)


def test_stabilizer_order_arithmetic():
    assert stabilizer_order(24, 6) == 4
    assert stabilizer_order(24, 4) == 6
    with pytest.raises(VerificationFailure):
        stabilizer_order(24, 5)


def test_stabilizer_examples_3_1():
    sp = make_space(3, 1)
    g0 = enumerate_symplectic(sp, TAG_SP_0, 1000)
    stab = stabilizer_elements(l_plus(sp), g0)
    assert len(stab) == 4  # norm-one circle
    orb = orbit(l_plus(sp), generators(sp, TAG_SP_0))
    assert orb.size == 6
    assert stabilizer_order(len(g0), orb.size) == len(stab)

    vk1 = v_k(sp, 1)
    stab1 = stabilizer_elements(vk1, g0)
    assert len(stab1) == 6
    assert orbit(vk1, generators(sp, TAG_SP_0)).size == 4


def test_stabilizer_filter_matches_generic_path():
    sp = make_space(3, 1)
    g0 = enumerate_symplectic(sp, TAG_SP_0, 1000)
    point = v_k(sp, 1)
    fast = {g.mat.key() for g in stabilizer_elements(point, g0)}
    slow = {g.mat.key() for g in stabilizer_elements(point, list(g0))}
    assert fast == slow


def test_whole_group_fixes_point_edge():
    sp = make_space(3, 1)
    eye = GroupElement(sp.identity, TAG_SP_F)
    grp = [eye]
    assert len(stabilizer_elements(l_plus(sp), grp)) == 1


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2)])
def test_orbit_stabilizer_consistency(q, n):
    sp = make_space(q, n)
    g0 = enumerate_symplectic(sp, TAG_SP_0, 10**5)
    _, o_str = strata(q, n)
    for k in range(n + 1):
        point = v_k(sp, k)
        stab = stabilizer_elements(point, g0)
        orb = orbit(point, generators(sp, TAG_SP_0))
        assert len(stab) * orb.size == group_order(TAG_SP_0, q, n)
        assert orb.size == len(o_str[n - k])
