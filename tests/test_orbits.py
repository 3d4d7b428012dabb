import random

import numpy as np
import pytest

from fsiegel.errors import ResourceLimitError, VerificationFailure
from fsiegel.symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    EnumeratedGroup,
    GroupElement,
    _generator_stack,
    enumerate_symplectic,
    generators,
    group_order,
    make_space,
)
from fsiegel.lagrangian import PointTable, enumerate_lagrangians, l_plus
from fsiegel import linalg, orbits
from fsiegel.linalg import entry_bytes
from fsiegel.orbits import partition, stabilizer_elements
from fsiegel.cayley import v_k

from oracles import (
    OrbitRecord,
    StratumLabel,
    act,
    apply_word,
    as_sets,
    in_siegel_image,
    l_minus,
    label,
    member_keys,
    orbit,
    orbit_members,
    stabilizer_by_act,
    stabilizer_order,
    strata,
    transporters,
)


def _table(points) -> PointTable:
    """A point table of an explicit list of points, repeats kept."""
    return PointTable(points[0].space, np.stack([w.basis.a for w in points]))


def _labels(part) -> list:
    """The representatives' labels, as `StratumLabel`s."""
    table = part.table
    return [StratumLabel(int(table.h_rank[r]), int(table.o_type[r])) for r in part.reps]


def _representatives(part) -> list:
    return [part.table[r] for r in part.reps.tolist()]


def test_pivot_rows_are_the_rcef_pivots():
    from fsiegel.linalg import rcef
    from fsiegel.orbits import _pivot_rows

    sp = make_space(3, 2)
    for w in enumerate_lagrangians(3, 2, 20000):
        assert _pivot_rows(w.basis).tolist() == rcef(sp.fp, w.basis.a)[1]


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
        assert act(g, act(g.mat.inv(), w)) == w


def test_orbit_partition_sizes_3_1():
    sp = make_space(3, 1)
    pts = enumerate_lagrangians(3, 1)
    pf = partition(pts, generators(sp, TAG_SP_F), invariant="h_rank")
    assert sorted(pf.sizes().tolist()) == [4, 6]
    by_label = {lab.h_rank: size for size, lab in zip(pf.sizes().tolist(), _labels(pf))}
    assert by_label == {0: 4, 1: 6}
    assert not pf.conflicts.size

    p0 = partition(pts, generators(sp, TAG_SP_0), invariant="o_type")
    assert sorted(p0.sizes().tolist()) == [4, 6]
    by_label = {lab.o_type: size for size, lab in zip(p0.sizes().tolist(), _labels(p0))}
    assert by_label == {0: 4, 1: 6}
    assert not p0.conflicts.size


def test_partition_single_fixed_point():
    sp = make_space(3, 1)
    eye = GroupElement(sp.identity, TAG_SP_F)
    rep = partition(_table([l_plus(sp)]), [eye])
    assert rep.reps.tolist() == [0] and rep.orbit.tolist() == [0] and rep.sizes().tolist() == [1]


def test_partition_is_schedule_independent():
    sp = make_space(3, 2)
    pts = enumerate_lagrangians(3, 2)
    gens = generators(sp, TAG_SP_F)
    a = partition(pts, gens, invariant="h_rank")
    b = partition(pts, list(reversed(gens)), invariant="h_rank")
    assert as_sets(a) == as_sets(b)
    assert _representatives(a) == _representatives(b)


def test_orbit_representative_is_minimum():
    sp = make_space(3, 1)
    pts = enumerate_lagrangians(3, 1)
    pf = partition(pts, generators(sp, TAG_SP_F))
    for k, rep in enumerate(_representatives(pf)):
        assert rep == min(orbit_members(pf, k))


def _partition_by_seed_orbits(points, gens, invariant):
    """The partition as one `orbit()` per unvisited seed in sorted order, scalar labels."""
    visited, orbits, labels, conflicts = set(), [], [], []
    for p in sorted(points):
        if p.key in visited:
            continue
        rec = orbit(p, gens)
        visited |= member_keys(rec)
        lab = label(p)
        if any(getattr(label(w), invariant) != getattr(lab, invariant) for w in orbit_members(rec)):
            conflicts.append(len(orbits))
        orbits.append(rec)
        labels.append(lab)
    return orbits, labels, conflicts


@pytest.mark.parametrize("tag,invariant", [(TAG_SP_E, "h_rank"), (TAG_SP_F, "h_rank"), (TAG_SP_0, "o_type")])
def test_partition_matches_one_orbit_per_seed(tag, invariant):
    sp = make_space(3, 2)
    pts = enumerate_lagrangians(3, 2)
    gens = generators(sp, tag)
    part = partition(pts, gens, invariant=invariant)
    seeded, labels, conflicts = _partition_by_seed_orbits(pts, gens, invariant)
    assert as_sets(part) == {member_keys(o) for o in seeded}
    assert [member_keys(part, k) for k in range(len(part.reps))] == [member_keys(o) for o in seeded]
    assert _representatives(part) == [o.representative for o in seeded]
    assert _labels(part) == labels
    assert part.conflicts.tolist() == conflicts
    assert (tag == TAG_SP_E) == bool(conflicts)  # sp is transitive, so h_rank conflicts
    action = orbits._action_table(pts, _generator_stack(sp, gens))
    for k, rep in enumerate(part.reps.tolist()):
        walked = OrbitRecord(pts, *orbits._walk(action, rep))
        assert member_keys(walked) == member_keys(part, k)
        assert orbit_members(part, k) == sorted(orbit_members(part, k))
        for w in orbit_members(part, k):
            assert apply_word(transporters(walked)[w.key], pts[rep], gens) == w


@pytest.mark.parametrize("tag,invariant", [(TAG_SP_E, "h_rank"), (TAG_SP_F, "h_rank"), (TAG_SP_0, "o_type")])
def test_partition_of_a_shuffled_list_matches_the_cell_table(tag, invariant):
    sp = make_space(3, 2)
    cell = enumerate_lagrangians(3, 2)
    points = list(cell)
    random.Random(5).shuffle(points)
    gens = generators(sp, tag)
    a = partition(cell, gens, invariant=invariant)
    b = partition(_table(points), gens, invariant=invariant)
    assert _representatives(b) == _representatives(a)
    assert b.sizes().tolist() == a.sizes().tolist()
    assert _labels(b) == _labels(a)
    assert b.conflicts.tolist() == a.conflicts.tolist()
    assert as_sets(b) == as_sets(a)


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
        want = as_sets(part) == {frozenset(w.key for w in s) for s in str_} and not part.conflicts.size
        assert sub[name] == want
        meets_image &= all(
            any(in_siegel_image(w) for w in orbit_members(part, k)) for k in range(len(part.reps))
        )
    assert sub["every_orbit_meets_image"] == meets_image


def test_theorem1_row_subchecks_read_false_on_wrong_action_tables(monkeypatch):
    """With identity columns for sp0 every row is its own orbit, so the unitary orbits are not
    the strata and a row outside the image is an orbit missing it; with the transitive sp table
    for spf one orbit spans every h stratum, a conflict."""
    from fsiegel import checks
    from fsiegel.cayley import _cell_actions

    q, n = 3, 2
    sp = make_space(q, n)
    table = enumerate_lagrangians(q, n)
    sp_action = orbits._action_table(table, _generator_stack(sp, generators(sp, TAG_SP_E)))
    columns = _cell_actions(q, n)[TAG_SP_0].shape[1]
    identity = np.repeat(np.arange(len(table), dtype=np.int32)[:, None], columns, axis=1)
    names = ("rational_orbits_equal_h_strata", "unitary_orbits_equal_o_strata", "every_orbit_meets_image")
    want = checks.check_theorem1(q, n, 10**5, 10**5)["subchecks"]
    assert all(want[name] for name in names)
    monkeypatch.setattr(checks, "_cell_actions", lambda *cell: {TAG_SP_F: sp_action, TAG_SP_0: identity})
    got = checks.check_theorem1(q, n, 10**5, 10**5)
    assert got["subchecks"] == {**want, **dict.fromkeys(names, False)}
    assert not got["ok"]
    assert got["rational_orbit_sizes"] == [len(table)]
    assert got["unitary_orbit_sizes"] == [1] * len(table)


def test_theorem1_peak_stays_under_twice_the_bases_at_7_2(fresh_cell):
    """With the point and action tables built, theorem1 at (7,2) holds row arrays beside them: its
    traced peak stays under 2x the table's bases (3.4x with the orbits' rows kept as Python int
    sets and a record per orbit)."""
    import tracemalloc

    from fsiegel.cayley import _cell_actions
    from fsiegel.checks import check_theorem1

    table = enumerate_lagrangians(7, 2, 200000)
    _cell_actions(7, 2)
    tracemalloc.start()
    try:
        check_theorem1(7, 2, 10**5, 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.bases.nbytes, (peak, table.bases.nbytes)


def test_orbit_members_are_sorted_rows_of_their_own_table():
    sp = make_space(3, 2)
    rec = orbit(v_k(sp, 1), generators(sp, TAG_SP_0))
    assert rec.representative == v_k(sp, 1)
    assert np.array_equal(rec.rows, np.arange(rec.size))
    assert orbit_members(rec) == list(rec.table) == sorted(orbit_members(rec))
    assert set(transporters(rec)) == member_keys(rec)


def test_a_point_table_ranks_its_labels_once_when_built(monkeypatch):
    from fsiegel import lagrangian

    bases = enumerate_lagrangians(3, 2).bases
    calls = []
    rank_stack = lagrangian.rank_stack

    def counting(fp, a):
        calls.append(len(a))
        return rank_stack(fp, a)

    monkeypatch.setattr(lagrangian, "rank_stack", counting)
    table = PointTable(make_space(3, 2), bases)
    assert calls == [820] * 3  # h_rank, o_type and the image flags, one stack each
    cell = enumerate_lagrangians(3, 2)
    for name in ("h_rank", "o_type", "in_image"):
        assert np.array_equal(getattr(table, name), getattr(cell, name))
        assert not getattr(table, name).flags.writeable
    assert calls == [820] * 3
    assert "__getattr__" not in vars(PointTable)


def test_partition_of_a_non_closed_subset_raises():
    sp = make_space(3, 2)
    with pytest.raises(VerificationFailure, match="orbit escaped the supplied point set"):
        partition(_table([l_plus(sp)]), generators(sp, TAG_SP_F))


def test_partition_of_repeated_points_raises():
    sp = make_space(3, 1)
    eye = GroupElement(sp.identity, TAG_SP_F)
    with pytest.raises(VerificationFailure, match="orbits do not cover the point set"):
        partition(_table([l_plus(sp), l_plus(sp)]), [eye])


def test_a_map_that_does_not_permute_the_rows_is_caught(monkeypatch, fresh_cell):
    import importlib

    from fsiegel.orbits import _inverse_rows

    cayley = importlib.import_module("fsiegel.cayley")
    with pytest.raises(VerificationFailure, match="does not permute the point set"):
        _inverse_rows(np.array([[0], [0], [1]]))
    sp = make_space(3, 1)
    # the upper translations fix L+, so on a table holding it twice they send both rows
    # to one; the upper columns are inverted before J, which would escape, is canonicalized
    doubled = _table([l_plus(sp), l_plus(sp)])
    monkeypatch.setattr(cayley, "enumerate_lagrangians", lambda q, n, *cap: doubled)
    with pytest.raises(VerificationFailure, match="does not permute the point set"):
        cayley._cell_actions(3, 1)


def test_inverse_rows_inverts_every_column():
    from fsiegel.orbits import _inverse_rows

    rng = np.random.default_rng(5)
    perm = np.stack([rng.permutation(7) for _ in range(4)], axis=1)
    inv = _inverse_rows(perm)
    for g in range(4):
        assert np.array_equal(inv[perm[:, g], g], np.arange(7))
        assert np.array_equal(perm[inv[:, g], g], np.arange(7))
    perm[:, 2] = perm[0, 2]  # one column that is not a permutation
    with pytest.raises(VerificationFailure, match="does not permute the point set"):
        _inverse_rows(perm)


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2)])
def test_cell_partition_agrees_with_the_direct_tables(q, n):
    """`checks.cell_partition` reads the derived cell table; the direct `_action_table` route agrees."""
    from fsiegel.checks import cell_partition
    from fsiegel.orbits import _action_table
    from fsiegel.symplectic import _generator_stack

    sp = make_space(q, n)
    table = enumerate_lagrangians(q, n)
    for tag, invariant in ((TAG_SP_F, "h_rank"), (TAG_SP_0, "o_type")):
        gens = generators(sp, tag)
        direct = partition(table, gens, invariant, action=_action_table(table, _generator_stack(sp, gens)))
        cell = cell_partition(q, n, tag, 10**5)
        assert cell.sizes().tolist() == direct.sizes().tolist()
        assert cell.orbit.tolist() == direct.orbit.tolist()
        assert cell.reps.tolist() == direct.reps.tolist()
        assert _labels(cell) == _labels(direct)
        assert cell.conflicts.tolist() == direct.conflicts.tolist()


def test_transporter_words():
    sp = make_space(3, 2)
    gens = generators(sp, TAG_SP_0)
    rec = orbit(l_plus(sp), gens)
    rng = random.Random(12)
    members = orbit_members(rec)
    for _ in range(25):
        w = members[rng.randrange(len(members))]
        assert apply_word(transporters(rec)[w.key], rec.representative, gens) == w


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
    fast = {entry_bytes(g.mat.a) for g in stabilizer_elements(point, g0)}
    slow = {entry_bytes(g.mat.a) for g in stabilizer_by_act(point, g0)}
    assert fast == slow


def test_whole_group_fixes_point_edge():
    sp = make_space(3, 1)
    grp = EnumeratedGroup(sp, TAG_SP_F, sp.identity.a[None])
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


def _blocked_results(q: int, n: int) -> dict:
    """The output of every pass that `linalg.blocks` cuts, built from an empty cell slot."""
    from fsiegel import checks, lagrangian, symplectic
    from fsiegel.linalg import mm
    from fsiegel.symplectic import _generator_stacks, frontier_closure

    symplectic._slot.clear()
    sp = make_space(q, n)
    table = lagrangian._point_table(q, n)
    spf = _generator_stacks(q, n, TAG_SP_F)[0]
    action = orbits._action_table(table, spf)
    rec = orbit(l_plus(sp), generators(sp, TAG_SP_0))
    return {
        "point table": (table.bases, table.h_rank, table.o_type, table.in_image),
        "action table": (action,),
        "group closure": frontier_closure(sp.identity.a, lambda f: mm(sp.fp, f[:, None], spf[None]), q),
        "walk": orbits._walk(action, len(table) // 2),
        "lemma4": checks.check_lemma4(q, n, 10**5, 10**5),
        "orbit": (rec.rows, rec.found, rec.parent, rec.via),
    }


@pytest.mark.parametrize("q, n", [(3, 1), (3, 2), (5, 1)])
def test_no_result_depends_on_the_block_size(q, n, monkeypatch, fresh_cell):
    want = _blocked_results(q, n)
    assert want["lemma4"]["ok"] and len(want["group closure"][0]) == group_order(TAG_SP_F, q, n)
    for size in (1, 5, 64):
        monkeypatch.setattr(linalg, "_STACK_CHUNK", size)
        got = _blocked_results(q, n)
        assert got["lemma4"] == want["lemma4"], size
        for name in want.keys() - {"lemma4"}:
            assert all(np.array_equal(a, b) for a, b in zip(got[name], want[name], strict=True)), (size, name)


@pytest.mark.parametrize("i", [101, -1])  # 101 is off any every-100th stride; -1 is past the first block
def test_a_wrong_bfs_edge_is_caught(i, monkeypatch):
    """`orbit()` recomputes every edge on the generator stack; one corrupted `via` fails it."""
    import oracles
    from fsiegel.lagrangian import span_images
    from fsiegel.symplectic import _generator_stack, frontier_closure

    sp = make_space(3, 2)
    gens = generators(sp, TAG_SP_0)
    mats = _generator_stack(sp, gens)
    bases, parent, via = frontier_closure(l_plus(sp).basis.a, lambda f: span_images(sp, mats, f), sp.q)
    i %= len(bases)
    monkeypatch.setattr(linalg, "_STACK_CHUNK", 64)  # so the edge -1 lies past the first block
    assert i % 100 and len(bases) > 257  # more than four blocks of 64 edges
    images = span_images(sp, mats, bases[parent[i]][None])[0]
    bad = via.copy()
    bad[i] = next(g for g in range(len(mats)) if not np.array_equal(images[g], bases[i]))
    for edges, ok in ((via, True), (bad, False)):
        monkeypatch.setattr(oracles, "frontier_closure", lambda *a, _e=edges: (bases, parent, _e))
        if ok:
            assert orbit(l_plus(sp), gens).size == len(bases)  # the true edges pass
        else:
            with pytest.raises(VerificationFailure, match="transporter word does not reproduce its point"):
                orbit(l_plus(sp), gens)


@pytest.mark.parametrize("i", [101, -1])
def test_a_wrong_partition_edge_is_caught(i, monkeypatch):
    """`partition` looks every edge up in its action table; one corrupted `via` fails it."""
    from fsiegel import orbits
    from fsiegel.cayley import _cell_actions

    sp = make_space(3, 2)
    action = _cell_actions(3, 2)[TAG_SP_0]
    closure = orbits.frontier_closure
    corrupted = []

    def corrupting(seed, step, *args):
        found, parent, via = closure(seed, step, *args)
        k = i % len(found)
        if len(found) > 257 and not corrupted:
            via = via.copy()
            via[k] = next(g for g in range(action.shape[1]) if action[found[parent[k], 0], g] != found[k, 0])
            corrupted.append(k)
        return found, parent, via

    monkeypatch.setattr(orbits, "frontier_closure", corrupting)
    with pytest.raises(VerificationFailure, match="transporter word does not reproduce its point"):
        partition(enumerate_lagrangians(3, 2), generators(sp, TAG_SP_0), invariant="o_type", action=action)
    assert corrupted and corrupted[0] % 100


def test_theorem1_builds_its_orbits_without_scalar_act(monkeypatch, fresh_cell):
    """No point is moved one at a time: the scalar `act` (now an oracle) canonicalized each
    image with `lagrangian._from_span`, which a cold theorem1 run never calls."""
    from fsiegel import checks, lagrangian

    calls = []
    from_span = lagrangian._from_span

    def counting(sp, arr):
        calls.append(1)
        return from_span(sp, arr)

    monkeypatch.setattr(lagrangian, "_from_span", counting)
    rec = checks.run_check("theorem1", 3, 2, 10**5, 10**5)
    assert rec["status"] != "skipped-resource" and "error" not in rec["data"]
    assert calls == []
