"""Orbit computation for group generators acting on canonical Lagrangians.

Everything here is schedule-independent by construction: partitions sweep
their input in sorted order, so each orbit's representative is its
lexicographically smallest member, and the resulting report is identical
no matter how the frontier was expanded.  Transporter words are the one
exception (they depend on the exploration schedule of the final BFS) and
are therefore excluded from report equality.

Points are rows of a sorted `PointTable`, and an orbit's members are a
sorted array of its rows.  A partition works on the table's stack: each
generator's action is one int table (row -> image row), and each orbit
is a BFS component over the tables, its words read off the parent
pointers, a Schreier vector (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, section 4.1).
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationFailure
from .lagrangian import _POINT_CHUNK, Lagrangian, PointTable, StratumLabel, _from_span, span_images
from .linalg import Mat, mm
from .symplectic import EnumeratedGroup, GroupElement, frontier_closure

# every _CHECK_STRIDE-th transporter word of an orbit is re-applied with the scalar `act`
_CHECK_STRIDE = 100


def _mat(g) -> Mat:
    return g.mat if isinstance(g, GroupElement) else g


def act(g, w: Lagrangian) -> Lagrangian:
    """Image of the subspace under a group element (or invertible Mat)."""
    return _from_span(w.space, mm(w.space.fp, _mat(g).a, w.basis.a))


def apply_word(word, seed: Lagrangian, gens) -> Lagrangian:
    out = seed
    for i in word:
        out = act(gens[i], out)
    return out


class OrbitRecord:
    """One orbit: its rows in a point table, sorted, and words over generator indices.

    Built from a BFS over the table's rows: found[0] is the seed, and row
    found[i], i > 0, is the image of row found[parent[i]] under generator
    via[i].  Every _CHECK_STRIDE-th member's word is re-applied from the
    seed with the scalar `act`.  The `Lagrangian` views are built on demand.
    """

    __slots__ = ("table", "rows", "found", "words")

    def __init__(self, table: PointTable, found: np.ndarray, parent: np.ndarray, via: np.ndarray, gens):
        self.table, self.rows, self.found = table, np.sort(found), found
        self.words = [()]
        for p, i in zip(parent[1:].tolist(), via[1:].tolist()):
            self.words.append(self.words[p] + (i,))
        seed = self.representative
        for idx in range(0, len(found), _CHECK_STRIDE):
            if apply_word(self.words[idx], seed, gens) != table[found[idx]]:
                raise VerificationFailure("transporter word does not reproduce its point")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def representative(self) -> Lagrangian:
        return self.table[self.found[0]]

    @property
    def members(self) -> list[Lagrangian]:
        return [self.table[i] for i in self.rows.tolist()]

    @property
    def transporters(self) -> dict:
        """Word per member, keyed by `Lagrangian.key`."""
        return {self.table.bases[i].tobytes(): w for i, w in zip(self.found.tolist(), self.words)}

    def member_keys(self) -> frozenset:
        return frozenset(self.table.bases[i].tobytes() for i in self.rows.tolist())


def _gen_stack(sp, gens) -> np.ndarray:
    return np.array([_mat(g).a for g in gens], dtype=np.int64).reshape(len(gens), sp.dim, sp.dim, 2)


def orbit(seed: Lagrangian, gens, cap: int | None = None) -> OrbitRecord:
    """BFS orbit of the seed, one stacked canonicalization per frontier.

    The members become the rows of their own sorted table.  Transporter
    words follow the BFS parent pointers (a Schreier vector); every
    _CHECK_STRIDE-th member's word is re-applied with the scalar `act`.
    """
    gens = list(gens)
    sp = seed.space
    mats = _gen_stack(sp, gens)
    bases, parent, via = frontier_closure(
        seed.basis.a, lambda f: span_images(sp, mats, f), cap, "orbit"
    )
    table = PointTable(sp, bases)
    return OrbitRecord(table, table.rows(bases), parent, via, gens)


class PartitionReport:
    """Orbits of a point set, each annotated with its stratum label."""

    __slots__ = ("orbits", "labels", "conflicts")

    def __init__(self, orbits: list[OrbitRecord], labels: list[StratumLabel], conflicts: list):
        self.orbits = orbits
        self.labels = labels
        self.conflicts = conflicts

    def sizes(self) -> list[int]:
        return [o.size for o in self.orbits]

    def as_sets(self) -> set[frozenset]:
        return {o.member_keys() for o in self.orbits}


def _action_table(table: PointTable, mats: np.ndarray) -> np.ndarray:
    """Row of g W for each row W of the table and each generator g: (N, G).

    Raises VerificationFailure when an image lies outside the table.
    """
    out = np.empty((len(table), len(mats)), dtype=np.int64)
    for lo in range(0, len(table), _POINT_CHUNK):
        images = span_images(table.space, mats, table.bases[lo : lo + _POINT_CHUNK])
        rows = table.rows(images.reshape(-1, *table.bases.shape[1:]))
        if np.any(rows < 0):
            raise VerificationFailure("orbit escaped the supplied point set")
        out[lo : lo + _POINT_CHUNK] = rows.reshape(-1, len(mats))
    return out


def partition(table: PointTable, gens, invariant: str | None = None) -> PartitionReport:
    """Orbit partition of a point table, seeds swept in row order.

    Each orbit's representative is its smallest member.  `invariant`
    names the label column expected to be constant on orbits ("h_rank"
    for the rational group, "o_type" for the h_0-unitary one); members
    disagreeing with their representative in that column are recorded as
    conflicts, never silently dropped.  The orbits are BFS components over
    the generators' action tables on the table's rows.
    """
    gens = list(gens)
    action = _action_table(table, _gen_stack(table.space, gens))

    def label(i) -> StratumLabel:
        return StratumLabel(int(table.h_rank[i]), int(table.o_type[i]))

    orbits: list[OrbitRecord] = []
    labels: list[StratumLabel] = []
    conflicts = []
    seen = np.zeros(len(table), dtype=bool)
    for s in range(len(table)):
        if seen[s]:
            continue
        found, parent, via = frontier_closure(np.array([s]), lambda f: action[f[:, 0], :, None])
        rec = OrbitRecord(table, found[:, 0], parent, via, gens)
        seen[rec.rows] = True
        if invariant is not None:
            inv = getattr(table, invariant)
            bad = rec.rows[inv[rec.rows] != inv[s]]
            if bad.size:
                conflicts.append((table[s], table[bad[0]], label(bad[0])))
        orbits.append(rec)
        labels.append(label(s))
    if sum(o.size for o in orbits) != len(table):
        raise VerificationFailure("orbits do not cover the point set")
    return PartitionReport(orbits, labels, conflicts)


def stabilizer_order(group_order: int, orbit_size: int) -> int:
    if orbit_size <= 0 or group_order % orbit_size != 0:
        raise VerificationFailure(
            f"orbit size {orbit_size} does not divide group order {group_order}"
        )
    return group_order // orbit_size


def stabilizer_elements(point: Lagrangian, group) -> EnumeratedGroup | list[GroupElement]:
    """Members fixing the subspace: of a group table, the sub-table one mask keeps;
    of any other iterable of elements, the list that `act` fixes (the reference path).

    g W = W exactly when W's basis times the rows of g W at W's pivots gives back g W.
    """
    if isinstance(group, EnumeratedGroup):
        sp = point.space
        gm = mm(sp.fp, group.arr, point.basis.a)
        back = mm(sp.fp, point.basis.a, gm[:, _pivot_rows(point.basis)])
        return group.where(np.all(back == gm, axis=(1, 2, 3)))
    return [g for g in group if act(g, point) == point]


def _pivot_rows(basis: Mat) -> list[int]:
    """Rows of the leading ones of a reduced column-echelon basis."""
    rows = []
    arr = basis.a
    for c in range(basis.cols):
        nz = np.flatnonzero((arr[:, c, 0] != 0) | (arr[:, c, 1] != 0))
        rows.append(int(nz[0]))
    return rows
