"""Orbit computation for group generators acting on canonical Lagrangians.

Everything here is schedule-independent by construction: partitions sweep
their input in sorted order, so each orbit's representative is its
lexicographically smallest member, and the resulting report is identical
no matter how the frontier was expanded.  Transporter words are the one
exception (they depend on the exploration schedule of the final BFS) and
are therefore excluded from report equality.

Points are rows of a sorted `PointTable`, and an orbit's members are a
sorted array of its rows.  Each orbit is a BFS component over an int
action table (row -> image row, a column per generator), its words read
off the parent pointers, a Schreier vector (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, section 4.1): `_walk`, shared by
`partition`, the stabilizers' V_k orbits and the involution classes.
`orbit`, which canonicalizes every image, serves the API and the tests.

A cell's generator tables are built by `cayley._cell_actions`, once while
the grid is on the cell: only the upper translations are canonicalized,
and every other column is a row permutation read through `_inverse_rows`.
`_action_table` serves any other generator list and is the tests' oracle
for the cell's tables.
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationFailure
from .lagrangian import _POINT_CHUNK, Lagrangian, PointTable, StratumLabel, _from_span, span_images
from .linalg import Mat, mm, rcef_stack
from .symplectic import EnumeratedGroup, _generator_stack, _mat, frontier_closure


def act(g, w: Lagrangian) -> Lagrangian:
    """Image of the subspace under a group element (or invertible Mat)."""
    return _from_span(w.space, mm(w.space.fp, _mat(g).a, w.basis.a))


class OrbitRecord:
    """One orbit: its rows in a point table, sorted, and words over generator indices.

    Built from a BFS over the table's rows: found[0] is the seed, and row
    found[i], i > 0, is the image of row found[parent[i]] under generator
    via[i].  Whoever builds the record checks that for every i, so by
    induction every word reproduces its point: `_walk` in its action
    table, `orbit` on the generator stack.  Words and the `Lagrangian`
    views are built on demand.
    """

    __slots__ = ("table", "rows", "found", "parent", "via")

    def __init__(self, table: PointTable, found: np.ndarray, parent: np.ndarray, via: np.ndarray):
        self.table, self.rows, self.found = table, np.sort(found), found
        self.parent, self.via = parent, via

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
        """Word per member, keyed by `Lagrangian.key`, read off the parent pointers."""
        words = [()]
        for p, i in zip(self.parent[1:].tolist(), self.via[1:].tolist()):
            words.append(words[p] + (i,))
        return {self.table.bases[i].tobytes(): w for i, w in zip(self.found.tolist(), words)}

    def member_keys(self) -> frozenset:
        return frozenset(self.table.bases[i].tobytes() for i in self.rows.tolist())


def orbit(seed: Lagrangian, gens, cap: int | None = None) -> OrbitRecord:
    """BFS orbit of the seed, one stacked canonicalization per frontier.

    The members become the rows of their own sorted table.  Transporter
    words follow the BFS parent pointers (a Schreier vector).
    """
    sp = seed.space
    mats = _generator_stack(sp, gens)
    bases, parent, via = frontier_closure(
        seed.basis.a, lambda f: span_images(sp, mats, f), sp.q, cap, "orbit"
    )
    for lo in range(1, len(bases), _POINT_CHUNK):  # every edge, a block at a time
        i = slice(lo, lo + _POINT_CHUNK)
        images = rcef_stack(sp.fp, mm(sp.fp, mats[via[i]], bases[parent[i]]))[0]
        if not np.array_equal(images, bases[i]):
            raise VerificationFailure("transporter word does not reproduce its point")
    table = PointTable(sp, bases)
    return OrbitRecord(table, table.rows(bases), parent, via)


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
    """Row of g W for each row W of the table and each generator g: (N, G) int32.

    Raises VerificationFailure when an image lies outside the table.
    """
    out = np.empty((len(table), len(mats)), dtype=np.int32)
    # blocks of at least _POINT_CHUNK points and 4 * _POINT_CHUNK images, so a row
    # map's one column is not canonicalized in blocks a quarter the size
    step = max(_POINT_CHUNK, -(-4 * _POINT_CHUNK // max(len(mats), 1)))
    for lo in range(0, len(table), step):
        images = span_images(table.space, mats, table.bases[lo : lo + step])
        rows = table.rows(images.reshape(-1, *table.bases.shape[1:]))
        if np.any(rows < 0):
            raise VerificationFailure("orbit escaped the supplied point set")
        out[lo : lo + step] = rows.reshape(-1, len(mats))
    return out


def _inverse_rows(perm: np.ndarray) -> np.ndarray:
    """The inverse of each column of an (N, G) table of row permutations.

    Raises VerificationFailure when some column is not a permutation.
    """
    inv = np.full(perm.shape, -1, dtype=perm.dtype)
    inv[perm, np.arange(perm.shape[1])] = np.arange(len(perm))[:, None]
    if np.any(inv < 0):
        raise VerificationFailure("a group element does not permute the point set")
    return inv


def _walk(action: np.ndarray, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS of a row over an int action table (N, G), as (found, parent, via) of `frontier_closure`,
    every edge checked in the table; the rows it reaches must hold no -1."""
    seed = np.array([row], dtype=action.dtype)
    # a row is one digit below len(action), so its code is the row itself
    found, parent, via = frontier_closure(seed, lambda f: action[f[:, 0], :, None], len(action))
    found = found[:, 0]
    if not np.array_equal(action[found[parent[1:]], via[1:]], found[1:]):
        raise VerificationFailure("transporter word does not reproduce its point")
    return found, parent, via


def partition(
    table: PointTable, gens, invariant: str | None = None, action: np.ndarray | None = None
) -> PartitionReport:
    """Orbit partition of a point table, seeds swept in row order.

    Each orbit's representative is its smallest member.  `invariant`
    names the label column expected to be constant on orbits ("h_rank"
    for the rational group, "o_type" for the h_0-unitary one); members
    disagreeing with their representative in that column are recorded as
    conflicts, never silently dropped.  The orbits are BFS components over
    the generators' action table on the table's rows: `action` when given
    (a cell's derived table, `cayley._cell_actions`), else `_action_table`.
    """
    if action is None:
        action = _action_table(table, _generator_stack(table.space, gens))

    def label(i) -> StratumLabel:
        return StratumLabel(int(table.h_rank[i]), int(table.o_type[i]))

    orbits: list[OrbitRecord] = []
    labels: list[StratumLabel] = []
    conflicts = []
    seen = np.zeros(len(table), dtype=bool)
    for s in range(len(table)):
        if seen[s]:
            continue
        rec = OrbitRecord(table, *_walk(action, s))
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


def stabilizer_elements(point: Lagrangian, group: EnumeratedGroup) -> EnumeratedGroup:
    """The sub-table of the group's rows fixing the subspace, kept by one mask.

    g W = W exactly when W's basis times the rows of g W at W's pivots gives back g W.
    """
    sp = point.space
    gm = mm(sp.fp, group.arr, point.basis.a)
    back = mm(sp.fp, point.basis.a, gm[:, _pivot_rows(point.basis)])
    return group.where(np.all(back == gm, axis=(1, 2, 3)))


def _pivot_rows(basis: Mat) -> np.ndarray:
    """Rows of the leading ones of a reduced column-echelon basis: each column's first nonzero row."""
    return np.argmax(basis.a.any(axis=-1), axis=0)
