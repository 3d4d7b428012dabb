"""Orbit computation for group generators acting on canonical Lagrangians.

Everything here is schedule-independent by construction: partitions sweep
their input in sorted order, so each orbit's representative is its
lexicographically smallest member, and the resulting report is identical
no matter how the frontier was expanded.  A walk's parent pointers and
generators are the one exception (they depend on the exploration schedule
of the BFS), and no report holds them.

Points are rows of a sorted `PointTable`, and a partition is one row
array: the orbit number of each row, orbits numbered by their smallest
rows (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
section 4.1).  Each orbit is a BFS component over an int action table
(row -> image row, a column per generator), walked with the parent
pointers and generators of a Schreier vector: `_walk`, shared by
`partition`, the stabilizers' V_k orbits and the involution classes.

A cell's generator tables are built by `cayley._cell_actions`, once while
the grid is on the cell: only the upper translations are canonicalized,
and every other column is a row permutation read through `_inverse_rows`.
`_action_table` serves any other generator list and is the tests' oracle
for the cell's tables.
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationFailure
from .lagrangian import Lagrangian, PointTable, span_images
from .linalg import Mat, blocks, mm
from .symplectic import EnumeratedGroup, _generator_stack, frontier_closure


class PartitionReport:
    """Orbits of a point table as row arrays.

    `orbit[i]` is the orbit number of row i, orbits numbered by their
    smallest rows `reps`, ascending; `conflicts` are the orbits holding a
    row whose invariant differs from its representative's, ascending.
    """

    __slots__ = ("table", "orbit", "reps", "conflicts")

    def __init__(self, table: PointTable, orbit: np.ndarray, reps: np.ndarray, conflicts: np.ndarray):
        self.table, self.orbit, self.reps, self.conflicts = table, orbit, reps, conflicts

    def sizes(self) -> np.ndarray:
        """The orbit sizes, in the order of `reps`."""
        return np.bincount(self.orbit, minlength=len(self.reps))


def _action_table(table: PointTable, mats: np.ndarray) -> np.ndarray:
    """Row of g W for each row W of the table and each generator g: (N, G) int32.

    Raises VerificationFailure when an image lies outside the table.
    """
    out = np.empty((len(table), len(mats)), dtype=np.int32)
    for part in blocks(len(table)):
        images = span_images(table.space, mats, table.bases[part])
        rows = table.rows(images.reshape(-1, *table.bases.shape[1:]))
        if np.any(rows < 0):
            raise VerificationFailure("orbit escaped the supplied point set")
        out[part] = rows.reshape(-1, len(mats))
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
    for the rational group, "o_type" for the h_0-unitary one); an orbit
    with a row disagreeing with its representative in that column is
    recorded as a conflict, never silently dropped.  The orbits are BFS
    components over the generators' action table on the table's rows:
    `action` when given (a cell's derived table, `cayley._cell_actions`),
    else `_action_table`.  A walk that reaches a row of an earlier orbit
    raises VerificationFailure.
    """
    if action is None:
        action = _action_table(table, _generator_stack(table.space, gens))
    orbit = np.full(len(table), -1, dtype=action.dtype)
    reps = []
    for part in blocks(len(table)):  # the next seed is read off the rest of one block
        s = part.start
        while True:
            free = orbit[s : part.stop] < 0
            if not free.any():
                break
            s += int(free.argmax())
            found = _walk(action, s)[0]
            if np.any(orbit[found] >= 0):
                raise VerificationFailure("orbits do not cover the point set")
            orbit[found] = len(reps)
            reps.append(s)
    reps = np.array(reps, dtype=np.intp)
    conflicts = np.empty(0, dtype=np.intp)
    if invariant is not None:
        inv = getattr(table, invariant)
        conflicts = np.flatnonzero(np.bincount(orbit[inv != inv[reps][orbit]], minlength=len(reps)))
    return PartitionReport(table, orbit, reps, conflicts)


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
