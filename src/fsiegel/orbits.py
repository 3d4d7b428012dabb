"""Orbit computation for group generators acting on canonical Lagrangians.

Everything here is schedule-independent by construction: partitions sweep
their input in sorted order, so each orbit's representative is its
lexicographically smallest member, and the resulting report is identical
no matter how the frontier was expanded.  Transporter words are the one
exception (they depend on the exploration schedule of the final BFS) and
are therefore excluded from report equality.

A partition works on the sorted point stack: each generator's action is
one int table (point index -> image index), and each orbit is a BFS
component over the tables, its words read off the parent pointers, a
Schreier vector (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, section 4.1).
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationFailure
from .lagrangian import _POINT_CHUNK, Lagrangian, StratumLabel, _from_span, _labels, span_images
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
    """One orbit: representative, members, and words over generator indices."""

    __slots__ = ("representative", "members", "transporters")

    def __init__(self, representative: Lagrangian, members: list[Lagrangian], transporters: dict):
        self.representative = representative
        self.members = members
        self.transporters = transporters

    @property
    def size(self) -> int:
        return len(self.members)

    def member_keys(self) -> frozenset:
        return frozenset(w.key for w in self.members)


def _gen_stack(sp, gens) -> np.ndarray:
    return np.array([_mat(g).a for g in gens], dtype=np.int64).reshape(len(gens), sp.dim, sp.dim, 2)


def _transporters(members: list, parent: np.ndarray, via: np.ndarray, gens) -> dict:
    """Words over generator indices from BFS parent pointers (a Schreier vector).

    `members` is in discovery order, seed first; member i > 0 is the image
    of member parent[i] under generator via[i].  Every _CHECK_STRIDE-th
    member's word is re-applied from the seed with the scalar `act`.
    """
    words = [()]
    for p, i in zip(parent[1:].tolist(), via[1:].tolist()):
        words.append(words[p] + (i,))
    for idx in range(0, len(members), _CHECK_STRIDE):
        if apply_word(words[idx], members[0], gens) != members[idx]:
            raise VerificationFailure("transporter word does not reproduce its point")
    return {w.key: word for w, word in zip(members, words)}


def orbit(seed: Lagrangian, gens, cap: int | None = None) -> OrbitRecord:
    """BFS orbit of the seed, one stacked canonicalization per frontier.

    Transporter words follow the BFS parent pointers (a Schreier vector);
    every _CHECK_STRIDE-th member's word is re-applied with the scalar `act`.
    """
    gens = list(gens)
    sp = seed.space
    mats = _gen_stack(sp, gens)
    bases, parent, via = frontier_closure(
        seed.basis.a, lambda f: span_images(sp, mats, f), cap, "orbit"
    )
    members = [seed] + [Lagrangian(sp, Mat(sp.fp, b)) for b in bases[1:]]
    return OrbitRecord(seed, sorted(members), _transporters(members, parent, via, gens))


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


def _point_keys(bases: np.ndarray) -> np.ndarray:
    """One sort key per basis in a stack (N, 2n, n, 2): the bytes `Lagrangian.__lt__` compares."""
    flat = np.ascontiguousarray(bases, dtype=np.int64).reshape(len(bases), -1)
    return flat.view(f"S{flat.shape[1] * 8}").ravel()


def _action_table(sp, mats: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Index of g W in the sorted stack `bases`, for each basis W and generator g: (N, G).

    Raises VerificationFailure when an image lies outside the stack.
    """
    keys = _point_keys(bases)
    table = np.empty((len(bases), len(mats)), dtype=np.int64)
    for lo in range(0, len(bases), _POINT_CHUNK):
        images = span_images(sp, mats, bases[lo : lo + _POINT_CHUNK])
        images = _point_keys(images.reshape(-1, *bases.shape[1:]))
        idx = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        if not np.array_equal(keys[idx], images):
            raise VerificationFailure("orbit escaped the supplied point set")
        table[lo : lo + _POINT_CHUNK] = idx.reshape(-1, len(mats))
    return table


def partition(points, gens, invariant: str | None = None) -> PartitionReport:
    """Orbit partition of a point set, seeds swept in canonical order.

    Each orbit's representative is its smallest member.  `invariant`
    names the label component expected to be constant on orbits
    ("h_rank" for the rational group, "o_type" for the h_0-unitary one);
    members disagreeing with their representative in that component are
    recorded as conflicts, never silently dropped.  The orbits are BFS
    components over the generators' action tables on the sorted stack.
    """
    pts = sorted(points, key=lambda w: w.key)
    orbits: list[OrbitRecord] = []
    labels: list[StratumLabel] = []
    conflicts = []
    if not pts:
        return PartitionReport(orbits, labels, conflicts)
    gens = list(gens)
    sp = pts[0].space
    bases = np.stack([w.basis.a for w in pts])
    table = _action_table(sp, _gen_stack(sp, gens), bases)
    ranks = StratumLabel(*_labels(sp, bases))

    def label(i) -> StratumLabel:
        return StratumLabel(int(ranks.h_rank[i]), int(ranks.o_type[i]))

    seen = np.zeros(len(pts), dtype=bool)
    for s in np.arange(len(pts)):
        if seen[s]:
            continue
        found, parent, via = frontier_closure(s[None], lambda f: table[f[:, 0], :, None])
        found = found[:, 0]
        seen[found] = True
        members = np.sort(found)
        if invariant is not None:
            inv = getattr(ranks, invariant)
            bad = members[inv[members] != inv[s]]
            if bad.size:
                conflicts.append((pts[s], pts[bad[0]], label(bad[0])))
        words = _transporters([pts[i] for i in found.tolist()], parent, via, gens)
        orbits.append(OrbitRecord(pts[s], [pts[i] for i in members.tolist()], words))
        labels.append(label(s))
    if sum(o.size for o in orbits) != len(pts):
        raise VerificationFailure("orbits do not cover the point set")
    return PartitionReport(orbits, labels, conflicts)


def stabilizer_order(group_order: int, orbit_size: int) -> int:
    if orbit_size <= 0 or group_order % orbit_size != 0:
        raise VerificationFailure(
            f"orbit size {orbit_size} does not divide group order {group_order}"
        )
    return group_order // orbit_size


def stabilizer_elements(point: Lagrangian, group) -> list[GroupElement]:
    """Members fixing the subspace, by filtering a fully enumerated group."""
    if isinstance(group, EnumeratedGroup):
        sp = point.space
        basis = point.basis.a
        garr = group.arr
        gm = mm(sp.fp, garr, basis)
        pivots = _pivot_rows(point.basis)
        coeff = gm[:, pivots]
        back = mm(sp.fp, basis, coeff)
        mask = np.all(back == gm, axis=(1, 2, 3))
        elements = group.elements()
        return [elements[i] for i in np.flatnonzero(mask)]
    return [g for g in group if act(g, point) == point]


def _pivot_rows(basis: Mat) -> list[int]:
    """Rows of the leading ones of a reduced column-echelon basis."""
    rows = []
    arr = basis.a
    for c in range(basis.cols):
        nz = np.flatnonzero((arr[:, c, 0] != 0) | (arr[:, c, 1] != 0))
        rows.append(int(nz[0]))
    return rows
