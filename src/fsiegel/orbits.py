"""Orbit computation for group generators acting on canonical Lagrangians.

Everything here is schedule-independent by construction: partitions sweep
their input in sorted order, so each orbit's representative is its
lexicographically smallest member, and the resulting report is identical
no matter how the frontier was expanded.  Transporter words are the one
exception (they depend on the exploration schedule of the final BFS) and
are therefore excluded from report equality.
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationFailure
from .lagrangian import Lagrangian, StratumLabel, _from_span, _labels, span_images
from .linalg import Mat, mm
from .symplectic import EnumeratedGroup, GroupElement, frontier_closure


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


def orbit(seed: Lagrangian, gens, cap: int | None = None, check_stride: int = 100) -> OrbitRecord:
    """BFS orbit of the seed, one stacked canonicalization per frontier.

    Transporter words follow the BFS parent pointers (a Schreier vector);
    every check_stride-th member's word is re-applied with the scalar `act`.
    """
    gens = list(gens)
    sp = seed.space
    mats = np.array([_mat(g).a for g in gens], dtype=np.int64).reshape(len(gens), sp.dim, sp.dim, 2)
    bases, parent, via = frontier_closure(
        seed.basis.a, lambda f: span_images(sp, mats, f), cap, "orbit"
    )
    members = [seed] + [Lagrangian(sp, Mat(sp.fp, b)) for b in bases[1:]]
    words: dict[bytes, tuple] = {seed.key: ()}
    for w, p, i in zip(members[1:], parent[1:].tolist(), via[1:].tolist()):
        words[w.key] = words[members[p].key] + (i,)
    for idx in range(0, len(members), check_stride):
        w = members[idx]
        if apply_word(words[w.key], seed, gens) != w:
            raise VerificationFailure("transporter word does not reproduce its point")
    return OrbitRecord(seed, sorted(members), words)


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


def partition(points, gens, invariant: str | None = None) -> PartitionReport:
    """Orbit partition of a point set, seeds swept in canonical order.

    Each orbit's representative is its smallest member.  `invariant`
    names the label component expected to be constant on orbits
    ("h_rank" for the rational group, "o_type" for the h_0-unitary one);
    members disagreeing with their representative in that component are
    recorded as conflicts, never silently dropped.
    """
    pts = sorted(points)
    label: dict[bytes, StratumLabel] = {}
    if pts:
        h_rank, o_type = _labels(pts[0].space, np.stack([w.basis.a for w in pts]))
        label = {w.key: StratumLabel(h, o) for w, h, o in zip(pts, h_rank.tolist(), o_type.tolist())}
    visited: set[bytes] = set()
    orbits: list[OrbitRecord] = []
    labels: list[StratumLabel] = []
    conflicts = []
    for p in pts:
        if p.key in visited:
            continue
        rec = orbit(p, gens)
        if not rec.member_keys() <= label.keys():
            raise VerificationFailure("orbit escaped the supplied point set")
        visited.update(rec.member_keys())
        lab = label[p.key]
        if invariant is not None:
            ref = getattr(lab, invariant)
            bad = [w for w in rec.members if getattr(label[w.key], invariant) != ref]
            if bad:
                conflicts.append((p, bad[0], label[bad[0].key]))
        orbits.append(rec)
        labels.append(lab)
    if len(visited) != len(pts):
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
