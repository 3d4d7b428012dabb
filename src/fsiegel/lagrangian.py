"""Lagrangian subspaces of E^{2n}: canonical bases, strata, enumeration.

A Lagrangian is held as its unique reduced column-echelon basis, a
2n x n matrix whose column span is n-dimensional and omega-isotropic.
Two Lagrangians are equal exactly when their stored bases are identical,
and they sort by the bytes of those bases, their `key`.  A cell's points
are the rows of one `PointTable`, these bases stacked in key order; a
`Lagrangian` object is built from a row only where one point is needed.

Each subspace carries two integer labels:

    h_rank  rank of the twisted form h_e restricted to the subspace
    o_type  type (= Gram rank, over a finite field) of h_0 restricted
            to the subspace

Over a finite field the "type" of a hermitian form, defined through a
partial orthonormal basis, equals the rank of its Gram matrix, because
every nondegenerate hermitian space has an orthonormal basis; the rank
reduction is what the library computes, and the test suite carries an
independent orthonormalization oracle for small cases.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConsistencyError,
    NotIsotropicError,
    ParameterError,
    RankDeficientError,
    ResourceLimitError,
)
from .field import epsilon_f
from .linalg import (
    Mat, block, conj_arr, kernel_stack, lookup_rows, mm, rank_stack, rcef, rcef_stack, stack_keys,
)
from .symplectic import (
    TAG_SP_E,
    SpaceParams,
    form_gram,
    frontier_closure,
    generators,
    make_space,
)


class StratumLabel(NamedTuple):
    h_rank: int
    o_type: int


class Lagrangian:
    """An n-dimensional omega-isotropic subspace in canonical form."""

    __slots__ = ("space", "basis")

    def __init__(self, space: SpaceParams, basis: Mat):
        self.space = space
        self.basis = basis

    @property
    def key(self) -> bytes:
        return self.basis.a.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Lagrangian):
            return NotImplemented
        return (
            self.space.q == other.space.q
            and self.space.n == other.space.n
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.space.q, self.space.n, self.key))

    def __lt__(self, other: "Lagrangian"):
        return self.key < other.key

    def encode(self) -> str:
        return self.basis.encode()

    def __repr__(self):
        return f"Lagrangian({self.encode()})"

    # -- geometry ----------------------------------------------------------

    def bottom_block(self) -> Mat:
        n = self.space.n
        return self.basis.block(n, 2 * n, 0, n)

    def in_siegel_image(self) -> bool:
        return self.bottom_block().rank() == self.space.n

    def gram(self, form: str) -> Mat:
        return form_gram(self.space, self.basis, form)

    def label(self) -> StratumLabel:
        return StratumLabel(self.gram("h_e").rank(), self.gram("h_0").rank())

    def conj(self) -> "Lagrangian":
        return _from_span(self.space, self.basis.conj().a)


def _from_span(sp: SpaceParams, arr: np.ndarray) -> Lagrangian:
    """Canonicalize a spanning 2n x n array known to be isotropic."""
    red, pivots = rcef(sp.fp, arr)
    if len(pivots) != sp.n:
        raise RankDeficientError(f"span has rank {len(pivots)}, expected {sp.n}")
    return Lagrangian(sp, Mat(sp.fp, red))


def span_images(sp: SpaceParams, mats: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Canonical bases of g W for each basis W in a stack and each g in mats.

    Takes bases (F, 2n, n, 2) and matrices (G, 2n, 2n, 2); returns the
    stack (F, G, 2n, n, 2), each entry bit-identical to `act`'s.
    """
    red, rank = rcef_stack(sp.fp, mm(sp.fp, mats[None], bases[:, None]))
    if np.any(rank != sp.n):
        raise RankDeficientError(f"an image span has rank below {sp.n}")
    return red


# points per block of a stacked pass over a point stack: bounds its temporaries
_POINT_CHUNK = 256


def _grams(sp: SpaceParams, bases: np.ndarray, core: Mat) -> np.ndarray:
    """Gram matrices t(W) core conj(W) of every basis W in a stack."""
    return mm(sp.fp, mm(sp.fp, bases.swapaxes(1, 2), core.a), conj_arr(bases, sp.q))


class PointTable:
    """Points as rows: canonical bases sorted by key, with per-point data.

    Next to the bases are their `stack_keys` and, per row, the labels
    (the ranks of the two Gram matrices) and the Siegel-image flag (an
    invertible bottom block); all are read-only.  Indexing a row builds
    its `Lagrangian`, so a table also reads as the sorted list of its points.
    """

    __slots__ = ("space", "bases", "keys", "h_rank", "o_type", "in_image")

    def __init__(self, sp: SpaceParams, bases: np.ndarray):
        self.space = sp
        self.bases = bases[np.argsort(stack_keys(bases))]
        self.keys = stack_keys(self.bases)
        for arr in (self.bases, self.keys):
            arr.setflags(write=False)  # a cached table is shared by every caller

    def __getattr__(self, name: str) -> np.ndarray:
        """The labels and image flags, computed together on first read.

        An orbit's own table never reads them, so it never pays for them.
        """
        if name not in ("h_rank", "o_type", "in_image"):
            raise AttributeError(name)
        sp = self.space
        self.h_rank = rank_stack(sp.fp, _grams(sp, self.bases, sp.j))
        self.o_type = rank_stack(sp.fp, _grams(sp, self.bases, sp.d_form))
        self.in_image = rank_stack(sp.fp, self.bases[:, sp.n :]) == sp.n
        for arr in (self.h_rank, self.o_type, self.in_image):
            arr.setflags(write=False)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, row: int) -> Lagrangian:
        return Lagrangian(self.space, Mat(self.space.fp, self.bases[row]))

    def rows(self, bases: np.ndarray) -> np.ndarray:
        """Row of each basis in a stack, or -1 where it is not a point of the table."""
        return lookup_rows(self.keys, bases)


def from_basis(sp: SpaceParams, m: Mat) -> Lagrangian:
    """Validate and canonicalize a 2n x n basis matrix."""
    if m.shape != (sp.dim, sp.n):
        raise ParameterError(f"expected a {sp.dim}x{sp.n} basis, got {m.shape}")
    if m.rank() != sp.n:
        raise RankDeficientError(f"basis has rank {m.rank()}, expected {sp.n}")
    if not (m.T @ sp.j @ m).is_zero:
        raise NotIsotropicError("column span is not isotropic for omega")
    return _from_span(sp, m.a)


def l_plus(sp: SpaceParams) -> Lagrangian:
    return from_basis(sp, block(sp.fp, [[Mat.identity(sp.fp, sp.n)], [Mat.zeros(sp.fp, sp.n, sp.n)]]))


def l_minus(sp: SpaceParams) -> Lagrangian:
    return from_basis(sp, block(sp.fp, [[Mat.zeros(sp.fp, sp.n, sp.n)], [Mat.identity(sp.fp, sp.n)]]))


def siegel(sp: SpaceParams, z: Mat) -> Lagrangian:
    """The Lagrangian spanned by the columns of (Z; I), Z symmetric."""
    if z.shape != (sp.n, sp.n):
        raise ParameterError(f"expected an {sp.n}x{sp.n} matrix, got {z.shape}")
    if not z.is_symmetric():
        raise ParameterError("Siegel coordinates must be symmetric")
    return from_basis(sp, block(sp.fp, [[z], [Mat.identity(sp.fp, sp.n)]]))


def conjugate_pair_dims(w: Lagrangian) -> tuple[int, int]:
    """(dim(W + conj W), dim(W ^ conj W)) by exact rank arithmetic."""
    sp = w.space
    joined = np.concatenate([w.basis.a, w.basis.conj().a], axis=1)
    dim_sum = Mat(sp.fp, joined).rank()
    return dim_sum, 2 * sp.n - dim_sum


def _conjugate_sum_dims(sp: SpaceParams, bases: np.ndarray) -> np.ndarray:
    """dim(W + conj W) for every basis in a stack, as one stacked rank."""
    return rank_stack(sp.fp, np.concatenate([bases, conj_arr(bases, sp.q)], axis=2))


def intersection_with_conj(w: Lagrangian) -> Mat:
    """Canonical basis of W ^ conj(W) (may have zero columns dropped)."""
    sp = w.space
    m, mbar = w.basis, w.basis.conj()
    stacked = Mat(sp.fp, np.concatenate([m.a, (-mbar.a) % sp.q], axis=1))
    ker = stacked.kernel()
    x_part = Mat(sp.fp, ker.a[: sp.n])
    inside = m @ x_part
    red, _ = rcef(sp.fp, inside.a)
    return Mat(sp.fp, red)


def h_e_radical(w: Lagrangian) -> Mat:
    """Canonical basis of the radical of h_e restricted to W."""
    sp = w.space
    g = w.gram("h_e")
    ker = g.T.kernel()
    red, _ = rcef(sp.fp, (w.basis @ ker).a)
    return Mat(sp.fp, red)


def _conj_intersections(sp: SpaceParams, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W ^ conj(W) for every basis in a stack; returns (stack (N, 2n, 2n, 2), ranks).

    Entry i's first ranks[i] columns are `intersection_with_conj` of that
    point, bit for bit, and the rest are zero.
    """
    joined = np.concatenate([bases, (-conj_arr(bases, sp.q)) % sp.q], axis=2)
    x = kernel_stack(sp.fp, joined)[:, : sp.n]
    return rcef_stack(sp.fp, mm(sp.fp, bases, x))


def _h_e_radicals(sp: SpaceParams, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radical of h_e on W for every basis in a stack; returns (stack (N, 2n, n, 2), ranks).

    Entry i's first ranks[i] columns are `h_e_radical` of that point, bit
    for bit, and the rest are zero.
    """
    ker = kernel_stack(sp.fp, _grams(sp, bases, sp.j).swapaxes(1, 2))
    return rcef_stack(sp.fp, mm(sp.fp, bases, ker))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def lagrangian_count(q: int, n: int) -> int:
    """prod_{k=1..n} (q^{2k} + 1) subspaces in total."""
    big = q * q
    count = 1
    for k in range(1, n + 1):
        count *= big**k + 1
    return count


@lru_cache(maxsize=None)
def _point_table(q: int, n: int) -> PointTable:
    """The cell's table: the closure of L+ under the generators of Sp(n, E)."""
    sp = make_space(q, n)
    gens = np.stack([g.mat.a for g in generators(sp, TAG_SP_E)])
    bases = frontier_closure(l_plus(sp).basis.a, lambda f: span_images(sp, gens, f))[0]
    expected = lagrangian_count(q, n)
    if len(bases) != expected:
        raise ConsistencyError(
            f"enumeration found {len(bases)} Lagrangians, count formula gives {expected}"
        )
    return PointTable(sp, bases)


def enumerate_lagrangians(q: int, n: int, cap: int | None = None) -> PointTable:
    """Every Lagrangian, as the cell's sorted point table; refused over the cap first."""
    expected = lagrangian_count(q, n)
    if cap is not None and expected > cap:
        raise ResourceLimitError(f"{expected} Lagrangians exceed cap {cap}")
    return _point_table(q, n)


def strata(q: int, n: int, cap: int | None = None):
    """Census by label: (h_strata, o_strata), lists of sorted points indexed by rank/type."""
    table = enumerate_lagrangians(q, n, cap)
    return tuple(
        [[table[i] for i in np.flatnonzero(labels == r).tolist()] for r in range(n + 1)]
        for labels in (table.h_rank, table.o_type)
    )


# ---------------------------------------------------------------------------
# explicit witnesses
# ---------------------------------------------------------------------------

class WitnessRecord(NamedTuple):
    name: str
    status: str  # "verified" | "unavailable" | "failed"
    lagrangian: Lagrangian | None
    expected_o_type: int | None
    in_image: bool | None
    params: dict
    detail: str


def _verify(rec_name, sp, w, want_o, want_image, params) -> WitnessRecord:
    lab = w.label()
    img = w.in_siegel_image()
    ok = lab.o_type == want_o and img == want_image
    detail = f"o_type={lab.o_type}, h_rank={lab.h_rank}, in_image={img}"
    return WitnessRecord(
        rec_name, "verified" if ok else "failed", w, want_o, img, params, detail
    )


def witnesses(q: int, n: int) -> list[WitnessRecord]:
    """The explicit stratum representatives, each re-verified on construction.

    Covers: diagonal Siegel points landing in each o-stratum inside the
    image; the mixed spans missing the image in each positive stratum;
    the null-stratum non-image points (separate odd and even builds); and
    the coordinate spans of full type together with a scalar group element
    carrying them into the image.
    """
    sp = make_space(q, n)
    fp = sp.fp
    out: list[WitnessRecord] = []
    d = fp.solve_norm(1)

    # diagonal Siegel points: r zeros then unit-norm entries, o_type r, in image
    for r in range(n + 1):
        z = Mat.diag(fp, [fp.zero] * r + [d] * (n - r))
        out.append(_verify(f"diag_image_o{r}", sp, siegel(sp, z), r, True, {"d": d.encode()}))

    # mixed spans e_1..e_r, d e_{r+j} + e_{n+r+j}: o_type r, never in image
    for r in range(1, n + 1):
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for j in range(r):
            cols[j, j, 0] = 1
        for j in range(n - r):
            cols[r + j, r + j] = (d.re, d.im)
            cols[n + r + j, r + j, 0] = 1
        w = from_basis(sp, Mat(fp, cols))
        out.append(_verify(f"mixed_nonimage_o{r}", sp, w, r, False, {"d": d.encode()}))

    # odd-dimension null-stratum point outside the image
    if n % 2 == 1 and n >= 3:
        if epsilon_f(q) == 1:
            out.append(
                WitnessRecord(
                    "odd_null_nonimage",
                    "unavailable",
                    None,
                    0,
                    None,
                    {},
                    "construction assumes -1 is a non-square in the base field",
                )
            )
        else:
            found = None
            for c in fp.units():
                for dd in fp.units():
                    if (fp.one + c.norm() + dd.norm()).is_zero and (c * dd.conj()).is_rational:
                        found = (c, dd)
                        break
                if found:
                    break
            if found is None:
                out.append(
                    WitnessRecord(
                        "odd_null_nonimage", "unavailable", None, 0, None, {},
                        "no (c, d) with 1 + N(c) + N(d) = 0 and c*conj(d) rational",
                    )
                )
            else:
                c, dd = found
                cols = np.zeros((2 * n, n, 2), dtype=np.int64)
                a3 = Mat.build(fp, [[1, 0, -c], [0, 1, -dd], [c.conj(), dd.conj(), 1]])
                b3 = Mat.build(fp, [[1, 0, 0], [0, 1, 0], [c, dd, 0]])
                cols[0:3, 0:3] = a3.a
                cols[n : n + 3, 0:3] = b3.a
                for j in range(3, n):
                    cols[j, j, 0] = 1
                    cols[n + j, j, 0] = 1
                w = from_basis(sp, Mat(fp, cols))
                out.append(
                    _verify("odd_null_nonimage", sp, w, 0, False, {"c": c.encode(), "d": dd.encode()})
                )

    # even-dimension null-stratum point outside the image
    if n % 2 == 0:
        b = fp.solve_norm(-1)
        c = fp.zero
        a2 = Mat.build(fp, [[-b * c, -b], [c, 1]])
        b2 = Mat.build(fp, [[1, 0], [b, 0]])
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for t in range(n // 2):
            rows = [2 * t, 2 * t + 1]
            cs = [2 * t, 2 * t + 1]
            cols[np.ix_(rows, cs)] = a2.a
            cols[np.ix_([n + r for r in rows], cs)] = b2.a
        w = from_basis(sp, Mat(fp, cols))
        out.append(
            _verify("even_null_nonimage", sp, w, 0, False, {"b": b.encode(), "c": c.encode()})
        )

    # coordinate spans e_1..e_k, e_{n+k+1}..e_{2n}: full type, not in image,
    # plus the scalar element that carries them into the image
    beta = fp.one
    alpha = fp.solve_norm(fp.one + beta.norm())
    for k in range(1, n):
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for j in range(k):
            cols[j, j, 0] = 1
        for j in range(n - k):
            cols[n + k + j, k + j, 0] = 1
        w = from_basis(sp, Mat(fp, cols))
        rec = _verify(f"coordinate_span_k{k}", sp, w, n, False, {})
        out.append(rec)
        if rec.status == "verified":
            eye = Mat.identity(fp, n)
            g = block(
                fp,
                [
                    [alpha * eye, beta * eye],
                    [beta.conj() * eye, alpha.conj() * eye],
                ],
            )
            moved = _from_span(sp, mm(fp, g.a, w.basis.a))
            ok = moved.in_siegel_image()
            out.append(
                WitnessRecord(
                    f"coordinate_span_k{k}_transported",
                    "verified" if ok else "failed",
                    moved,
                    None,
                    ok,
                    {"alpha": alpha.encode(), "beta": beta.encode()},
                    f"in_image={ok}",
                )
            )
    return out
