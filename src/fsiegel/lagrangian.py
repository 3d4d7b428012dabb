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

from typing import NamedTuple

import numpy as np

from .errors import (
    ConsistencyError,
    NotIsotropicError,
    ParameterError,
    RankDeficientError,
    ResourceLimitError,
    count_text,
)
from .field import epsilon_f
from .linalg import (
    PAIR_DTYPE, Mat, RowTable, block, block_diag, blocks, conj_arr, entry_bytes, kernel_stack, mm, rank_stack,
    rcef, rcef_stack, symmetric_stack,
)
from .symplectic import SpaceParams, form_gram, make_space, per_cell


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
        return entry_bytes(self.basis.a)

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


def _grams(sp: SpaceParams, bases: np.ndarray, core: Mat) -> np.ndarray:
    """Gram matrices t(W) core conj(W) of every basis W in a stack."""
    return mm(sp.fp, mm(sp.fp, bases.swapaxes(1, 2), core.a), conj_arr(bases, sp.q))


class PointTable(RowTable):
    """Points as rows of a `RowTable`: canonical bases (`bases`, its `arr`), with per-point data.

    Per row the table holds the labels (the ranks of the two Gram matrices)
    and the Siegel-image flag (an invertible bottom block), all built with
    the table and read-only.  Indexing a row gives its `Lagrangian`.
    """

    __slots__ = ("space", "h_rank", "o_type", "in_image")

    def __init__(self, sp: SpaceParams, bases: np.ndarray):
        super().__init__(bases, sp.q)
        self.space = sp
        self.h_rank = rank_stack(sp.fp, _grams(sp, self.arr, sp.j))
        self.o_type = rank_stack(sp.fp, _grams(sp, self.arr, sp.d_form))
        self.in_image = rank_stack(sp.fp, self.arr[:, sp.n :]) == sp.n
        for arr in (self.h_rank, self.o_type, self.in_image):
            arr.setflags(write=False)

    bases = property(lambda self: self.arr)

    def __getitem__(self, row: int) -> Lagrangian:
        return Lagrangian(self.space, Mat(self.space.fp, self.arr[row]))


def from_basis(sp: SpaceParams, m: Mat) -> Lagrangian:
    """Validate and canonicalize a 2n x n basis matrix."""
    if m.shape != (sp.dim, sp.n):
        raise ParameterError(f"expected a {sp.dim}x{sp.n} basis, got {m.shape}")
    if m.rank() != sp.n:
        raise RankDeficientError(f"basis has rank {m.rank()}, expected {sp.n}")
    if not (m.T @ sp.j @ m).is_zero:
        raise NotIsotropicError("column span is not isotropic for omega")
    return _from_span(sp, m.a)


def _span_of(sp: SpaceParams, top: Mat, bottom: Mat) -> Lagrangian:
    """The Lagrangian spanned by the columns of (top; bottom), validated and canonicalized."""
    return from_basis(sp, block(sp.fp, [[top], [bottom]]))


def l_plus(sp: SpaceParams) -> Lagrangian:
    return _span_of(sp, Mat.identity(sp.fp, sp.n), Mat.zeros(sp.fp, sp.n, sp.n))


def l_minus(sp: SpaceParams) -> Lagrangian:
    return _span_of(sp, Mat.zeros(sp.fp, sp.n, sp.n), Mat.identity(sp.fp, sp.n))


def siegel(sp: SpaceParams, z: Mat) -> Lagrangian:
    """The Lagrangian spanned by the columns of (Z; I), Z symmetric."""
    if z.shape != (sp.n, sp.n):
        raise ParameterError(f"expected an {sp.n}x{sp.n} matrix, got {z.shape}")
    if not z.is_symmetric():
        raise ParameterError("Siegel coordinates must be symmetric")
    return _span_of(sp, z, Mat.identity(sp.fp, sp.n))


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


@per_cell
def _point_table(q: int, n: int) -> PointTable:
    """The cell's table from its 2^n Siegel charts: every Lagrangian is sigma_S span(Z; I)
    for a symmetric Z, and is kept in the first chart S (in bitmask order) that holds it.

    sigma_S sends e_i to e_{n+i} and e_{n+i} to -e_i for i in S, and fixes the rest, so
    sigma_S (Z; I) is placed by rows: for i in S, row i is -e_i and row n+i is Z's row i.
    sigma_T^-1 sigma_S is a signed swap on S xor T, so sigma_S span(Z; I) lies in chart T
    exactly when Z's principal submatrix on S xor T has full rank: each block of Z ranks
    its 2^n - 1 principal minors once, and chart S keeps the Z whose minors on S xor T are
    singular for every T < S.  Charts are concatenated in order, chart 0 first by Z's number.

    The test oracles are the closure of L+ under Sp(n, E) (`frontier_closure`) and the
    charts built as products with the swap matrices, told apart by bottom-block ranks.
    """
    sp = make_space(q, n)
    subsets = [np.flatnonzero((s >> np.arange(n)) & 1) for s in range(2**n)]
    eye = Mat.identity(sp.fp, n).a
    charts = [[] for _ in subsets]
    for part in blocks(q ** (n * (n + 1))):  # peak memory is the table plus one block
        # Z numbered by the base-q digits of the (re, im) pairs of its upper triangle
        digits = np.stack(np.unravel_index(np.arange(part.start, part.stop), (q,) * (n * (n + 1))), axis=-1)
        zs = symmetric_stack(digits.astype(PAIR_DTYPE).reshape(len(digits), -1, 2), n)
        full = [None] + [rank_stack(sp.fp, zs[:, on][:, :, on]) == len(on) for on in subsets[1:]]
        for s, on in enumerate(subsets):
            keep = np.ones(len(zs), dtype=bool)
            for t in range(s):
                keep &= ~full[s ^ t]
            z = zs[keep]
            spans = np.concatenate([z, np.broadcast_to(eye, z.shape)], axis=1)
            spans[:, on], spans[:, n + on] = (-spans[:, n + on]) % q, spans[:, on]
            red, rank = rcef_stack(sp.fp, spans)
            if np.any(rank != n):
                raise RankDeficientError(f"a chart span has rank below {n}")
            charts[s].append(red)
    bases = np.concatenate([red for chart in charts for red in chart])
    del charts  # the labels set the table's peak: drop the per-chart copies first
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
        raise ResourceLimitError(f"{count_text(expected)} Lagrangians exceed cap {cap}")
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
        w = _span_of(sp, Mat.diag(fp, [1] * r + [d] * (n - r)), Mat.diag(fp, [0] * r + [1] * (n - r)))
        out.append(_verify(f"mixed_nonimage_o{r}", sp, w, r, False, {"d": d.encode()}))

    # odd-dimension null-stratum point outside the image
    if n % 2 == 1 and n >= 3:
        found = None
        if epsilon_f(q) == 1:
            reason = "construction assumes -1 is a non-square in the base field"
        else:
            reason = "no (c, d) with 1 + N(c) + N(d) = 0 and c*conj(d) rational"
            found = next(
                (
                    (c, dd) for c in fp.units() for dd in fp.units()
                    if (fp.one + c.norm() + dd.norm()).is_zero and (c * dd.conj()).is_rational
                ),
                None,
            )
        if found is None:
            out.append(WitnessRecord("odd_null_nonimage", "unavailable", None, 0, None, {}, reason))
        else:
            c, dd = found
            a3 = Mat.build(fp, [[1, 0, -c], [0, 1, -dd], [c.conj(), dd.conj(), 1]])
            b3 = Mat.build(fp, [[1, 0, 0], [0, 1, 0], [c, dd, 0]])
            rest = Mat.identity(fp, n - 3)
            w = _span_of(sp, block_diag(fp, a3, rest), block_diag(fp, b3, rest))
            out.append(_verify("odd_null_nonimage", sp, w, 0, False, {"c": c.encode(), "d": dd.encode()}))

    # even-dimension null-stratum point outside the image
    if n % 2 == 0:
        b = fp.solve_norm(-1)
        c = fp.zero
        a2 = Mat.build(fp, [[-b * c, -b], [c, 1]])
        b2 = Mat.build(fp, [[1, 0], [b, 0]])
        w = _span_of(sp, block_diag(fp, *[a2] * (n // 2)), block_diag(fp, *[b2] * (n // 2)))
        out.append(_verify("even_null_nonimage", sp, w, 0, False, {"b": b.encode(), "c": c.encode()}))

    # coordinate spans e_1..e_k, e_{n+k+1}..e_{2n}: full type, not in image,
    # plus the scalar element that carries them into the image
    beta = fp.one
    alpha = fp.solve_norm(fp.one + beta.norm())
    eye = Mat.identity(fp, n)
    g = block(fp, [[alpha * eye, beta * eye], [beta.conj() * eye, alpha.conj() * eye]])
    for k in range(1, n):
        w = _span_of(sp, Mat.diag(fp, [1] * k + [0] * (n - k)), Mat.diag(fp, [0] * k + [1] * (n - k)))
        rec = _verify(f"coordinate_span_k{k}", sp, w, n, False, {})
        out.append(rec)
        if rec.status == "verified":
            moved = _from_span(sp, mm(fp, g.a, w.basis.a))
            ok = moved.in_siegel_image()
            params = {"alpha": alpha.encode(), "beta": beta.encode()}
            status = "verified" if ok else "failed"
            out.append(
                WitnessRecord(f"{rec.name}_transported", status, moved, None, ok, params, f"in_image={ok}")
            )
    return out
