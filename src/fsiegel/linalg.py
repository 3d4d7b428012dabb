"""Exact dense linear algebra over the quadratic extension field.

A matrix is a (rows, cols, 2) int32 (`PAIR_DTYPE`) array of (re, im)
coefficient pairs, reduced mod q, keyed in a stack by one int64 code
(`stack_keys`) that a `RowTable`, the one table type, sorts and searches;
keys, counts, ranks and row indices are int64.  numpy carries the bulk
arithmetic with exact integers: a product is taken in int32 only where
its largest possible sum stays below 2^31 (`product_dtype`), else in
int64, and stored back as int32.
There are two eliminations, `rref` for one matrix and `_rref_block` for
a stack (N, rows, cols, 2), each a Python loop over the columns, and
everything else, determinants included, is derived from one of them.
Inside the stacked kernel each entry is one int32 code re*(2q - 1) + im,
multiplied, subtracted and inverted by lookups in the field's
`CodeTables` (about 48 q^2 bytes, built on the first stacked elimination);
pairs go in and come out.  A stack's results are bit-identical to
`rref`'s, which stays the reference oracle (and the faster path for one
matrix).

Elimination is deliberately plain: columns are scanned left to right and
rows top to bottom, with no pivot heuristics, so every reduced form is
reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .field import CodeTables, EScalar, FieldParams

PAIR_DTYPE = np.int32  # every stored (re, im) pair array
_I64 = np.int64  # keys, counts, ranks and row indices


# ---------------------------------------------------------------------------
# raw array kernels
# ---------------------------------------------------------------------------

def product_dtype(fp: FieldParams, k: int) -> type:
    """The dtype that holds every sum of k products of pairs exactly: int32 while k (q - 1)^2 (1 + eps) < 2^31.

    For entries of absolute value below q, the real part of such a sum is
    at most k (q - 1)^2 + eps k (q - 1)^2 and the imaginary part 2k (q - 1)^2,
    no more since eps >= 2; past the bound the sums are taken in int64.
    """
    return np.int32 if k * (fp.q - 1) ** 2 * (1 + fp.eps) < 2**31 else _I64


def mm(fp: FieldParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of coefficient-pair arrays, entries of absolute value below q; broadcasts
    over stacks.  Multiplied in the `product_dtype` of the inner dimension, stored as `PAIR_DTYPE`."""
    work = product_dtype(fp, a.shape[-2])
    a, b = a.astype(work, copy=False), b.astype(work, copy=False)
    ar, ai = a[..., 0], a[..., 1]
    br, bi = b[..., 0], b[..., 1]
    re = ar @ br + fp.eps * (ai @ bi)
    out = np.empty(re.shape + (2,), dtype=PAIR_DTYPE)
    np.remainder(re, fp.q, out=out[..., 0])
    np.remainder(ar @ bi + ai @ br, fp.q, out=out[..., 1])
    return out


def scalar_mm(fp: FieldParams, c: tuple[int, int], a: np.ndarray) -> np.ndarray:
    """c times a pair array, for a reduced pair c: one product per entry, in `product_dtype` (fp, 1)."""
    cr, ci = c
    a = a.astype(product_dtype(fp, 1), copy=False)
    re = (cr * a[..., 0] + fp.eps * ci * a[..., 1]) % fp.q
    im = (cr * a[..., 1] + ci * a[..., 0]) % fp.q
    return np.stack([re, im], axis=-1).astype(PAIR_DTYPE, copy=False)


def conj_arr(a: np.ndarray, q: int) -> np.ndarray:
    out = a.copy()
    out[..., 1] = (-out[..., 1]) % q
    return out


def symmetric_stack(upper: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrices of a stack of upper triangles (N, n(n+1)/2, ...), row by row."""
    slot = np.zeros((n, n), dtype=np.intp)
    iu = np.triu_indices(n)
    slot[iu] = slot[iu[::-1]] = np.arange(len(iu[0]))
    return upper[:, slot]


def rref(fp: FieldParams, a: np.ndarray, det: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (array, pivot column indices).

    A given (re, im) pair array `det` is multiplied by each pivot before
    normalization and negated on each row swap, as in `_rref_block`.  Each
    row operation sums one product of pairs per entry, in `product_dtype` (fp, 1).
    """
    q, eps = fp.q, fp.eps
    a = (a % q).astype(product_dtype(fp, 1), copy=False)
    m, ncols = a.shape[0], a.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        col = a[r:, c]
        nz = np.flatnonzero((col[:, 0] != 0) | (col[:, 1] != 0))
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        pr, pi = int(a[r, c, 0]), int(a[r, c, 1])
        if det is not None:
            sign = 1 if p == r else -1
            det[:] = sign * (det[0] * pr + eps * det[1] * pi) % q, sign * (det[0] * pi + det[1] * pr) % q
        ir, ii = fp.inv_pair(pr, pi)
        row = a[r]
        rre = (ir * row[:, 0] + eps * ii * row[:, 1]) % q
        rim = (ir * row[:, 1] + ii * row[:, 0]) % q
        a[r, :, 0] = rre
        a[r, :, 1] = rim
        fac = a[:, c].copy()
        fac[r] = 0
        dre = (np.outer(fac[:, 0], rre) + eps * np.outer(fac[:, 1], rim)) % q
        dim = (np.outer(fac[:, 0], rim) + np.outer(fac[:, 1], rre)) % q
        a[:, :, 0] = (a[:, :, 0] - dre) % q
        a[:, :, 1] = (a[:, :, 1] - dim) % q
        pivots.append(c)
        r += 1
    return a.astype(PAIR_DTYPE, copy=False), pivots


def rcef(fp: FieldParams, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced column echelon form via row reduction of the transpose.

    Returns (array, pivot row indices); zero columns are dropped, so the
    result is the canonical representative of the column span.
    """
    red, pivots = rref(fp, a.swapaxes(0, 1))
    return red[: len(pivots)].swapaxes(0, 1), pivots


# matrices per block of every stacked pass (`blocks`): bounds its temporaries
_STACK_CHUNK = 4096


def blocks(total: int, start: int = 0):
    """Slices that cut range(start, total) into blocks of `_STACK_CHUNK`, read at call time.

    Every stacked pass over a big stack walks it by these blocks, so one
    constant bounds their temporaries; no result depends on the size.
    """
    size = _STACK_CHUNK
    for lo in range(start, total, size):
        yield slice(lo, min(lo + size, total))


def rref_stack(fp: FieldParams, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix in a stack (..., rows, cols, 2); returns (stack, ranks).

    Each reduced matrix is bit-identical to `rref` of that matrix alone.
    The Python loop runs over the columns only: in column c each matrix
    takes as pivot its first nonzero row at or below its current rank
    (argmax over a nonzero mask), exactly the scalar kernel's choice.
    """
    red, rank, _ = _eliminate(fp, a, with_det=False)
    return red, rank


def det_stack(fp: FieldParams, a: np.ndarray) -> np.ndarray:
    """Determinant of every square matrix in a stack (..., m, m, 2), as (re, im) pairs (..., 2).

    One pass of the stacked elimination: the product of the pivots before
    they are normalized, negated once per row swap, and zero below full
    rank.  Each entry equals `det_arr` of that matrix alone.
    """
    red, rank, det = _eliminate(fp, a, with_det=True)
    return det.reshape(*rank.shape, 2) * (rank == red.shape[-2])[..., None]


def _eliminate(fp: FieldParams, a: np.ndarray, with_det: bool):
    """Reduce a stack a `blocks` block at a time; returns (stack, ranks, pivot products or None).

    Each block is packed into the int32 codes of `FieldParams.code_tables`
    and unpacked into (re, im) pairs of the result, so the codes take no
    more memory than one block.  A code is at most 2q(q - 1), below 2^31
    wherever the tables fit in memory (q < 32,768, tables under 51 GB), so
    packing int32 entries stays in int32; wider entries pack in their own dtype.
    """
    a = np.asarray(a)
    lead, (m, ncols) = a.shape[:-3], a.shape[-3:-1]
    num = int(np.prod(lead, dtype=_I64))
    a = a.reshape(num, m, ncols, 2)
    tables = fp.code_tables()
    red = np.empty(a.shape, dtype=PAIR_DTYPE)
    rank = np.zeros(num, dtype=_I64)
    det = np.full(num, tables.radix, dtype=np.int32) if with_det else None  # the code of 1
    for part in blocks(num):
        codes = (a[part, ..., 0] % fp.q * tables.radix + a[part, ..., 1] % fp.q).astype(np.int32, copy=False)
        _rref_block(tables, codes, rank[part], None if det is None else det[part])
        _unpack(codes, tables.radix, red[part])
    if det is not None:
        det = _unpack(det, tables.radix, np.empty((num, 2), dtype=PAIR_DTYPE))
    return red.reshape(*lead, m, ncols, 2), rank.reshape(lead), det


def _unpack(codes: np.ndarray, radix: int, out: np.ndarray) -> np.ndarray:
    """The codes re*radix + im as (re, im) pairs, written into `out` (codes.shape + (2,))."""
    np.divmod(codes, radix, out=(out[..., 0], out[..., 1]))
    return out


def _rref_block(t: CodeTables, a: np.ndarray, rank: np.ndarray, det: np.ndarray | None) -> None:
    """Reduce a (num, rows, cols) block of codes in place, counting ranks into `rank`.

    A product is exp[log a + log b], a difference x - p is sub[x + off - p]
    and a pivot's inverse inv[p] (`CodeTables`).  When `det` is given, each
    matrix's pivots (before normalization) are multiplied into its code,
    which is multiplied by -1 on every row swap.
    """
    log, exp = t.log, t.exp
    num, m, ncols = a.shape
    rows = np.arange(m)
    for c in range(ncols):
        if rank.min() == m:
            break
        nz = (a[:, :, c] != 0) & (rows >= rank[:, None])
        act = np.flatnonzero(nz.any(axis=1))
        if act.size == 0:
            continue
        full = act.size == num
        sub = a if full else a[act]
        k = np.arange(act.size)
        r = rank[act]
        piv = nz[act].argmax(axis=1)
        top = sub[k, piv]
        if det is not None:
            d = exp.take(log.take(det[act]) + log.take(top[:, c]))
            det[act] = np.where(piv == r, d, exp.take(log.take(d) + log[t.neg_one]))
        sub[k, piv] = sub[k, r]
        row = exp.take(log.take(top) + log.take(t.inv.take(top[:, c]))[:, None])
        sub[k, r] = row
        fac = sub[:, :, c].copy()
        fac[k, r] = 0
        diff = exp.take(log.take(fac)[:, :, None] + log.take(row)[:, None, :])
        np.subtract(sub, diff, out=diff)
        diff += t.off
        t.sub.take(diff, out=sub, mode="clip")  # in range by construction; "raise" would buffer `out`
        if not full:
            a[act] = sub
        rank[act] += 1


def rcef_stack(fp: FieldParams, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rcef of every matrix in a stack; returns (stack, ranks).

    Matrix i keeps all of its columns: the first ranks[i] are `rcef` of
    that matrix alone, bit for bit, and the rest are zero.
    """
    red, rank = rref_stack(fp, np.swapaxes(a, -3, -2))
    return np.ascontiguousarray(np.swapaxes(red, -3, -2)), rank


def rank_stack(fp: FieldParams, a: np.ndarray) -> np.ndarray:
    return rref_stack(fp, a)[1]


def kernel_stack(fp: FieldParams, a: np.ndarray) -> np.ndarray:
    """Right null spaces of a stack (N, m, k, 2); returns the stack (N, k, k, 2).

    Matrix i's null space is spanned by its first k - rank(a_i) columns;
    the rest are zero.  One `rref_stack` of [a^T | I_k]: a row whose left
    part is zero carries on the right a y with y a^T = 0, that is a y^T = 0.
    The left block's pivots come first, so these are the trailing k - rank
    rows: read bottom-up and masked by their zero left parts, they lead.
    """
    a = np.asarray(a)
    num, m, k = a.shape[:3]
    eye = np.broadcast_to(Mat.identity(fp, k).a, (num, k, k, 2))
    red = rref_stack(fp, np.concatenate([a.swapaxes(1, 2), eye], axis=2))[0][:, ::-1]
    ker = red[:, :, m:] * ~red[:, :, :m].any(axis=(2, 3))[:, :, None, None]
    return np.ascontiguousarray(ker.swapaxes(1, 2))


def entry_bytes(a: np.ndarray) -> bytes:
    """An array's entries, in memory order, as big-endian int64 bytes: the byte key of a matrix
    or a point, which sorts as its `stack_keys` code at every q."""
    return np.asarray(a, dtype=">i8").tobytes()


def stack_keys(a: np.ndarray, q: int) -> np.ndarray:
    """One code per array of a stack (N, ...) of entries below q: its entries, in memory order,
    as base-q digits, the first most significant.  An int64 while q^E < 2^63 (E entries), else
    big-endian int64 words viewed as one `S` string.  Either sorts as `entry_bytes`."""
    flat = np.asarray(a, dtype=_I64).reshape(len(a), int(np.prod(a.shape[1:])))  # no -1 when empty
    per = max(k for k in range(1, flat.shape[1] + 1) if q**k < 2**63)  # digits per int64 word
    words = -(-flat.shape[1] // per)
    if words > 1:  # the same zero digits end every key
        flat = np.pad(flat, ((0, 0), (0, words * per - flat.shape[1])))
    codes = flat.reshape(len(flat), words, per) @ q ** np.arange(per - 1, -1, -1, dtype=_I64)
    return codes[:, 0] if words == 1 else codes.astype(">i8").view(f"S{8 * words}").ravel()


def sorted_stack(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The stack sorted by its `stack_keys` codes, and the sorted codes."""
    keys = stack_keys(a, q)
    order = np.argsort(keys, kind="stable")  # the stable sort pages in less of numpy than quicksort
    return a[order], keys[order]


def lookup_rows(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Row of each probe code in the sorted codes `keys`, or -1 where it is absent."""
    if not len(keys):
        return np.full(len(probes), -1, dtype=_I64)
    idx = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return np.where(keys[idx] == probes, idx, -1)


class RowTable:
    """Matrices as rows: a stack `arr` sorted by its `stack_keys` codes `keys` (as `Mat.key`).

    Both arrays are read-only, for a cached table is shared by every caller;
    given `keys` are those of rows already sorted.  The point and group
    tables extend it with their per-row data and their view of one row.
    """

    __slots__ = ("q", "arr", "keys")

    def __init__(self, arr: np.ndarray, q: int, keys: np.ndarray | None = None):
        self.q = q
        self.arr, self.keys = sorted_stack(arr, q) if keys is None else (arr, keys)
        for a in (self.arr, self.keys):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.arr)

    def rows(self, mats: np.ndarray) -> np.ndarray:
        """Row of each matrix in a stack, or -1 where it is not a row of the table."""
        return lookup_rows(self.keys, stack_keys(mats, self.q))


def kernel_arr(fp: FieldParams, a: np.ndarray) -> np.ndarray:
    """Basis of the right null space, one column per free variable."""
    red, pivots = rref(fp, a)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((ncols, len(free), 2), dtype=PAIR_DTYPE)
    for j, f in enumerate(free):
        out[f, j, 0] = 1
        for i, pc in enumerate(pivots):
            out[pc, j, 0] = (-red[i, f, 0]) % fp.q
            out[pc, j, 1] = (-red[i, f, 1]) % fp.q
    return out


def det_arr(fp: FieldParams, a: np.ndarray) -> tuple[int, int]:
    det = np.array([1, 0], dtype=_I64)
    pivots = rref(fp, a, det)[1]
    return (int(det[0]), int(det[1])) if len(pivots) == len(a) else (0, 0)


# ---------------------------------------------------------------------------
# the matrix value type
# ---------------------------------------------------------------------------

class Mat:
    """An immutable exact matrix over E = GF(q^2)."""

    __slots__ = ("fp", "a")

    def __init__(self, fp: FieldParams, a: np.ndarray):
        arr = (np.asarray(a) % fp.q).astype(PAIR_DTYPE, copy=False)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ShapeError(f"expected (rows, cols, 2) coefficient array, got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.fp = fp
        self.a = arr

    # -- constructors ----------------------------------------------------

    @classmethod
    def build(cls, fp: FieldParams, rows) -> "Mat":
        """From a grid of EScalar / int / (re, im) entries."""
        grid = []
        for row in rows:
            out = []
            for x in row:
                if isinstance(x, EScalar):
                    out.append((x.re, x.im))
                elif isinstance(x, tuple):
                    out.append((x[0] % fp.q, x[1] % fp.q))
                else:
                    out.append((int(x) % fp.q, 0))
            grid.append(out)
        ncols = {len(r) for r in grid}
        if len(ncols) > 1:
            raise ShapeError("ragged rows")
        width = len(grid[0]) if grid else 0
        return cls(fp, np.array(grid, dtype=PAIR_DTYPE).reshape(len(grid), width, 2))

    @classmethod
    def zeros(cls, fp: FieldParams, rows: int, cols: int) -> "Mat":
        return cls(fp, np.zeros((rows, cols, 2), dtype=PAIR_DTYPE))

    @classmethod
    def identity(cls, fp: FieldParams, n: int) -> "Mat":
        a = np.zeros((n, n, 2), dtype=PAIR_DTYPE)
        a[np.arange(n), np.arange(n), 0] = 1
        return cls(fp, a)

    @classmethod
    def diag(cls, fp: FieldParams, entries) -> "Mat":
        entries = [fp.coerce(x) for x in entries]
        n = len(entries)
        a = np.zeros((n, n, 2), dtype=PAIR_DTYPE)
        for i, x in enumerate(entries):
            a[i, i] = (x.re, x.im)
        return cls(fp, a)

    @classmethod
    def column(cls, fp: FieldParams, entries) -> "Mat":
        return cls.build(fp, [[x] for x in entries])

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], self.a.shape[1])

    def at(self, i: int, j: int) -> EScalar:
        return EScalar(self.fp, int(self.a[i, j, 0]), int(self.a[i, j, 1]))

    def __getitem__(self, ij) -> EScalar:
        return self.at(*ij)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        return Mat(self.fp, self.a[r0:r1, c0:c1])

    def col(self, j: int) -> "Mat":
        return Mat(self.fp, self.a[:, j : j + 1])

    # -- ring operations ---------------------------------------------------

    def _check_same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.fp, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.fp, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.fp, -self.a)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return Mat(self.fp, mm(self.fp, self.a, other.a))

    def __mul__(self, c) -> "Mat":
        c = self.fp.coerce(c)
        return Mat(self.fp, scalar_mm(self.fp, (c.re, c.im), self.a))

    __rmul__ = __mul__

    @property
    def T(self) -> "Mat":
        return Mat(self.fp, self.a.swapaxes(0, 1))

    def conj(self) -> "Mat":
        return Mat(self.fp, conj_arr(self.a, self.fp.q))

    def star(self) -> "Mat":
        """Conjugate transpose."""
        return Mat(self.fp, conj_arr(self.a, self.fp.q).swapaxes(0, 1))

    @property
    def is_rational(self) -> bool:
        return bool(np.all(self.a[..., 1] == 0))

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.a == 0))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and bool(np.all(self.a == self.a.swapaxes(0, 1)))

    # -- elimination-backed queries ----------------------------------------

    def rank(self) -> int:
        return len(rref(self.fp, self.a)[1])

    def det(self) -> EScalar:
        if self.rows != self.cols:
            raise ShapeError("determinant needs a square matrix")
        re, im = det_arr(self.fp, self.a)
        return EScalar(self.fp, re, im)

    def inv(self) -> "Mat | None":
        if self.rows != self.cols:
            raise ShapeError("inverse needs a square matrix")
        return solve(self, Mat.identity(self.fp, self.rows))

    def kernel(self) -> "Mat":
        return Mat(self.fp, kernel_arr(self.fp, self.a))

    # -- identity and text ---------------------------------------------------

    def key(self) -> bytes:
        return entry_bytes(self.a)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.fp.q == other.fp.q and self.shape == other.shape and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.fp.q, self.shape, self.a.tobytes()))

    def encode(self) -> str:
        return ";".join(
            ",".join(self.at(i, j).encode() for j in range(self.cols)) for i in range(self.rows)
        )

    @classmethod
    def parse(cls, fp: FieldParams, text: str) -> "Mat":
        rows = [[fp.parse_scalar(x) for x in row.split(",")] for row in text.split(";")]
        return cls.build(fp, rows)

    def __repr__(self):
        return f"Mat({self.encode()})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def block(fp: FieldParams, grid) -> Mat:
    """Assemble a matrix from a grid of conforming blocks."""
    rows = [np.concatenate([b.a for b in row], axis=1) for row in grid]
    return Mat(fp, np.concatenate(rows, axis=0))


def block_diag(fp: FieldParams, *blocks: Mat) -> Mat:
    """diag(B_1, ..., B_m): the blocks down the diagonal, zero elsewhere; a block may be empty."""
    out = np.zeros((sum(b.rows for b in blocks), sum(b.cols for b in blocks), 2), dtype=PAIR_DTYPE)
    r = c = 0
    for b in blocks:
        out[r : r + b.rows, c : c + b.cols] = b.a
        r, c = r + b.rows, c + b.cols
    return Mat(fp, out)


def column_echelon_canonical(m: Mat) -> Mat:
    """Canonical representative of the column span of m.

    Reduced column echelon form with leading ones and zero columns
    dropped: two matrices have the same column span exactly when their
    canonical forms are identical.
    """
    red, _ = rcef(m.fp, m.a)
    return Mat(m.fp, red)


def solve(a: Mat, b: Mat) -> Mat | None:
    """One solution x of a @ x = b, or None when inconsistent."""
    if a.rows != b.rows:
        raise ShapeError("left and right sides disagree on row count")
    aug = np.concatenate([a.a, b.a], axis=1)
    red, pivots = rref(a.fp, aug)
    if any(p >= a.cols for p in pivots):
        return None
    out = np.zeros((a.cols, b.cols, 2), dtype=PAIR_DTYPE)
    for i, pc in enumerate(pivots):
        out[pc] = red[i, a.cols :]
    return Mat(a.fp, out)
