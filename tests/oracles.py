"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results through a different route than the
package: plain Python scalar pairs, exhaustive scans, Schubert-cell
subspace enumeration, permutation-expansion determinants, a
constructive orthonormalization for hermitian form types, a
breadth-first closure that keys each image on its own, membership and
the generators one `Mat` at a time, and the scalar or per-stratum routes
that the package's row and stack routes replaced.
"""

from itertools import combinations, permutations, product

import numpy as np

from fsiegel.errors import ConsistencyError, ParameterError, ResourceLimitError, ShapeError
from fsiegel.lagrangian import enumerate_lagrangians, span_images
from fsiegel.linalg import Mat, block, mm, rank_stack, rcef_stack, sorted_stack, stack_keys, symmetric_stack
from fsiegel.orbits import act
from fsiegel.symplectic import TAG_SP_0, TAG_SP_E, TAG_SP_F, frontier_closure, group_element, make_space


def smallest_nonresidue(q: int) -> int:
    squares = {(a * a) % q for a in range(1, q)}
    return next(a for a in range(2, q) if a not in squares)


# -- scalar pair arithmetic, independent of the package ----------------------

def pmul(q, eps, a, b):
    return ((a[0] * b[0] + eps * a[1] * b[1]) % q, (a[0] * b[1] + a[1] * b[0]) % q)


def padd(q, a, b):
    return ((a[0] + b[0]) % q, (a[1] + b[1]) % q)


def pneg(q, a):
    return ((-a[0]) % q, (-a[1]) % q)


def pconj(q, a):
    return (a[0], (-a[1]) % q)


def pinv(q, eps, a):
    nrm = (a[0] * a[0] - eps * a[1] * a[1]) % q
    ninv = pow(nrm, q - 2, q)
    return ((a[0] * ninv) % q, (-a[1] * ninv) % q)


def all_scalars(q):
    return [(re, im) for im in range(q) for re in range(q)]


# -- subspace enumeration -----------------------------------------------------

def canonical_span(q, eps, vectors):
    """Reduced column echelon form of a list of column tuples, by hand."""
    cols = [list(v) for v in vectors]
    rows = len(cols[0])
    pivots = []
    out = []
    work = [c[:] for c in cols]
    r = 0
    lead = 0
    # plain column elimination: scan rows, pick the first column with a
    # nonzero entry, normalize, clear the row from every other column
    for row in range(rows):
        pick = None
        for j in range(lead, len(work)):
            if work[j][row] != (0, 0):
                pick = j
                break
        if pick is None:
            continue
        work[lead], work[pick] = work[pick], work[lead]
        inv = pinv(q, eps, work[lead][row])
        work[lead] = [pmul(q, eps, inv, x) for x in work[lead]]
        for j in range(len(work)):
            if j != lead and work[j][row] != (0, 0):
                f = work[j][row]
                work[j] = [
                    padd(q, work[j][k], pneg(q, pmul(q, eps, f, work[lead][k])))
                    for k in range(rows)
                ]
        pivots.append(row)
        lead += 1
    out = [tuple(c) for c in work[:lead]]
    return tuple(out), tuple(pivots)


def all_subspaces(q, eps, ambient: int, k: int):
    """All k-dimensional subspaces of E^ambient as canonical column tuples.

    One Schubert cell per pivot-row choice; free entries run over E.
    """
    scalars = all_scalars(q)
    for pivot_rows in combinations(range(ambient), k):
        free = []
        for c in range(k):
            for r in range(pivot_rows[c] + 1, ambient):
                if r not in pivot_rows:
                    free.append((r, c))
        for values in product(scalars, repeat=len(free)):
            cols = [[(0, 0)] * ambient for _ in range(k)]
            for c in range(k):
                cols[c][pivot_rows[c]] = (1, 0)
            for (r, c), val in zip(free, values):
                cols[c][r] = val
            yield tuple(tuple(col) for col in cols)


def is_isotropic(q, eps, cols, n):
    """Pairwise omega vanishing, with omega computed by explicit loops."""
    def om(u, v):
        acc = (0, 0)
        for j in range(n):
            acc = padd(q, acc, pmul(q, eps, u[j], v[n + j]))
            acc = padd(q, acc, pneg(q, pmul(q, eps, u[n + j], v[j])))
        return acc

    for u in cols:
        for v in cols:
            if om(u, v) != (0, 0):
                return False
    return True


def span_size_rank(q, eps, cols, ambient: int) -> int:
    """Rank via counting the span: |span| = (q^2)^rank."""
    scalars = all_scalars(q)
    seen = set()
    for coeffs in product(scalars, repeat=len(cols)):
        vec = [(0, 0)] * ambient
        for c, col in zip(coeffs, cols):
            for r in range(ambient):
                vec[r] = padd(q, vec[r], pmul(q, eps, c, col[r]))
        seen.add(tuple(vec))
    size = len(seen)
    rank = 0
    while (q * q) ** rank < size:
        rank += 1
    assert (q * q) ** rank == size
    return rank


def det_by_permutations(q, eps, rows):
    """Permutation-expansion determinant of a list of row tuples."""
    n = len(rows)
    total = (0, 0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = (1, 0) if sign > 0 else ((q - 1) % q, 0)
        for i in range(n):
            term = pmul(q, eps, term, rows[i][perm[i]])
        total = padd(q, total, term)
    return total


# -- hermitian type by constructive orthonormalization ------------------------

def hermitian_type(q, eps, gram):
    """Number of orthonormal vectors in a normalized basis for the form.

    gram is a k x k list of scalar pairs with gram[i][j] = h(b_i, b_j),
    h linear in its first slot.  Rescaling uses a norm-equation scan and
    the complement is orthogonalized against each normalized vector; the
    procedure stops when the remaining form vanishes identically.
    """
    k = len(gram)
    norm_solve = {}
    for t in all_scalars(q):
        if t == (0, 0):
            continue
        nrm = (t[0] * t[0] - eps * t[1] * t[1]) % q
        norm_solve.setdefault(nrm, t)

    # basis vectors as coefficient rows over the original basis
    basis = [[(1, 0) if i == j else (0, 0) for j in range(k)] for i in range(k)]

    def h(x, y):
        acc = (0, 0)
        for i in range(k):
            for j in range(k):
                acc = padd(q, acc, pmul(q, eps, pmul(q, eps, x[i], gram[i][j]), pconj(q, y[j])))
        return acc

    def scale(c, x):
        return [pmul(q, eps, c, xi) for xi in x]

    def minus(x, y):
        return [padd(q, xi, pneg(q, yi)) for xi, yi in zip(x, y)]

    r = 0
    current = basis
    while current:
        aniso = None
        for v in current:
            if h(v, v) != (0, 0):
                aniso = v
                break
        if aniso is None:
            for u in current:
                for w in current:
                    if u is w:
                        continue
                    for t in all_scalars(q):
                        v = [padd(q, ui, pmul(q, eps, t, wi)) for ui, wi in zip(u, w)]
                        if h(v, v) != (0, 0):
                            aniso = v
                            break
                    if aniso:
                        break
                if aniso:
                    break
        if aniso is None:
            break  # the form vanishes on what is left
        val = h(aniso, aniso)
        assert val[1] == 0  # hermitian diagonal values are rational
        t = norm_solve[pow(val[0], q - 2, q)]
        v1 = scale(t, aniso)
        assert h(v1, v1) == (1, 0)
        nxt = []
        for w in current:
            w2 = minus(w, scale(h(w, v1), v1))
            if any(x != (0, 0) for x in w2):
                nxt.append(w2)
        current = nxt
        r += 1
    return r


# -- membership, one `Mat` at a time ------------------------------------------

def random_symmetric_by_calls(sp, rng) -> Mat:
    """A symmetric Z over E: the upper triangle row by row, each entry one
    `rng.randrange(q)` call, re then im."""
    z = np.zeros((sp.n, sp.n, 2), dtype=np.int64)
    for i in range(sp.n):
        for j in range(i, sp.n):
            z[i, j] = z[j, i] = rng.randrange(sp.q), rng.randrange(sp.q)
    return Mat(sp.fp, z)


def is_member_by_mats(sp, g, tag) -> bool:
    """`symplectic.members` of one matrix, through `Mat` products and block comparisons.

    Both routes run here too: "sp" compares the block conditions with
    t(g) J g = J, "sp0" the four closed-form block conditions with
    h_0-preservation, and "spf" is a rational "sp" member.
    """
    if g.shape != (sp.dim, sp.dim):
        raise ShapeError(f"expected a {sp.dim}x{sp.dim} matrix, got {g.shape}")
    if tag == TAG_SP_F:
        return g.is_rational and is_member_by_mats(sp, g, TAG_SP_E)
    eye = Mat.identity(sp.fp, sp.n)
    g_t = g.T
    if tag == TAG_SP_E:
        a, b, c, d = sp.blocks(g)
        a_t = a.T
        by_blocks = (a_t @ c).is_symmetric() and (d.T @ b).is_symmetric() and a_t @ d - c.T @ b == eye
        direct = g_t @ sp.j @ g == sp.j
        if by_blocks != direct:
            raise ConsistencyError("symplectic block conditions disagree with t(g)Jg = J")
        return direct
    if tag == TAG_SP_0:
        r, s_, t, v = sp.blocks(g)
        closed = (
            t == s_.conj()
            and v == r.conj()
            and (r @ s_.T).is_symmetric()
            and r @ r.star() - s_ @ s_.star() == eye
        )
        direct = (g_t @ sp.j @ g == sp.j) and (g_t @ sp.d_form @ g.conj() == sp.d_form)
        if closed != direct:
            raise ConsistencyError("closed-form h_0-unitary conditions disagree with form preservation")
        return direct
    raise ParameterError(f"unknown group tag {tag!r}")


# -- the generators, one element at a time --------------------------------------

def generators_by_blocks(sp, tag):
    """`symplectic.generators` built one element at a time: each symmetric B written entry by
    entry, each unipotent (I, B; 0, I), then (I, 0; B, I), assembled from its blocks and checked
    by `group_element`, and each sp0 generator M g M^-1 one scalar product at a time."""
    fp, n = sp.fp, sp.n
    if tag == TAG_SP_0:
        from fsiegel.cayley import cayley

        m = cayley(sp.q, n).m
        m_inv = m.inv()
        return tuple(group_element(sp, m @ g.mat @ m_inv, TAG_SP_0) for g in generators_by_blocks(sp, TAG_SP_F))
    basis = []
    for c in [fp.one, fp.s] if tag == TAG_SP_E else [fp.one]:
        for i, j in [(i, i) for i in range(n)] + list(combinations(range(n), 2)):
            b = np.zeros((n, n, 2), dtype=np.int64)
            b[i, j] = b[j, i] = (c.re, c.im)
            basis.append(Mat(fp, b))
    eye, zero = Mat.identity(fp, n), Mat.zeros(fp, n, n)
    upper = [group_element(sp, block(fp, [[eye, b], [zero, eye]]), tag) for b in basis]
    return tuple(upper + [group_element(sp, block(fp, [[eye, zero], [b, eye]]), tag) for b in basis])


# -- breadth-first closure, one image at a time --------------------------------

def frontier_closure_by_rows(seed, step, cap=None, what="closure", chunk=64):
    """`symplectic.frontier_closure` with every image keyed by its own `tobytes()`.

    Same contract: (members, parent, via) in discovery order, and
    ResourceLimitError as soon as the closure would exceed `cap`.
    """
    seed = np.ascontiguousarray(seed)
    seen = {seed.tobytes()}
    found, parent, via = [seed[None]], [np.array([-1])], [np.array([-1])]
    frontier, start = seed[None], 0
    while len(frontier):
        level = []
        for lo in range(0, len(frontier), chunk):
            images = np.ascontiguousarray(step(frontier[lo : lo + chunk]))
            width = images.shape[1]
            flat = images.reshape((-1,) + seed.shape)
            new = []
            for j, row in enumerate(flat):
                key = row.tobytes()
                if key not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise ResourceLimitError(f"{what} exceeds cap {cap}")
                    seen.add(key)
                    new.append(j)
            point, gen = np.divmod(np.array(new, dtype=np.int64), width)
            parent.append(start + lo + point)
            via.append(gen)
            level.append(flat[new])
        frontier, start = np.concatenate(level), start + len(frontier)
        found.append(frontier)
    return np.concatenate(found), np.concatenate(parent), np.concatenate(via)


def conjugation_closure(sp, seed, gens, cap):
    """The sorted keys of the conjugates of the matrix `seed` under the generated group.

    A BFS over matrices, one stacked g T g^-1 per frontier: the reference
    for the involution checks' walks over their conjugation tables.
    """
    mats = np.stack([g.mat.a for g in gens])
    invs = np.stack([g.mat.inv().a for g in gens])
    step = lambda frontier: mm(sp.fp, mm(sp.fp, mats[None], frontier[:, None]), invs[None])  # noqa: E731
    return np.sort(stack_keys(frontier_closure(seed.a, step, sp.q, cap, "conjugation closure")[0], sp.q))


# -- scalar words and identities ----------------------------------------------

def apply_word(word, seed, gens):
    """The point a transporter word reaches from the seed, one scalar `act` per letter."""
    out = seed
    for i in word:
        out = act(gens[i], out)
    return out


def pairing_identity_holds(t, samples) -> bool:
    """h_e(v - iTv, w - iTw) = 2 omega(v, w) + 2i b_T(v, w) on sample pairs."""
    sp = make_space(t.mat.fp.q, t.mat.rows // 2)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    bt = sp.j @ t.mat
    for v, w in samples:
        xv = v - i * (t.mat @ v)
        xw = w - i * (t.mat @ w)
        lhs = (xv.T @ sp.j @ xw.conj()).at(0, 0)
        om = (v.T @ sp.j @ w).at(0, 0)
        bform = (v.T @ bt @ w).at(0, 0)
        if lhs != fp.e(2) * om + fp.e(2) * i * bform:
            return False
    return True


# -- the stratum map, one span_images pass per stratum -------------------------

def map_strata_by_images(cd, q, n, cap_points):
    """`cayley.map_strata`'s per-stratum rows: M applied to each h_e stratum by `span_images`."""
    table = enumerate_lagrangians(q, n, cap_points)
    per = []
    for j in range(n + 1):
        h_rows = np.flatnonzero(table.h_rank == j)
        o_rows = np.flatnonzero(table.o_type == j)
        images = span_images(cd.space, cd.m.a[None], table.bases[h_rows])[:, 0]
        per.append(
            {
                "r": j,
                "h_count": len(h_rows),
                "o_count": len(o_rows),
                "image_equals_o_stratum": np.array_equal(np.sort(table.rows(images)), o_rows),
                "strata_literally_equal": np.array_equal(h_rows, o_rows),
            }
        )
    return per


# -- the chart table, charts told apart by their bottom blocks ------------------

def chart_bases_by_bottom_blocks(q, n):
    """`lagrangian._point_table`'s sorted bases, with each chart test made on the span itself:
    sigma_S span(Z; I) is formed as a product with the signed swap matrix sigma_S, and dropped
    when sigma_T^-1 of it has a bottom block of rank n for some earlier chart T."""
    sp = make_space(q, n)
    total, t = q ** (n * (n + 1)), n * (n + 1) // 2
    digits = np.stack(np.unravel_index(np.arange(total), (q,) * (2 * t)), axis=-1).astype(np.int32)
    z = symmetric_stack(digits.reshape(total, t, 2), n)
    z_i = np.concatenate([z, np.broadcast_to(Mat.identity(sp.fp, n).a, z.shape)], axis=1)
    # sigma_S sends e_i to e_{n+i} and e_{n+i} to -e_i for i in S, S read as a bitmask
    in_s = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    p = in_s[:, :, None] * np.eye(n, dtype=np.int64)
    keep = np.eye(n, dtype=np.int64) - p
    swaps = np.zeros((2**n, sp.dim, sp.dim, 2), dtype=np.int32)
    swaps[..., 0] = np.block([[keep, -p], [p, keep]]) % q
    found = []
    for s, swap in enumerate(swaps):
        spans = mm(sp.fp, swap, z_i)
        for earlier in swaps[:s]:
            spans = spans[rank_stack(sp.fp, mm(sp.fp, earlier.swapaxes(0, 1)[n:], spans)) < n]
        found.append(rcef_stack(sp.fp, spans)[0])
    return sorted_stack(np.concatenate(found), q)[0]


# -- stabilizers by the scalar action ------------------------------------------

def stabilizer_by_act(point, group):
    """The elements of any iterable that fix the point, one scalar `act` each."""
    return [g for g in group if act(g, point) == point]


# -- coordinate matrices written entry by entry ---------------------------------

def v_k_span_by_hand(n, k):
    """A spanning 2n x n array of V_k: e_j + e_{n+j} for j < k, e_j for k <= j < n."""
    cols = np.zeros((2 * n, n, 2), dtype=np.int64)
    for j in range(k):
        cols[j, j, 0] = 1
        cols[n + j, j, 0] = 1
    for j in range(k, n):
        cols[j, j, 0] = 1
    return cols


def witness_spans_by_hand(fp, n):
    """Spanning 2n x n arrays of the witnesses `lagrangian.witnesses` builds, by name.

    Each is written into a zero array entry by entry.  The odd null point
    is there only when -1 is a non-square in F and its (c, d) exists; a
    transported span is g times the coordinate span, with g = (alpha I,
    I; I, conj(alpha) I) and N(alpha) = 2.
    """
    q = fp.q
    out = {}
    d = fp.solve_norm(1)
    for r in range(n + 1):
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for j in range(r, n):
            cols[j, j] = (d.re, d.im)
        for j in range(n):
            cols[n + j, j, 0] = 1
        out[f"diag_image_o{r}"] = cols
    for r in range(1, n + 1):
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for j in range(r):
            cols[j, j, 0] = 1
        for j in range(n - r):
            cols[r + j, r + j] = (d.re, d.im)
            cols[n + r + j, r + j, 0] = 1
        out[f"mixed_nonimage_o{r}"] = cols
    minus_one_nonsquare = (q - 1) not in {(a * a) % q for a in range(q)}
    if n % 2 == 1 and n >= 3 and minus_one_nonsquare:
        found = None
        for c in fp.units():
            for dd in fp.units():
                if (fp.one + c.norm() + dd.norm()).is_zero and (c * dd.conj()).is_rational:
                    found = (c, dd)
                    break
            if found:
                break
        if found is not None:
            c, dd = ((x.re, x.im) for x in found)
            cols = np.zeros((2 * n, n, 2), dtype=np.int64)
            cols[0:3, 0:3] = [
                [(1, 0), (0, 0), pneg(q, c)],
                [(0, 0), (1, 0), pneg(q, dd)],
                [pconj(q, c), pconj(q, dd), (1, 0)],
            ]
            cols[n : n + 3, 0:3] = [[(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], [c, dd, (0, 0)]]
            for j in range(3, n):
                cols[j, j, 0] = 1
                cols[n + j, j, 0] = 1
            out["odd_null_nonimage"] = cols
    if n % 2 == 0:
        b = fp.solve_norm(-1)
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for t in range(0, n, 2):
            cols[t, t + 1] = pneg(q, (b.re, b.im))
            cols[t + 1, t + 1, 0] = 1
            cols[n + t, t, 0] = 1
            cols[n + t + 1, t] = (b.re, b.im)
        out["even_null_nonimage"] = cols
    alpha = fp.solve_norm(2)
    g = np.zeros((2 * n, 2 * n, 2), dtype=np.int64)
    for j in range(n):
        g[j, j] = (alpha.re, alpha.im)
        g[j, n + j, 0] = 1
        g[n + j, j, 0] = 1
        g[n + j, n + j] = pconj(q, (alpha.re, alpha.im))
    for k in range(1, n):
        cols = np.zeros((2 * n, n, 2), dtype=np.int64)
        for j in range(k):
            cols[j, j, 0] = 1
        for j in range(n - k):
            cols[n + k + j, k + j, 0] = 1
        out[f"coordinate_span_k{k}"] = cols
        # cols is rational, so g cols takes the re and im parts of g column by column
        out[f"coordinate_span_k{k}_transported"] = np.einsum("ijt,jc->ict", g, cols[..., 0]) % q
    return out


# -- the stabilizer factors of V_k, block by block and slot by slot ---------------

def _two_block_diag(fp, a, b):
    z1 = Mat.zeros(fp, a.rows, b.cols)
    z2 = Mat.zeros(fp, b.rows, a.cols)
    return block(fp, [[a, z1], [z2, b]])


def levi_by_two_blocks(fp, o_elems, u_elems):
    """diag(S, T, S, conj T) for every S and T, nested from two-block diagonals: a stack."""
    return np.stack([
        _two_block_diag(fp, _two_block_diag(fp, s, t), _two_block_diag(fp, s, t.conj())).a
        for s in o_elems for t in u_elems
    ])


def imaginary_symmetric(fp, k):
    """All purely imaginary symmetric k x k matrices, the upper triangle slot by slot."""
    slots = [(i, j) for i in range(k) for j in range(i, k)]
    for vals in product(range(fp.q), repeat=len(slots)):
        arr = np.zeros((k, k, 2), dtype=np.int64)
        for (i, j), v in zip(slots, vals):
            arr[i, j, 1] = v
            arr[j, i, 1] = v
        yield Mat(fp, arr)


def unipotent_by_slots(sp, k):
    """(I, diag(B, 0); 0, I) for every B from `imaginary_symmetric`: a stack."""
    fp, n = sp.fp, sp.n
    eye_n, zero_n = Mat.identity(fp, n), Mat.zeros(fp, n, n)
    return np.stack([
        block(fp, [[eye_n, _two_block_diag(fp, b1, Mat.zeros(fp, n - k, n - k))], [zero_n, eye_n]]).a
        for b1 in imaginary_symmetric(fp, k)
    ])


# -- the small classical groups by exhaustive scan -------------------------------

def _scan_matrices(fp, m: int, over_e: bool, keep) -> list[Mat]:
    """Every m x m matrix over E (over F unless over_e) that `keep` accepts, in digit order."""
    if m == 0:
        return [Mat.identity(fp, 0)]
    coords = 2 * m * m if over_e else m * m
    total = fp.q**coords
    out = []
    chunk = 1 << 18
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        digits = np.stack(np.unravel_index(ids, (fp.q,) * coords), axis=-1)
        if over_e:
            arr = digits.reshape(-1, m, m, 2).astype(np.int64, copy=False)
        else:
            arr = np.zeros((len(ids), m, m, 2), dtype=np.int64)
            arr[..., 0] = digits.reshape(-1, m, m)
        out.extend(np.ascontiguousarray(a) for a in arr[keep(arr)])
    return [Mat(fp, a) for a in out]


def orthogonal_by_scan(fp, k: int) -> list[Mat]:
    """All k x k base-field S with t(S) S = I, from all q^{k^2} candidates."""
    eye = np.eye(k, dtype=np.int64)

    def keep(arr):
        s = arr[..., 0]  # the candidates are rational: integer products mod q
        return np.all((s.swapaxes(1, 2) @ s) % fp.q == eye, axis=(1, 2))

    return _scan_matrices(fp, k, False, keep)


def unitary_by_scan(fp, m: int) -> list[Mat]:
    """All m x m extension-field T with star(T) T = I, from all q^{2m^2} candidates."""
    eye = Mat.identity(fp, m).a

    def keep(arr):
        star = arr.swapaxes(1, 2).copy()
        star[..., 1] = (-star[..., 1]) % fp.q
        return np.all(mm(fp, star, arr) == eye, axis=(1, 2, 3))

    return _scan_matrices(fp, m, True, keep)
