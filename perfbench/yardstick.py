"""Fixed yardstick run beside every benchmark child, to take out host speed.

On a shared host with 2 vCPUs the same benchmark child ran up to half again
slower for stretches of seconds to minutes.  This program does the same
kind of work as fsiegel's hot paths (exact elimination of small matrices over
F_q[s]/(s^2 - eps) with numpy, stacked products, a breadth-first orbit keyed
by bytes) in a fresh interpreter, so a host slowdown stretches it about as much
as it stretches a `verify` child run next to it.  The benchmark reports verify
and set-up times in units of this program's time ("reference seconds").

It imports nothing from fsiegel and must never change: its time is the unit
of every reference-second metric, so a change here would move them all.

    python3 perfbench/yardstick.py
"""

from __future__ import annotations

import sys

import numpy as np

Q, EPS = 7, 3  # 3 is not a square mod 7, so s^2 = 3 gives the field of 49 elements
ORBIT_SIZE = 10000


def _inverses() -> dict:
    inv = {}
    for a in range(Q):
        for b in range(Q):
            for c in range(Q):
                for d in range(Q):
                    if (a * c + EPS * b * d) % Q == 1 and (a * d + b * c) % Q == 0:
                        inv[(a, b)] = (c, d)
    return inv


INV = _inverses()


def rref(a: np.ndarray) -> np.ndarray:
    """Reduced row echelon form of a (rows, cols, 2) coefficient-pair array."""
    a = a.astype(np.int64, copy=True) % Q
    m, ncols = a.shape[0], a.shape[1]
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
        ir, ii = INV[(int(a[r, c, 0]), int(a[r, c, 1]))]
        row = a[r]
        rre = (ir * row[:, 0] + EPS * ii * row[:, 1]) % Q
        rim = (ir * row[:, 1] + ii * row[:, 0]) % Q
        a[r, :, 0] = rre
        a[r, :, 1] = rim
        fac = a[:, c].copy()
        fac[r] = 0
        dre = (np.outer(fac[:, 0], rre) + EPS * np.outer(fac[:, 1], rim)) % Q
        dim = (np.outer(fac[:, 0], rim) + np.outer(fac[:, 1], rre)) % Q
        a[:, :, 0] = (a[:, :, 0] - dre) % Q
        a[:, :, 1] = (a[:, :, 1] - dim) % Q
        r += 1
    return a


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    re = (a[..., 0] @ b[..., 0] + EPS * (a[..., 1] @ b[..., 1])) % Q
    im = (a[..., 0] @ b[..., 1] + a[..., 1] @ b[..., 0]) % Q
    return np.stack([re, im], axis=-1)


def orbit(size: int) -> int:
    """Row spaces reached from a fixed 2x4 seed under three fixed 4x4 maps."""
    rng = np.random.default_rng(2024)
    gens = rng.integers(0, Q, size=(3, 4, 4, 2))
    seen = set()
    frontier = [rng.integers(0, Q, size=(2, 4, 2))]
    while frontier and len(seen) < size:
        nxt = []
        for w in frontier:
            if len(seen) >= size:
                break
            for g in gens:
                red = rref(mm(w, g))
                key = red.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(red)
        frontier = nxt
    return len(seen)


if __name__ == "__main__":
    reached = orbit(ORBIT_SIZE)
    if reached < ORBIT_SIZE:
        sys.exit(f"yardstick orbit stopped at {reached} of {ORBIT_SIZE}")
