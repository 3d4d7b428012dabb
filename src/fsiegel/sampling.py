"""Seeded samples drawn from a `random.Random`'s 32-bit words in bulk.

Every value is the one that the same `randrange` calls, made one at a
time, would return, and the generator ends where those calls leave it.
Below 2^32, `randrange(bound)` is `_randbelow_with_getrandbits`: it takes
32-bit words of the generator until one's top bound.bit_length() bits are
below bound, and returns those bits.  `getrandbits(32 m)` returns the next
m words, word i at bits 32 i.
"""

from __future__ import annotations

import random

import numpy as np

from .linalg import PAIR_DTYPE, Mat, symmetric_stack

_WORD_CHUNK = 1024  # words `_nondegenerate_pairs` parses at a time


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next `count` 32-bit words of rng's stream, in order; rng moves past them."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def _draws(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """[rng.randrange(bound) for _ in range(count)] for 0 < bound < 2^32, leaving rng
    where those calls would.

    Each value still missing takes at least one more word, so as many words
    as values are missing are drawn at a time: none is drawn that the calls
    would not take.
    """
    found, shift = [np.empty(0, dtype=np.uint32)], 32 - bound.bit_length()
    while count:
        vals = _words(rng, count) >> shift
        found.append(vals[vals < bound])
        count -= len(found[-1])
    return np.concatenate(found)


def _reads(words: np.ndarray, bound: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `count` calls of randrange(bound) read from a run of 32-bit words, from each
    start position: (values, first, ends).  From start position p the calls return
    values[first[p] : first[p] + count] and use the words before ends[p].  Only the first
    P = len(first) start positions, those whose words hold all the draws, are listed."""
    vals = words >> (32 - bound.bit_length())
    ok = vals < bound
    taken = np.flatnonzero(ok)
    before = np.cumsum(ok) - ok  # accepted words before each position
    first = before[: np.searchsorted(before, len(taken) - count, side="right")]
    return vals[taken], first, taken[first + count - 1] + 1


def _random_symmetric(sp, rng: random.Random) -> Mat:
    """A symmetric Z over E: the upper triangle row by row, each entry drawn re then im."""
    t = sp.n * (sp.n + 1) // 2
    return Mat(sp.fp, symmetric_stack(_draws(rng, sp.q, 2 * t).reshape(1, t, 2), sp.n)[0])


def _nondegenerate_pairs(rng: random.Random, sp, letters: int, count: int, nondegenerate):
    """The pairs (Z, word) of the loop that draws a Z by `_random_symmetric` and, when
    it is nondegenerate, its word of 12 letters below `letters`, until `count` pairs.

    Returns the Z as a stack (count, n, n, 2) and the words as a stack
    (count, 12).  `nondegenerate(ims)` takes a stack of Im(Z) upper
    triangles and returns a flag for each by its index.  One chunk of words
    at a time is parsed at every start position, walked Z by Z, and the
    generator advanced by the words the walk used.
    """
    q, n, t = sp.q, sp.n, sp.n * (sp.n + 1) // 2
    zs, words, size = [], [], _WORD_CHUNK
    while count:
        state = rng.getstate()
        chunk = _words(rng, size)
        zv, z_first, z_end = _reads(chunk, q, 2 * t)
        wv, w_first, w_end = _reads(chunk, letters, 12)
        flag = nondegenerate(zv[z_first[:, None] + np.arange(1, 2 * t, 2)])
        z_end, w_end = z_end.tolist(), w_end.tolist()
        p, at_z, at_w = 0, [], []
        while len(at_z) < count and p < len(z_end):
            end = z_end[p]
            if flag(p):
                if end >= len(w_end):
                    break
                at_z.append(p)
                at_w.append(end)
                end = w_end[end]
            p = end
        rng.setstate(state)
        _words(rng, p)
        zs.append(zv[z_first[at_z, None] + np.arange(2 * t)])
        words.append(wv[w_first[at_w, None] + np.arange(12)])
        count -= len(at_z)
        if not p:
            size *= 2  # the chunk holds no whole Z and word
    return symmetric_stack(np.concatenate(zs).reshape(-1, t, 2), n).astype(PAIR_DTYPE), np.concatenate(words)
