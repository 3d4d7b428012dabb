"""Exact arithmetic in F = GF(q) and its quadratic extension E = GF(q^2).

E is realized as F[s] with s^2 = eps, where eps is the smallest quadratic
non-residue of F.  An element is stored as the coefficient pair
(re, im) meaning re + im*s; Galois conjugation fixes F and sends s to -s,
so the conjugation-fixed elements are exactly those with im == 0.

Scans over E (square roots, norm solving) run in a fixed "rational first"
order: im ascending, then re ascending.  This keeps every derived constant
reproducible for a given q.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterError


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class EScalar:
    """An element re + im*s of E = GF(q^2)."""

    __slots__ = ("fp", "re", "im")

    def __init__(self, fp: "FieldParams", re: int, im: int = 0):
        self.fp = fp
        self.re = re % fp.q
        self.im = im % fp.q

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, EScalar):
            if other.fp.q != self.fp.q:
                raise ParameterError("mixed field characteristics")
            return other
        if isinstance(other, int):
            return EScalar(self.fp, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return EScalar(self.fp, self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return EScalar(self.fp, self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        q, eps = self.fp.q, self.fp.eps
        return EScalar(
            self.fp,
            (self.re * o.re + eps * self.im * o.im) % q,
            (self.re * o.im + self.im * o.re) % q,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return EScalar(self.fp, -self.re, -self.im)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return EScalar(self.fp, other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.fp.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "EScalar":
        return EScalar(self.fp, *self.fp.inv_pair(self.re, self.im))

    # -- Galois structure -----------------------------------------------

    def conj(self) -> "EScalar":
        return EScalar(self.fp, self.re, -self.im)

    def norm(self) -> "EScalar":
        """x * conj(x); always conjugation-fixed."""
        return EScalar(self.fp, self.re * self.re - self.fp.eps * self.im * self.im)

    def trace(self) -> "EScalar":
        return EScalar(self.fp, 2 * self.re)

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- identity and text ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = EScalar(self.fp, other)
        if not isinstance(other, EScalar):
            return NotImplemented
        return self.fp.q == other.fp.q and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.fp.q, self.re, self.im))

    def encode(self) -> str:
        """Textual form ``a`` for rational elements, else ``a+b*s``."""
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}*s"

    def __repr__(self):
        return self.encode()


class CodeTables(NamedTuple):
    """Log/antilog ("Zech") tables of E over the codes c = re*Q + im, Q = 2q - 1.

    With N = q^2 - 1 and g a primitive element of E*, a product is
    exp[log[a] + log[b]]: log[0] is 2N, and exp is zero from 2N to 4N, so
    any sum with a zero factor reads 0.  A difference x - p is
    sub[x + off - p]: the radix 2q - 1 keeps each digit of x - p + off in
    [0, Q), so the index names one pair.  int32 throughout, about 48 q^2
    bytes in all.
    """

    radix: int  # Q = 2q - 1
    off: int  # (q - 1)(Q + 1), the largest code
    log: np.ndarray  # code -> i with g^i == code, in [0, N); 2N for 0
    exp: np.ndarray  # i in [0, 4N] -> code of g^(i mod N) below 2N, else 0
    sub: np.ndarray  # x + off - p -> code of x - p, for codes x, p
    inv: np.ndarray  # code -> code of its inverse; 0 for 0
    neg_one: int  # code of -1


class FieldParams:
    """The pair (GF(q), GF(q^2)) with its fixed non-residue eps.

    Also carries the cached scan tables (square roots, norm preimages) and
    the stacked elimination's `CodeTables`, each built on first use, and
    the pair-level helpers used by the matrix layer, which works on raw
    (re, im) integer pairs for speed.
    """

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 3 or q % 2 == 0 or not _is_prime(q):
            raise ParameterError(f"q must be an odd prime, got {q!r}")
        self.q = q
        self.eps = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
        self.zero = EScalar(self, 0)
        self.one = EScalar(self, 1)
        self.s = EScalar(self, 0, 1)
        self._sqrt_table = None
        self._norm_table = None
        self._code_tables = None

    def __repr__(self):
        return f"FieldParams(q={self.q}, eps={self.eps})"

    def __eq__(self, other):
        return isinstance(other, FieldParams) and other.q == self.q

    def __hash__(self):
        return hash(("FieldParams", self.q))

    # -- element construction and iteration -----------------------------

    def e(self, re: int, im: int = 0) -> EScalar:
        return EScalar(self, re, im)

    def coerce(self, x) -> EScalar:
        if isinstance(x, EScalar):
            if x.fp.q != self.q:
                raise ParameterError("mixed field characteristics")
            return x
        if isinstance(x, int):
            return EScalar(self, x)
        raise ParameterError(f"cannot coerce {x!r} into GF({self.q}^2)")

    def elements(self):
        """All q^2 elements, rational ones first (im ascending, re ascending)."""
        for im in range(self.q):
            for re in range(self.q):
                yield EScalar(self, re, im)

    def units(self):
        return (x for x in self.elements() if not x.is_zero)

    def f_elements(self):
        return (EScalar(self, re) for re in range(self.q))

    def is_square_in_f(self, a: int) -> bool:
        a %= self.q
        return a == 0 or pow(a, (self.q - 1) // 2, self.q) == 1

    # -- scan-backed solvers --------------------------------------------

    def sqrt(self, x: EScalar) -> EScalar | None:
        """First t in scan order with t*t == x, or None."""
        if self._sqrt_table is None:
            table = {}
            for t in self.elements():
                sq = t * t
                table.setdefault((sq.re, sq.im), t)
            self._sqrt_table = table
        return self._sqrt_table.get((x.re % self.q, x.im % self.q))

    def solve_norm(self, a) -> EScalar:
        """First t in scan order with norm(t) == a, for a in the base field."""
        a = self.coerce(a)
        if not a.is_rational:
            raise ParameterError("norm equation target must lie in the base field")
        if a.is_zero:
            raise ParameterError("norm equation target must be nonzero")
        if self._norm_table is None:
            table = {}
            for t in self.units():
                table.setdefault(t.norm().re, t)
            self._norm_table = table
        return self._norm_table[a.re]

    # -- raw pair helpers for the matrix layer ---------------------------

    def inv_pair(self, re: int, im: int) -> tuple[int, int]:
        nrm = (re * re - self.eps * im * im) % self.q
        if nrm == 0:
            raise ZeroDivisionError("zero element of E has no inverse")
        ninv = pow(nrm, self.q - 2, self.q)
        return (re * ninv) % self.q, (-im * ninv) % self.q

    def primitive(self) -> EScalar:
        """First element in scan order that generates E*, of order q^2 - 1 (never a rational one)."""
        order = self.q * self.q - 1
        primes, m, d = [], order, 2
        while d * d <= m:
            if m % d == 0:
                primes.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.append(m)
        return next(g for g in self.units() if g.im and all(g ** (order // p) != self.one for p in primes))

    def code_tables(self) -> CodeTables:
        """The `CodeTables` of E, built with numpy from the powers of `primitive` on first use,
        so constructing the field, its space and its generators stays cheap."""
        if self._code_tables is None:
            q, eps = self.q, self.eps
            big, radix, off = q * q - 1, 2 * q - 1, 2 * q * (q - 1)
            g = self.primitive()
            re, im = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            gr, gi = g.re, g.im  # g^len(re): each pass doubles the powers held
            while len(re) < big:
                re, im = (np.concatenate([re, (re * gr + eps * im * gi) % q]),
                          np.concatenate([im, (re * gi + im * gr) % q]))
                gr, gi = (gr * gr + eps * gi * gi) % q, (2 * gr * gi) % q
            powers = (re[:big] * radix + im[:big]).astype(np.int32)
            log = np.full(off + 1, 2 * big, dtype=np.int32)
            log[powers] = np.arange(big, dtype=np.int32)
            exp = np.zeros(4 * big + 1, dtype=np.int32)
            exp[:big] = exp[big : 2 * big] = powers
            inv = np.zeros(off + 1, dtype=np.int32)
            inv[powers] = powers[-np.arange(big) % big]
            hi, lo = np.divmod(np.arange(radix * radix, dtype=np.int32), radix)
            sub = (hi - (q - 1)) % q * radix + (lo - (q - 1)) % q
            self._code_tables = CodeTables(radix, off, log, exp, sub, inv, (q - 1) * radix)
        return self._code_tables

    # -- text -------------------------------------------------------------

    def parse_scalar(self, text: str) -> EScalar:
        t = text.replace(" ", "")
        if "+" in t:
            a, rest = t.split("+", 1)
            if not rest.endswith("*s"):
                raise ParameterError(f"bad scalar literal {text!r}")
            return EScalar(self, int(a), int(rest[:-2]))
        return EScalar(self, int(t))


@lru_cache(maxsize=None)
def make_fields(q: int) -> FieldParams:
    """Validated field parameters for an odd prime q; cached per q."""
    return FieldParams(q)


def hilbert90(u: EScalar) -> EScalar:
    """A nonzero d with u = d / conj(d), for norm-one u.

    Built as 1 + u (or s when u == -1), then scaled by the inverse of its
    leading base-field coefficient; base-field scaling does not change the
    quotient d / conj(d), and the normalization makes the output canonical.
    """
    fp = u.fp
    if u.norm() != fp.one:
        raise ParameterError(f"hilbert90 needs a norm-one input, got norm {u.norm()!r}")
    d = fp.s if u == -fp.one else fp.one + u
    lead = d.re if d.re != 0 else d.im
    return d / fp.e(lead)


def epsilon_f(q: int) -> int:
    """+1 when -1 is a square in GF(q), else -1."""
    fp = make_fields(q)
    return 1 if fp.is_square_in_f(q - 1) else -1


def tau_f(q: int) -> int:
    """+1 when -2 is a square in GF(q), else -1."""
    fp = make_fields(q)
    return 1 if fp.is_square_in_f(q - 2) else -1
