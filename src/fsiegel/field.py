"""Exact arithmetic in F = GF(q) and its quadratic extension E = GF(q^2).

E is realized as F[s] with s^2 = eps, where eps is the smallest quadratic
non-residue of F.  An element is stored as the coefficient pair
(re, im) meaning re + im*s; Galois conjugation fixes F and sends s to -s,
so the conjugation-fixed elements are exactly those with im == 0.

Scans over E run in a fixed "rational first" order: im ascending, then re
ascending.  A norm preimage is the first in that order; a square root is
read off the log table and is the first root in that order too.  This
keeps every derived constant reproducible for a given q.
"""

from __future__ import annotations

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

    Its one table, `CodeTables`, is built on first use; a cell's space owns
    its field, so the tables go with the cell.  `zero`, `one` and `s` are
    built per access, for a field holding scalars that hold it would form a
    cycle.  The pair-level helpers serve the matrix layer.
    """

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 3 or q % 2 == 0 or not _is_prime(q):
            raise ParameterError(f"q must be an odd prime, got {q!r}")
        self.q = q
        self.eps = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
        self._code_tables = None

    zero = property(lambda self: EScalar(self, 0))
    one = property(lambda self: EScalar(self, 1))
    s = property(lambda self: EScalar(self, 0, 1))

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

    # -- solvers --------------------------------------------------------

    def sqrt(self, x: EScalar) -> EScalar | None:
        """First t in scan order with t*t == x, or None: x = g^k, for the log
        table's primitive g, has the roots +-g^(k/2) when k is even, else none."""
        q = self.q
        t = self.code_tables()
        k = int(t.log[x.re % q * t.radix + x.im % q])
        if k == 2 * (q * q - 1):
            return self.zero
        if k % 2:
            return None
        re, im = divmod(int(t.exp[k // 2]), t.radix)
        return EScalar(self, *min((re, im), (-re % q, -im % q), key=lambda p: (p[1], p[0])))

    def solve_norm(self, a) -> EScalar:
        """First t in scan order with norm(t) == a, for a in the base field."""
        a = self.coerce(a)
        if not a.is_rational:
            raise ParameterError("norm equation target must lie in the base field")
        if a.is_zero:
            raise ParameterError("norm equation target must be nonzero")
        return next(t for t in self.units() if t.norm() == a)

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
        so constructing the field, its space and its spf generators stays cheap."""
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
            digit = (np.arange(radix, dtype=np.int32) - (q - 1)) % q
            sub = np.add.outer(digit * radix, digit).ravel()
            self._code_tables = CodeTables(radix, off, log, exp, sub, inv, (q - 1) * radix)
        return self._code_tables


def epsilon_f(q: int) -> int:
    """+1 when -1 is a square in GF(q), else -1 (Euler's criterion)."""
    return 1 if pow(q - 1, (q - 1) // 2, q) == 1 else -1


def tau_f(q: int) -> int:
    """+1 when -2 is a square in GF(q), else -1 (Euler's criterion)."""
    return 1 if pow(q - 2, (q - 1) // 2, q) == 1 else -1
