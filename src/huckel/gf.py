"""Small finite fields GF(p^e) with deterministic construction.

Elements are the integers 0..q-1, read as base-p digit vectors
(coefficient-lexicographic enumeration: index sum(c_i p^i) has coefficient
vector (c_0, ..., c_{e-1})).  The modulus is the first monic irreducible of
degree e in that same enumeration of coefficient vectors, so two builds of
the same field agree element for element.  Multiplication runs through dense
exponent/log tables built from the first primitive element.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

_TABLE_LIMIT = 10 ** 4


def is_prime_power(q: int) -> Optional[Tuple[int, int]]:
    """Return (p, e) with q = p^e and p prime, or None."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        return None
    p, e = primes[0], 1
    while p ** e < q:
        e += 1
    return p, e


def _prime_factors(n: int) -> List[int]:
    """The distinct prime factors of n, ascending, by trial division; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_divmod(num: List[int], den: List[int], p: int) -> Tuple[List[int], List[int]]:
    """Divide polynomials over GF(p); coefficients ascending, den monic."""
    num = num[:]
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    while len(num) - 1 >= dd and any(num):
        shift = len(num) - 1 - dd
        coef = num[-1]
        quot[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - coef * c) % p
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    return quot, num


class FiniteField:
    """GF(p^e).  Use make_field; the constructor does the full table build."""

    def __init__(self, p: int, e: int):
        if is_prime_power(p) != (p, 1):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p ** e
        if q > _TABLE_LIMIT:
            raise ValueError(f"field order {q} exceeds the dense-table limit {_TABLE_LIMIT}")
        self.p = p
        self.e = e
        self.order = q
        self.modulus = self._find_modulus()
        self._pp = [p ** i for i in range(e)]
        g = self._find_primitive()
        self.exp: List[int] = [1] * (q - 1)
        acc = 1
        for i in range(1, q - 1):
            acc = self._mul_raw(acc, g)
            self.exp[i] = acc
        self.log: List[int] = [0] * q  # log[0] unused
        for i, x in enumerate(self.exp):
            self.log[x] = i

    # ── construction helpers ────────────────────────────────────────────

    def _find_modulus(self) -> Tuple[int, ...]:
        """First monic irreducible of degree e in coefficient order."""
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        for code in range(p ** e):
            low = self._digits(code, e)
            poly = low + [1]
            if self._is_irreducible(poly):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")

    def _digits(self, code: int, width: int) -> List[int]:
        out = []
        for _ in range(width):
            out.append(code % self.p)
            code //= self.p
        return out

    def _is_irreducible(self, poly: List[int]) -> bool:
        p = self.p
        deg = len(poly) - 1
        for x in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        if deg <= 3:
            return True
        # Trial division by every monic polynomial of degree 2..deg//2.
        for d in range(2, deg // 2 + 1):
            for code in range(p ** d):
                den = self._digits(code, d) + [1]
                _, rem = _poly_divmod(poly[:], den, p)
                if not any(rem):
                    return False
        return True

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product reduced by the modulus (no tables)."""
        p, e = self.p, self.e
        da = self._digits(a, e)
        db = self._digits(b, e)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i in range(e):
                    prod[top - e + i] = (prod[top - e + i] - c * mod[i]) % p
        return sum(prod[i] * self._pp[i] for i in range(e))

    def _find_primitive(self) -> int:
        """First element in index order with multiplicative order q-1."""
        q = self.order
        if q == 2:
            return 1
        checks = [(q - 1) // ell for ell in _prime_factors(q - 1)]
        for cand in range(2, q):
            if all(self._pow_raw(cand, c) != 1 for c in checks):
                return cand
        raise AssertionError("no primitive element found")

    def _pow_raw(self, a: int, k: int) -> int:
        acc, base = 1, a
        while k:
            if k & 1:
                acc = self._mul_raw(acc, base)
            base = self._mul_raw(base, base)
            k >>= 1
        return acc

    # ── field operations ────────────────────────────────────────────────

    def _check(self, x: int) -> None:
        if not (0 <= x < self.order):
            raise ValueError(f"element {x} out of range for field of order {self.order}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p, out = self.p, 0
        for pw in self._pp:
            out += (((a // pw) % p + (b // pw) % p) % p) * pw
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        p, out = self.p, 0
        for pw in self._pp:
            out += ((-((a // pw) % p)) % p) * pw
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        self._check(a)
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if k else 1
        return self.exp[(self.log[a] * k) % (self.order - 1)]

    def is_square(self, x: int) -> bool:
        """0 counts as a square; otherwise parity of the discrete log."""
        self._check(x)
        if x == 0 or self.p == 2:
            return True
        return self.log[x] % 2 == 0

    def difference_table(self) -> np.ndarray:
        """(q, q) int32 array holding a - b at [a, b], built digit by digit."""
        x = np.arange(self.order, dtype=np.int32)
        out = np.zeros((self.order, self.order), dtype=np.int32)
        for pw in self._pp:
            d = x // pw % self.p
            out += (d[:, None] - d[None, :]) % self.p * pw
        return out

    def squares(self) -> np.ndarray:
        """is_square of every element, as a boolean array (log[0] is 0)."""
        return (np.array(self.log) % 2 == 0) | (self.p == 2)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, e={self.e}, order={self.order})"


def make_field(p: int, e: int) -> FiniteField:
    return FiniteField(p, e)


def subfield_coset_partition(big: FiniteField, q: int) -> List[Tuple[int, ...]]:
    """Partition GF(q^2) into the q additive cosets of its order-q subfield.

    The subfield is {0} plus the (q+1)-th powers of the primitive element.
    Cosets come back as sorted tuples of element indices, ordered by their
    smallest member (the subfield itself first).
    """
    if big.order != q * q:
        raise ValueError(f"field order {big.order} is not q^2 for q={q}")
    sub = {0}
    step = q + 1
    for i in range(q - 1):
        sub.add(big.exp[(i * step) % (big.order - 1)])
    if len(sub) != q:
        raise AssertionError(f"subfield has {len(sub)} elements, expected {q}")
    v = sorted(sub)
    seen = set()
    cosets: List[Tuple[int, ...]] = []
    for a in range(big.order):
        if a in seen:
            continue
        coset = tuple(sorted(big.add(a, x) for x in v))
        seen.update(coset)
        cosets.append(coset)
    if len(cosets) != q:
        raise AssertionError(f"{len(cosets)} cosets, expected {q}")
    cosets.sort(key=lambda c: c[0])
    return cosets
