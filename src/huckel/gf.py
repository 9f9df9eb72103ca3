"""Small finite fields GF(p^e) with deterministic construction.

Elements are the integers 0..q-1, read as base-p digit vectors
(coefficient-lexicographic enumeration: index sum(c_i p^i) has coefficient
vector (c_0, ..., c_{e-1})).  The modulus is the first monic irreducible of
degree e in that same enumeration of coefficient vectors, so two builds of
the same field agree element for element: the smallest code that no product
of two monic factors reaches.  Multiplication runs through dense exponent/log
tables: the orbit of 1 under c -> g*c for the first primitive element g.
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


def _find_modulus(digits: np.ndarray, p: int) -> Tuple[int, ...]:
    """First monic irreducible of degree e in coefficient order: the smallest
    code that no product of monic factors of degrees d and e - d reaches."""
    q, e = digits.shape
    reducible = np.zeros(q, dtype=bool)
    for d in range(1, e // 2 + 1):
        f, g = (np.hstack([digits[:p ** k, :k], np.ones((p ** k, 1), dtype=digits.dtype)]) for k in (d, e - d))
        prod = np.zeros((len(f), len(g), e + 1), dtype=digits.dtype)
        for i in range(d + 1):  # the convolution of every f with every g
            prod[:, :, i:i + e - d + 1] += f[:, None, i, None] * g
        reducible[prod[..., :e] % p @ p ** np.arange(e)] = True
    return tuple(digits[reducible.argmin()].tolist()) + (1,)


def _primitive_powers(digits: np.ndarray, modulus: Tuple[int, ...], p: int) -> List[int]:
    """g^0, ..., g^(q-2) for the first element g, in index order, of
    multiplicative order q - 1: the orbit of 1 under c -> g*c."""
    q, e = digits.shape
    pp = p ** np.arange(e)
    # x*c for every c: shift the digits up and reduce x^e by the monic modulus.
    top = digits[:, -1:]
    times_x = (np.hstack([np.zeros_like(top), digits[:, :-1]]) - top * np.array(modulus[:e])) % p @ pp
    x_powers = [np.arange(q)]
    for _ in range(e - 1):
        x_powers.append(times_x[x_powers[-1]])
    shifted = digits[np.array(x_powers)]  # [j, c] holds the digits of x^j * c
    for g in range(1, q):
        times_g = (np.tensordot(digits[g], shifted, 1) % p @ pp).tolist()
        orbit = [1]
        while times_g[orbit[-1]] != 1:
            orbit.append(times_g[orbit[-1]])
        if len(orbit) == q - 1:
            return orbit
    raise AssertionError("no primitive element found")


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
        self.p, self.e, self.order = p, e, q
        self._pp = [p ** i for i in range(e)]
        digits = np.arange(q)[:, None] // np.array(self._pp) % p  # row c: c's coefficients
        self.modulus = _find_modulus(digits, p)
        self.exp: List[int] = _primitive_powers(digits, self.modulus, p)
        self.log: List[int] = [0] * q  # log[0] unused
        for i, x in enumerate(self.exp):
            self.log[x] = i

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
    sub = np.unique([0] + big.exp[::q + 1])
    if len(sub) != q:
        raise AssertionError(f"subfield has {len(sub)} elements, expected {q}")
    # a + v for every element a and subfield element v, digit by digit.
    a = np.arange(big.order)
    sums = np.zeros((big.order, q), dtype=np.int64)
    for pw in big._pp:
        sums += (a[:, None] // pw + sub[None, :] // pw) % big.p * pw
    sums.sort(axis=1)
    cosets = [tuple(c) for c in sums[sums[:, 0] == a].tolist()]  # a is its coset's smallest member
    if len(cosets) != q:
        raise AssertionError(f"{len(cosets)} cosets, expected {q}")
    return cosets
