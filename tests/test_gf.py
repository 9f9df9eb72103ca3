"""Finite fields GF(p^e): construction determinism, axioms, squares, cosets."""

import random

import pytest

from huckel.gf import (
    _TABLE_LIMIT,
    FiniteField,
    _prime_factors,
    is_prime_power,
    make_field,
    subfield_coset_partition,
)

SEEDS = [0xF1E1D, 0xF2E2D, 0xF3E3D]
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (3, 4), (13, 1)]


def test_is_prime_power():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(32) == (2, 5)
    assert is_prime_power(13) == (13, 1)
    assert is_prime_power(1024) == (2, 10)
    for q in (0, 1, 6, 12, 15, 100):
        assert is_prime_power(q) is None


def test_construction_errors():
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match=f"p={p} is not prime"):
            make_field(p, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(101, 2)  # order over the dense-table limit


def test_deterministic_moduli():
    # First monic irreducible in coefficient-lexicographic order.
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(5, 1).modulus == (0, 1)  # x itself for prime fields


def test_deterministic_primitive_elements():
    assert make_field(5, 1).exp[1] == 2
    f9 = make_field(3, 2)
    assert f9.exp[1] == 4  # 1 + 1*3 is x + 1, which generates GF(9)*


@pytest.mark.parametrize("p,e", FIELDS)
def test_exp_log_tables(p, e):
    f = make_field(p, e)
    q = f.order
    assert len(f.exp) == q - 1
    assert sorted(f.exp) == list(range(1, q))  # a bijection onto nonzero elements
    for x in range(1, q):
        assert f.exp[f.log[x]] == x


@pytest.mark.parametrize("seed", SEEDS)
def test_field_axioms(seed):
    rng = random.Random(seed)
    for p, e in FIELDS:
        f = make_field(p, e)
        q = f.order
        for _ in range(25):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.mul(a, 1) == a and f.add(a, 0) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.pow(a, q - 1) == 1
                assert f.pow(a, -1) == f.inv(a)
        assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -2)
        with pytest.raises(ValueError):
            f.add(q, 0)


@pytest.mark.parametrize("p,e", [(3, 2), (3, 4), (7, 1), (13, 1)])
def test_is_square_matches_brute_force(p, e):
    f = make_field(p, e)
    squares = {f.mul(x, x) for x in range(f.order)}
    for x in range(f.order):
        assert f.is_square(x) == (x in squares)
    # Exactly (q-1)/2 nonzero squares in odd characteristic.
    assert len(squares) - 1 == (f.order - 1) // 2


def test_is_square_char2():
    f = make_field(2, 3)
    for x in range(8):
        assert f.is_square(x)  # squaring is a bijection in characteristic 2


def test_subfield_coset_partition():
    f9 = make_field(3, 2)
    cosets = subfield_coset_partition(f9, 3)
    assert len(cosets) == 3
    # The subfield copy of GF(3) comes first and is closed under addition.
    assert cosets[0][0] == 0
    sub = set(cosets[0])
    assert all(f9.add(a, b) in sub for a in sub for b in sub)
    # The cosets partition the field and are translates of the subfield.
    flat = sorted(x for c in cosets for x in c)
    assert flat == list(range(9))
    for coset in cosets:
        rep = coset[0]
        assert set(coset) == {f9.add(rep, x) for x in sub}


def test_subfield_coset_partition_larger():
    f25 = make_field(5, 2)
    cosets = subfield_coset_partition(f25, 5)
    assert len(cosets) == 5
    assert sorted(x for c in cosets for x in c) == list(range(25))
    sub = set(cosets[0])
    # The subfield is exactly the fixed points of the Frobenius map x -> x^5.
    assert sub == {x for x in range(25) if f25.pow(x, 5) == x}


def test_subfield_coset_partition_validation():
    with pytest.raises(ValueError):
        subfield_coset_partition(make_field(3, 2), 4)


@pytest.mark.parametrize("p,e", FIELDS)
def test_difference_table_and_squares_match_the_scalar_ops(p, e):
    f = make_field(p, e)
    table, squares = f.difference_table(), f.squares()
    assert table.shape == (f.order, f.order) and squares.shape == (f.order,)
    for a in range(f.order):
        assert [int(x) for x in table[a]] == [f.sub(a, b) for b in range(f.order)]
        assert bool(squares[a]) == f.is_square(a)


# The scalar table build the digit table replaced, kept as its oracle:
# polynomials over GF(p) as coefficient lists, ascending.

def _oracle_digits(code, p, width):
    out = []
    for _ in range(width):
        out.append(code % p)
        code //= p
    return out


def _oracle_divmod(num, den, p):
    """Divide polynomials over GF(p); den monic."""
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


def _oracle_is_irreducible(poly, p):
    """No root in GF(p), then trial division by every monic of degree 2..deg//2."""
    deg = len(poly) - 1
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    for d in range(2, deg // 2 + 1):
        for code in range(p ** d):
            if not any(_oracle_divmod(poly, _oracle_digits(code, p, d) + [1], p)[1]):
                return False
    return True


def _oracle_tables(p, e):
    """(modulus, exp, log): the first monic irreducible in coefficient order,
    and the powers of the first element of multiplicative order q - 1."""
    q = p ** e
    modulus = (0, 1)
    if e > 1:
        modulus = next(tuple(poly) for poly in (_oracle_digits(c, p, e) + [1] for c in range(q))
                       if _oracle_is_irreducible(poly, p))

    pp = [p ** i for i in range(e)]

    def mul(a, b):
        db = _oracle_digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(_oracle_digits(a, p, e)):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i in range(e):
                    prod[top - e + i] = (prod[top - e + i] - c * modulus[i]) % p
        return sum(prod[i] * pp[i] for i in range(e))

    def power(a, k):
        acc = 1
        while k:
            if k & 1:
                acc = mul(acc, a)
            a, k = mul(a, a), k >> 1
        return acc

    checks = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    g = 1 if q == 2 else next(c for c in range(2, q) if all(power(c, k) != 1 for k in checks))
    exp = [1]
    for _ in range(q - 2):
        exp.append(mul(exp[-1], g))
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    return modulus, exp, log


ORACLE_FIELDS = [pp for pp in map(is_prime_power, range(2, _TABLE_LIMIT + 1)) if pp and (pp[1] > 1 or pp[0] < 1000)]


def test_tables_equal_the_scalar_oracle():
    # Every p^e with e >= 2 in the dense-table range, and every prime below 1,000.
    assert sum(e > 1 for _, e in ORACLE_FIELDS) == 51 and sum(e == 1 for _, e in ORACLE_FIELDS) == 168
    for p, e in ORACLE_FIELDS:
        f = make_field(p, e)
        assert (f.modulus, f.exp, f.log) == _oracle_tables(p, e), (p, e)
