"""Field arithmetic and univariate polynomial tests."""

import random

import pytest

from prodexp.gf_poly import field_make, unipoly_divmod, unipoly_mul, x_pow_n_minus_1


def _omega_powers(f, count):
    """omega^0, ..., omega^(count - 1) by repeated carry-less multiplication
    (`mul_raw`), independent of the log tables that `omega_pow` reads."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(f.mul_raw(powers[-1], f.omega))
    return powers


def test_field_make_gf4_forced_orders():
    f = field_make(2)
    assert f.omega != 1
    assert _omega_powers(f, 4)[3] == 1


def test_field_make_gf16_omega_order_15():
    f = field_make(4)
    powers = _omega_powers(f, 16)
    assert 1 not in powers[1:15]
    assert powers[15] == 1


def test_field_make_gf64_omega_order_exhaustive():
    f = field_make(6)
    powers = _omega_powers(f, 64)
    assert powers[63] == 1
    for k in range(1, 63):
        assert powers[k] != 1


def test_field_make_rejects_out_of_range():
    with pytest.raises(ValueError):
        field_make(9)
    with pytest.raises(ValueError):
        field_make(0)


@pytest.mark.parametrize("degree", range(1, 9))
def test_field_axioms_random_triples(degree):
    f = field_make(degree)
    rng = random.Random(1000 + degree)
    q = f.order
    for _ in range(10_000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, b) == f.mul(b, a)
        assert a ^ a == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_table_mul_matches_carryless(degree):
    f = field_make(degree)
    rng = random.Random(degree)
    for _ in range(2000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == f.mul_raw(a, b)
    table = f.mul_table
    for _ in range(500):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert int(table[a, b]) == f.mul_raw(a, b)


def test_product_of_all_linear_factors_vanishes():
    # over GF(4), n=3: (x-1)(x-w)(x-w^2) = x^3 - 1, which is 0 mod (x^3 - 1)
    f = field_make(2)
    n = 3
    acc = (1,)
    for i in range(n):
        acc = unipoly_mul(f, acc, (f.omega_pow(i), 1))
    assert acc == x_pow_n_minus_1(f, n)


def test_unipoly_divmod_roundtrip():
    f = field_make(4)
    rng = random.Random(9)
    for _ in range(100):
        a = tuple(rng.randrange(f.order) for _ in range(rng.randrange(1, 8)))
        b = tuple(rng.randrange(f.order) for _ in range(rng.randrange(1, 5)))
        if not any(b):
            continue
        q, r = unipoly_divmod(f, a, b)
        recon = unipoly_mul(f, q, b)
        width = max(len(recon), len(r), len(a))
        acc = [0] * width
        for i, c in enumerate(recon):
            acc[i] ^= c
        for i, c in enumerate(r):
            acc[i] ^= c
        expect = [0] * width
        for i, c in enumerate(a):
            expect[i] ^= c
        assert acc == expect


def test_x_pow_n_minus_1_char2():
    f = field_make(1)
    assert x_pow_n_minus_1(f, 2) == (1, 0, 1)
