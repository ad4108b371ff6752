"""Arithmetic over binary extension fields and dense univariate polynomials.

Fields GF(2^m) for m in [1, 8] use a fixed table of moduli so that every run
(and any independent implementation using the same table) sees the same
constants:

    m=1: x + 1            m=5: x^5 + x^2 + 1
    m=2: x^2 + x + 1      m=6: x^6 + x + 1
    m=3: x^3 + x + 1      m=7: x^7 + x^3 + 1
    m=4: x^4 + x + 1      m=8: x^8 + x^4 + x^3 + x^2 + 1

All moduli are primitive, so the residue class of x generates the
multiplicative group; primitivity is re-verified at construction.

Field elements are plain ints in [0, 2^m); the binary digits are the
coefficients in the polynomial basis.  Addition is XOR.  Multiplication has
two interchangeable implementations: carry-less shift-add with reduction
(`mul_raw`), and log/antilog tables (`mul`, the default fast path, bit-exact
with the former).

Univariate polynomials are coefficient tuples, low degree first.  Products
in the cyclic rings F[x_1..x_m] / (x_i^n_i - 1) are taken on numpy arrays,
one axis at a time, by the membership kernel `codes.CyclicCode.check_products`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

_MODULI: Dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


class GF2m:
    """The binary extension field GF(2^m) with the fixed modulus table.

    Elements are ints in [0, 2^m).  The designated primitive element
    ``omega`` is the residue class of x (the element 2), except for m=1
    where x reduces to 1.
    """

    def __init__(self, degree: int) -> None:
        if degree not in _MODULI:
            raise ValueError(
                f"unsupported extension degree {degree}; must be in {sorted(_MODULI)}"
            )
        self.degree = degree
        self.modulus = _MODULI[degree]
        self.order = 1 << degree
        self.omega = 2 if degree > 1 else 1

        # Build log/antilog tables and verify omega really is primitive.
        q = self.order
        self._exp = [0] * (2 * q)
        self._log = [0] * q
        val = 1
        for i in range(q - 1):
            if val == 1 and i > 0:
                raise ValueError(
                    f"omega has order {i} < {q - 1}; modulus not primitive"
                )
            self._exp[i] = val
            self._log[val] = i
            val = self.mul_raw(val, self.omega)
        if val != 1:
            raise ValueError("omega does not have full multiplicative order")
        for i in range(q - 1, 2 * q):
            self._exp[i] = self._exp[i - (q - 1)]

        self._mul_table: np.ndarray | None = None

    # ------------------------------------------------------------------
    def mul_raw(self, a: int, b: int) -> int:
        """Carry-less shift-add multiplication with modular reduction."""
        p = 0
        top = 1 << self.degree
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return p

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def omega_pow(self, e: int) -> int:
        """omega^e, with negative exponents allowed."""
        return self._exp[e % (self.order - 1)]

    # ------------------------------------------------------------------
    # Vectorized helpers.  Element arrays are numpy uint8 (q <= 256).
    # ------------------------------------------------------------------
    @property
    def mul_table(self) -> np.ndarray:
        """q x q multiplication table, built lazily."""
        if self._mul_table is None:
            q = self.order
            log = np.array(self._log, dtype=np.int32)
            exp = np.array(self._exp[: q - 1], dtype=np.uint8)
            a = np.arange(q, dtype=np.int32)
            idx = (log[a][:, None] + log[a][None, :]) % (q - 1)
            table = exp[idx]
            table[0, :] = 0
            table[:, 0] = 0
            self._mul_table = table
        return self._mul_table

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and other.degree == self.degree

    def __hash__(self) -> int:
        return hash(("GF2m", self.degree))

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"

    def __reduce__(self):
        return (field_make, (self.degree,))


@lru_cache(maxsize=None)
def field_make(extension_degree: int) -> GF2m:
    """Return the field GF(2^extension_degree) from the fixed modulus table."""
    return GF2m(extension_degree)


# ----------------------------------------------------------------------
# Dense univariate helpers (coefficient lists, low degree first).
# ----------------------------------------------------------------------

def unipoly_trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def unipoly_mul(field: GF2m, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    a = unipoly_trim(a)
    b = unipoly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] ^= field.mul(ca, cb)
    return unipoly_trim(out)


def unipoly_divmod(
    field: GF2m, a: Sequence[int], b: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Quotient and remainder of a / b."""
    b = unipoly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(unipoly_trim(a))
    db = len(b) - 1
    lead_inv = field.inv(b[-1])
    quot = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = field.mul(rem[-1], lead_inv)
        quot[shift] = factor
        for j, cb in enumerate(b):
            rem[shift + j] ^= field.mul(factor, cb)
        while rem and rem[-1] == 0:
            rem.pop()
    return unipoly_trim(quot), unipoly_trim(rem)


def x_pow_n_minus_1(field: GF2m, n: int) -> Tuple[int, ...]:
    cs = [0] * (n + 1)
    cs[0] = 1
    cs[n] ^= 1
    return tuple(cs)
