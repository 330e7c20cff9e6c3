"""Arithmetic in GF(q) for primes q = p and prime powers q = p^k.

Elements are plain integers in [0, q).  For k = 1 the element is the residue
itself; for k > 1 the base-p digits of the encoding are the coefficients of
the element in the polynomial basis (digit i = coefficient of x^i), reduced
modulo a fixed irreducible polynomial.  The modulus is the lexicographically
least monic irreducible of degree k over F_p, coefficients compared
low-degree-first, so every encoding is reproducible run to run.

`poly_divmod` is the package's one division with remainder of coefficient
lists.  It serves the construction of GF(p^k), the modulus search and the
multiply-by-g matrix whose walk from 1 fills the exp/log tables through
which every field multiplies and inverts, and `poly_gcd`, the Euclid of the
scan's coprimality filter.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

FieldElem = int

#: Largest supported order: every field has exp/log tables.
LOG_TABLE_CAP = 1 << 16
DENSE_TABLE_CAP = 1 << 10


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def poly_divmod(
    F: Field, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, coefficient lists (ascending powers)
    over the field F.  b must end in a nonzero coefficient; the remainder
    has no trailing zeros, so len(rem) < len(b)."""
    db = len(b) - 1
    inv_lead = F.inv(b[-1])
    rem = list(a)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        c = F.mul(rem.pop(), inv_lead)
        if c:
            shift = len(rem) - db
            quo[shift] = c
            for i in range(db):
                rem[shift + i] = F.sub(rem[shift + i], F.mul(c, b[i]))
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def poly_gcd(F: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic greatest common divisor of coefficient lists (ascending powers)
    over the field F, by Euclid; gcd(a, []) is monic(a).  Neither list ends
    in a zero, and not both are empty."""
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    inv_lead = F.inv(a[-1])
    return [F.mul(inv_lead, c) for c in a]


def _least_irreducible(p: int, k: int) -> Tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p, by
    trial division by every monic polynomial of degree 1 to k/2; both skip
    a zero constant term, as x divides those and no candidate."""
    F = field_for_order(p)
    divisors = [
        low + (1,)
        for d in range(1, k // 2 + 1)
        for low in itertools.product(range(1, p), *[range(p)] * (d - 1))
    ]
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        cand = low + (1,)
        if all(poly_divmod(F, cand, div)[1] for div in divisors):
            return cand
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


class Field:
    """The finite field GF(p^k) with integer-encoded elements.

    Immutable after construction; all operations are pure functions of the
    context and their inputs, so a Field is safe to share across workers.
    """

    def __init__(self, p: int, k: int = 1) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > LOG_TABLE_CAP:
            raise ValueError(f"field order {q} exceeds cap {LOG_TABLE_CAP}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus: Optional[Tuple[int, ...]] = (
            _least_irreducible(p, k) if k > 1 else None
        )
        self._pw = [p**i for i in range(k)]
        self._build_log_tables()
        self._dense: Optional[dict[str, np.ndarray]] = None

    # -- encoding ---------------------------------------------------------

    def elem_to_coeffs(self, a: int) -> Tuple[int, ...]:
        """Base-p digit vector of an encoding, ascending powers."""
        return tuple(a // w % self.p for w in self._pw)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da, db = self.elem_to_coeffs(a), self.elem_to_coeffs(b)
        return sum(((x + y) % self.p) * w for x, y, w in zip(da, db, self._pw))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        da = self.elem_to_coeffs(a)
        return sum(((-x) % self.p) * w for x, w in zip(da, self._pw))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def _build_log_tables(self) -> None:
        # Multiplying by g is F_p-linear on the base-p digits; row j of its
        # matrix is x^j * g mod the modulus, so one product mod p maps every
        # element.  The primitive element is the least g whose cycle through 1
        # has length q - 1; that cycle, walked by doubling (m powers and the
        # map x -> g^m x give the next m), is the exp table.  A shorter cycle
        # is a subgroup, so none of its elements is tried again.
        p, k, q = self.p, self.k, self.q
        weights = np.array(self._pw)
        digits = np.arange(q)[:, None] // weights % p
        rejected = np.zeros(q, dtype=bool)
        for g in range(1, q):
            if rejected[g]:
                continue
            rows = [list(self.elem_to_coeffs(g))]
            for _ in range(k - 1):
                row = poly_divmod(field_for_order(p), [0] + rows[-1], self.modulus)[1]
                rows.append(row + [0] * (k - len(row)))
            step = digits @ np.array(rows) % p @ weights
            powers = np.ones(1, dtype=step.dtype)
            while len(powers) < q:
                powers, step = np.concatenate([powers, step[powers]]), step[step]
            cycle = powers[: int(np.argmax(powers[1:] == 1)) + 1]
            if len(cycle) == q - 1:
                break
            rejected[cycle] = True
        self.primitive = g
        log = np.zeros(q, dtype=np.int64)
        log[cycle] = np.arange(q - 1)
        self._exp, self._log = cycle.tolist() * 2, log.tolist()

    # -- dense numpy tables (vector kernels) ------------------------------

    def tables(self) -> dict[str, np.ndarray]:
        """Dense add/mul tables for vectorized evaluation (small q)."""
        if self.q > DENSE_TABLE_CAP:
            raise ValueError(f"dense tables limited to q <= {DENSE_TABLE_CAP}")
        if self._dense is None:
            # add digit by digit; mul through exp/log, zero on row and column 0
            add = np.zeros((self.q, self.q), dtype=np.int16)
            for w in self._pw:
                digit = np.arange(self.q) // w % self.p
                add += (digit[:, None] + digit) % self.p * w
            log = np.array(self._log)
            mul = np.array(self._exp, dtype=np.int16)[log[:, None] + log]
            mul[0] = mul[:, 0] = 0
            self._dense = {"add": add, "mul": mul}
        return self._dense

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k; ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for f in range(2, int(q**0.5) + 1):
        if q % f == 0:
            p = f
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


@lru_cache(maxsize=None)
def field_for_order(q: int) -> Field:
    """The field of order q (q must be a prime power)."""
    return Field(*prime_power(q))
