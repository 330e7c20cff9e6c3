"""Arithmetic in GF(q) for primes q = p and prime powers q = p^k.

Elements are plain integers in [0, q).  For k = 1 the element is the residue
itself; for k > 1 the base-p digits of the encoding are the coefficients of
the element in the polynomial basis (digit i = coefficient of x^i), reduced
modulo a fixed irreducible polynomial.  The modulus is the lexicographically
least monic irreducible of degree k over F_p, coefficients compared
low-degree-first, so every encoding is reproducible run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Tuple

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


def _fp_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of coefficient vectors (ascending powers) over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _fp_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo monic m over F_p."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        if r[-1] == 0:
            r.pop()
            continue
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * mi) % p
        while r and r[-1] == 0:
            r.pop()
    return r


def _fp_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            rem, digs = idx, []
            for _ in range(d):
                digs.append(rem % p)
                rem //= p
            div = digs + [1]
            if not _fp_mod(m, div, p):
                return False
    return True


def _least_irreducible(p: int, k: int) -> Tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p."""
    for idx in range(p**k):
        rem, digs = idx, []
        for _ in range(k):
            digs.append(rem % p)
            rem //= p
        digs.reverse()  # most significant counter digit is the x^0 coefficient
        cand = tuple(digs) + (1,)
        if _fp_is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def _power(a: int, e: int, mul: Callable[[int, int], int]) -> int:
    """a^e for e >= 0, by square-and-multiply with the given product."""
    out = 1
    for bit in bin(e)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


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
        digs = []
        for _ in range(self.k):
            digs.append(a % self.p)
            a //= self.p
        return tuple(digs)

    def coeffs_to_elem(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        return sum((c % self.p) * w for c, w in zip(coeffs, self._pw))

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
        if self.k == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(a, e, self.mul)

    def scalar_int(self, n: int) -> int:
        """The field element n * 1 (image of an integer under the prime map)."""
        return n % self.p

    def _mul_raw(self, a: int, b: int) -> int:
        da, db = self.elem_to_coeffs(a), self.elem_to_coeffs(b)
        prod = _fp_mul(list(da), list(db), self.p)
        red = _fp_mod(prod, self.modulus, self.p)
        return self.coeffs_to_elem(red)

    def _build_log_tables(self) -> None:
        # Primitive element: the least encoding g with g^(n/r) != 1 for every
        # prime r dividing n = q - 1 (1 for q = 2); its powers are the exp table.
        n = self.q - 1
        step = self._mul_raw if self.k > 1 else (lambda a, b: a * b % self.p)
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        self.primitive = 1
        for g in range(2, self.q):
            if all(_power(g, n // r, step) != 1 for r in primes):
                self.primitive = g
                break
        powers = [1]
        for _ in range(n - 1):
            powers.append(step(powers[-1], self.primitive))
        self._exp, self._log = powers * 2, [0] * self.q
        for i, v in enumerate(powers):
            self._log[v] = i

    # -- dense numpy tables (vector kernels) ------------------------------

    def tables(self) -> dict[str, np.ndarray]:
        """Dense add/mul tables for vectorized evaluation (small q)."""
        if self.q > DENSE_TABLE_CAP:
            raise ValueError(f"dense tables limited to q <= {DENSE_TABLE_CAP}")
        if self._dense is None:
            q = self.q
            add = np.empty((q, q), dtype=np.int16)
            mul = np.empty((q, q), dtype=np.int16)
            for a in range(q):
                for b in range(q):
                    add[a, b] = self.add(a, b)
                    mul[a, b] = self.mul(a, b)
            self._dense = {"add": add, "mul": mul}
        return self._dense

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.q))


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
