"""Finite fields F_{p^f} with elements encoded as integers 0 .. p^f - 1.

An element encodes the coefficient vector (base p, little-endian) of its
polynomial residue modulo a fixed irreducible modulus.  The modulus is the
first irreducible monic polynomial in an ascending scan over coefficient
codes, so field construction is reproducible.
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int):
    """Return (p, f) with q = p^f, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    (p, f), = fac.items()
    return p, f


# -- polynomial arithmetic over F_p (coefficient tuples, little-endian) ------

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) > dm:
        coef = (a[-1] * inv_lead) % p
        if coef:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - coef * mi) % p
        a.pop()
    return _trim(a)


def is_irreducible(coeffs, p) -> bool:
    """Trial division by every monic polynomial of degree 1 .. f // 2; a
    reducible polynomial of degree f has a monic factor of degree <= f // 2."""
    coeffs = _trim(coeffs)
    f = len(coeffs) - 1
    if f < 1:
        return False
    return all(poly_mod(coeffs, to_digits(code, p, d) + (1,), p)
               for d in range(1, f // 2 + 1) for code in range(p ** d))


def find_irreducible(p: int, f: int):
    """First irreducible monic polynomial of degree f, scanning coefficient codes."""
    for code in range(p ** f):
        coeffs = to_digits(code, p, f) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible modulus of degree {f} over F_{p}")  # unreachable


def to_digits(code: int, p: int, n: int):
    """The n base-p digits of code, least significant first."""
    digits = []
    for _ in range(n):
        digits.append(code % p)
        code //= p
    return tuple(digits)


def from_digits(digits, p: int) -> int:
    """Inverse of `to_digits`: the integer with these base-p digits."""
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


class Fq:
    """The field with p^f elements."""

    def __init__(self, p: int, f: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = find_irreducible(p, f) if f > 1 else (0, 1)

    _tables = None  # (add, mul, inv), built on first use

    def __repr__(self):
        return f"Fq({self.p}, {self.f})"

    def tables(self):
        """(add, mul, inv) as code arrays: add[a, b] and mul[a, b] are the
        codes of a + b and a * b, inv[a] that of 1 / a (inv[0] = 0 stands in).

        Built once from the base-p digits of all q codes: sums digit by
        digit, and products as digit convolutions whose degrees 2f - 2 down
        to f are folded away by x^f = x^f - modulus, of degree below f.
        """
        if self._tables is None:
            p, f, q = self.p, self.f, self.q
            powers = p ** np.arange(f)
            digits = np.arange(q)[:, None] // powers % p
            add = (digits[:, None] + digits[None]) % p @ powers
            prod = np.zeros((q, q, 2 * f - 1), dtype=np.int64)
            for i in range(f):
                prod[:, :, i:i + f] += digits[:, None, i, None] * digits[None]
            low = np.array(self.modulus[:f])
            for k in range(2 * f - 2, f - 1, -1):
                prod[:, :, k - f:k] = (prod[:, :, k - f:k]
                                       - prod[:, :, k, None] * low) % p
            mul = prod[:, :, :f] % p @ powers
            self._tables = add, mul, np.argmax(mul == 1, axis=1)
        return self._tables

    def coeffs(self, a: int):
        return to_digits(a, self.p, self.f)

    def from_coeffs(self, coeffs) -> int:
        return from_digits(_trim(coeffs), self.p)

    def mul(self, a: int, b: int) -> int:
        prod = poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        if self.f > 1:
            prod = poly_mod(prod, self.modulus, self.p)
        else:
            prod = _trim((prod[0] % self.p,)) if prod else ()
        return self.from_coeffs(prod)

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        o = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            o += 1
        return o

    def generator(self) -> int:
        """Least element generating the multiplicative group."""
        for a in range(1, self.q):
            if self.element_order(a) == self.q - 1:
                return a
        raise RuntimeError("no multiplicative generator found")  # unreachable

