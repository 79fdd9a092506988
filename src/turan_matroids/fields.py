"""Finite-field arithmetic tables for GF(p^k) with p^k <= 64.

Fields are built once per order from the smallest irreducible monic
polynomial (smallest when its coefficient vector c0 + c1*x + ... is read
as a base-p integer), verified against the field axioms, and cached.
Elements are encoded as integers 0..q-1 via the same base-p digit map, so
0 and 1 are the additive and multiplicative identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class FieldError(ValueError):
    pass


def prime_power_decomposition(q: int):
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        return (p, k) if rest == 1 else None
    return (q, 1)


def is_prime_power(q: int) -> bool:
    return prime_power_decomposition(q) is not None


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a = _poly_trim(a)
    return a


def _is_irreducible(poly, p):
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            divisor = _digits(code, p, d) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _digits(value, p, width):
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def smallest_irreducible(p: int, k: int):
    """Monic irreducible of degree k over GF(p), minimal in base-p encoding."""
    if k == 1:
        return [0, 1]
    for code in range(p**k):
        poly = _digits(code, p, k) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial found for p={p}, k={k}")


@dataclass(frozen=True)
class GaloisField:
    q: int
    p: int
    k: int
    modulus: tuple
    add_table: tuple
    mul_table: tuple
    neg_table: tuple
    inv_table: tuple

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise FieldError("zero has no inverse")
        return self.inv_table[a]


def _encode(coeffs, p, k):
    value = 0
    for i in range(k - 1, -1, -1):
        value = value * p + (coeffs[i] if i < len(coeffs) else 0)
    return value


def _verify_axioms(F: GaloisField):
    q = F.q
    add, mul = F.add_table, F.mul_table
    for a in range(q):
        if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
            raise FieldError("identity axiom failed")
        if add[a][F.neg_table[a]] != 0:
            raise FieldError("additive inverse failed")
        if a and mul[a][F.inv_table[a]] != 1:
            raise FieldError("multiplicative inverse failed")
    for a in range(q):
        for b in range(q):
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise FieldError("commutativity failed")
            for c in range(q):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise FieldError("additive associativity failed")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise FieldError("multiplicative associativity failed")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise FieldError("distributivity failed")


@lru_cache(maxsize=None)
def make_field(q: int) -> GaloisField:
    if q > 64:
        raise FieldError(f"field order {q} exceeds the cap of 64")
    pk = prime_power_decomposition(q)
    if pk is None:
        raise FieldError(f"{q} is not a prime power")
    p, k = pk
    modulus = smallest_irreducible(p, k)
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    neg = [0] * q
    for a in range(q):
        da = _digits(a, p, k)
        neg[a] = _encode([(-x) % p for x in da], p, k)
        for b in range(q):
            db = _digits(b, p, k)
            add[a][b] = _encode([(x + y) % p for x, y in zip(da, db)], p, k)
            prod = _poly_mod(_poly_mulmod_p(_poly_trim(da), _poly_trim(db), p), modulus, p)
            mul[a][b] = _encode(prod, p, k)
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
    F = GaloisField(q, p, k, tuple(modulus), tuple(map(tuple, add)), tuple(map(tuple, mul)),
                    tuple(neg), tuple(inv))
    _verify_axioms(F)
    return F
