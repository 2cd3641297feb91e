"""Monomials of the polynomial ring: the public tuple form, the packed
integer keys that Poly and Tensor store, and the conversions between them.

A monomial's public form is a tuple of (index, exponent) pairs with
strictly increasing indices and positive exponents (Mono, check_mono).

Its key packs it into one int (Kronecker substitution, as in Monagan and
Pearce, "Sparse polynomial multiplication and division in Maple 14",
2009).  Variable slot s holds its exponent in bits 8s..8s+7, so the fields
of a key are its little-endian bytes.  The odd-indexed families put x_n in
slot (n - 1)/2 and the oracle's "v" family in slot n - 1.  The empty
monomial is 0, a monomial product is one int addition and d/dx_n steps
one field down.  A field holds exponents up to MAX_EXPONENT = 255, and
variable indices go up to MAX_INDEX = 4095, so a key has at most 4095
bytes.  check_mono, and with it every constructor and the JSON reader,
rejects a larger exponent or index with ValueError.  A product whose
exponent would pass the bound raises OverflowError, an ArithmeticError,
and never carries into the next field: _check_product reads the guard
bits of both operands, the top bit of every field in the OR of all their
keys, and compares exact per-field maxima only when one is set, so the
check costs O(n1 + n2), not O(n1 * n2).

_decode is the one way from a key back to a tuple monomial, and only the
public boundary of the value classes calls it.  Algorithms read keys
through _key_weight, _key_degree, _key_sort (the canonical order) and
_key_vars (the variables of a key with their units), none of which
builds a tuple monomial.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, zip_longest
from operator import mul, or_
from collections.abc import Iterable

# A monomial is a tuple of (index, exponent) pairs with strictly increasing
# indices and every exponent >= 1 (check_mono).  The empty tuple is the
# constant monomial.
Mono = tuple[tuple[int, int], ...]

EMPTY_MONO: Mono = ()

# Variable letter used when printing each family.
FAMILY_LETTERS = {"p": "p", "x": "x", "y": "y", "D": "D", "v": "x"}

# Families restricted to odd variable indices.  The "v" family is the
# oracle's finite alphabet x_1..x_N and allows any positive index.
ODD_FAMILIES = frozenset({"p", "x", "y", "D"})

# The largest exponent and variable index a packed key holds.
MAX_EXPONENT = 255
MAX_INDEX = 4095

# Index step between the slots of a family's keys: x_n sits in slot
# (n - 1) // step.
_STEP = {family: 2 if family in ODD_FAMILIES else 1 for family in FAMILY_LETTERS}


def check_family(family) -> str:
    """Return family if it is a variable family of FAMILY_LETTERS, else
    raise ValueError."""
    if not (isinstance(family, str) and family in FAMILY_LETTERS):
        raise ValueError(f"unknown variable family {family!r}")
    return family


def check_mono(mono, family: str = "p") -> Mono:
    """Return mono if it is a monomial of the family, else raise ValueError.

    A monomial is a tuple of (index, exponent) int pairs with strictly
    increasing indices >= 1 and exponents >= 1; in ODD_FAMILIES every
    index is odd.
    """
    if not (isinstance(mono, tuple) and all(
            isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(v, int) for v in pair)
            for pair in mono)):
        raise ValueError(f"a monomial is a tuple of (index, exponent) int pairs, got {mono!r}")
    last = 0
    for n, e in mono:
        if n < 1:
            raise ValueError(f"variable index must be positive, got {n}")
        if n <= last:
            raise ValueError(f"monomial indices must strictly increase, got {mono!r}")
        if family in ODD_FAMILIES and n % 2 == 0:
            raise ValueError(f"family {family!r} only has odd variable indices, got {n}")
        if e < 1:
            raise ValueError(f"exponent of variable {n} must be positive, got {e}")
        if e > MAX_EXPONENT:
            raise ValueError(f"exponent of variable {n} exceeds {MAX_EXPONENT}, got {e}")
        if n > MAX_INDEX:
            raise ValueError(f"variable index exceeds {MAX_INDEX}, got {n}")
        last = n
    return mono


# Packed keys.  A key's fields are its bytes, lowest slot first; step is
# _STEP of the key's family.
def _fields(key: int) -> bytes:
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _pack(mono: Mono, step: int) -> int:
    """The key of a monomial that check_mono accepts."""
    return sum(e << ((n - 1) // step << 3) for n, e in mono)


def _decode(key: int, step: int) -> Mono:
    """The monomial of a key: the one way back to the public tuple form."""
    exps = _fields(key)
    return tuple(compress(zip(range(1, step * len(exps) + 1, step), exps), exps))


def _key_vars(key: int, step: int = 2) -> list[tuple[int, int, int]]:
    """The variables of a key as (index, unit, exponent) triples, lowest
    index first, where unit is the key of the variable itself, so the key
    is the sum of unit * exponent."""
    return [(i * step + 1, 1 << (i << 3), e) for i, e in enumerate(_fields(key)) if e]


def _key_weight(key: int, step: int = 2) -> int:
    exps = _fields(key)
    return sum(map(mul, range(1, step * len(exps) + 1, step), exps))


# Mapped through this table, the fields of two keys compare as
# mono_sort_key compares their monomials after weight and degree: at the
# first slot where they differ, an absent variable comes first, then the
# larger exponent.
_LEX = bytes([0, *range(255, 0, -1)])


def _key_sort(key: int, step: int = 2) -> tuple:
    """mono_sort_key of the key's monomial, up to the same order."""
    exps = _fields(key)
    return (sum(map(mul, range(1, step * len(exps) + 1, step), exps)), -sum(exps),
            exps.translate(_LEX))


def _key_degree(key: int) -> int:
    return sum(_fields(key))


def _field_maxima(keys: Iterable[int]) -> list[int]:
    """The largest exponent in each slot over keys."""
    return [max(col) for col in zip_longest(*map(_fields, keys), fillvalue=0)]


def _check_product(a: dict, b: dict, step: int) -> None:
    """Raise OverflowError if a key of a plus a key of b would pass
    MAX_EXPONENT in some field.

    If no field of the OR of all the keys has its top (guard) bit set,
    every exponent is below 128 and every sum fits.  Otherwise the exact
    per-field maxima decide: the product of the terms of a and b that
    reach them is nonzero, so the bound fails exactly when they sum past
    it.  O(len(a) + len(b)) either way.
    """
    top = reduce(or_, a, 0) | reduce(or_, b, 0)
    if max(_fields(top), default=0) < 0x80:
        return
    for slot, (ea, eb) in enumerate(zip_longest(_field_maxima(a), _field_maxima(b),
                                                fillvalue=0)):
        if ea + eb > MAX_EXPONENT:
            raise OverflowError(f"exponent {ea + eb} of variable {slot * step + 1} "
                                f"exceeds {MAX_EXPONENT}")


def mono_weight(mono: Mono) -> int:
    return sum(n * e for n, e in mono)


def mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        na, ea = a[i]
        nb, eb = b[j]
        if na == nb:
            out.append((na, ea + eb))
            i += 1
            j += 1
        elif na < nb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_sort_key(mono: Mono):
    """Canonical monomial order used for all serialized output.

    Sorts by weight, then by total degree descending, then by descending
    lexicographic comparison of the (index, exponent) pairs.
    """
    return (mono_weight(mono), -mono_degree(mono), tuple((-n, -e) for n, e in mono))


def mono_text(mono: Mono, letter: str) -> str:
    return "*".join(
        f"{letter}{n}^{e}" if e > 1 else f"{letter}{n}" for n, e in mono
    )


def graded_monomials(max_weight: int) -> list[Mono]:
    """All monomials in odd-indexed variables of weight <= max_weight."""
    if max_weight < 0:
        return []
    out: list[Mono] = []

    def rec(start: int, budget: int, acc: tuple[tuple[int, int], ...]) -> None:
        out.append(acc)
        n = start
        while n <= budget:
            for e in range(1, budget // n + 1):
                rec(n + 2, budget - n * e, acc + ((n, e),))
            n += 2

    rec(1, max_weight, EMPTY_MONO)
    out.sort(key=mono_sort_key)
    return out
