"""Sparse exact polynomial arithmetic over the rationals.

The central ring is the polynomial ring in countably many variables indexed
by odd positive integers (power sums p1, p3, p5, ...), graded by assigning
weight n to the variable with index n.  The same representation carries the
rescaled time variables x_n, the formal expansion variables y_n and the
Hirota symbols D_n, plus the finite alphabets used by the brute-force
oracle.  Coefficients are fractions.Fraction throughout; no floating point
arithmetic occurs anywhere in this package.

Every value is immutable after construction: its term map is a read-only
view, and every operation is a pure function, so values can be shared
freely between threads or cached without copying.  Every sum of terms is
formed by accumulate, the package's one sparse-accumulation kernel.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

Scalar = int | Fraction

# A monomial is a tuple of (index, exponent) pairs, sorted by index,
# with every exponent >= 1.  The empty tuple is the constant monomial.
Mono = tuple[tuple[int, int], ...]

EMPTY_MONO: Mono = ()

# Variable letter used when printing each family.
FAMILY_LETTERS = {"p": "p", "x": "x", "y": "y", "D": "D", "v": "x"}

# Families restricted to odd variable indices.  The "v" family is the
# oracle's finite alphabet x_1..x_N and allows any positive index.
ODD_FAMILIES = frozenset({"p", "x", "y", "D"})

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fr(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the value classes: their slots are
    written once, by object.__setattr__ during construction."""
    raise AttributeError(f"{type(self).__name__} values are immutable")


def accumulate(out: dict, items: Iterable[tuple[Hashable, Fraction]]) -> dict:
    """Add every (key, coefficient) pair into out and return out.

    A key whose coefficients sum to zero is dropped, so out never stores a
    zero.  No other code in the package adds into or deletes from a term
    map; the rest only filters or rescales an existing one.
    """
    get = out.get
    for key, c in items:
        s = get(key)
        if s is not None:
            c += s
        if c:
            out[key] = c
        elif s is not None:
            del out[key]
    return out


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


class Poly:
    """A sparse polynomial: a map from monomials to nonzero Fractions.

    >>> f = 2 * Poly.variable(1) + Poly.variable(3) * Fraction(1, 3)
    >>> f.text()
    '2*p1 + 1/3*p3'

    The zero polynomial is the empty map; zero coefficients are never
    stored.  The term map is a read-only view: no method mutates self,
    arithmetic always builds a new value.
    """

    __slots__ = ("terms", "family")

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None, family: str = "p"):
        items = ((m, _fr(c)) for m, c in terms.items()) if terms else ()
        object.__setattr__(self, "terms", MappingProxyType(accumulate({}, items)))
        object.__setattr__(self, "family", family)

    @classmethod
    def _make(cls, terms: dict[Mono, Fraction], family: str) -> "Poly":
        """Wrap a dict of nonzero coefficients that nothing else holds."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "terms", MappingProxyType(terms))
        object.__setattr__(obj, "family", family)
        return obj

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return Poly, (dict(self.terms), self.family)

    @classmethod
    def lincomb(cls, pairs: Iterable[tuple["Poly", Scalar]], family: str = "p") -> "Poly":
        """The sum of f * c over (f, c) pairs, built in one term map."""
        out: dict[Mono, Fraction] = {}
        for f, c in pairs:
            if f.family != family:
                raise ValueError(f"mixed variable families {family!r} and {f.family!r}")
            c = _fr(c)
            if c == 1:
                accumulate(out, f.terms.items())
            elif c:
                accumulate(out, ((m, v * c) for m, v in f.terms.items()))
        return cls._make(out, family)

    @classmethod
    def zero(cls, family: str = "p") -> "Poly":
        return cls._make({}, family)

    @classmethod
    def one(cls, family: str = "p") -> "Poly":
        return cls._make({EMPTY_MONO: _ONE}, family)

    @classmethod
    def const(cls, value: Scalar, family: str = "p") -> "Poly":
        v = _fr(value)
        return cls._make({EMPTY_MONO: v} if v else {}, family)

    @classmethod
    def variable(cls, n: int, family: str = "p", exponent: int = 1) -> "Poly":
        if n < 1:
            raise ValueError(f"variable index must be positive, got {n}")
        if family in ODD_FAMILIES and n % 2 == 0:
            raise ValueError(f"family {family!r} only has odd variable indices, got {n}")
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        return cls._make({((n, exponent),): _ONE}, family)

    @classmethod
    def from_mono(cls, mono: Mono, coef: Scalar = 1, family: str = "p") -> "Poly":
        c = _fr(coef)
        return cls._make({mono: c} if c else {}, family)

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            o = _fr(other)
            if not o:
                return not self.terms
            return self.terms == {EMPTY_MONO: o}
        if not isinstance(other, Poly):
            return NotImplemented
        if self.terms != other.terms:
            return False
        return self.family == other.family or self._is_const()

    def _check_family(self, other: "Poly") -> None:
        if self.family != other.family:
            raise ValueError(
                f"mixed variable families {self.family!r} and {other.family!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.family)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_family(other)
        return Poly._make(accumulate(self.terms.copy(), other.terms.items()), self.family)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make({m: -c for m, c in self.terms.items()}, self.family)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.family)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            if not c:
                return Poly.zero(self.family)
            return Poly._make({m: v * c for m, v in self.terms.items()}, self.family)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_family(other)
        right = other.terms.items()
        out = accumulate({}, (
            (mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in right
        ))
        return Poly._make(out, self.family)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            return self * (1 / c)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.family)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    def diff(self, n: int) -> "Poly":
        """Partial derivative with respect to the variable of index n."""
        if n < 1 or (self.family in ODD_FAMILIES and n % 2 == 0):
            raise ValueError(f"cannot differentiate family {self.family!r} by index {n}")
        items = []
        for mono, c in self.terms.items():
            for i, (idx, e) in enumerate(mono):
                if idx == n:
                    lowered = ((idx, e - 1),) if e > 1 else ()
                    items.append((mono[:i] + lowered + mono[i + 1:], c * e))
                    break
        return Poly._make(accumulate({}, items), self.family)

    def weight(self) -> int:
        """Largest monomial weight present (0 for the zero polynomial)."""
        return max((mono_weight(m) for m in self.terms), default=0)

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def weight_part(self, w: int) -> "Poly":
        """The homogeneous component of weight w."""
        return Poly._make(
            {m: c for m, c in self.terms.items() if mono_weight(m) == w}, self.family
        )

    def truncate(self, w: int) -> "Poly":
        """Drop every monomial of weight greater than w."""
        return Poly._make(
            {m: c for m, c in self.terms.items() if mono_weight(m) <= w}, self.family
        )

    def subs_zero(self, n: int) -> "Poly":
        """Set the variable of index n to zero."""
        return Poly._make(
            {m: c for m, c in self.terms.items() if all(idx != n for idx, _ in m)},
            self.family,
        )

    def support_indices(self) -> set[int]:
        return {idx for mono in self.terms for idx, _ in mono}

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, _ZERO)

    def evaluate(self, values: Mapping[int, Scalar]) -> Fraction:
        """Evaluate at a full assignment of rational values to variables."""
        total = _ZERO
        for mono, c in self.terms.items():
            v = c
            for n, e in mono:
                if n not in values:
                    raise ValueError(f"no value supplied for variable index {n}")
                v *= _fr(values[n]) ** e
            total += v
        return total

    # ------------------------------------------------------------------
    def canonical_terms(self) -> list[tuple[Mono, Fraction]]:
        return [(m, self.terms[m]) for m in sorted(self.terms, key=mono_sort_key)]

    def text(self, letter: str | None = None) -> str:
        """Canonical text form, e.g. '4/3*p1^3 - 4/3*p3'."""
        if not self.terms:
            return "0"
        letter = letter or FAMILY_LETTERS[self.family]
        pieces: list[tuple[str, str]] = []
        for mono, c in self.canonical_terms():
            body = str(abs(c)) if not mono else f"{abs(c)}*{mono_text(mono, letter)}"
            pieces.append(("-" if c < 0 else "+", body))
        sign0, body0 = pieces[0]
        head = body0 if sign0 == "+" else "-" + body0
        return head + "".join(f" {s} {b}" for s, b in pieces[1:])

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly[{self.family}]({self.text()})"


class Tensor:
    """An element of the tensor square of the p-ring.

    Terms map pairs (left monomial, right monomial) to Fractions, through
    a read-only view.  Used by the neutral-fermion module for two-sided
    operators.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Mono, Mono], Scalar] | None = None):
        items = ((k, _fr(c)) for k, c in terms.items()) if terms else ()
        object.__setattr__(self, "terms", MappingProxyType(accumulate({}, items)))

    @classmethod
    def _make(cls, terms: dict[tuple[Mono, Mono], Fraction]) -> "Tensor":
        """Wrap a dict of nonzero coefficients that nothing else holds."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "terms", MappingProxyType(terms))
        return obj

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return Tensor, (dict(self.terms),)

    @classmethod
    def lincomb(cls, triples: Iterable[tuple[Poly, Poly, Scalar]]) -> "Tensor":
        """The sum of (f (x) g) * c over (f, g, c) triples, built in one
        term map.  The scalar is folded into each left coefficient once."""

        def items():
            for f, g, c in triples:
                c = _fr(c)
                if not c:
                    continue
                right = g.terms.items()
                for m1, c1 in f.terms.items():
                    c1 *= c
                    for m2, c2 in right:
                        yield (m1, m2), c1 * c2

        return cls._make(accumulate({}, items()))

    @classmethod
    def zero(cls) -> "Tensor":
        return cls._make({})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return Tensor._make(accumulate(self.terms.copy(), other.terms.items()))

    def __neg__(self):
        return Tensor._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            if not c:
                return Tensor.zero()
            return Tensor._make({k: v * c for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def text(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (mono_sort_key(k[0]), mono_sort_key(k[1])))
        parts = []
        for ml, mr in keys:
            c = self.terms[(ml, mr)]
            lt = mono_text(ml, "p") if ml else "1"
            rt = mono_text(mr, "p") if mr else "1"
            body = f"{abs(c)}*({lt} (x) {rt})"
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        head = body0 if sign0 == "+" else "-" + body0
        return head + "".join(f" {s} {b}" for s, b in parts[1:])

    def __repr__(self) -> str:
        return f"Tensor({self.text()})"


def tensor_of(f: Poly, g: Poly) -> Tensor:
    """The decomposable tensor f (x) g."""
    return Tensor.lincomb(((f, g, 1),))


def tensor_map(t: Tensor, side: str, fn: Callable[[Poly], Poly]) -> Tensor:
    """Apply a linear map to every monomial on one leg of a tensor.

    fn receives each leg monomial as a one-term Poly and must return a Poly;
    the result is re-expanded by bilinearity.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    return Tensor._make(accumulate({}, (
        ((m2, mr) if left else (ml, m2), c * c2)
        for (ml, mr), c in t.terms.items()
        for m2, c2 in fn(Poly.from_mono(ml if left else mr)).terms.items()
    )))


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


def strict_partitions(max_sum: int) -> list[tuple[int, ...]]:
    """Strictly decreasing tuples of positive integers with sum <= max_sum.

    Includes the empty tuple.  Ordered by (sum, then generation order).
    """
    out: list[tuple[int, ...]] = [()]

    def rec(first_max: int, budget: int, acc: tuple[int, ...]) -> None:
        for part in range(min(first_max, budget), 0, -1):
            item = acc + (part,)
            out.append(item)
            rec(part - 1, budget - part, item)

    rec(max_sum, max_sum, ())
    out.sort(key=lambda t: (sum(t), t))
    return out
