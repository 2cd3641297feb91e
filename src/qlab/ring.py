"""Sparse exact polynomial arithmetic over the rationals.

The central ring is the polynomial ring in countably many variables indexed
by odd positive integers (power sums p1, p3, p5, ...), graded by assigning
weight n to the variable with index n.  The same representation carries the
rescaled time variables x_n, the formal expansion variables y_n and the
Hirota symbols D_n, plus the finite alphabets used by the brute-force
oracle.  No floating point arithmetic occurs anywhere in this package.

Each value stores its rational coefficients as integer numerators over one
shared denominator: a dict from key to nonzero int, and an int den > 0
with gcd(den, every numerator) = 1, den = 1 for zero.  That form is
canonical, so equality is a plain comparison of the dict and den.
Arithmetic does only int work.  A product multiplies the numerators and
the two denominators; a sum or linear combination goes through _combine,
the one loop that brings terms to the lcm of their denominators; each
result is reduced once, by one gcd over all of its numerators.  The
public terms map still reads as Fractions: it is a read-only view that
decodes a coefficient when it is read and keeps no copy.  The integer
form lives in one private base class, _IntegerForm, which knows nothing
of what a key means; Poly keys are monomials and Tensor keys are pairs of
monomials.  Code outside this module reads the integer form only through
the private methods of Poly (_lincomb, _linear_image, _scaled_terms,
_filtered, _renamed, _div_linear, _canonical_texts).

Every value is immutable after construction and every operation is a
pure function, so values can be shared freely between threads or cached
without copying.  Every sum of terms is formed by accumulate, the
package's one sparse-accumulation kernel.  check_mono is the one test of
what a monomial is, check_family the one test of what a variable family
is, and LazyMap the package's one map filled on lookup.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Hashable, Iterable

Scalar = int | Fraction

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

def _fr(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the value classes: their slots are
    written once, by object.__setattr__ during construction."""
    raise AttributeError(f"{type(self).__name__} values are immutable")


def accumulate(out: dict, items: Iterable[tuple[Hashable, Scalar]]) -> dict:
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


class LazyMap(dict):
    """A dict that forms the value of a missing key as make(self, key) at
    its first lookup and keeps it.  make is handed the map, so a rule that
    reads other keys of it, such as a derivative formed from its parent,
    needs no reference of its own to the map and forms no cycle."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[["LazyMap", Hashable], object], *args):
        super().__init__(*args)
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(self, key)
        return value


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
        last = n
    return mono


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


def _combine(parts: Iterable[tuple["_IntegerForm | _Outer", Scalar]]) -> tuple[dict, int]:
    """The sum of value * c over (value, c) parts, as numerators over the
    lcm of the values' denominators, not yet reduced.

    A value has its denominator in _den, and _add_to(out, s) adds its
    numerators times a nonzero int s into out.  A part with c = 0 is
    skipped unread.  When a part brings a new denominator, the numerators
    summed so far are widened to the lcm in place, so the parts are
    consumed lazily.
    """
    out: dict = {}
    den = 1
    for value, c in parts:
        if not c:
            continue
        d = value._den * c.denominator
        if den % d:
            lcm = math.lcm(den, d)
            k = lcm // den
            for key, n in out.items():
                out[key] = n * k
            den = lcm
        out = value._add_to(out, den // d * c.numerator)
    return out, den


def _encode(terms: Mapping | None) -> tuple[dict, int]:
    """The integer form of a map to Scalars; zero coefficients are dropped.
    Over the lcm of the reduced denominators the numerators are already
    coprime to it, so no reduction is needed."""
    coefs = [(key, _fr(c)) for key, c in terms.items()] if terms else []
    den = math.lcm(*(c.denominator for _, c in coefs))
    nums = accumulate({}, ((key, c.numerator * (den // c.denominator)) for key, c in coefs))
    return nums, den if nums else 1


def _ratio_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, without forming the Fraction."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _signed_sum(terms: Iterable[tuple[str, str]]) -> str:
    """'a*m1 - b*m2 + ...' from (coefficient text, monomial text) pairs in
    order; an empty monomial text prints the coefficient alone."""
    pieces = []
    for c, body in terms:
        sign, mag = ("-", c[1:]) if c[0] == "-" else ("+", c)
        pieces.append((sign, f"{mag}*{body}" if body else mag))
    if not pieces:
        return "0"
    sign0, body0 = pieces[0]
    head = body0 if sign0 == "+" else "-" + body0
    return head + "".join(f" {s} {b}" for s, b in pieces[1:])


class _Terms(Mapping):
    """Read-only view of a value's coefficients as Fractions.  Each one is
    decoded from the integer form when it is read; the view stores no copy."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, key) -> bool:
        return key in self._nums

    def __repr__(self) -> str:
        return f"terms({dict(self.items())!r})"


class _IntegerForm:
    """A value in the integer form of the module docstring: a dict from key
    to nonzero int numerator, and one shared denominator.  Nothing here
    depends on what a key means.

    A subclass lists its own slots in __slots__; the constructors fill
    them, in that order, from their trailing arguments, and pickling passes
    them back to the subclass's constructor after the terms.
    """

    __slots__ = ("_nums", "_den")

    def __new__(cls, terms: Mapping | None = None, *slots):
        return cls._make(*_encode(terms), *slots)

    @classmethod
    def _make(cls, nums: dict, den: int = 1, *slots):
        """Wrap a dict of nonzero integer numerators over den > 0 that
        nothing else holds, reducing it to lowest terms in place: one gcd
        over den and every numerator."""
        if den != 1:
            if not nums:
                den = 1
            elif (g := math.gcd(den, *nums.values())) != 1:
                den //= g
                for key, n in nums.items():
                    nums[key] = n // g
        obj = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(obj, "_nums", nums)
        setattr_(obj, "_den", den)
        for name, value in zip(cls.__slots__, slots):
            setattr_(obj, name, value)
        return obj

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        cls = type(self)
        return cls, (dict(self.terms), *(getattr(self, name) for name in cls.__slots__))

    @property
    def terms(self) -> Mapping[Hashable, Fraction]:
        """The coefficients, as a read-only map from key to Fraction."""
        return _Terms(self._nums, self._den)

    def _add_to(self, out: dict, s: int) -> dict:
        """out plus the numerators times s, a nonzero int, for _combine;
        an empty out is replaced by a copy."""
        nums = self._nums
        if s != 1:
            return accumulate(out, ((key, n * s) for key, n in nums.items()))
        return accumulate(out, nums.items()) if out else nums.copy()

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __neg__(self):
        return self * -1


class Poly(_IntegerForm):
    """A sparse polynomial: nonzero rational coefficients on monomials.

    >>> f = 2 * Poly.variable(1) + Poly.variable(3) * Fraction(1, 3)
    >>> f.text()
    '2*p1 + 1/3*p3'

    The zero polynomial has no terms; zero coefficients are never stored.
    The coefficients are integer numerators over one denominator (see the
    module docstring), and terms reads them as Fractions.  No method
    mutates self, arithmetic always builds a new value.
    """

    __slots__ = ("family",)

    def __new__(cls, terms: Mapping[Mono, Scalar] | None = None, family: str = "p"):
        check_family(family)
        for mono in terms or ():
            check_mono(mono, family)
        return super().__new__(cls, terms, family)

    @classmethod
    def lincomb(cls, pairs: Iterable[tuple["Poly", Scalar]], family: str = "p") -> "Poly":
        """The sum of f * c over (f, c) pairs, built in one term map."""
        return cls._lincomb(pairs, check_family(family))

    @classmethod
    def _lincomb(cls, pairs: Iterable[tuple["Poly", Scalar]], family: str,
                 den: int = 1) -> "Poly":
        """lincomb divided by the positive integer den."""

        def parts():
            for f, c in pairs:
                if f.family != family:
                    raise ValueError(f"mixed variable families {family!r} and {f.family!r}")
                yield f, c

        nums, d = _combine(parts())
        return cls._make(nums, d * den, family)

    def _linear_image(self, fn: Callable[[Mono], "Poly"], family: str) -> "Poly":
        """The image of self under the linear map that sends each monomial
        m to fn(m), a polynomial of the given family."""
        return Poly._lincomb(((fn(m), n) for m, n in self._nums.items()), family, self._den)

    def _scaled_terms(self, scale: Callable[[Mono], Scalar], family: str) -> "Poly":
        """The polynomial of the given family whose coefficient on each
        monomial m is this one's times scale(m), a nonzero scalar."""
        factors = [(m, n, _fr(scale(m))) for m, n in self._nums.items()]
        lcm = math.lcm(*(r.denominator for _, _, r in factors))
        return Poly._make(
            {m: n * r.numerator * (lcm // r.denominator) for m, n, r in factors},
            self._den * lcm, family,
        )

    def _filtered(self, keep: Callable[[Mono], bool]) -> "Poly":
        """The terms whose monomial satisfies keep."""
        return Poly._make(
            {m: n for m, n in self._nums.items() if keep(m)}, self._den, self.family
        )

    def _renamed(self, perm: Mapping[int, int]) -> "Poly":
        """Self with each variable index n replaced by perm[n].  perm must
        be injective on the indices present, so monomials map one to one
        and no coefficients combine."""
        return Poly._make(
            {tuple(sorted([(perm[n], e) for n, e in m])): c for m, c in self._nums.items()},
            self._den, self.family,
        )

    def _div_linear(self, p: int, q: int) -> "Poly":
        """The exact quotient of self by (x_p - x_q).

        Writing self = sum_d F_d x_p^d, the quotient's x_p^(d-1) slice is
        G_(d-1) = F_d + x_q G_d, taken from the top degree down; the last
        step F_0 + x_q G_0 is the remainder, and a nonzero one raises.  The
        divisor is monic, so the division runs on the numerators and keeps
        the denominator.
        """
        slices: dict[int, list] = {}
        for mono, c in self._nums.items():
            d = next((e for n, e in mono if n == p), 0)
            rest = tuple(t for t in mono if t[0] != p) if d else mono
            slices.setdefault(d, []).append((rest, c))
        uq = ((q, 1),)
        out: dict = {}
        g: dict = {}
        for d in range(max(slices, default=0), -1, -1):
            g = accumulate({mono_mul(m, uq): c for m, c in g.items()}, slices.get(d, ()))
            if d:
                up = ((p, d - 1),) if d > 1 else ()
                accumulate(out, ((mono_mul(m, up), c) for m, c in g.items()))
        if g:
            raise ArithmeticError(f"division by x{p} - x{q} left a remainder")
        return Poly._make(out, self._den, self.family)

    @classmethod
    def zero(cls, family: str = "p") -> "Poly":
        return cls._make({}, 1, check_family(family))

    @classmethod
    def one(cls, family: str = "p") -> "Poly":
        return cls._make({EMPTY_MONO: 1}, 1, check_family(family))

    @classmethod
    def const(cls, value: Scalar, family: str = "p") -> "Poly":
        return cls.from_mono(EMPTY_MONO, value, family)

    @classmethod
    def variable(cls, n: int, family: str = "p", exponent: int = 1) -> "Poly":
        return cls._make({check_mono(((n, exponent),), check_family(family)): 1}, 1, family)

    @classmethod
    def from_mono(cls, mono: Mono, coef: Scalar = 1, family: str = "p") -> "Poly":
        check_mono(mono, check_family(family))
        c = _fr(coef)
        return cls._make({mono: c.numerator} if c else {}, c.denominator, family)

    # ------------------------------------------------------------------
    def _is_const(self) -> bool:
        return not self._nums or (len(self._nums) == 1 and EMPTY_MONO in self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._nums
            return (len(self._nums) == 1 and self._nums.get(EMPTY_MONO) == other.numerator
                    and self._den == other.denominator)
        equal = super().__eq__(other)
        if equal is not True:
            return equal
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
        return Poly._lincomb(((self, 1), (other, 1)), self.family)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.family)
        elif not isinstance(other, Poly):
            return NotImplemented
        return Poly._lincomb(((self, 1), (other, -1)), self.family)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._lincomb(((self, other),), self.family)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_family(other)
        right = other._nums.items()
        out = accumulate({}, (
            (mono_mul(m1, m2), n1 * n2) for m1, n1 in self._nums.items() for m2, n2 in right
        ))
        return Poly._make(out, self._den * other._den, self.family)

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
        for mono, c in self._nums.items():
            for i, (idx, e) in enumerate(mono):
                if idx == n:
                    lowered = ((idx, e - 1),) if e > 1 else ()
                    items.append((mono[:i] + lowered + mono[i + 1:], c * e))
                    break
        return Poly._make(accumulate({}, items), self._den, self.family)

    def weight(self) -> int:
        """Largest monomial weight present (0 for the zero polynomial)."""
        return max((mono_weight(m) for m in self._nums), default=0)

    def degree(self) -> int:
        return max((mono_degree(m) for m in self._nums), default=0)

    def weight_part(self, w: int) -> "Poly":
        """The homogeneous component of weight w."""
        return self._filtered(lambda m: mono_weight(m) == w)

    def truncate(self, w: int) -> "Poly":
        """Drop every monomial of weight greater than w."""
        return self._filtered(lambda m: mono_weight(m) <= w)

    def subs_zero(self, n: int) -> "Poly":
        """Set the variable of index n to zero."""
        return self._filtered(lambda m: all(idx != n for idx, _ in m))

    def support_indices(self) -> set[int]:
        return {idx for mono in self._nums for idx, _ in mono}

    def coeff(self, mono: Mono) -> Fraction:
        return Fraction(self._nums.get(mono, 0), self._den)

    def evaluate(self, values: Mapping[int, Scalar]) -> Fraction:
        """Evaluate at a full assignment of rational values to variables.

        The sum is formed in integers over one denominator: the product
        of each variable's value denominator to the highest power any
        monomial takes it."""
        top: dict[int, int] = {}
        for mono in self._nums:
            for n, e in mono:
                if n not in values:
                    raise ValueError(f"no value supplied for variable index {n}")
                top[n] = max(top.get(n, 0), e)
        vals = {n: _fr(values[n]) for n in top}
        den = math.prod(vals[n].denominator ** e for n, e in top.items())
        total = 0
        for mono, num in self._nums.items():
            d = 1
            for n, e in mono:
                num *= vals[n].numerator ** e
                d *= vals[n].denominator ** e
            total += num * (den // d)
        return Fraction(total, den * self._den)

    # ------------------------------------------------------------------
    def canonical_terms(self) -> list[tuple[Mono, Fraction]]:
        terms = self.terms
        return [(m, terms[m]) for m in sorted(self._nums, key=mono_sort_key)]

    def _canonical_texts(self) -> list[tuple[Mono, str]]:
        """canonical_terms with each coefficient as str() prints its
        Fraction, formatted from the integer form."""
        nums, den = self._nums, self._den
        return [(m, _ratio_text(nums[m], den)) for m in sorted(nums, key=mono_sort_key)]

    def text(self, letter: str | None = None) -> str:
        """Canonical text form, e.g. '4/3*p1^3 - 4/3*p3'."""
        letter = letter or FAMILY_LETTERS[self.family]
        return _signed_sum((c, mono_text(m, letter)) for m, c in self._canonical_texts())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly[{self.family}]({self.text()})"


class _Outer:
    """The tensor f (x) g as a part for _combine, expanded as it is read;
    the scale is folded into the left numerators once."""

    __slots__ = ("_den", "f", "g")

    def __init__(self, f: Poly, g: Poly):
        self._den, self.f, self.g = f._den * g._den, f, g

    def _add_to(self, out: dict, s: int) -> dict:
        left = self.f._nums.items()
        if s != 1:
            left = [(m, n * s) for m, n in left]
        right = self.g._nums.items()
        return accumulate(out, (((m1, m2), n1 * n2) for m1, n1 in left for m2, n2 in right))


class Tensor(_IntegerForm):
    """An element of the tensor square of the p-ring.

    Coefficients on pairs (left monomial, right monomial) are stored as
    integer numerators over one denominator, like those of a Poly, and
    terms reads them as Fractions.  Used by the neutral-fermion module for
    two-sided operators.
    """

    __slots__ = ()

    def __new__(cls, terms: Mapping[tuple[Mono, Mono], Scalar] | None = None):
        for key in terms or ():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"a tensor key is a pair of monomials, got {key!r}")
            for leg in key:
                check_mono(leg)
        return super().__new__(cls, terms)

    @classmethod
    def lincomb(cls, triples: Iterable[tuple[Poly, Poly, Scalar]]) -> "Tensor":
        """The sum of (f (x) g) * c over (f, g, c) triples of p-polynomials,
        built in one term map over the lcm of the triples' denominators."""

        def parts():
            for f, g, c in triples:
                for leg in (f, g):
                    if leg.family != "p":
                        raise ValueError(f"tensor legs must be p-polynomials, got {leg.family!r}")
                yield _Outer(f, g), c

        return cls._make(*_combine(parts()))

    @classmethod
    def zero(cls) -> "Tensor":
        return cls._make({})

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return Tensor._make(*_combine(((self, 1), (other, 1))))

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return Tensor._make(*_combine(((self, 1), (other, -1))))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Tensor._make(*_combine(((self, other),)))
        return NotImplemented

    __rmul__ = __mul__

    def text(self) -> str:
        den = self._den
        keys = sorted(self._nums, key=lambda k: (mono_sort_key(k[0]), mono_sort_key(k[1])))
        return _signed_sum(
            (_ratio_text(self._nums[(ml, mr)], den),
             f"({mono_text(ml, 'p') if ml else '1'} (x) {mono_text(mr, 'p') if mr else '1'})")
            for ml, mr in keys
        )

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
    return Tensor.lincomb(
        (fn(Poly.from_mono(ml)) if left else Poly.from_mono(ml),
         Poly.from_mono(mr) if left else fn(Poly.from_mono(mr)), c)
        for (ml, mr), c in t.terms.items()
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
