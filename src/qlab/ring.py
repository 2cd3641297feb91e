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
integer form lives in one private base class, _IntegerForm, which knows
nothing of what a key means.

Poly keys are monomials packed into one int each, and Tensor keys are
pairs of them; qlab.monomial has the layout.  Each variable has a
one-byte exponent field, so a monomial product is one int addition and
d/dx_n steps one field down.  An exponent is at most MAX_EXPONENT = 255
and an index at most MAX_INDEX = 4095: the constructors reject more with
ValueError, and a product that would pass the exponent bound raises
OverflowError (an ArithmeticError) after a guard-bit check of its two
operands, O(n1 + n2), so an exponent never carries into the next field.

The public face stays tuple monomials (Mono): constructors, check_mono,
coeff and from_mono take them, and terms, canonical_terms, text, JSON
and pickling give them back.  A key is decoded (_decode) only at that
boundary: terms is a read-only view that decodes a key, and turns its
numerator into a Fraction, when it is read, and keeps no copy.  The
ordered outputs (canonical_terms, Poly.text, Tensor.text and the JSON
form, through _canonical_texts) read each key through _canonical, one
bounded functools.lru_cache of its canonical form: the sort key and the
tuple monomial, formed once per key and family while the key stays
cached.  A record is an immutable tuple, so no caller can change the
cache through an output.

Code outside this module reads the integer form only through the private
methods of Poly (_lincomb, _linear_image, _substituted, _rescaled,
_filtered, _renamings, _div_linear, _canonical_texts) and Tensor
(_key_terms, _text_pieces), with one exception: fermion._norm2 reads a
Poly's _nums and _den and each key's exponent fields (_fields) to sum
the inner product <f, f> in ints.
The maps handed to _linear_image receive packed keys: the per-monomial
phi_m cache keys on them as they are, and the D^gamma map of the Hirota
evaluator and _substituted, the one substitution routine (the oracle's
power-sum image, the Taylor evaluator's f(x +- z)), read a key's
variables (_key_vars); none of them builds a tuple monomial.

Every value is immutable after construction and every operation is a
pure function, so values can be shared freely between threads or cached
without copying.  Every sum of terms is formed by accumulate, the
package's one sparse-accumulation kernel.  check_mono is the one test of
what a monomial is, check_family the one test of what a variable family
is, and LazyMap the package's one map filled on lookup.  Every
process-wide cache is a bounded functools.lru_cache declared with
_bounded_cache, which lists it in _CACHES, the package's one list of
caches; clear_caches empties each cache on it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, ItemsView, Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import lshift, or_

from .monomial import (
    EMPTY_MONO,
    FAMILY_LETTERS,
    MAX_EXPONENT,
    MAX_INDEX,
    ODD_FAMILIES,
    _STEP,
    Mono,
    _check_product,
    _decode,
    _field_maxima,
    _fields,
    _key_degree,
    _key_sort,
    _key_vars,
    _key_weight,
    _pack,
    check_family,
    check_mono,
    mono_text,
)

Scalar = int | Fraction

def _fr(value: Scalar) -> Fraction:
    """The one conversion of a caller's number: an int or a Fraction, else TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, not {type(value).__name__}")
    return value if isinstance(value, Fraction) else Fraction(value)


def _parse_rational(text: str) -> Fraction:
    """n, n/d or a decimal; Fraction would write out 1e999999999 in full."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the value classes: their slots are
    written only by object.__setattr__, during construction (and when a
    ParamSeq swaps in a longer table of the rows it derives)."""
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


# Every process-wide cache of the package, in import order.
_CACHES: list = []


def _bounded_cache(maxsize: int):
    """functools.lru_cache(maxsize) that also registers the cached
    function in _CACHES.  The decorator returns the lru_cache wrapper
    itself, so a call goes through no further layer."""
    def register(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _CACHES.append(cached)
        return cached
    return register


def clear_caches() -> None:
    """Empty every process-wide cache of the package.  Each is a bounded
    functools.lru_cache, so clearing only frees memory: a later call
    rebuilds what it needs and returns an equal result."""
    for cached in _CACHES:
        cached.cache_clear()


def _combine(parts: Iterable[tuple["_IntegerForm | _Outer", Scalar]]) -> tuple[dict, int]:
    """The sum of value * c over (value, c) parts, as numerators over the
    lcm of the values' denominators, not yet reduced.

    A value has its denominator in _den, and _add_to(out, s) adds its
    numerators times a nonzero int s into out.  A c that is not an int
    goes through _fr, and a part with c = 0 is skipped unread.  When a part
    brings a new denominator, the numerators summed so far are widened to
    the lcm in place, so the parts are consumed lazily.
    """
    out: dict = {}
    den = 1
    for value, c in parts:
        c = c if isinstance(c, int) else _fr(c)
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


def _signed_pieces(terms: Iterable[tuple[str, str]]) -> Iterator[str]:
    """The pieces of 'a*m1 - b*m2 + ...' from (coefficient text, monomial
    text) pairs in order, each term formatted with its separator when it
    is read; an empty monomial text prints the coefficient alone, and no
    terms print '0'."""
    first = True
    for c, body in terms:
        neg = c[0] == "-"
        mag = c[1:] if neg else c
        term = f"{mag}*{body}" if body else mag
        if first:
            yield "-" + term if neg else term
            first = False
        else:
            yield (" - " if neg else " + ") + term
    if first:
        yield "0"


@_bounded_cache(16384)
def _canonical(key: int, family: str) -> tuple[tuple, Mono]:
    """The canonical form of one packed monomial key of a family, as an
    immutable record (sort key, tuple monomial): the key's _key_sort and
    its _decode.  Every text and JSON output reads a key through this
    record, so each key is sorted and decoded once while it stays in the
    cache."""
    step = _STEP[family]
    return _key_sort(key, step), _decode(key, step)


class _Terms(Mapping):
    """Read-only view of a value's coefficients as Fractions on tuple
    monomials.  Each key and coefficient is decoded from the integer form
    when it is read; the view stores no copy."""

    __slots__ = ("_value",)

    def __init__(self, value: "_IntegerForm"):
        self._value = value

    def __getitem__(self, mono) -> Fraction:
        value = self._value
        try:
            n = value._nums.get(value._key(mono))
        except ValueError:
            n = None
        if n is None:
            raise KeyError(mono)
        return Fraction(n, value._den)

    def __iter__(self):
        return map(self._value._monomial, self._value._nums)

    def __len__(self) -> int:
        return len(self._value._nums)

    def items(self):
        return _TermItems(self)

    def __repr__(self) -> str:
        return f"terms({dict(self.items())!r})"


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        value = self._mapping._value
        den, monomial = value._den, value._monomial
        return ((monomial(key), Fraction(n, den)) for key, n in value._nums.items())


class _IntegerForm:
    """A value in the integer form of the module docstring: a dict from key
    to nonzero int numerator, and one shared denominator.  Nothing here
    depends on what a key means beyond _key and _monomial, which a
    subclass defines to map its public tuple form to a key and back.

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
        return cls, (dict(self.terms.items()), *(getattr(self, name) for name in cls.__slots__))

    @property
    def terms(self) -> Mapping[Hashable, Fraction]:
        """The coefficients, as a read-only map from monomial to Fraction."""
        return _Terms(self)

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
    The coefficients are integer numerators over one denominator on packed
    monomial keys (see the module docstring), and terms reads them as
    Fractions on tuple monomials.  No method mutates self, arithmetic
    always builds a new value.
    """

    __slots__ = ("family",)

    def __new__(cls, terms: Mapping[Mono, Scalar] | None = None, family: str = "p"):
        step = _STEP[check_family(family)]
        packed = {_pack(check_mono(m, family), step): c for m, c in (terms or {}).items()}
        return super().__new__(cls, packed, family)

    def _key(self, mono) -> int:
        return _pack(check_mono(mono, self.family), _STEP[self.family])

    def _monomial(self, key: int) -> Mono:
        return _decode(key, _STEP[self.family])

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

    def _linear_image(self, fn: Callable[[int], "Poly"], family: str) -> "Poly":
        """The image of self under the linear map that sends each monomial,
        given to fn as its packed key, to fn(key), a polynomial of the
        given family."""
        return Poly._lincomb(((fn(k), n) for k, n in self._nums.items()), family, self._den)

    def _substituted(self, images: Mapping[int, "Poly"], family: str) -> "Poly":
        """Self with each variable v_n replaced by images[n], a polynomial of
        the given family."""
        step, one = _STEP[self.family], Poly.one(family)
        return self._linear_image(lambda key: math.prod(
            (images[n] ** e for n, _, e in _key_vars(key, step)), start=one), family)

    def _scaled(self, factor: Callable[[int], Scalar]) -> tuple[dict, int]:
        """The numerators and denominator of self with each variable v_n
        replaced by factor(n) * v_n, not reduced; factor is called once per
        variable present.  Over the product of each factor's denominator
        to the highest power any monomial takes it, each term's scale is
        an integer."""
        step = _STEP[self.family]
        top = _field_maxima(self._nums)
        ratios = [_fr(factor(i * step + 1)) if e else Fraction(1) for i, e in enumerate(top)]
        nums = [r.numerator for r in ratios]
        dens = [r.denominator for r in ratios]
        den = math.prod(map(pow, dens, top))
        out = {}
        for key, n in self._nums.items():
            exps = _fields(key)
            out[key] = n * math.prod(map(pow, nums, exps)) * (den // math.prod(map(pow, dens, exps)))
        return out, self._den * den

    def _rescaled(self, factor: Callable[[int], Scalar], family: str) -> "Poly":
        """Self with each variable v_n replaced by factor(n) * w_n, a nonzero
        scalar times the variable of the same index in the given family,
        whose keys must be laid out as self's are."""
        if _STEP[family] != _STEP[self.family]:
            raise ValueError(f"{family!r} keys are laid out unlike {self.family!r} keys")
        return Poly._make(*self._scaled(factor), family)

    def _filtered(self, keep: Callable[[int], bool]) -> "Poly":
        """The terms whose packed key satisfies keep."""
        return Poly._make(
            {k: n for k, n in self._nums.items() if keep(k)}, self._den, self.family
        )

    def _renamings(self, perms: Iterable[Mapping[int, int]]) -> Iterator["Poly"]:
        """Self with each variable index n replaced by perm[n], for each
        perm in turn.  perm must be injective on the indices present, so
        monomials map one to one and no coefficients combine.  The keys
        are taken apart once: each perm gives one shift per slot, and each
        renamed key is the sum of its exponents shifted to their new slots."""
        step, den, family = _STEP[self.family], self._den, self.family
        rows = [(_fields(k), n) for k, n in self._nums.items()]
        top = _fields(reduce(or_, self._nums, 0))
        for perm in perms:
            shifts = [(perm[i * step + 1] - 1) // step << 3 if e else 0 for i, e in enumerate(top)]
            yield Poly._make({sum(map(lshift, exps, shifts)): n for exps, n in rows}, den, family)

    def _div_linear(self, p: int, q: int) -> "Poly":
        """The exact quotient of self by (x_p - x_q).

        Writing self = sum_d F_d x_p^d, the quotient's x_p^(d-1) slice is
        G_(d-1) = F_d + x_q G_d, taken from the top degree down; the last
        step F_0 + x_q G_0 is the remainder, and a nonzero one raises.  The
        divisor is monic, so the division runs on the numerators and keeps
        the denominator.  Each step raises the x_q exponents by one, so the
        bound is checked once, on self's x_q exponent plus its x_p degree.
        """
        step = _STEP[self.family]
        sp, sq = (p - 1) // step << 3, (q - 1) // step << 3
        slices: dict[int, list] = {}
        top_q = 0
        for key, c in self._nums.items():
            d = key >> sp & 0xFF
            slices.setdefault(d, []).append((key - (d << sp), c))
            top_q = max(top_q, key >> sq & 0xFF)
        top_p = max(slices, default=0)
        if top_q + top_p > MAX_EXPONENT:
            raise OverflowError(f"dividing by x{p} - x{q} passes exponent {MAX_EXPONENT}")
        uq = 1 << sq
        out: dict = {}
        g: dict = {}
        for d in range(top_p, -1, -1):
            g = accumulate({k + uq: c for k, c in g.items()}, slices.get(d, ()))
            if d:
                up = d - 1 << sp
                accumulate(out, ((k + up, c) for k, c in g.items()))
        if g:
            raise ArithmeticError(f"division by x{p} - x{q} left a remainder")
        return Poly._make(out, self._den, self.family)

    @classmethod
    def zero(cls, family: str = "p") -> "Poly":
        return cls._make({}, 1, check_family(family))

    @classmethod
    def one(cls, family: str = "p") -> "Poly":
        return cls._make({0: 1}, 1, check_family(family))

    @classmethod
    def const(cls, value: Scalar, family: str = "p") -> "Poly":
        return cls.from_mono(EMPTY_MONO, value, family)

    @classmethod
    def variable(cls, n: int, family: str = "p", exponent: int = 1) -> "Poly":
        return cls.from_mono(((n, exponent),), 1, family)

    @classmethod
    def from_mono(cls, mono: Mono, coef: Scalar = 1, family: str = "p") -> "Poly":
        key = _pack(check_mono(mono, check_family(family)), _STEP[family])
        c = _fr(coef)
        return cls._make({key: c.numerator} if c else {}, c.denominator, family)

    # ------------------------------------------------------------------
    def _is_const(self) -> bool:
        return not self._nums or (len(self._nums) == 1 and 0 in self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._nums
            return (len(self._nums) == 1 and self._nums.get(0) == other.numerator
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
        left, right = self._nums, other._nums
        _check_product(left, right, _STEP[self.family])
        right = right.items()
        out = accumulate({}, (
            (k1 + k2, n1 * n2) for k1, n1 in left.items() for k2, n2 in right
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
        if n > MAX_INDEX:
            return Poly.zero(self.family)
        shift = (n - 1) // _STEP[self.family] << 3
        unit = 1 << shift
        return Poly._make(
            {k - unit: c * e for k, c in self._nums.items() if (e := k >> shift & 0xFF)},
            self._den, self.family,
        )

    def weight(self) -> int:
        """Largest monomial weight present (0 for the zero polynomial)."""
        step = _STEP[self.family]
        return max((_key_weight(k, step) for k in self._nums), default=0)

    def degree(self) -> int:
        return max(map(_key_degree, self._nums), default=0)

    def weight_part(self, w: int) -> "Poly":
        """The homogeneous component of weight w."""
        step = _STEP[self.family]
        return self._filtered(lambda k: _key_weight(k, step) == w)

    def truncate(self, w: int) -> "Poly":
        """Drop every monomial of weight greater than w."""
        step = _STEP[self.family]
        return self._filtered(lambda k: _key_weight(k, step) <= w)

    def subs_zero(self, n: int) -> "Poly":
        """Set the variable of index n to zero."""
        if n < 1 or n > MAX_INDEX or (n - 1) % _STEP[self.family]:
            return self
        shift = (n - 1) // _STEP[self.family] << 3
        return self._filtered(lambda k: not k >> shift & 0xFF)

    def support_indices(self) -> set[int]:
        step = _STEP[self.family]
        return {i * step + 1 for i, e in enumerate(_fields(reduce(or_, self._nums, 0))) if e}

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def evaluate(self, values: Mapping[int, Scalar]) -> Fraction:
        """Evaluate at a full assignment of rational values to variables.

        The sum is formed in integers over one denominator: the product
        of each variable's value denominator to the highest power any
        monomial takes it."""

        def value(n: int) -> Scalar:
            if n not in values:
                raise ValueError(f"no value supplied for variable index {n}")
            return values[n]

        nums, den = self._scaled(value)
        return Fraction(sum(nums.values()), den)

    # ------------------------------------------------------------------
    def _canonical_rows(self) -> list[tuple[tuple, int]]:
        """(canonical record, numerator) pairs in the canonical monomial
        order, sorted on the records' cached sort keys."""
        family = self.family
        rows = [(_canonical(k, family), n) for k, n in self._nums.items()]
        rows.sort(key=lambda row: row[0][0])
        return rows

    def canonical_terms(self) -> list[tuple[Mono, Fraction]]:
        den = self._den
        return [(rec[1], Fraction(n, den)) for rec, n in self._canonical_rows()]

    def _canonical_texts(self) -> list[tuple[tuple, str]]:
        """(canonical record, coefficient text) pairs in the canonical
        monomial order, each coefficient as str() prints its Fraction,
        formatted from the integer form."""
        den = self._den
        return [(rec, _ratio_text(n, den)) for rec, n in self._canonical_rows()]

    def text(self, letter: str | None = None) -> str:
        """Canonical text form, e.g. '4/3*p1^3 - 4/3*p3'."""
        letter = letter or FAMILY_LETTERS[self.family]
        return "".join(_signed_pieces(
            (c, mono_text(rec[1], letter)) for rec, c in self._canonical_texts()))

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
    integer numerators over one denominator on pairs of packed keys, like
    those of a Poly, and terms reads them as Fractions on pairs of tuple
    monomials.  Used by the neutral-fermion module for two-sided
    operators.
    """

    __slots__ = ()

    def __new__(cls, terms: Mapping[tuple[Mono, Mono], Scalar] | None = None):
        return super().__new__(cls, {cls._key(pair): c for pair, c in (terms or {}).items()})

    @staticmethod
    def _key(pair) -> tuple[int, int]:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise ValueError(f"a tensor key is a pair of monomials, got {pair!r}")
        return _pack(check_mono(pair[0]), 2), _pack(check_mono(pair[1]), 2)

    @staticmethod
    def _monomial(keys: tuple[int, int]) -> tuple[Mono, Mono]:
        return _decode(keys[0], 2), _decode(keys[1], 2)

    def _key_terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """(left key, right key, coefficient) for every term."""
        den = self._den
        return ((kl, kr, Fraction(n, den)) for (kl, kr), n in self._nums.items())

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
        """Canonical text form, ordered by the left and then the right
        monomial."""
        return "".join(self._text_pieces())

    def _text_pieces(self) -> Iterator[str]:
        """The pieces of text() in order, each formatted when it is read, so
        a caller can write a large tensor out without holding its text.
        Each distinct key reads its record and is printed once; the terms
        sort on one int per term, the pair of the keys' ranks."""
        nums, den = self._nums, self._den
        recs = {k: _canonical(k, "p") for k in {k for pair in nums for k in pair}}
        rank = {k: i for i, k in enumerate(sorted(recs, key=lambda k: recs[k][0]))}
        width = len(rank)
        texts = {k: mono_text(rec[1], "p") or "1" for k, rec in recs.items()}
        return _signed_pieces(
            (_ratio_text(nums[pair], den), f"({texts[pair[0]]} (x) {texts[pair[1]]})")
            for pair in sorted(nums, key=lambda pair: rank[pair[0]] * width + rank[pair[1]])
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
