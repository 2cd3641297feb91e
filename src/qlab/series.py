"""Exponential and logarithmic coefficient series, one-row Schur Q-functions,
finite symmetric polynomials, and basis transitions for shifted powers.

Generating series here are indexed sequences: an S-sequence lists the
coefficients S_0, S_1, ... of a series with S_0 = 1, an X-sequence lists
X_1, X_2, ... of a series with no constant term, and exp/log convert
between them by two independent routes.  The recursive route is
Newton's identity m S_m = sum_{i=1..m} i X_i S_{m-i}, read forward for S_m
(exp_series) and solved for X_m (log_series_by_inversion); the
determinant route expands a determinant for each coefficient
(exp_series_det, log_series).  Entries may be exact rationals or Poly
values; all arithmetic stays exact.

The shifted-power transitions expand ordinary powers u^n (and 1/u^n) in
the basis of products (u-a_1)(u-a_2)...(u-a_k) (and their reciprocals)
built from a parameter sequence a with a_0 = 0, and back.  The e-side
reads the products (u-a_1)...(u-a_k), multiplied out once in integers
when a reader of the ParamSeq first asks for them; every h_k comes from
one table (_complete_syms).
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Iterable, Sequence

from .ring import Poly, Scalar, _bounded_cache, _fr, _frozen, _parse_rational

_ONE = Fraction(1)
_ZERO = Fraction(0)


def _entries(values: Sequence, k: int, one=None) -> tuple[list, Poly | Fraction]:
    """The entries of a sequence and one, by default the one of their ring:
    Poly.one of the first Poly entry's family, else 1.  Each of them that
    is not a Poly goes through _fr."""
    if k < 0:
        raise ValueError("series order must be nonnegative")
    vals = [v if isinstance(v, Poly) else _fr(v) for v in values]
    if one is None:
        one = next((Poly.one(v.family) for v in vals if isinstance(v, Poly)), _ONE)
    return vals, one if isinstance(one, Poly) else _fr(one)


def _s_sequence(ss: Sequence, k: int) -> tuple[list, Poly | Fraction]:
    """The entries S_0..S_k of an S-sequence, missing ones read as zero, and
    the one of their ring; S_0 must be 1 and becomes that one."""
    s, one = _entries(ss, k)
    if not s or not (s[0] == 1):
        raise ValueError("an S-sequence must start with S_0 = 1")
    return ([one] + s[1:] + [one * 0] * k)[:k + 1], one


def _newton(xs: Sequence, ss: Sequence, m: int, top: int, zero):
    """sum_{i=1..top} (i/m) X_i S_{m-i}: the right side of Newton's identity
    m S_m = sum_{i=1..m} i X_i S_{m-i} over its first top terms, divided by
    m.  Missing and zero entries of xs are skipped."""
    total = zero
    for i, x in enumerate(xs[:top], start=1):
        if x and ss[m - i]:
            total = total + x * Fraction(i, m) * ss[m - i]
    return total


def exp_series(xs: Sequence, k: int, one=None) -> list:
    """Coefficients S_0..S_k of exp(sum_i X_i / u^i), with xs = [X_1, X_2, ...].

    Missing entries of xs are read as zero.  Computed by Newton's identity
    m S_m = sum_{i=1..m} i X_i S_{m-i} (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2), read forward from S_0 = one.
    """
    vals, one = _entries(xs, k, one)
    out = [one]
    for m in range(1, k + 1):
        out.append(_newton(vals, out, m, m, one * 0))
    return out


def _det(rows, one, zero):
    """Determinant by cofactor expansion along the rows in order, with each
    minor memoized by its remaining columns (its row is n - len(cols)).

    Zero entries are skipped, so the nearly triangular matrices used in
    this module stay cheap despite the generic algorithm.
    """
    n = len(rows)
    memo: dict = {(): one}

    def minor(cols: tuple) -> object:
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = rows[n - len(cols)]
        total = zero
        for pos, c in enumerate(cols):
            if not row[c]:
                continue
            sub = minor(cols[:pos] + cols[pos + 1:])
            if not sub:
                continue
            term = row[c] * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def exp_series_det(xs: Sequence, k: int, one=None) -> list:
    """Same contract as exp_series, via the determinant formula
    S_m = (1/m!) det of the lower Hessenberg matrix with rows
    (mX_m, (m-1)X_{m-1}, ..., X_1) and superdiagonal -1, -2, ...
    """
    vals, one = _entries(xs, k, one)
    zero = one * 0

    def entry(i: int, j: int):
        t = i - j + 1
        if t == 0:
            return Fraction(-j)
        return vals[t - 1] * t if 1 <= t <= len(vals) else zero

    return [one] + [
        _det([[entry(i, j) for j in range(m)] for i in range(m)], one, zero)
        * Fraction(1, math.factorial(m))
        for m in range(1, k + 1)
    ]


def log_series(ss: Sequence, k: int) -> list:
    """Coefficients X_1..X_k of log(sum_i S_i / u^i), with ss = [S_0, S_1, ...].

    Uses the determinant formula
    X_m = ((-1)^(m-1)/m) det of the matrix with first column (S_1, 2S_2, ..., mS_m),
    remaining columns the shifted S-sequence, and superdiagonal 1.
    """
    s, one = _s_sequence(ss, k)
    zero = one * 0

    def entry(i: int, j: int):
        t = i - j + 1
        if j == 0:
            return s[t] * t
        return s[t] if t >= 0 else zero

    return [
        _det([[entry(i, j) for j in range(m)] for i in range(m)], one, zero)
        * Fraction(1 if m % 2 else -1, m)
        for m in range(1, k + 1)
    ]


def log_series_by_inversion(ss: Sequence, k: int) -> list:
    """Same contract as log_series, via Newton's identity solved for X_m:
    X_m = S_m - sum_{i=1..m-1} (i/m) X_i S_{m-i}.
    """
    s, one = _s_sequence(ss, k)
    zero = one * 0
    xs: list = []
    for m in range(1, k + 1):
        xs.append(s[m] - _newton(xs, s, m, m - 1, zero))
    return xs


@_bounded_cache(256)
def schur_q_row(k: int) -> Poly:
    """The one-row Schur Q-function Q_k in odd power sums.

    Q(u) = sum_k Q_k/u^k = exp(sum_{n odd} 2 p_n/(n u^n)), so the
    coefficients satisfy the Newton-style recursion
    k Q_k = sum_{j odd <= k} 2 p_j Q_{k-j}.
    """
    if k < 0:
        return Poly.zero()
    if k == 0:
        return Poly.one()
    # A list: a generator would double the stack depth of the recursion.
    return Poly._lincomb(
        [(Poly.variable(j) * schur_q_row(k - j), 2) for j in range(1, k + 1, 2)], "p", k
    )


def schur_q_x_list(k: int) -> list:
    """The X-sequence [2p_1, 0, 2p_3/3, 0, ...] of length k whose exponential
    series reproduces Q_0..Q_k; used to cross-check schur_q_row."""
    out = []
    for n in range(1, k + 1):
        if n % 2 == 1:
            out.append(Poly.variable(n) * Fraction(2, n))
        else:
            out.append(Fraction(0))
    return out


def _shifted_products(values: Iterable[Scalar],
                      start: tuple[int, tuple[int, ...]] = (1, (1,))
                      ) -> list[tuple[int, tuple[int, ...]]]:
    """(den, nums) for k = 0..n: the coefficients of u^0..u^k in
    (u-a_1)...(u-a_k) as int numerators over one positive denominator, from
    one running product over values = (a_1..a_n), ints or Fractions.  Each
    a_i = p/q in lowest terms is multiplied in as the factor (q u - p)/q.
    Every such factor has coprime integer coefficients, so by Gauss's lemma
    so does each product, and each row is in lowest terms without a gcd.
    The product starts from the row start, by default the empty product 1,
    which is the first row returned."""
    rows = [start]
    for p, q in ((v.numerator, v.denominator) for v in values):
        den, nums = rows[-1]
        rows.append((den * q, tuple(q * hi - p * lo for lo, hi in zip(nums + (0,), (0,) + nums))))
    return rows


def elem_sym(k: int, vals: Iterable[Scalar]) -> Fraction:
    """Elementary symmetric polynomial e_k of a finite value list, read as
    (-1)^k times the coefficient of u^(n-k) in (u-v_1)...(u-v_n)."""
    vs = tuple(map(_fr, vals))
    if not 0 <= k <= len(vs):
        return _ZERO
    den, nums = _shifted_products(vs)[-1]
    return Fraction((-1) ** k * nums[len(vs) - k], den)


def _complete_syms(vals: Iterable[Scalar], k: int) -> list[Fraction]:
    """Complete homogeneous symmetric polynomials h_0..h_k of a finite value
    list, from one pass; k must be nonnegative."""
    h = [_ONE] + [_ZERO] * k
    for v in map(_fr, vals):
        for i in range(1, k + 1):
            h[i] += v * h[i - 1]
    return h


def complete_sym(k: int, vals: Iterable[Scalar]) -> Fraction:
    """Complete homogeneous symmetric polynomial h_k of a finite value list."""
    return _complete_syms(vals, k)[k] if k >= 0 else _ZERO


class ParamSeq:
    """A finite parameter sequence a_0, a_1, ..., a_M with a_0 = 0.

    Deliberately finite: any request past the stored length is an error
    rather than an implicit zero extension, so that zero parameters are
    never confused with missing ones.  Named infinite families are
    produced to an explicit length by the classmethods.

    The sequence carries its shifted basis: row k is (den, nums) of
    (u-a_1)...(u-a_k), formed by _shifted_products when a reader first asks
    for it through _rows, and kept.  _shifted holds the rows formed so far
    and is extended only by swapping in a longer tuple, so a reader never
    sees a partial table.
    """

    __slots__ = ("values", "_shifted")

    def __init__(self, values: Iterable[Scalar]):
        vals = tuple(map(_fr, values))
        if not vals:
            raise ValueError("parameter sequence must provide a_0")
        if vals[0] != 0:
            raise ValueError("parameter sequence must have a_0 = 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_shifted", ((1, (1,)),))

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return ParamSeq, (self.values,)

    def _rows(self, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The rows 0..k of the shifted basis, and perhaps more; raises like
        prefix when the sequence is too short.  Two threads that extend the
        table at once each return a complete table of their own; at worst
        the shorter one is kept and extended again later."""
        self.prefix(k)
        rows = self._shifted
        if k >= len(rows):
            rows += tuple(_shifted_products(self.values[len(rows):k + 1], rows[-1])[1:])
            object.__setattr__(self, "_shifted", rows)
        return rows

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def get(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("parameter index must be nonnegative")
        if i > self.max_index:
            raise ValueError(
                f"parameter sequence too short: a_{i} requested, "
                f"max index {self.max_index}"
            )
        return self.values[i]

    def prefix(self, m: int) -> tuple[Fraction, ...]:
        """The values (a_1, ..., a_m); empty for m = 0."""
        if m < 0:
            raise ValueError("prefix length must be nonnegative")
        if m > self.max_index:
            raise ValueError(
                f"parameter sequence too short: a_1..a_{m} requested, "
                f"max index {self.max_index}"
            )
        return self.values[1:m + 1]

    @classmethod
    def zeros(cls, max_index: int) -> "ParamSeq":
        return cls((0,) * (max_index + 1))

    @classmethod
    def factorial(cls, max_index: int) -> "ParamSeq":
        return cls(tuple(range(max_index + 1)))

    @classmethod
    def parse(cls, text: str) -> "ParamSeq":
        """The sequence of a comma-separated list of rationals, each read
        by ring._parse_rational; spaces around a comma are allowed."""
        try:
            values = [_parse_rational(t.strip()) for t in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed parameter sequence: {text!r}") from exc
        return cls(values)

    def __eq__(self, other):
        if not isinstance(other, ParamSeq):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ParamSeq({', '.join(str(v) for v in self.values)})"


INFINITE_DIRECTIONS = ("inv_power_to_shifted", "inv_shifted_to_power")


def shifted_transition(n: int, direction: str, a: ParamSeq,
                       cutoff: int | None = None) -> list[Fraction]:
    """Coefficient sequence expanding one power basis in another.

    The shifted basis consists of the products (u-a_1)(u-a_2)...(u-a_k)
    for k = 0, 1, 2, ... and, for the inverse identities, their
    reciprocals.  Entry k of the returned list is the coefficient of the
    k-th target basis element:

      power_to_shifted      u^n       = sum_k h_{n-k}(a_1..a_{k+1}) (u-a_1)..(u-a_k)
      shifted_to_power      (u-a_1)..(u-a_n) = sum_k (-1)^(n-k) e_{n-k}(a_1..a_n) u^k
      inv_shifted_to_power  1/((u-a_1)..(u-a_n)) = sum_k h_{k-n}(a_1..a_n) u^-k
      inv_power_to_shifted  1/u^n     = sum_k (-1)^(n-k) e_{k-n}(a_1..a_{k-1})
                                               / ((u-a_1)..(u-a_k))

    The first two identities are finite (length n+1, cutoff ignored); the
    last two are infinite expansions truncated at index cutoff, which must
    be at least n.  On a = (0, 1, 2):

    >>> a = ParamSeq.factorial(2)
    >>> shifted_transition(2, "power_to_shifted", a)  # u^2 = 1 + 3(u-1) + (u-1)(u-2)
    [Fraction(1, 1), Fraction(3, 1), Fraction(1, 1)]
    >>> shifted_transition(2, "shifted_to_power", a)  # (u-1)(u-2) = 2 - 3u + u^2
    [Fraction(2, 1), Fraction(-3, 1), Fraction(1, 1)]
    >>> shifted_transition(2, "inv_shifted_to_power", a, cutoff=3)
    [Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(3, 1)]
    >>> shifted_transition(2, "inv_power_to_shifted", a, cutoff=3)
    [Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(-3, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if direction == "shifted_to_power":
        den, nums = a._rows(n)[n]
        return [Fraction(c, den) for c in nums]
    if direction == "power_to_shifted":
        return [complete_sym(n - k, a.prefix(k + 1)) for k in range(n)] + [_ONE]
    if direction not in INFINITE_DIRECTIONS:
        raise ValueError(f"unknown transition direction {direction!r}")
    if cutoff is None or cutoff < n:
        raise ValueError("cutoff must be provided and at least n for the infinite expansions")
    if direction == "inv_shifted_to_power":
        return [_ZERO] * n + _complete_syms(a.prefix(n), cutoff - n)
    # (-1)^(k-n) e_(k-n)(a_1..a_(k-1)) is the u^(n-1) coefficient of row k - 1.
    rows = a._rows(max(cutoff - 1, 0))
    if n == 0:
        return [_ONE] + [_ZERO] * cutoff
    return [_ZERO] * n + [Fraction(nums[n - 1], den) for den, nums in rows[n - 1:cutoff]]
