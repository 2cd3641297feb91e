"""Brute-force reference constructions in a finite variable alphabet.

Everything here is deliberately independent of the operator machinery:
Schur Q-functions are built directly from their symmetrization formula in
x_1..x_N, and generating-function coefficients are extracted by explicit
series multiplication.  These serve as oracles for the fermionic and
multiparameter constructions.

The symmetrization formula is

    Q(x) = 2^l * sum over injective l-tuples t of
           prod_k row_k(x_{t_k}) * prod_{j not in t_0..t_k}
           (x_{t_k} + x_j) / (x_{t_k} - x_j),

with row_k(x) = x^lambda_k for the classical function and the falling
product (x - a_0)...(x - a_{alpha_k - 1}) for the multiparameter one.  It
is evaluated by two routes, each a cross-check of the other:

- Symbolic (q_lambda_sym, qa_sym): over the full Vandermonde product,
  the numerator of every tuple's term is the same polynomial with its
  variables relabeled and a sign (see _sym_sum).  That polynomial is
  built once, its signed relabelings are summed, and the sum is divided
  exactly by the Vandermonde product, one linear factor at a time; a
  nonzero remainder would signal a bug and raises.  The result is a
  polynomial in x_1..x_N.  The test suite compares it with the power-sum
  image of the fermionic construction and uses it for identities between
  polynomials (antisymmetry, vanishing).
- Pointwise (q_sym_at, qa_sym_at): the sum is evaluated directly at a
  rational point, in integers.  The point and the shifts are multiplied
  by one common denominator d, which leaves every ratio
  (x_i + x_j)/(x_i - x_j) as it is and multiplies every row by
  d^(its degree).  Each tuple's term is then an integer numerator over its
  product of differences, which divides the Vandermonde product V of the
  scaled point, so the terms are summed as integers over V and the value
  is one fraction, 2^l * total / (V * d^deg).  This route walks the tuples
  themselves and does not use the relabeling identity of the symbolic
  one.  Where two coordinates coincide the formula divides by
  zero, so the value F(x) is read off g(e) = F(x + e*v), v = (1, ..., N):
  g is a polynomial in e of degree at most deg F, evaluated at deg F + 1
  positive integers e at which all coordinates are distinct and
  interpolated at e = 0.  `qlab oracle-compare` and acceptance criteria 2
  and 7 compare fermionic constructions with this route.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache

from .ring import Poly, Scalar, _fr
from .series import ParamSeq, schur_q_row

MAX_VARS = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sym_sum(shifts: list[tuple[Fraction, ...]], n_vars: int) -> Poly:
    """The symmetrization formula as a polynomial in x_1..x_N, where slot
    k's row is the product of (x - s) over s in shifts[k].

    Let l = len(shifts), V = prod_{p<q} (x_p - x_q) and
    G = prod_k row_k(x_k) * prod_{k<=l, k<j} (x_k + x_j) * prod_{l<i<j} (x_i - x_j),
    with slots numbered from 1.  For the tuple t, let w send 1..l to t
    and l+1..N, in order, to the other variables; then t's term is
    sgn(w) w(G) / V.  So G is built once, its signed relabelings are
    summed, and the sum is divided by V one linear factor at a time.
    """
    l = len(shifts)
    if not l:
        return Poly.one("v")
    x = {i: Poly.variable(i, "v") for i in range(1, max(l, n_vars) + 1)}
    g = math.prod(itertools.chain(
        (x[k] - s for k, slot in enumerate(shifts, 1) for s in slot),
        (x[k] + x[j] for k in range(1, l + 1) for j in range(k + 1, n_vars + 1)),
        (x[i] - x[j] for i, j in itertools.combinations(range(l + 1, n_vars + 1), 2)),
    ), start=Poly.one("v"))

    perms, signs = [], []
    for t in itertools.permutations(range(1, n_vars + 1), l):
        w = t + tuple(c for c in range(1, n_vars + 1) if c not in t)
        perms.append(dict(enumerate(w, 1)))
        signs.append((-1) ** sum(a > b for a, b in itertools.combinations(w, 2)))

    total = Poly.lincomb(zip(g._renamings(perms), signs), "v")
    for p, q in itertools.combinations(range(1, n_vars + 1), 2):
        total = total._div_linear(p, q)
    return total * 2 ** l


def _times(d: int, values) -> list[int]:
    """d * v for each Fraction v, for a common multiple d of their denominators."""
    return [v.numerator * (d // v.denominator) for v in values]


def _sym_at(shifts: list[list[int]], xs: list[int], scale: int) -> Fraction:
    """The symmetrization formula at an integer point with distinct
    coordinates, for integer shifts, divided by scale.

    Slot k's row is the product of (x - s) over s in shifts[k].  Tuples are
    walked slot by slot, so a prefix's product is shared by its
    extensions, and a prefix whose product vanishes is dropped.  A tuple's
    numerator is its rows times its (x_i + x_j) factors, and its
    denominator is its product of differences, which divides the
    Vandermonde product V; the terms are summed in integers over V.
    """
    n = len(xs)
    plus = [[xi + xj for xj in xs] for xi in xs]
    minus = [[xi - xj for xj in xs] for xi in xs]
    vandermonde = math.prod(minus[i][j] for i, j in itertools.combinations(range(n), 2))
    vals = [[math.prod(x - s for s in slot) for x in xs] for slot in shifts]

    def walk(k: int, free: list[int], num: int, den: int) -> int:
        if k == len(shifts):
            return num * (vandermonde // den)
        total = 0
        for i in free:
            term = num * vals[k][i]
            if not term:
                continue
            rest = [j for j in free if j != i]
            diffs = den
            for j in rest:
                term *= plus[i][j]
                diffs *= minus[i][j]
            total += walk(k + 1, rest, term, diffs)
        return total

    return Fraction(2 ** len(shifts) * walk(0, list(range(n)), 1, 1), vandermonde * scale)


def _evaluate(shifts: list[tuple[Fraction, ...]], xs: list[Scalar]) -> Fraction:
    """The symmetrization formula at any rational point.

    The point and the shifts are scaled by one common denominator d, so
    that _sym_at runs in integers; the value is that of the scaled
    formula over d^deg.  Where coordinates coincide, the value is
    interpolated along x + e*(1, ..., N) (see the module docstring).
    """
    xs = list(map(_fr, xs))
    d = math.lcm(*(v.denominator for v in itertools.chain(xs, *shifts)))
    points = _times(d, xs)
    rows = [_times(d, slot) for slot in shifts]
    degree = sum(len(slot) for slot in shifts)
    scale = d ** degree
    if len(set(points)) == len(points):
        return _sym_at(rows, points, scale)
    nodes: list[int] = []
    e = 0
    while len(nodes) <= degree:
        e += 1
        if len({x + e * d * v for v, x in enumerate(points, 1)}) == len(points):
            nodes.append(e)
    total = _ZERO
    for e in nodes:
        weight = math.prod((Fraction(f, f - e) for f in nodes if f != e), start=_ONE)
        total += weight * _sym_at(rows, [x + e * d * v for v, x in enumerate(points, 1)], 1)
    return total / scale


def _check_nvars(n_vars: int):
    if not 1 <= n_vars <= MAX_VARS:
        raise ValueError(f"number of variables must be between 1 and {MAX_VARS}")


def _strict_parts(lam: tuple[int, ...]) -> tuple[int, ...]:
    lam = tuple(map(operator.index, lam))
    if any(v <= 0 for v in lam):
        raise ValueError("parts must be positive")
    if any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("parts must be strictly decreasing")
    return lam


def _power_shifts(lam: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    """x^m is the falling product with m zero shifts."""
    return [(_ZERO,) * part for part in _strict_parts(lam)]


def _falling_shifts(alpha: tuple[int, ...], a: ParamSeq) -> list[tuple[Fraction, ...]]:
    """(a_0, ..., a_{alpha_k - 1}) for each entry alpha_k."""
    alpha = tuple(map(operator.index, alpha))
    if any(v < 0 for v in alpha):
        raise ValueError("entries must be nonnegative")
    return [tuple(a.get(t) for t in range(part)) for part in alpha]


def q_lambda_sym(lam: tuple[int, ...], n_vars: int) -> Poly:
    """The Schur Q-function of a strict partition as an explicit polynomial
    in x_1..x_N, built by symmetrizing x^lambda against the product of
    (x_i + x_j)/(x_i - x_j) factors."""
    _check_nvars(n_vars)
    return _sym_sum(_power_shifts(lam), n_vars)


def qa_sym(alpha: tuple[int, ...], a: ParamSeq, n_vars: int) -> Poly:
    """The multiparameter analogue: slot i carries the falling product
    (x - a_0)(x - a_1)...(x - a_{alpha_i - 1}) instead of a plain power.

    Entries of alpha may come in any order (the result is antisymmetric
    in them) and must be nonnegative.
    """
    _check_nvars(n_vars)
    return _sym_sum(_falling_shifts(alpha, a), n_vars)


def q_sym_at(lam: tuple[int, ...], xs: list[Scalar]) -> Fraction:
    """The value of q_lambda_sym(lam, len(xs)) at the point xs, computed
    from the symmetrization formula without building the polynomial."""
    _check_nvars(len(xs))
    return _evaluate(_power_shifts(lam), xs)


def qa_sym_at(alpha: tuple[int, ...], a: ParamSeq, xs: list[Scalar]) -> Fraction:
    """The value of qa_sym(alpha, a, len(xs)) at the point xs, computed
    from the symmetrization formula without building the polynomial."""
    _check_nvars(len(xs))
    return _evaluate(_falling_shifts(alpha, a), xs)


def genq_expand(l: int, cutoff: int) -> dict[tuple[int, ...], Poly]:
    """Coefficients of the l-point generating function
    prod_{i<j} (u_j - u_i)/(u_j + u_i) * prod_i Q(u_i)
    on monomials u_1^{-k_1} ... u_l^{-k_l} with |k_i| <= cutoff.

    Each cross factor expands as 1 + 2 sum_{r>=1} (-1)^r (u_i/u_j)^r, so
    the coefficients are finite signed sums of products of one-row
    functions.  Zero coefficients are omitted from the returned dict.
    """
    if not 1 <= l <= 3:
        raise ValueError("only 1 to 3 generating variables supported")
    if not 0 <= cutoff <= 10:
        raise ValueError("cutoff must be between 0 and 10")

    @cache
    def row_product(ks: tuple[int, ...]) -> Poly:
        return math.prod((schur_q_row(k) for k in ks), start=Poly.one())

    def q_prod(ks: tuple[int, ...]) -> Poly:
        if any(k < 0 for k in ks):
            return Poly.zero()
        return row_product(tuple(sorted(ks)))

    def wt(r: int) -> int:
        if r == 0:
            return 1
        return 2 if r % 2 == 0 else -2

    def coefficient(ls: tuple[int, ...]) -> Poly:
        if l == 1:
            return q_prod(ls)
        if l == 2:
            l1, l2 = ls
            return Poly.lincomb(
                (q_prod((l1 + r, l2 - r)), wt(r)) for r in range(max(0, -l1), l2 + 1)
            )
        l1, l2, l3 = ls
        return Poly.lincomb(
            (q_prod((l1 + r12 + r13, l2 + r23 - r12, l3 - r13 - r23)),
             wt(r12) * wt(r13) * wt(r23))
            for r13 in range(max(0, l3) + 1)
            for r23 in range(l3 - r13 + 1)
            for r12 in range(max(0, -l1 - r13), l2 + r23 + 1)
        )

    rng = range(-cutoff, cutoff + 1)
    out = {ls: coefficient(ls) for ls in itertools.product(rng, repeat=l)}
    return {ls: c for ls, c in out.items() if c}


def eval_powersums(f: Poly, xs: list[Scalar]) -> Fraction:
    """Evaluate a power-sum polynomial at the point p_n = sum_i xs[i]^n."""
    if f.family != "p":
        raise ValueError("expected a power-sum polynomial")
    vals = list(map(_fr, xs))
    d = math.lcm(*(x.denominator for x in vals))
    scaled = _times(d, vals)
    return f.evaluate({n: Fraction(sum(x ** n for x in scaled), d ** n)
                       for n in f.support_indices()})


def powersum_image(f: Poly, n_vars: int) -> Poly:
    """Substitute p_n = x_1^n + ... + x_N^n symbolically, producing the
    image of f in the finite variable alphabet (family "v")."""
    if f.family != "p":
        raise ValueError("expected a power-sum polynomial")
    _check_nvars(n_vars)
    psum = {
        n: Poly({((s, n),): 1 for s in range(1, n_vars + 1)}, family="v")
        for n in f.support_indices()
    }
    return f._substituted(psum, "v")
