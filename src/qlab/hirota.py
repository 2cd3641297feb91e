"""Hirota bilinear calculus and the generated hierarchy of equations.

Tau functions live in rescaled time variables x_n = 2 p_n / n (odd n).
A Hirota symbol polynomial P(D_1, D_3, ...) acts on a pair (f, g) by

    P(D) f.g = P(d/dz) f(x + z) g(x - z) at z = 0,

which for a monomial D^gamma expands into the signed binomial sum over
derivative splittings.  Two independent evaluators are provided: the
binomial expansion (primary) and a literal Taylor product that never
forms a derivative or a binomial coefficient: one substitution
x_n -> x_n + z_n in f and one x_n -> x_n - z_n in g (Poly._substituted),
each split into its parts F_i and G_j of z-degree up to deg P
(Poly._filtered), the sum of the products F_i G_j over i + j = d for
the z-degrees d of P's monomials only, and gamma! [z^gamma] read off
its terms.  On a pair (f, f), the binomial expansion uses D^gamma f.g =
(-1)^|gamma| D^gamma g.f: it returns zero for odd |gamma| and otherwise
sums half the splittings, doubling the terms whose mirror it skips.

The hierarchy generator expands

    sum_{m>=1} S_m(ytilde) S_m(Dtilde) exp(sum_{n odd} y_n D_n) tau.tau = 0,

with ytilde_n = -2 y_n and Dtilde_n = 2 D_n / n, collecting the
coefficient of every monomial in the formal variables y; each
coefficient is a Hirota polynomial that must annihilate tau.tau.  The
S_m are the one-row Q_m of the series module, rescaled: S_m(Dtilde) is
Q_m with p_n -> D_n and S_m(ytilde) is Q_m with p_n -> -n y_n.  The
equations are built and cached one y-weight at a time, so raising the
weight bound builds only the new weights.

Odd total degree monomials in D act as zero on any pair (f, f), so the
canonical form of an equation is its even-degree part.  Indices are odd,
so a monomial's degree has the parity of its weight, and the equation of
y-weight w is homogeneous of weight w in D (the generator checks each S_m):
its canonical form is the raw equation at even w and zero at odd w, so
only raw equations are built.  Both forms have the same keys: at odd w
the raw equation of each y-monomial nu has the degree-1 term c_nu (2/w)
D_w from mu = 1, where c_nu != 0 is the y^nu coefficient of S_w(ytilde),
and all its other terms have degree at least 2, so it is nonzero.
"""

from __future__ import annotations

import itertools
import math
import operator
import types
from fractions import Fraction
from functools import cache

from .monomial import (
    MAX_INDEX,
    Mono,
    _fields,
    _key_vars,
    graded_monomials,
    mono_mul,
    mono_text,
    mono_weight,
)
from .ring import LazyMap, Poly, _bounded_cache, accumulate
from .series import schur_q_row


def p_to_x(f: Poly) -> Poly:
    """Rewrite a power-sum polynomial in the rescaled times x_n = 2 p_n / n,
    substituting p_n = n x_n / 2."""
    return f._check_family("p")._rescaled(lambda n: Fraction(n, 2), "x")


def x_to_p(f: Poly) -> Poly:
    """Inverse of p_to_x: substitute x_n = 2 p_n / n."""
    return f._check_family("x")._rescaled(lambda n: Fraction(2, n), "p")


def _derivative(derivatives: LazyMap, alpha: int) -> Poly:
    """d^alpha f, formed from its parent in the map of derivatives of f;
    alpha is a packed key."""
    n, unit, _ = _key_vars(alpha)[-1]
    return derivatives[alpha - unit].diff(n)


def _hirota_values(f: Poly, g: Poly) -> LazyMap:
    """The map gamma -> D^gamma f.g, each value formed at its first lookup.

    D^gamma f.g is the signed binomial sum over derivative splittings
    alpha + beta = gamma of (-1)^|beta| binom(gamma, alpha) d^alpha f d^beta g.
    When g is f, D^gamma f.f = (-1)^|gamma| D^gamma f.f: it is zero for odd
    |gamma|, and for even |gamma| the splittings (alpha, beta) and
    (beta, alpha) give equal terms, so only alpha <= beta (as packed keys)
    is summed, with the terms alpha < beta doubled.  The map, and the maps
    of derivatives it reads, are keyed by packed monomial keys (D and x
    keys are laid out alike), so no key is decoded.
    """
    df = LazyMap(_derivative, {0: f})
    dg = df if g is f else LazyMap(_derivative, {0: g})

    def value(_map: LazyMap, gamma: int) -> Poly:
        variables = _key_vars(gamma)
        units = [unit for _, unit, _ in variables]
        exps = [e for _, _, e in variables]
        order = sum(exps)
        if g is f and order % 2:
            return Poly.zero("x")
        items = []
        for alphas in itertools.product(*(range(e + 1) for e in exps)):
            alpha = sum(map(operator.mul, units, alphas))
            beta = gamma - alpha
            if g is f and alpha > beta:
                continue
            lf = df[alpha]
            rg = dg[beta]
            if lf and rg:
                c = (-1) ** (order - sum(alphas)) * math.prod(map(math.comb, exps, alphas))
                items.append((lf * rg, 2 * c if g is f and alpha < beta else c))
        return Poly.lincomb(items, "x")

    return LazyMap(value)


def hirota_apply(p: Poly, f: Poly, g: Poly) -> Poly:
    """Evaluate P(D) f.g by the signed binomial derivative expansion."""
    p._check_family("D"), f._check_family("x"), g._check_family("x")
    return p._linear_image(_hirota_values(f, g).__getitem__, "x")


def _z_degree(key: int) -> int:
    """The z-degree of a key of the doubled alphabet: the sum of its
    exponents at even indices, which sit in the odd slots."""
    return sum(_fields(key)[1::2])


def _doubled(f: Poly, sgn: int, top: int) -> Poly:
    """f(x + sgn*z) in the "v" alphabet, where x_n is v_n and z_n is v_(n+1),
    without its terms of z-degree above top."""
    return f._substituted({n: Poly.variable(n, "v") + Poly.variable(n + 1, "v") * sgn
                           for n in f.support_indices()}, "v")._filtered(
        lambda key: _z_degree(key) <= top)


def _z_parts(h: Poly, top: int) -> list[Poly]:
    """The parts of h of z-degree 0, 1, ..., top; each key's degree is
    computed once."""
    degree = cache(_z_degree)
    return [h._filtered(lambda key: degree(key) == d) for d in range(top + 1)]


def hirota_apply_taylor(p: Poly, f: Poly, g: Poly) -> Poly:
    """Evaluate P(D) f.g literally: form f(x+z) g(x-z) in doubled variables
    at the z-degrees of P's monomials only and read off gamma! times the
    z^gamma coefficient for each monomial of P.

    Independent of hirota_apply: no derivatives, no binomial
    coefficients.  Intended for small inputs.  z_n takes the index n + 1
    of the doubled alphabet, so an input that uses the largest index,
    MAX_INDEX = 4095, raises ValueError; hirota_apply takes every index.
    """
    p._check_family("D"), f._check_family("x"), g._check_family("x")
    if MAX_INDEX in p.support_indices() | f.support_indices() | g.support_indices():
        raise ValueError(f"the Taylor evaluator takes indices below MAX_INDEX = {MAX_INDEX}")
    top = p.degree()
    scale = {
        gamma: cg * math.prod(math.factorial(e) for _, e in gamma)
        for gamma, cg in p.terms.items()
    }
    fz, gz = _z_parts(_doubled(f, 1, top), top), _z_parts(_doubled(g, -1, top), top)
    product = Poly.lincomb((
        (fz[i] * gz[d - i], 1) for d in {sum(e for _, e in gamma) for gamma in scale}
        for i in range(d + 1)
    ), "v")
    out = accumulate({}, (
        (tuple(v for v in mono if v[0] % 2), c * scale[gamma])
        for mono, c in product.terms.items()
        if (gamma := tuple((n - 1, e) for n, e in mono if n % 2 == 0)) in scale
    ))
    return Poly(out, "x")


@_bounded_cache(128)
def _weight_slice(w: int) -> dict[Mono, Poly]:
    """Every nonzero raw equation of y-weight w, by y-monomial.  Each
    D^mu / mu!, the y^mu coefficient of exp(sum_n y_n D_n), pairs with the
    S_m of weight m = w - |mu|; of S_m(ytilde) only coefficients are read.
    Each S_m is checked homogeneous of weight m, so every product, and with
    it every equation, is homogeneous of weight w."""
    rows: dict[int, tuple[Poly, list[tuple[Mono, Fraction]]]] = {}
    for m in range(1, w + 1):
        q = schur_q_row(m)
        if q.weight_part(m) != q:
            raise ArithmeticError(f"inhomogeneous one-row Q_{m}")
        rows[m] = q._rescaled(lambda _: 1, "D"), list(q._rescaled(lambda n: -n, "y").terms.items())
    pairs: dict[Mono, list[tuple[Poly, Fraction]]] = {}
    for mu in graded_monomials(w - 1):
        sdm, sym = rows[w - mono_weight(mu)]
        d = Fraction(1, math.prod(math.factorial(e) for _, e in mu))
        prod = sdm * Poly.from_mono(mu, d, "D")
        for ymono, c in sym:
            pairs.setdefault(mono_mul(ymono, mu), []).append((prod, c))
    return {key: val for key, items in pairs.items() if (val := Poly.lincomb(items, "D"))}


@_bounded_cache(128)
def _weight_monomials(w: int) -> tuple[Mono, ...]:
    """The y-monomials of weight exactly w, in canonical order."""
    return tuple(m for m in graded_monomials(w) if mono_weight(m) == w)


def bkp_generate(max_weight: int, canonical: bool = True) -> dict[Mono, Poly]:
    """The hierarchy equations up to a weight bound, as a map from
    y-monomial to Hirota polynomial coefficient.  Its keys, those of the raw
    hierarchy, are every odd-weight y-monomial and the even-weight ones with
    a nonzero equation: bkp_generate(6) has 10 keys and lacks y1^2, y1^4 and
    y1*y3, which equation_listing(6) prints as 0.  With canonical=True a
    coefficient is its even-degree part, the part that can act on f.f, zero
    (trivially satisfied) at odd y-weight; canonical=False gives the raw ones."""
    if max_weight < 2:
        raise ValueError("max_weight must be at least 2")
    eqs, zero = {}, Poly.zero("D")
    for w in range(1, max_weight + 1):
        eqs.update(dict.fromkeys(_weight_monomials(w), zero) if canonical and w % 2
                   else _weight_slice(w))
    return eqs


def _equations(max_weight: int):
    """(y-monomial, canonical equation, zero if trivial) up to max_weight, in order."""
    eqs, zero = bkp_generate(max_weight), Poly.zero("D")
    return [(m, eqs.get(m, zero)) for w in range(1, max_weight + 1) for m in _weight_monomials(w)]


def equation_listing(max_weight: int) -> list[str]:
    """One line per formal monomial of weight <= max_weight, in canonical
    order: '<y monomial> : <canonical Hirota polynomial>'."""
    return [f"{mono_text(mono, 'y')} : {p.text()}" for mono, p in _equations(max_weight)]


class HierarchyReport(types.SimpleNamespace):
    """Outcome of checking one tau function against the hierarchy.

    A SimpleNamespace of the fields max_weight, checked, trivial and
    failures: equal fields make equal reports, the repr lists the fields
    as keywords, and reports compare by value, so they are unhashable."""

    def __init__(self, max_weight: int, checked: int,
                 trivial: list[str] | None = None,
                 failures: dict[str, Poly] | None = None):
        super().__init__(max_weight=max_weight, checked=checked,
                         trivial=[] if trivial is None else trivial,
                         failures={} if failures is None else failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def bkp_check(f: Poly, max_weight: int) -> HierarchyReport:
    """Check a power-sum polynomial against every equation of the
    hierarchy up to max_weight.

    The polynomial is rewritten in rescaled times and every nontrivial
    equation P is evaluated as P(D) tau.tau; the report records the
    equations whose residual is nonzero.
    """
    tau = p_to_x(f)
    values = _hirota_values(tau, tau)
    report = HierarchyReport(max_weight=max_weight, checked=0)
    for ymono, p in _equations(max_weight):
        name = mono_text(ymono, "y")
        if not p:
            report.trivial.append(name)
            continue
        residual = p._linear_image(values.__getitem__, "x")
        report.checked += 1
        if residual:
            report.failures[name] = residual
    return report
