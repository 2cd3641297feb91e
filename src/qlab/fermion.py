"""Neutral-fermion operators on the ring of odd power sums.

The generating series of the operators phi_m is the product of
multiplication by the one-row series Q(v) = sum_j Q_j / v^j and the
substitution-exponential exp(-sum_{n odd} v^n n d/dp_n / n), so each
phi_m acts on a polynomial f as the finite sum

    phi_m f = sum_{k >= 0} Q_{m+k} * g_k(f),

where g_k(f) is the v^k coefficient of exp(-sum_{n odd} v^n d/dp_n) f.
The index m ranges over all integers; Q_j = 0 for j < 0 makes every
application a finite computation.

These operators satisfy the anticommutation rule
phi_m phi_n + phi_n phi_m = 2 (-1)^m [m + n = 0], and products
phi_{l_1} ... phi_{l_r} (1) produce the (multi-index) Schur Q-functions.
The bilinear map apply_omega and the solution test is_bkp_tau_bilinear
express the hierarchy's bilinear identity
sum_n (-1)^n phi_n tau (x) phi_{-n} tau = tau (x) tau.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from .ring import LazyMap, Mono, Poly, Tensor
from .series import schur_q_row


def exp_derivation_coeffs(f: Poly, sign: int = -1) -> list[Poly]:
    """Coefficients g_0, g_1, ..., g_w of exp(sign * sum_{n odd} v^n d/dp_n) f,
    where w = weight(f) (all higher coefficients vanish).

    Since the individual derivations commute, differentiating the
    exponential in v gives the recursion
    k g_k = sign * sum_{n odd <= k} n * d(g_{k-n})/dp_n.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if f.family != "p":
        raise ValueError("fermion operators act on power-sum polynomials")
    out = [f]
    for k in range(1, f.weight() + 1):
        out.append(Poly.lincomb(
            (out[k - n].diff(n), Fraction(sign * n, k)) for n in range(1, k + 1, 2)
        ))
    return out


@cache
def _shift_coeffs(mono: Mono) -> tuple[Poly, ...]:
    """g_0, g_1, ... of one monomial: exp_derivation_coeffs with sign -1,
    which every phi_m shares."""
    return tuple(exp_derivation_coeffs(Poly.from_mono(mono), sign=-1))


@cache
def _phi_mono(m: int, mono: Mono) -> Poly:
    return Poly.lincomb(
        (schur_q_row(m + k) * g, 1)
        for k, g in enumerate(_shift_coeffs(mono)) if m + k >= 0 and g
    )


def apply_phi(m: int, f: Poly) -> Poly:
    """The operator phi_m applied to a power-sum polynomial."""
    if f.family != "p":
        raise ValueError("fermion operators act on power-sum polynomials")
    return f._linear_image(lambda mono: _phi_mono(m, mono), "p")


def q_lambda(index: tuple[int, ...]) -> Poly:
    """The multi-index Schur Q-function phi_{l_1} ... phi_{l_r} (1).

    Entries may be arbitrary integers; for strictly decreasing positive
    indices this is the classical Schur Q-function of the partition.
    """
    return _q_lambda(tuple(int(v) for v in index))


@cache
def _q_lambda(vec: tuple[int, ...]) -> Poly:
    return apply_phi(vec[0], _q_lambda(vec[1:])) if vec else Poly.one()


def _omega_triples(f: Poly, g: Poly, c=1, widen: int = 0):
    """The nonzero terms (phi_n f, phi_{-n} g, (-1)^n c) of
    c * sum_n (-1)^n phi_n f (x) phi_{-n} g, over the range of n that
    apply_omega describes, enlarged by widen on both sides.

    Of the two factors, the one whose index is not positive is formed
    first: phi_m h with m <= 0 keeps only the terms Q_{m+k} g_k(h) with
    k >= -m, so it is the cheap annihilation side and is zero for most m
    (on Q_lambda, phi_{-n} is nonzero only for the parts n of lambda).
    The other, creation factor is formed only when the first is nonzero;
    a term with a zero factor is zero, so skipping it is exact.  Each
    phi_m f and phi_m g is formed at most once per call, and when g is f
    both sides read one map.
    """
    phi_f = LazyMap(lambda _, m: apply_phi(m, f))
    phi_g = phi_f if g is f else LazyMap(lambda _, m: apply_phi(m, g))
    for n in range(-f.weight() - widen, g.weight() + widen + 1):
        if n > 0:
            right = phi_g[-n]
            left = right and phi_f[n]
        else:
            left = phi_f[n]
            right = left and phi_g[-n]
        if left and right:
            yield left, right, c if n % 2 == 0 else -c


def apply_omega(t: Tensor, widen: int = 0) -> Tensor:
    """The bilinear Casimir-style operator
    sum_n phi_n (x) (-1)^n phi_{-n} applied to a tensor.

    For a decomposable term f (x) g only finitely many n contribute:
    phi_n f = 0 for n < -weight(f) and phi_{-n} g = 0 for n > weight(g),
    so the sum runs over -weight(f) <= n <= weight(g).  The widen
    parameter enlarges that range symmetrically; the result must not
    depend on it, which tests exercise.  For each n the annihilation
    factor (phi_{-n} g for n > 0, phi_n f otherwise) is formed first and
    the creation factor only when it is nonzero (see _omega_triples).
    """
    if widen < 0:
        raise ValueError("widen must be nonnegative")
    return Tensor.lincomb(
        triple
        for (ml, mr), c in t.terms.items()
        for triple in _omega_triples(Poly.from_mono(ml), Poly.from_mono(mr), c, widen)
    )


def is_bkp_tau_bilinear(f: Poly) -> tuple[bool, Tensor]:
    """Whether sum_n (-1)^n phi_n f (x) phi_{-n} f equals f (x) f.

    Returns the verdict together with the discrepancy tensor
    (left side minus right side), which is zero exactly on success.
    Both sides of the sum read one map of the images phi_m f, so each is
    formed at most once, and a creation image phi_n f (n > 0) is formed
    only when its partner phi_{-n} f is nonzero: on Q_lambda that is
    only for the parts n of lambda.  Skipped terms have a zero factor,
    so the tensor is the full sum.
    """
    if f.family != "p":
        raise ValueError("fermion operators act on power-sum polynomials")
    acc = Tensor.lincomb(itertools.chain(_omega_triples(f, f), [(f, f, -1)]))
    return (acc.is_zero(), acc)
