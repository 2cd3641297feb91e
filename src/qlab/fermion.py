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

Under the inner product <p_rho, p_sigma> = 2^-l(rho) z_rho [rho = sigma],
for which <Q_lambda, Q_mu> = 2^l(lambda) [lambda = mu], the adjoint of
phi_n is (-1)^n phi_{-n} (Date, Jimbo, Kashiwara and Miwa,
"Transformation groups for soliton equations IV", 1982; You, "Polynomial
solutions of the BKP hierarchy and projective representations of
symmetric groups", 1989).  With the anticommutation rule this gives
|phi_m f|^2 + |phi_{-m} f|^2 = 2 |f|^2, so a creation image phi_m f is
zero exactly when its annihilation partner has norm 2 |f|^2, and
is_bkp_tau_bilinear decides it that way without forming it.  Since
phi_0^2 = 1, the n = 0 term (phi_0 tau) (x) (phi_0 tau) is tau (x) tau
whenever phi_0 tau = +-tau, as on every Q_lambda, and it cancels the
right side exactly.

Two derivations of the images serve two routes.  is_bkp_tau_bilinear
forms g_k(tau) once for the whole tau and then phi_m tau from the sum
above (_phi_from); on a tau function the per-monomial images cancel
heavily, so summing g_k(tau) first does far less work.  On the diagonal
tau (x) tau the terms n and -n of the sum are the same two images in
both orders, so the verifier is one loop over m >= 1 that forms
phi_{-m} tau and phi_m tau once each and uses each pair twice.  apply_phi,
and with it q_lambda and the multiparameter constructions, goes monomial
by monomial: the image of phi_m on one monomial is cached (_phi_mono),
and every Q-function of one weight shares those images (Q_4 and Q_{3,1}
both have the monomials p1^4 and p1 p3).  An image is built by the
commutation rule phi_m(p_n f) = p_n phi_m f - phi_{m+n} f, which the
shift p_n -> p_n - v^n of the exponential gives (N. Jing, "Vertex
operators, symmetric functions, and the spin group Gamma_n", J. Algebra
138, 1991): one product by a variable and one difference of two images
of a smaller monomial, down to phi_m(1) = Q_m.  The whole-f order is not
used for apply_phi: building Q-functions applies phi to many
polynomials that share monomials, and without the shared per-monomial
images construction is slower.  apply_omega keeps the per-monomial
route on each pair of monomials, so apply_omega(f (x) f) - f (x) f
checks the verifier's g_k against the commutation rule.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .monomial import _fields, _key_vars, _key_weight
from .ring import Poly, Tensor, _bounded_cache
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


def _phi_from(m: int, gs: Sequence[Poly]) -> Poly:
    """phi_m f = sum_k Q_{m+k} g_k(f), from the shift coefficients
    gs = g_0(f), g_1(f), ... of f."""
    return Poly.lincomb(
        (schur_q_row(m + k) * gs[k], 1) for k in range(max(0, -m), len(gs)) if gs[k]
    )


# The bound trades memory for time on deep Q-functions: building
# q(17,11,7,5,3,1) forms 1,646 distinct images (ROADMAP item 1).
@_bounded_cache(512)
def _phi_mono(m: int, key: int) -> Poly:
    """phi_m on the monomial with the packed key, by the commutation rule
    of the module docstring: phi_m(1) = Q_m, an image of weight
    m + weight(key) < 0 is zero, and otherwise the highest variable p_n
    is peeled off.  Peeling the lowest variable first would reach far
    more distinct (m, key) pairs on the monomials of a deep Q-function.
    """
    if not key:
        return schur_q_row(m)
    if m + _key_weight(key) < 0:
        return Poly.zero()
    n, unit, _ = _key_vars(key)[-1]
    rest = key - unit
    return Poly.variable(n) * _phi_mono(m, rest) - _phi_mono(m + n, rest)


def apply_phi(m: int, f: Poly) -> Poly:
    """The operator phi_m applied to a power-sum polynomial."""
    if f.family != "p":
        raise ValueError("fermion operators act on power-sum polynomials")
    return f._linear_image(lambda key: _phi_mono(m, key), "p")


def q_lambda(index: tuple[int, ...]) -> Poly:
    """The multi-index Schur Q-function phi_{l_1} ... phi_{l_r} (1).

    Entries may be arbitrary integers, and a non-integral entry raises
    TypeError; for strictly decreasing positive indices this is the
    classical Schur Q-function of the partition.
    """
    return _q_lambda(tuple(map(operator.index, index)))


@_bounded_cache(2048)
def _q_lambda(vec: tuple[int, ...]) -> Poly:
    return apply_phi(vec[0], _q_lambda(vec[1:])) if vec else Poly.one()


def _q_sum(coeffs: dict[tuple[int, ...], int], den: int) -> Poly:
    """sum c_lambda Q_lambda / den, built in ascending lambda: _phi_mono holds
    512 images, and on the weight-33 qa builds the map's order evicts 3x as many."""
    return Poly._lincomb(((q_lambda(lam), c) for lam, c in sorted(coeffs.items())), "p", den)


def apply_omega(t: Tensor, widen: int = 0) -> Tensor:
    """The bilinear Casimir-style operator
    sum_n phi_n (x) (-1)^n phi_{-n} applied to a tensor.

    For a decomposable term f (x) g only finitely many n contribute:
    phi_n f = 0 for n < -weight(f) and phi_{-n} g = 0 for n > weight(g),
    so the sum runs over -weight(f) <= n <= weight(g).  The widen
    parameter enlarges that range symmetrically; the result must not
    depend on it, which tests exercise.  Each pair of monomials is
    expanded separately through the cached per-monomial images.  Of the
    two factors, the one whose index is not positive is read first:
    phi_m h with m <= 0 keeps only the terms Q_{m+k} g_k(h) with k >= -m,
    so it is the cheap annihilation side and is zero for most m.  The
    other, creation factor is read only when the first is nonzero; a
    term with a zero factor is zero, so skipping it is exact.
    """
    if widen < 0:
        raise ValueError("widen must be nonnegative")

    def triples():
        for kl, kr, c in t._key_terms():
            for n in range(-_key_weight(kl) - widen, _key_weight(kr) + widen + 1):
                if n > 0:
                    right = _phi_mono(-n, kr)
                    left = right and _phi_mono(n, kl)
                else:
                    left = _phi_mono(n, kl)
                    right = left and _phi_mono(-n, kr)
                if left and right:
                    yield left, right, c if n % 2 == 0 else -c

    return Tensor.lincomb(triples())


def _norm2(f: Poly) -> tuple[int, int]:
    """<f, f> as (num, den) ints, under the inner product
    <p_rho, p_sigma> = 2^-l(rho) z_rho [rho = sigma] with
    z_rho = prod_i i^(m_i) m_i!: the sum of n_rho^2 z_rho 2^(top - l(rho))
    over den^2 2^top, where f = sum n_rho p_rho / den and top is the
    largest length l(rho) in f.  One pass; the sum is rescaled when top
    grows."""
    top = num = 0
    for key, n in f._nums.items():
        z, length, i = n * n, 0, 1
        for e in _fields(key):
            if e:
                z *= i ** e * math.factorial(e)
                length += e
            i += 2
        if length > top:
            num, top = num << length - top, length
        num += z << top - length
    return num, f._den * f._den << top


def is_bkp_tau_bilinear(f: Poly) -> tuple[bool, Tensor]:
    """Whether sum_n (-1)^n phi_n f (x) phi_{-n} f equals f (x) f.

    Returns the verdict together with the discrepancy tensor
    (left side minus right side), which is zero exactly on success.
    The shift coefficients g_k(f) are formed once for the whole f, and
    each image phi_m f = sum_k Q_{m+k} g_k(f) from them, at most once:
    unlike the per-monomial images of apply_phi, g_k(f) has already
    cancelled what cancels between the monomials of a tau function.

    The terms n = m and n = -m of the sum are the same two images in
    both orders, so one loop over m = w, ..., 1 (w = weight(f)) forms the
    annihilation image phi_{-m} f, skips m when it is zero, and otherwise
    forms the creation image phi_m f only when a norm does not prove it
    zero.  Under <p_rho, p_sigma> = 2^-l(rho) z_rho [rho = sigma] the
    adjoint of phi_n is (-1)^n phi_{-n} (Date, Jimbo, Kashiwara and Miwa,
    "Transformation groups for soliton equations IV", 1982; You,
    "Polynomial solutions of the BKP hierarchy and projective
    representations of symmetric groups", 1989), so the anticommutator
    gives |phi_m f|^2 + |phi_{-m} f|^2 = 2 |f|^2, and phi_m f = 0 exactly
    when |phi_{-m} f|^2 = 2 |f|^2 (_norm2, compared by cross-multiplying).
    On Q_lambda every creation image is proven zero this way.  The
    terms n < 0 are summed first, then n = 0, then n > 0 from the kept
    pairs, then the closing -f (x) f: summing both orders of a pair
    together grows the tensor before it cancels.  When phi_0 f = +-f,
    the n = 0 term (phi_0 f) (x) (phi_0 f) = f (x) f and the closing
    -f (x) f cancel, and both are left out.  Every skipped term is
    exactly zero, so the tensor is the full sum.
    """
    gs =exp_derivation_coeffs(f)
    num, den = _norm2(f)

    def triples():
        pairs = []
        for m in range(f.weight(), 0, -1):
            down = _phi_from(-m, gs)
            if not down:
                continue
            down_num, down_den = _norm2(down)
            if down_num * den == 2 * num * down_den:
                continue
            up = _phi_from(m, gs)
            pairs.append((m, down, up))
            yield down, up, (-1) ** m
        phi0 = _phi_from(0, gs)
        cancels = phi0 == f or phi0 == -f
        if not cancels:
            yield phi0, phi0, 1
        for m, down, up in reversed(pairs):
            yield up, down, (-1) ** m
        if not cancels:
            yield f, f, -1

    acc = Tensor.lincomb(triples())
    return (acc.is_zero(), acc)
