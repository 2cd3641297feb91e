"""Multiparameter Schur Q-functions.

For a parameter sequence a = (a_0=0, a_1, a_2, ...) the multiparameter
function of a positive integer vector alpha expands in the classical
multi-index functions through a finite triangular sum: each slot alpha_i
contributes a factor ranging over lambda_i = 1..alpha_i with coefficient
(-1)^(lambda_i - alpha_i) e_{alpha_i - lambda_i}(a_1..a_{alpha_i - 1}).
At a = 0 only lambda = alpha survives and the classical function returns.

Equivalently, each slot applies the operator
X_m = sum_{s=1..m} (-1)^(s-m) e_{m-s}(a_1..a_{m-1}) phi_s to 1, composing
left to right; both routes are implemented and must agree.

The expansion check verifies the defining property against the classical
side: the coefficient of u^{-k} in 1/((u-a_1)...(u-a_lambda)) is
h_{k-lambda}(a_1..a_lambda), and summing multiparameter functions against
those coefficients must reproduce every classical multi-index function.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .fermion import apply_phi, q_lambda
from .ring import Poly, _bounded_cache
from .series import ParamSeq, elem_syms, shifted_transition


def _positive(alpha: tuple[int, ...]) -> tuple[int, ...]:
    vec = tuple(int(v) for v in alpha)
    if any(v <= 0 for v in vec):
        raise ValueError("entries must be positive integers")
    return vec


def normalize_index(alpha: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort a positive integer vector into a strict partition.

    Returns (sign, sorted_desc) where sign is the signature of the
    sorting permutation, or (0, ()) when entries repeat.
    """
    vec = _positive(alpha)
    if len(set(vec)) != len(vec):
        return (0, ())
    inversions = sum(a < b for a, b in itertools.combinations(vec, 2))
    return (-1 if inversions % 2 else 1, tuple(sorted(vec, reverse=True)))


def _slot_coeffs(part: int, a: ParamSeq) -> tuple[tuple[int, Fraction], ...]:
    """The (lambda, coefficient) pairs of one slot with a nonzero
    coefficient.  a.prefix raises when a is too short."""
    return _prefix_slot_coeffs(part, a.prefix(part - 1))


@_bounded_cache(256)
def _prefix_slot_coeffs(part: int, prefix: tuple) -> tuple[tuple[int, Fraction], ...]:
    es = elem_syms(prefix, part - 1)
    return tuple(
        (lam, c if (part - lam) % 2 == 0 else -c)
        for lam in range(1, part + 1)
        if (c := es[part - lam])
    )


def multiparam_q(alpha: tuple[int, ...], a: ParamSeq) -> Poly:
    """The multiparameter Schur Q-function of a positive integer vector.

    Computed by the triangular expansion in classical multi-index
    functions; antisymmetry in the entries and vanishing on repeated
    entries are consequences, not special cases.
    """
    slot_lists = [_slot_coeffs(part, a) for part in _positive(alpha)]
    return Poly.lincomb(
        (q_lambda(tuple(lam for lam, _ in combo)), math.prod(c for _, c in combo))
        for combo in itertools.product(*slot_lists)
    )


def multiparam_q_via_fermions(alpha: tuple[int, ...], a: ParamSeq) -> Poly:
    """The same function built by operator application: slot m applies
    X_m = sum_{s=1..m} (-1)^(s-m) e_{m-s}(a_1..a_{m-1}) phi_s,
    composed with the first entry acting last."""
    f = Poly.one()
    for part in reversed(_positive(alpha)):
        f = Poly.lincomb([(apply_phi(s, f), c) for s, c in _slot_coeffs(part, a)])
    return f


def check_multiparam_expansion(l: int, a: ParamSeq, order: int) -> bool:
    """Verify, for every index vector k in [1..order]^l, that the classical
    multi-index function equals the sum of multiparameter functions
    weighted by the reciprocal shifted-power expansion coefficients
    h_{k_i - lambda_i}(a_1..a_{lambda_i}).

    The expansion truncates exactly: coefficients vanish for k_i < lambda_i.
    """
    if l not in (1, 2):
        raise ValueError("only 1 or 2 index slots supported")
    if order < 1:
        raise ValueError("order must be positive")
    coeff_rows = {
        lam: shifted_transition(lam, "inv_shifted_to_power", a, cutoff=order)
        for lam in range(1, order + 1)
    }
    idx_range = range(1, order + 1)
    for kvec in itertools.product(idx_range, repeat=l):
        rhs = Poly.lincomb(
            (multiparam_q(lam_vec, a), coef)
            for lam_vec in itertools.product(*(range(1, k + 1) for k in kvec))
            if (coef := math.prod(coeff_rows[l_i][k_i] for l_i, k_i in zip(lam_vec, kvec)))
        )
        if q_lambda(kvec) != rhs:
            return False
    return True
