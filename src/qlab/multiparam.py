"""Multiparameter Schur Q-functions.

For a parameter sequence a = (a_0=0, a_1, a_2, ...) the multiparameter
function of a positive integer vector alpha expands in the classical
multi-index functions through a finite triangular sum: each slot alpha_i
contributes a factor ranging over lambda_i = 1..alpha_i with coefficient
(-1)^(lambda_i - alpha_i) e_{alpha_i - lambda_i}(a_1..a_{alpha_i - 1}).
At a = 0 only lambda = alpha survives and the classical function returns.

The slot coefficients of entry m are those of u (u-a_1)...(u-a_{m-1}),
int numerators over one denominator read off the shifted basis that the
ParamSeq forms on first read, so the expansion adds and multiplies
ints and divides once at the end.
The sum is one fold over the entries, last to first, in the order in
which X_{alpha_1} ... X_{alpha_l}(1) applies them (X_m below).  It keeps
one map from strict partitions mu to numerators, and each choice s of
the next slot is straightened as it enters: phi_r phi_s = -phi_s phi_r
for r + s != 0 and phi_s^2 = 0 for s != 0, so phi_s Q_mu is zero when s
is a part of mu and otherwise (-1)^#{x in mu : x > s} Q of mu with s
added.  No index vector of the slot product is ever formed: the map is
empty as soon as an entry repeats, and each strict Q is built once.  On
this route antisymmetry in the entries is therefore imposed.

Equivalently, each slot applies the operator
X_m = sum_{s=1..m} (-1)^(s-m) e_{m-s}(a_1..a_{m-1}) phi_s to 1, composing
left to right; both routes are implemented and must agree.  The operator
route never sorts anything, so on it antisymmetry and the vanishing on
repeated entries emerge from the operators, and it is the cross-check of
the straightening.

The expansion check verifies the defining property against the classical
side: the coefficient of u^{-k} in 1/((u-a_1)...(u-a_lambda)) is
h_{k-lambda}(a_1..a_lambda), and summing multiparameter functions against
those coefficients must reproduce every classical multi-index function.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .fermion import _q_sum, apply_phi, q_lambda
from .ring import Poly, accumulate
from .series import ParamSeq, shifted_transition


def _positive(alpha: tuple[int, ...]) -> tuple[int, ...]:
    vec = tuple(map(operator.index, alpha))
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


def _slot_coeffs(part: int, a: ParamSeq) -> tuple[int, list[tuple[int, int]]]:
    """The slot of one entry in integer form, (den, [(lambda, numerator),
    ...]): each lambda with a nonzero coefficient of u^lambda in
    u (u-a_1)...(u-a_(part-1)), in increasing order, with that
    coefficient as an int numerator over den, read off row part - 1 of
    the basis that a carries, which raises when a is too short."""
    den, nums = a._rows(part - 1)[part - 1]
    return den, [(lam, n) for lam, n in enumerate(nums, 1) if n]


def multiparam_q(alpha: tuple[int, ...], a: ParamSeq) -> Poly:
    """The multiparameter Schur Q-function of a positive integer vector.

    Computed by the triangular expansion in classical Q-functions, as one
    fold over the entries from last to first (see the module docstring):
    a map from strict partitions mu to int numerators, into which each
    choice s of the next slot enters as the signed Q of mu with s added,
    or not at all when s is a part of mu.  Its cost follows the strict
    partitions reached, not the product of the slot sizes.  Antisymmetry
    in the entries and vanishing on repeated entries are thus imposed on
    this route; they emerge on multiparam_q_via_fermions, which never
    sorts a vector.
    """
    slots = [_slot_coeffs(part, a) for part in _positive(alpha)]
    sums = {(): 1}
    for _, slot in reversed(slots):
        sums = accumulate({}, (
            (tuple(sorted(mu + (s,), reverse=True)), (-1) ** sum(x > s for x in mu) * c * n)
            for mu, c in sums.items()
            for s, n in slot
            if s not in mu
        ))
    return _q_sum(sums, math.prod(den for den, _ in slots))


def multiparam_q_via_fermions(alpha: tuple[int, ...], a: ParamSeq) -> Poly:
    """The same function built by operator application: slot m applies
    X_m = sum_{s=1..m} (-1)^(s-m) e_{m-s}(a_1..a_{m-1}) phi_s,
    composed with the first entry acting last.  Each phi_s acts on the
    polynomial as it stands, so no index vector is ever sorted."""
    f = Poly.one()
    for part in reversed(_positive(alpha)):
        den, slot = _slot_coeffs(part, a)
        f = Poly._lincomb([(apply_phi(s, f), n) for s, n in slot], "p", den)
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
    built = functools.cache(lambda vec: multiparam_q(vec, a))
    coeff_rows = {
        lam: shifted_transition(lam, "inv_shifted_to_power", a, cutoff=order)
        for lam in range(1, order + 1)
    }
    for kvec in itertools.product(range(1, order + 1), repeat=l):
        rhs = Poly.lincomb(
            (built(lam_vec), coef)
            for lam_vec in itertools.product(*(range(1, k + 1) for k in kvec))
            if (coef := math.prod(coeff_rows[l_i][k_i] for l_i, k_i in zip(lam_vec, kvec)))
        )
        if q_lambda(kvec) != rhs:
            return False
    return True
