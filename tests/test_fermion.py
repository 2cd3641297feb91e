"""Tests for the neutral-fermion operators and the bilinear-identity checker."""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    Tensor,
    apply_omega,
    apply_phi,
    exp_derivation_coeffs,
    graded_monomials,
    is_bkp_tau_bilinear,
    multiparam_q,
    q_lambda,
    schur_q_row,
    tensor_map,
    tensor_of,
)

from qlab import fermion
from qlab.monomial import _pack

from conftest import RANDOM_A, rand_fraction

F = Fraction

GOLDEN_BILINEAR = os.path.join(os.path.dirname(__file__), "golden", "bilinear_q75_perturbed.txt")


def test_apply_phi_examples():
    one = Poly.one("p")
    p1 = Poly.variable(1)
    q1 = p1 * 2
    assert apply_phi(1, one) == q1
    assert apply_phi(-1, q1) == Poly.const(F(-2), "p")
    assert apply_phi(0, q1) == -q1
    assert apply_phi(0, one) == one
    assert apply_phi(-1, one).is_zero()
    assert apply_phi(3, Poly.zero("p")).is_zero()


def test_apply_phi_matches_row_q():
    one = Poly.one("p")
    for m in range(9):
        assert apply_phi(m, one) == schur_q_row(m)


def test_apply_phi_weight_shift():
    rng = random.Random(53)
    for mono in graded_monomials(6):
        f = Poly.from_mono(mono, F(1), "p")
        w = sum(n * e for n, e in mono)
        for m in (-3, -1, 0, 2, 4):
            g = apply_phi(m, f)
            if g.is_zero():
                continue
            assert g.weight_part(w + m) == g


def test_q_lambda_examples():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    assert q_lambda((2, 1)) == p1**3 * F(4, 3) - p3 * F(4, 3)
    assert q_lambda((1, 1)).is_zero()
    assert q_lambda(()) == Poly.one("p")
    assert q_lambda((-1, 1)) == Poly.const(F(-2), "p")
    assert q_lambda((3,)) == schur_q_row(3)


def test_q_lambda_rejects_non_integral_entries():
    for index in [(2.7, 1.2), (2.0,), (F(3), 1), "31"]:
        with pytest.raises(TypeError):
            q_lambda(index)


def test_q_lambda_prepend_is_phi():
    rng = random.Random(59)
    vectors = [(), (1,), (2,), (2, 1), (3, 1), (4, 2, 1)]
    for lam in vectors:
        for m in (-2, -1, 0, 1, 2, 3):
            assert apply_phi(m, q_lambda(lam)) == q_lambda((m,) + lam)


def test_anticommutation_smoke():
    monos = graded_monomials(5)
    delta = {(m, -m) for m in range(-4, 5)}
    for mono in monos:
        f = Poly.from_mono(mono, F(1), "p")
        for m in range(-3, 4):
            for n in range(-3, 4):
                lhs = apply_phi(m, apply_phi(n, f)) + apply_phi(n, apply_phi(m, f))
                if (m, n) in delta:
                    scale = F(2) if m % 2 == 0 else F(-2)
                    assert lhs == f * scale
                else:
                    assert lhs.is_zero()


def test_exp_derivation_coeffs():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    f = p1 * p3
    gs = exp_derivation_coeffs(f, sign=-1)
    assert gs[0] == f
    assert gs[1] == -p3
    assert gs[3] == -p1
    assert gs[4] == Poly.one("p")
    assert len(gs) == 5
    with pytest.raises(ValueError):
        exp_derivation_coeffs(f, sign=2)
    with pytest.raises(ValueError):
        exp_derivation_coeffs(Poly.variable(1, "x"))


def test_phi_commutation_rule_matches_shift_coefficients():
    # The cached images peel one variable at a time by
    # phi_m(p_n f) = p_n phi_m f - phi_{m+n} f; the verifier's route sums
    # Q_{m+k} g_k over the shift coefficients g_k of the monomial.
    fermion._phi_mono.cache_clear()
    for mono in graded_monomials(12):
        f = Poly.from_mono(mono)
        gs = exp_derivation_coeffs(f)
        w = f.weight()
        for m in range(-w - 2, 11):
            assert fermion._phi_mono(m, _pack(mono, 2)) == fermion._phi_from(m, gs), (m, mono)


def test_phi_deep_annihilation_chain():
    # Each of the 255 factors p1 is one level of the commutation rule.
    f = Poly.variable(1, exponent=255)
    assert apply_phi(-255, f) == Poly.const(-1)
    assert apply_phi(-254, f) == Poly.variable(1) * 253


def test_exp_derivation_signs_cancel():
    # composing the sign=-1 series with the sign=+1 series gives the identity
    rng = random.Random(61)
    from conftest import rand_poly

    for _ in range(5):
        f = rand_poly(rng, max_weight=6)
        minus = exp_derivation_coeffs(f, sign=-1)
        tables = [exp_derivation_coeffs(g, sign=1) for g in minus]
        w = f.weight()
        for m in range(w + 1):
            acc = Poly.zero("p")
            for k in range(m + 1):
                plus = tables[k] if k < len(tables) else []
                if m - k < len(plus):
                    acc = acc + plus[m - k]
            if m == 0:
                assert acc == f
            else:
                assert acc.is_zero()


def test_apply_omega_examples():
    one = Poly.one("p")
    q1 = q_lambda((1,))
    t = tensor_of(one, one)
    assert apply_omega(t) == t
    t2 = tensor_of(q1, q1)
    assert apply_omega(t2) == t2
    from qlab import Tensor

    assert apply_omega(Tensor.zero()).is_zero()


def test_apply_omega_widen_invariance():
    q21 = q_lambda((2, 1))
    t = tensor_of(q21, q21)
    base = apply_omega(t)
    assert apply_omega(t, widen=3) == base


def test_apply_omega_widen_invariance_asymmetric(witness):
    # Unequal sides and weights; the result is also the plain sum over n
    # that forms both factors for every n.
    q31, q21 = q_lambda((3, 1)), q_lambda((2, 1))
    t = tensor_of(witness, q31) + tensor_of(q21, Poly.one())
    full = sum(
        (tensor_of(apply_phi(n, f), apply_phi(-n, g)) * (-1) ** (n % 2)
         for f, g in [(witness, q31), (q21, Poly.one())] for n in range(-8, 9)),
        Tensor.zero(),
    )
    assert all(apply_omega(t, widen=w) == full for w in range(5))


def test_bilinear_discrepancy_matches_golden():
    # A large non-solution: many creation factors are skipped because
    # their annihilation partner is zero.
    p1 = Poly.variable(1)
    f = q_lambda((7, 5)) + p1 * p1 * q_lambda((6, 4)) * F(2, 7)
    ok, disc = is_bkp_tau_bilinear(f)
    assert not ok
    assert len(disc.terms) == 1912
    with open(GOLDEN_BILINEAR) as fh:
        assert disc.text() == fh.read().rstrip("\n")


def test_is_bkp_examples():
    ok, disc = is_bkp_tau_bilinear(Poly.one("p"))
    assert ok
    assert disc.is_zero()
    ok, disc = is_bkp_tau_bilinear(q_lambda((2, 1)))
    assert ok
    assert disc.is_zero()
    ok, disc = is_bkp_tau_bilinear(Poly.zero("p"))
    assert ok


def test_is_bkp_witness_fails(witness):
    ok, disc = is_bkp_tau_bilinear(witness)
    assert not ok
    assert not disc.is_zero()


def test_is_bkp_discrepancy_is_omega_minus_square(witness):
    # Both functions sum the same Omega terms; on f (x) f apply_omega
    # expands every pair of monomials separately.
    p1 = Poly.variable(1)
    taus = [
        q_lambda((3, 1)),
        multiparam_q((3, 1), ParamSeq.factorial(2)),
        witness,
        q_lambda((4, 2)) + p1 * p1 * q_lambda((2,)) * F(2, 3),
        multiparam_q((3, 2), RANDOM_A),
        # Odd length: phi_0 tau = -tau, and the n = 0 term cancels the right side.
        q_lambda((5, 3, 1)),
        q_lambda((6, 2)) + p1 * p1 * q_lambda((4, 2)) * F(3, 7),
        q_lambda((7, 2, 1)) + p1 * p1 * q_lambda((5, 2, 1)) * F(2, 7),
        multiparam_q((4, 2, 1), ParamSeq.factorial(3)),
    ]
    for f in taus:
        ff = tensor_of(f, f)
        assert is_bkp_tau_bilinear(f)[1] == apply_omega(ff) - ff


def test_bilinear_verifier_forms_no_creation_image_of_q_lambda(monkeypatch):
    # On Q_lambda the norm identity proves every creation image phi_m tau
    # (m > 0) zero, and the n = 0 term cancels the right side, so no image
    # with m > 0 is formed and no term reaches the tensor.
    phi_from, lincomb = fermion._phi_from, Tensor.lincomb.__func__
    formed, summed = [], []
    monkeypatch.setattr(fermion, "_phi_from", lambda m, gs: formed.append(m) or phi_from(m, gs))

    def spy(cls, triples):
        triples = list(triples)
        summed.extend(triples)
        return lincomb(cls, triples)

    monkeypatch.setattr(Tensor, "lincomb", classmethod(spy))
    ok, disc = is_bkp_tau_bilinear(q_lambda((13, 7, 3, 1)))
    assert ok and disc.is_zero()
    assert formed and max(formed) <= 0
    assert summed == []


def test_bilinear_verifier_forms_each_image_once(monkeypatch):
    # Each phi_m tau is formed at most once, and a creation image (m > 0)
    # only after its annihilation partner phi_{-m} tau has been read.
    phi_from = fermion._phi_from
    formed = []
    monkeypatch.setattr(fermion, "_phi_from", lambda m, gs: formed.append(m) or phi_from(m, gs))
    p1 = Poly.variable(1)
    a = ParamSeq.factorial(6)
    for tau in (
        q_lambda((7, 5)) + p1 * p1 * q_lambda((6, 4)) * F(4, 7),
        multiparam_q((6, 3, 1), a) + p1 * p1 * multiparam_q((4, 3, 1), a) * F(4, 7),
    ):
        formed.clear()
        assert not is_bkp_tau_bilinear(tau)[0]
        assert len(formed) == len(set(formed))
        assert any(m > 0 for m in formed)
        assert all(formed.index(-m) < i for i, m in enumerate(formed) if m > 0)


def test_bilinear_verifier_reads_no_per_monomial_image():
    # is_bkp_tau_bilinear forms phi_m tau from g_k(tau) of the whole tau;
    # apply_omega on tau (x) tau goes through the per-monomial cache.
    tau = q_lambda((5, 3, 1)) + Poly.variable(3) * q_lambda((4, 2)) * F(1, 3)
    fermion._phi_mono.cache_clear()
    assert not is_bkp_tau_bilinear(tau)[0]
    assert fermion._phi_mono.cache_info().misses == 0
    apply_omega(tensor_of(tau, tau))
    assert fermion._phi_mono.cache_info().misses > 0


def test_bilinear_weight_24_rung():
    # q(13,7,3,1) and its perturbation by 2 p1^2 q(7,3,1); the sha256 of
    # the discrepancy was recorded from the per-monomial verifier.
    tau = q_lambda((13, 7, 3, 1))
    assert is_bkp_tau_bilinear(tau)[0]
    ok, disc = is_bkp_tau_bilinear(tau + Poly.variable(1) ** 2 * q_lambda((7, 3, 1)) * 2)
    assert not ok
    assert len(disc.terms) == 19605
    assert hashlib.sha256(disc.text().encode()).hexdigest() == (
        "3d483ff1cfb2f8ffd3f2369ad0fb1d8287e96e9766c62e7861ba3882c7f3da4a")


def test_is_bkp_pure_combination_passes():
    f = q_lambda((1,)) + q_lambda((3,)) * F(3, 5)
    ok, _ = is_bkp_tau_bilinear(f)
    assert ok


def test_section4_commutation_bidegree():
    # operator identity: coefficient extraction of E_j applied to row-Q products
    rng = random.Random(67)
    from conftest import rand_poly

    for _ in range(3):
        f = rand_poly(rng, max_weight=5, terms=3)
        for k in range(7):
            qk = schur_q_row(k)
            lhs = exp_derivation_coeffs(qk * f, sign=1)
            rhs_parts = exp_derivation_coeffs(f, sign=1)
            for j in range(min(len(lhs), 7)):
                acc = Poly.zero("p")
                for r in range(min(j, k) + 1):
                    c = F(1) if r == 0 else F(2)
                    if j - r < len(rhs_parts):
                        acc = acc + schur_q_row(k - r) * rhs_parts[j - r] * c
                assert lhs[j] == acc


def test_linear_fermion_square_vanishes():
    rng = random.Random(71)
    coeffs = [rand_fraction(rng) for _ in range(5)]

    def apply_x(f):
        out = Poly.zero("p")
        for n, c in enumerate(coeffs, start=1):
            out = out + apply_phi(n, f) * c
        return out

    for mono in graded_monomials(6):
        f = Poly.from_mono(mono, F(1), "p")
        assert apply_x(apply_x(f)).is_zero()


def test_omega_commutes_with_double_fermion():
    rng = random.Random(73)
    coeffs = [rand_fraction(rng) for _ in range(5)]

    def apply_x(f):
        out = Poly.zero("p")
        for n, c in enumerate(coeffs, start=1):
            out = out + apply_phi(n, f) * c
        return out

    def xx(t):
        return tensor_map(tensor_map(t, "left", apply_x), "right", apply_x)

    for lam in [(), (1,), (2, 1), (3, 1)]:
        tau = q_lambda(lam)
        t = tensor_of(tau, tau)
        lhs = apply_omega(xx(t), widen=6)
        rhs = xx(apply_omega(t))
        assert lhs == rhs
