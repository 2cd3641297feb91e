"""Tests for multiparameter Q-functions and the expansion cross-check."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    check_multiparam_expansion,
    is_bkp_tau_bilinear,
    multiparam_q,
    multiparam_q_via_fermions,
    normalize_index,
    q_lambda,
    schur_q_row,
    strict_partitions,
)
from qlab import fermion, multiparam
from qlab.multiparam import _slot_coeffs

from conftest import RANDOM_A

F = Fraction


def test_normalize_index_examples():
    assert normalize_index((1, 2)) == (-1, (2, 1))
    assert normalize_index((2, 2)) == (0, ())
    assert normalize_index((3, 1)) == (1, (3, 1))
    assert normalize_index(()) == (1, ())
    assert normalize_index((4, 1, 3)) == (-1, (4, 3, 1))
    with pytest.raises(ValueError):
        normalize_index((0, 1))
    with pytest.raises(ValueError):
        normalize_index((2, -1))


def test_normalize_index_rejects_non_integral_entries():
    for alpha in [(2.7, 1.2), (2.0,), (F(3), 1), "31"]:
        with pytest.raises(TypeError):
            normalize_index(alpha)


def test_multiparam_examples():
    a = RANDOM_A
    assert multiparam_q((1,), a) == schur_q_row(1)
    a1 = a.get(1)
    expect = schur_q_row(2) - schur_q_row(1) * a1
    assert multiparam_q((2,), a) == expect
    fac = ParamSeq.factorial(4)
    expect3 = schur_q_row(3) - schur_q_row(2) * 3 + schur_q_row(1) * 2
    assert multiparam_q((3,), fac) == expect3


def test_multiparam_zero_specialization():
    zero = ParamSeq.zeros(6)
    vectors = [(1,), (3,), (2, 1), (3, 2), (1, 2), (4, 2, 1), (2, 3, 1), (5, 1)]
    for alpha in vectors:
        sign, lam = normalize_index(alpha)
        expect = q_lambda(lam) * sign if sign else Poly.zero("p")
        assert multiparam_q(alpha, zero) == expect


def test_multiparam_antisymmetry_emerges():
    """multiparam_q straightens each vector, so on it these checks test
    the straightening; multiparam_q_via_fermions never sorts a vector,
    so on it antisymmetry and vanishing come from the operators alone."""
    a = RANDOM_A
    for build in (multiparam_q, multiparam_q_via_fermions):
        base = build((3, 1), a)
        assert build((1, 3), a) == -base
        assert build((2, 2), a).is_zero()
        for perm in itertools.permutations((4, 2, 1)):
            sign, _ = normalize_index(perm)
            assert build(perm, a) == build((4, 2, 1), a) * sign


def test_multiparam_operator_route_agrees():
    strict = [alpha for alpha in strict_partitions(9) if alpha]
    unsorted = [
        perm
        for alpha in strict
        for perm in itertools.permutations(alpha)
        if perm != alpha
    ]
    repeated = [(1, 1), (2, 2), (3, 1, 3), (2, 4, 4), (1, 2, 1), (5, 5), (2, 1, 2, 1),
                (3, 1, 2, 1, 3), (1, 3, 2, 3)]
    for a in (ParamSeq.factorial(9), RANDOM_A):
        for alpha in strict + unsorted + repeated:
            if max(alpha) - 1 > a.max_index:
                continue
            assert multiparam_q_via_fermions(alpha, a) == multiparam_q(alpha, a), alpha


def test_slot_coeffs_match_shifted_product():
    """The integer slot form of entry m against its definition: each
    (lambda, n) pair, in increasing lambda, has Fraction(n, den) equal to
    the nonzero coefficient of u^lambda in u (u - a_1) ... (u - a_(m-1)),
    expanded here by plain Fraction list multiplication, and den is the
    least common denominator of those coefficients."""
    families = [
        ParamSeq.zeros(10),
        ParamSeq.factorial(10),
        ParamSeq.parse("0,1/2,-1,3,2/3,-1/4,5,-2,1/3,7,-3/5"),
    ]
    for a in families:
        for m in range(1, 11):
            poly = [F(0), F(1)]  # u, lowest degree first
            for j in range(1, m):
                shifted = [F(0)] + poly
                for i, c in enumerate(poly):
                    shifted[i] -= a.get(j) * c
                poly = shifted
            den, slot = _slot_coeffs(m, a)
            assert all(isinstance(n, int) and n for _, n in slot)
            assert slot == sorted(slot)
            assert {lam: F(n, den) for lam, n in slot} == {
                lam: c for lam, c in enumerate(poly) if c
            }
            assert den == math.lcm(*(c.denominator for c in poly))


def test_multiparam_builds_no_cancelled_q(monkeypatch):
    """A strict lambda whose signed slot sum cancels is never built: on a
    vector with a repeated entry every sum cancels, so no Q is read.  The
    fold empties as soon as an entry repeats, so 21 threes (3^21 index
    vectors of the slot product) cost a few steps."""
    built = []
    monkeypatch.setattr(fermion, "q_lambda", lambda lam: built.append(lam) or q_lambda(lam))
    for a in (ParamSeq.factorial(4), RANDOM_A):
        for alpha in [(2, 2), (1, 3, 3), (3, 1, 3)]:
            assert multiparam_q(alpha, a).is_zero()
    assert multiparam_q((3,) * 21, ParamSeq.factorial(3)).is_zero()
    assert built == []
    assert multiparam_q((3, 1), RANDOM_A) == multiparam_q_via_fermions((3, 1), RANDOM_A)
    assert built


def test_multiparam_is_tau_function():
    a = RANDOM_A
    for alpha in [(2, 1), (3, 1), (4, 2)]:
        ok, _ = is_bkp_tau_bilinear(multiparam_q(alpha, a))
        assert ok


def test_multiparam_errors():
    short = ParamSeq.parse("0,1/2")
    with pytest.raises(ValueError):
        multiparam_q((4,), short)
    with pytest.raises(ValueError):
        multiparam_q((0,), RANDOM_A)
    with pytest.raises(ValueError):
        multiparam_q((-2, 1), RANDOM_A)
    for alpha in [(2.5,), (2.7, 1.2), (2.0,), (F(3), 1), "31"]:
        with pytest.raises(TypeError):
            multiparam_q(alpha, RANDOM_A)


def test_expansion_check_l1_zero_trivial():
    assert check_multiparam_expansion(1, ParamSeq.zeros(6), 6)


def test_expansion_check_l1_factorial():
    assert check_multiparam_expansion(1, ParamSeq.factorial(6), 6)


def test_expansion_check_l2_random():
    a = ParamSeq.parse("0,1/2,-1,3,2/3,-1/4")
    assert check_multiparam_expansion(2, a, 5)


def test_expansion_check_builds_each_vector_once(monkeypatch):
    """Each multiparameter function of the check is built once, not once
    for every k vector it appears under (441 builds for these 36)."""
    calls = []

    def counted(alpha, a):
        calls.append(alpha)
        return multiparam_q(alpha, a)

    monkeypatch.setattr(multiparam, "multiparam_q", counted)
    assert check_multiparam_expansion(2, ParamSeq.factorial(6), 6)
    assert sorted(calls) == sorted(itertools.product(range(1, 7), repeat=2))


def test_expansion_check_detects_a_wrong_function(monkeypatch):
    """One perturbed multiparameter function makes the check fail."""
    a = ParamSeq.factorial(3)

    def perturbed(alpha, a):
        f = multiparam_q(alpha, a)
        return f + Poly.variable(1) if alpha == (2,) else f

    assert check_multiparam_expansion(1, a, 3)
    monkeypatch.setattr(multiparam, "multiparam_q", perturbed)
    assert not check_multiparam_expansion(1, a, 3)


def test_expansion_check_errors():
    with pytest.raises(ValueError):
        check_multiparam_expansion(3, RANDOM_A, 4)
    with pytest.raises(ValueError):
        check_multiparam_expansion(1, RANDOM_A, 0)
    short = ParamSeq.parse("0,1/2,-1,3")
    with pytest.raises(ValueError):
        check_multiparam_expansion(2, short, 5)
