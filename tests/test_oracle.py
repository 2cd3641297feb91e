"""Tests for the brute-force symmetrization oracle and power-sum bridges."""

import os
import random
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    eval_powersums,
    genq_expand,
    multiparam_q,
    powersum_image,
    q_lambda,
    q_lambda_sym,
    q_sym_at,
    qa_sym,
    qa_sym_at,
    schur_q_row,
    strict_partitions,
)

from conftest import RANDOM_A, rand_points

F = Fraction


def xvar(i):
    return Poly.variable(i, "v")


def test_q_lambda_sym_examples():
    assert q_lambda_sym((1,), 1) == xvar(1) * 2
    assert q_lambda_sym((1,), 2) == (xvar(1) + xvar(2)) * 2
    got = q_lambda_sym((2, 1), 3)
    assert got == powersum_image(q_lambda((2, 1)), 3)
    assert q_lambda_sym((), 3) == Poly.one("v")


def test_q_lambda_sym_validation():
    with pytest.raises(ValueError):
        q_lambda_sym((1,), 9)
    with pytest.raises(ValueError):
        q_lambda_sym((1,), 0)
    with pytest.raises(ValueError):
        q_lambda_sym((2, 2), 3)
    with pytest.raises(ValueError):
        q_lambda_sym((1, 2), 3)
    with pytest.raises(ValueError):
        q_lambda_sym((2, 0), 3)


def test_q_lambda_sym_rejects_non_integral_entries():
    for lam in [(2.7, 1.2), (2.0,), (F(3), 1), "31"]:
        with pytest.raises(TypeError):
            q_lambda_sym(lam, 3)
        with pytest.raises(TypeError):
            qa_sym(lam, RANDOM_A, 3)


def test_q_lambda_sym_matches_powersum_image():
    for lam in [(2,), (3,), (2, 1), (3, 1), (3, 2), (4, 1)]:
        for n_vars in (3, 4):
            assert q_lambda_sym(lam, n_vars) == powersum_image(q_lambda(lam), n_vars)


def test_q_lambda_sym_stability():
    for lam in [(1,), (2, 1), (3, 2, 1)]:
        for n_vars in (3, 4, 5):
            wider = q_lambda_sym(lam, n_vars + 1).subs_zero(n_vars + 1)
            assert wider == q_lambda_sym(lam, n_vars)


GOLDEN_SYM = os.path.join(os.path.dirname(__file__), "golden", "oracle_sym.txt")


def symbolic_oracle_lines():
    """One line per pinned input: q_lambda_sym for strict lambda with
    |lambda| <= 5 at N = 4, and qa_sym at N = 3 for the factorial and
    RANDOM_A families on the same lambdas and on unordered or repeated
    index vectors."""
    lines = [f"q_lambda_sym {lam} 4: {q_lambda_sym(lam, 4)}" for lam in strict_partitions(5)]
    alphas = strict_partitions(5) + [(1, 2), (2, 2), (3, 1, 2), (0, 2)]
    for name, a in [("factorial", ParamSeq.factorial(6)), ("random", RANDOM_A)]:
        lines += [f"qa_sym {alpha} {name} 3: {qa_sym(alpha, a, 3)}" for alpha in alphas]
    return lines


def test_symbolic_oracle_matches_golden():
    """To regenerate after a deliberate output change, write
    symbolic_oracle_lines() one per line to tests/golden/oracle_sym.txt
    and record the change in CHANGES.md."""
    with open(GOLDEN_SYM, encoding="utf-8") as fh:
        assert symbolic_oracle_lines() == fh.read().splitlines()


def test_qa_sym_examples():
    a = RANDOM_A
    a1 = a.get(1)
    for n_vars in (2, 3):
        expect = q_lambda_sym((2,), n_vars) - q_lambda_sym((1,), n_vars) * a1
        assert qa_sym((2,), a, n_vars) == expect
    assert qa_sym((1, 2), a, 3) == -qa_sym((2, 1), a, 3)
    assert qa_sym((2, 2), a, 3).is_zero()


def test_qa_sym_zero_params_is_classical():
    zero = ParamSeq.zeros(5)
    for lam in [(2, 1), (3,), (3, 2)]:
        assert qa_sym(lam, zero, 4) == q_lambda_sym(lam, 4)


def test_qa_sym_matches_multiparam_eval():
    rng = random.Random(79)
    a = RANDOM_A
    for alpha in [(2, 1), (3, 1), (4, 2)]:
        sym = qa_sym(alpha, a, 4)
        fast = multiparam_q(alpha, a)
        for _ in range(2):
            xs = rand_points(rng, 4)
            vals = {i + 1: x for i, x in enumerate(xs)}
            assert sym.evaluate(vals) == eval_powersums(fast, xs)


def special_points(rng, n_vars):
    """Points where the symmetrization formula divides by zero (a repeated
    pair, all coordinates equal, a repeated zero) or has vanishing factors
    (a zero, an x/-x pair), plus one with distinct coordinates."""
    u, v, *rest = rand_points(rng, n_vars + 2)
    return [
        rand_points(rng, n_vars),
        (u, u, v, *rest)[:n_vars],
        (u,) * n_vars,
        (F(0), u, v, *rest)[:n_vars],
        (F(0), F(0), u, *rest)[:n_vars],
        (u, -u, v, *rest)[:n_vars],
    ]


def test_pointwise_matches_symbolic():
    rng = random.Random(89)
    families = [ParamSeq.zeros(6), ParamSeq.factorial(6), RANDOM_A]
    for n_vars in (3, 4):
        points = special_points(rng, n_vars)
        for lam in strict_partitions(6):
            sym = q_lambda_sym(lam, n_vars)
            asyms = [qa_sym(lam, a, n_vars) for a in families]
            for xs in points:
                vals = {i + 1: x for i, x in enumerate(xs)}
                assert q_sym_at(lam, xs) == sym.evaluate(vals), (lam, xs)
                for a, asym in zip(families, asyms):
                    assert qa_sym_at(lam, a, xs) == asym.evaluate(vals), (lam, a, xs)


def test_pointwise_scaling_to_integers():
    """The pointwise route scales the point and the shifts to one common
    denominator; these inputs would expose a wrong scale: mixed and
    negative denominators, parameters whose denominators divide none of
    the point's, coordinates equal to a shift (a zero row), coincident
    coordinates (the interpolation path) and plain int input."""
    a = ParamSeq.parse("0,1/2,-3,5/3,-7/4")
    points = [
        [F(1, 2), F(-2, 3), F(5, -6), F(7, 4)],
        [F(-3, 8), F(9, 10), F(-11, 7), 2],
        [2, -3, 5, 1],
        [F(1, 2), F(5, 3), F(-3), F(2, 7)],
        [F(5, 3), F(5, 3), F(-1, 2), F(-1, 2)],
        [F(1, 3), F(1, 3), F(-2, 5), F(7, 2)],
        [3, 3, -1, 4],
    ]
    for n_vars in (3, 4):
        for lam in strict_partitions(5):
            sym, asym = q_lambda_sym(lam, n_vars), qa_sym(lam, a, n_vars)
            for xs in points:
                xs = xs[:n_vars]
                vals = {i + 1: x for i, x in enumerate(xs)}
                assert q_sym_at(lam, xs) == sym.evaluate(vals), (lam, xs)
                assert qa_sym_at(lam, a, xs) == asym.evaluate(vals), (lam, xs)
    for lam in strict_partitions(5):
        for f in (q_lambda(lam), multiparam_q(lam, a)):
            for xs in points:
                expect = f.evaluate({n: sum(F(x) ** n for x in xs) for n in range(1, 6)})
                assert eval_powersums(f, xs) == expect, (lam, xs)


def test_pointwise_unordered_index():
    rng = random.Random(97)
    a = RANDOM_A
    for alpha in [(1, 2), (2, 2), (2, 0, 3), (0,)]:
        sym = qa_sym(alpha, a, 3)
        for xs in special_points(rng, 3):
            vals = {i + 1: x for i, x in enumerate(xs)}
            assert qa_sym_at(alpha, a, xs) == sym.evaluate(vals), (alpha, xs)


def test_pointwise_edge_cases():
    a = RANDOM_A
    for xs in [(F(1, 2), F(3)), (F(2), F(2))]:
        assert q_sym_at((3, 2, 1), xs) == 0
        assert qa_sym_at((3, 2, 1), a, xs) == 0
        assert q_sym_at((), xs) == 1
        assert qa_sym_at((), a, xs) == 1
    assert q_sym_at((1,), (1, 2)) == 6
    # Q_(2,1) is homogeneous of degree 3.
    assert q_sym_at((2, 1), [2, 2, 3]) == 8 * q_sym_at((2, 1), [1, 1, F(3, 2)])


def test_pointwise_validation():
    a = RANDOM_A
    for bad in [(), (1,) * 9]:
        with pytest.raises(ValueError):
            q_sym_at((1,), bad)
        with pytest.raises(ValueError):
            qa_sym_at((1,), a, bad)
    for lam in [(2, 2), (1, 2), (2, 0)]:
        with pytest.raises(ValueError):
            q_sym_at(lam, (1, 2, 3))
    with pytest.raises(ValueError):
        qa_sym_at((2, -1), a, (1, 2, 3))
    with pytest.raises(ValueError):
        qa_sym_at((4,), ParamSeq.parse("0,1"), (1, 2, 3))


def test_genq_l1():
    table = genq_expand(1, 6)
    for k in range(1, 7):
        assert table[(k,)] == schur_q_row(k)
    assert table[(0,)] == Poly.one("p")
    assert (-1,) not in table or table[(-1,)].is_zero()


def test_genq_l2_pinned_coefficients():
    table = genq_expand(2, 4)
    q = schur_q_row
    assert table[(2, 1)] == q(2) * q(1) - q(3) * 2
    assert table[(2, 1)] == q_lambda((2, 1))
    assert table.get((1, 1), Poly.zero("p")).is_zero()


def test_genq_agrees_with_operator_route():
    table = genq_expand(2, 4)
    for vec, coeff in table.items():
        if all(abs(k) <= 4 for k in vec):
            assert coeff == q_lambda(vec)
    table3 = genq_expand(3, 3)
    for vec, coeff in table3.items():
        assert coeff == q_lambda(vec)


def test_genq_validation():
    with pytest.raises(ValueError):
        genq_expand(4, 3)
    with pytest.raises(ValueError):
        genq_expand(2, 11)
    with pytest.raises(ValueError):
        genq_expand(0, 3)


def test_eval_powersums_examples():
    p1 = Poly.variable(1)
    assert eval_powersums(p1 * 2, (1, 2)) == 6
    assert eval_powersums(schur_q_row(3), (F(1),)) == 2
    assert eval_powersums(Poly.zero("p"), (F(1, 2), F(3))) == 0
    assert eval_powersums(Poly.one("p"), ()) == 1


def test_powersum_image_roundtrip():
    rng = random.Random(83)
    from conftest import rand_poly

    for _ in range(4):
        f = rand_poly(rng, max_weight=6)
        img = powersum_image(f, 3)
        xs = rand_points(rng, 3)
        vals = {i + 1: x for i, x in enumerate(xs)}
        assert img.evaluate(vals) == eval_powersums(f, xs)
