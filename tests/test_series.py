"""Tests for series conversions, one-row Q polynomials, and transitions."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    complete_sym,
    elem_sym,
    exp_series,
    exp_series_det,
    log_series,
    log_series_by_inversion,
    schur_q_row,
    schur_q_x_list,
    shifted_transition,
)
from qlab import series

from conftest import LONG_A, RANDOM_A, rand_fraction


F = Fraction


def test_exp_series_examples():
    a = F(5, 3)
    s = exp_series([a], 3)
    assert s == [F(1), a, a * a / 2, a**3 / 6]
    x1, x3 = F(2), F(-7, 2)
    s = exp_series([x1, F(0), x3], 3)
    assert s[3] == x3 + x1**3 / 6
    assert s[2] == x1 * x1 / 2
    assert exp_series([], 4) == [F(1), F(0), F(0), F(0), F(0)]


def test_exp_series_missing_entries_read_as_zero():
    assert exp_series([F(1)], 3) == exp_series([F(1), F(0), F(0)], 3)


def test_series_reject_float_entries():
    """No exp/log route computes in floating point: a float entry raises."""
    for route, seq in [
        (exp_series, [F(1, 2), 0.5]),
        (exp_series_det, [0.5]),
        (log_series, [1, 0.5]),
        (log_series_by_inversion, [1, 0.5]),
        (log_series_by_inversion, [1.0, F(1, 2)]),
    ]:
        with pytest.raises(TypeError, match="float"):
            route(seq, 3)


def test_log_series_examples():
    s1 = F(9, 4)
    assert log_series([F(1), s1], 1) == [s1]
    a = F(-3, 5)
    assert log_series([F(1), a, a * a / 2, a**3 / 6], 3) == [a, F(0), F(0)]
    with pytest.raises(ValueError):
        log_series([F(2), F(1)], 1)
    with pytest.raises(ValueError):
        log_series_by_inversion([F(0)], 1)


def test_exp_log_round_trip():
    rng = random.Random(31)
    for _ in range(6):
        xs = [rand_fraction(rng) for _ in range(10)]
        ss = exp_series(xs, 10)
        assert log_series(ss, 10) == xs
        ss2 = [F(1)] + [rand_fraction(rng) for _ in range(10)]
        assert exp_series(log_series(ss2, 10), 10) == ss2


def test_log_routes_agree():
    rng = random.Random(37)
    for _ in range(6):
        ss = [F(1)] + [rand_fraction(rng) for _ in range(9)]
        assert log_series(ss, 9) == log_series_by_inversion(ss, 9)


def test_log_routes_on_polynomial_entries():
    ss = exp_series(schur_q_x_list(12), 12, one=Poly.one("p"))
    assert log_series_by_inversion(ss, 12) == schur_q_x_list(12)
    assert log_series(ss, 8) == schur_q_x_list(8)


def test_exp_det_agrees_with_compositional():
    rng = random.Random(41)
    for _ in range(4):
        xs = [rand_fraction(rng) for _ in range(8)]
        assert exp_series_det(xs, 8) == exp_series(xs, 8)


def test_exp_det_on_polynomial_entries():
    xs = schur_q_x_list(8)
    one = Poly.one("p")
    det = exp_series_det(xs, 8, one=one)
    comp = exp_series(xs, 8, one=one)
    assert det == comp
    for k in range(9):
        assert det[k] == schur_q_row(k)


def test_schur_q_row_examples():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    assert schur_q_row(0) == Poly.one("p")
    assert schur_q_row(1) == p1 * 2
    assert schur_q_row(2) == p1 * p1 * 2
    assert schur_q_row(3) == p3 * F(2, 3) + p1**3 * F(4, 3)
    assert schur_q_row(-1).is_zero()
    for k in range(1, 9):
        q = schur_q_row(k)
        assert q.weight_part(k) == q


def test_q_generating_function_unit():
    for w in range(1, 13):
        acc = Poly.zero("p")
        for j in range(w + 1):
            term = schur_q_row(w - j) * schur_q_row(j)
            acc = acc + (term if j % 2 == 0 else -term)
        assert acc.is_zero()


def test_q_even_reduction():
    for m in range(1, 6):
        rhs = Poly.zero("p")
        for r in range(1, m):
            term = schur_q_row(r) * schur_q_row(2 * m - r)
            rhs = rhs + (term if (r - 1) % 2 == 0 else -term)
        sq = schur_q_row(m) * schur_q_row(m) * F(1, 2)
        rhs = rhs + (sq if (m - 1) % 2 == 0 else -sq)
        assert schur_q_row(2 * m) == rhs


def test_sym_polynomials():
    assert elem_sym(2, (1, 2, 3)) == 11
    assert complete_sym(2, (1, 2)) == 7
    assert elem_sym(3, (1, 2)) == 0
    assert elem_sym(0, ()) == 1
    assert complete_sym(0, ()) == 1
    assert elem_sym(-1, (1, 2)) == 0
    assert complete_sym(-2, (1, 2)) == 0
    assert complete_sym(3, ()) == 0
    vals = (F(1, 2), F(-3), F(5, 4))
    assert elem_sym(1, vals) == sum(vals)
    assert complete_sym(1, vals) == sum(vals)


def test_param_seq_validation():
    a = ParamSeq((F(0), F(1, 2), F(-1)))
    assert a.max_index == 2
    assert a.get(0) == 0
    assert a.get(2) == -1
    assert a.prefix(2) == (F(1, 2), F(-1))
    assert a.prefix(0) == ()
    with pytest.raises(ValueError):
        ParamSeq((F(1), F(2)))
    with pytest.raises(ValueError):
        a.get(3)
    with pytest.raises(ValueError):
        a.prefix(3)


def test_param_seq_families_and_parse():
    z = ParamSeq.zeros(5)
    assert z.values == (F(0),) * 6
    fac = ParamSeq.factorial(4)
    assert fac.values == (F(0), F(1), F(2), F(3), F(4))
    parsed = ParamSeq.parse("0,1/2,-1,3")
    assert parsed.values == (F(0), F(1, 2), F(-1), F(3))
    with pytest.raises(ValueError):
        ParamSeq.parse("1,2")
    with pytest.raises(ValueError):
        ParamSeq.parse("0,,1")
    with pytest.raises(ValueError):
        ParamSeq.parse("")


def test_param_seq_parse_reports_the_a0_rule():
    """Well-formed text with a_0 != 0 names the a_0 rule, not malformed text."""
    with pytest.raises(ValueError, match=r"^parameter sequence must have a_0 = 0$"):
        ParamSeq.parse("1,2,3")


def test_param_seq_is_immutable():
    a = ParamSeq.parse("0,1")
    table = {a: 1}
    with pytest.raises(AttributeError):
        a.values = (F(5),)
    with pytest.raises(AttributeError):
        del a.values
    assert a.values == (F(0), F(1))
    assert a in table
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is ParamSeq
        assert twin == a
        assert hash(twin) == hash(a)
        assert twin in table


def test_param_seq_forms_its_rows_when_read():
    """A long sequence is made without multiplying out any row; the rows
    (u - a_1)...(u - a_k) are formed up to the k a reader asks for, equal
    those of one running product, and a longer table is swapped in whole,
    so a table already read is never changed."""
    start = time.perf_counter()
    a = ParamSeq(range(4000))
    assert time.perf_counter() - start < 0.1
    assert a.max_index == 3999
    expect = series._shifted_products(range(1, 61))
    first = a._rows(10)
    assert first == tuple(expect[:11])
    assert a._rows(60)[:61] == tuple(expect)
    assert first == tuple(expect[:11])
    assert a._rows(25) is a._rows(60)
    assert shifted_transition(5, "shifted_to_power", a) == [F(c, expect[5][0]) for c in expect[5][1]]
    with pytest.raises(ValueError, match="a_1..a_4000 requested"):
        a._rows(4000)


def test_shifted_transition_examples():
    a = RANDOM_A
    a1 = a.get(1)
    a2 = a.get(2)
    assert shifted_transition(1, "power_to_shifted", a) == [a1, F(1)]
    assert shifted_transition(2, "shifted_to_power", a) == [a1 * a2, -(a1 + a2), F(1)]
    got = shifted_transition(1, "inv_power_to_shifted", a, cutoff=3)
    assert got == [F(0), F(1), -a1, a1 * a2]


def test_shifted_transition_shapes_and_errors():
    a = LONG_A
    assert len(shifted_transition(3, "power_to_shifted", a)) == 4
    assert len(shifted_transition(3, "inv_shifted_to_power", a, cutoff=7)) == 8
    inv = shifted_transition(4, "inv_power_to_shifted", a, cutoff=6)
    assert inv[:4] == [F(0)] * 4
    assert inv[4] == F(1)
    # 1/u^0 = 1, whatever the parameters, but a_1..a_(cutoff-1) must exist.
    short = ParamSeq.factorial(2)
    for cutoff in (0, 1, 3):
        assert shifted_transition(0, "inv_power_to_shifted", short, cutoff) == [F(1)] + [F(0)] * cutoff
    with pytest.raises(ValueError, match="a_1..a_3 requested"):
        shifted_transition(0, "inv_power_to_shifted", short, 4)
    with pytest.raises(ValueError):
        shifted_transition(3, "inv_shifted_to_power", a, cutoff=2)
    with pytest.raises(ValueError):
        shifted_transition(3, "inv_shifted_to_power", a)
    with pytest.raises(ValueError):
        shifted_transition(2, "sideways", a)
    with pytest.raises(ValueError):
        shifted_transition(-1, "power_to_shifted", a)


def test_finite_transitions_are_inverse_matrices():
    a = LONG_A
    n_max = 6
    to_shift = [shifted_transition(n, "power_to_shifted", a) for n in range(n_max + 1)]
    to_power = [shifted_transition(n, "shifted_to_power", a) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            total = sum(
                to_shift[n][k] * to_power[k][m]
                for k in range(min(n, n_max) + 1)
                if k >= m and k <= n
            )
            assert total == (1 if n == m else 0)


def test_infinite_transitions_are_inverse_matrices():
    a = LONG_A
    cutoff = 8
    inv_sp = [shifted_transition(n, "inv_shifted_to_power", a, cutoff) for n in range(1, cutoff + 1)]
    inv_ps = [shifted_transition(n, "inv_power_to_shifted", a, cutoff) for n in range(1, cutoff + 1)]
    for n in range(1, cutoff + 1):
        for m in range(1, cutoff + 1):
            total = sum(
                inv_ps[n - 1][k] * inv_sp[k - 1][m]
                for k in range(n, cutoff + 1)
            )
            expect = 1 if n == m else 0
            assert total == expect


def falling_product(x, a, m):
    """(x - a_0)(x - a_1)...(x - a_{m-1}) with a_0 = 0."""
    out = F(1)
    for i in range(m):
        out *= x - (F(0) if i == 0 else a.get(i))
    return out


def shifted_basis_product(x, a, m):
    """(x - a_1)(x - a_2)...(x - a_m)."""
    out = F(1)
    for i in range(1, m + 1):
        out *= x - a.get(i)
    return out


def test_power_to_shifted_expansion_identity():
    rng = random.Random(43)
    cutoff = 8
    for _ in range(5):
        x = rand_fraction(rng)
        vals = [F(0)] + [rand_fraction(rng) for _ in range(cutoff)]
        a = ParamSeq(tuple(vals))
        for j in range(cutoff + 1):
            coeffs = shifted_transition(j, "power_to_shifted", a)
            total = sum(
                coeffs[m] * shifted_basis_product(x, a, m) for m in range(j + 1)
            )
            assert total == x**j


def test_falling_power_expansion_identity():
    # sum over m of (x|a)^m * h_{k-m}(a_1..a_m) telescopes to x^k
    rng = random.Random(47)
    cutoff = 8
    for _ in range(5):
        vals = [F(0)] + [rand_fraction(rng) for _ in range(cutoff)]
        a = ParamSeq(tuple(vals))
        x = rand_fraction(rng)
        rows = [
            shifted_transition(m, "inv_shifted_to_power", a, cutoff)
            for m in range(1, cutoff + 1)
        ]
        for k in range(1, cutoff + 1):
            total = sum(
                falling_product(x, a, m) * rows[m - 1][k] for m in range(1, k + 1)
            )
            assert total == x**k
