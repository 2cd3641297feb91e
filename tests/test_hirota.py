"""Tests for Hirota calculus, hierarchy generation, and the equation checker."""

import math
import os
import random
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    HierarchyReport,
    bkp_check,
    bkp_generate,
    clear_caches,
    equation_listing,
    exp_series,
    hirota_apply,
    hirota_apply_taylor,
    is_bkp_tau_bilinear,
    multiparam_q,
    p_to_x,
    q_lambda,
    schur_q_row,
    x_to_p,
)
from qlab import hirota, ring
from qlab.monomial import MAX_INDEX, graded_monomials, mono_degree, mono_sort_key, mono_text, mono_weight

from conftest import rand_poly

F = Fraction

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "hierarchy_w6.txt")
GOLDEN_RAW = os.path.join(os.path.dirname(__file__), "golden", "hierarchy_raw_w10.txt")


def dvar(n):
    return Poly.variable(n, "D")


def xv(n):
    return Poly.variable(n, "x")


def test_p_to_x_examples():
    assert p_to_x(q_lambda((1,))) == xv(1)
    q3x = p_to_x(schur_q_row(3))
    assert q3x == xv(3) + xv(1) ** 3 * F(1, 6)
    assert p_to_x(Poly.one("p")) == Poly.one("x")
    s = exp_series([xv(1), Poly.zero("x"), xv(3)], 3, one=Poly.one("x"))
    assert q3x == s[3]


def test_p_to_x_roundtrip():
    rng = random.Random(89)
    for _ in range(6):
        f = rand_poly(rng, max_weight=7)
        assert x_to_p(p_to_x(f)) == f
    g = rand_poly(rng, max_weight=7, family="x")
    assert p_to_x(x_to_p(g)) == g


def test_hirota_apply_examples():
    rng = random.Random(97)
    f = rand_poly(rng, max_weight=6, family="x")
    assert hirota_apply(dvar(1), f, f).is_zero()
    assert hirota_apply(dvar(1) * dvar(1), xv(1), xv(1) ** 2) == xv(1) * -2
    assert hirota_apply(dvar(1), xv(1), Poly.one("x")) == Poly.one("x")


def test_hirota_bilinear_and_symmetry():
    rng = random.Random(101)
    for _ in range(5):
        f = rand_poly(rng, max_weight=5, family="x", terms=3)
        g = rand_poly(rng, max_weight=5, family="x", terms=3)
        h = rand_poly(rng, max_weight=5, family="x", terms=2)
        p = rand_poly(rng, max_weight=5, family="D", terms=2)
        assert hirota_apply(p, f + h, g) == hirota_apply(p, f, g) + hirota_apply(p, h, g)
        for mono, c in p.terms.items():
            piece = Poly.from_mono(mono, c, "D")
            deg = sum(e for _, e in mono)
            swapped = hirota_apply(piece, g, f)
            expect = swapped if deg % 2 == 0 else -swapped
            assert hirota_apply(piece, f, g) == expect


def test_odd_powers_vanish_on_diagonal():
    rng = random.Random(103)
    for n in range(4):
        p = dvar(1) ** (2 * n + 1)
        f = rand_poly(rng, max_weight=5, family="x", terms=3)
        assert hirota_apply(p, f, f).is_zero()


def test_taylor_route_agrees():
    rng = random.Random(107)
    for _ in range(6):
        f = rand_poly(rng, max_weight=6, family="x", terms=3)
        g = rand_poly(rng, max_weight=6, family="x", terms=3)
        p = rand_poly(rng, max_weight=6, family="D", terms=2)
        assert hirota_apply_taylor(p, f, g) == hirota_apply(p, f, g)


def test_taylor_route_mixed_degree_symbol():
    """The Taylor product keeps z-degree up to deg P only; a symbol with
    terms of several degrees and a constant term still agrees."""
    x1, x3, x5 = (Poly.variable(n, "x") for n in (1, 3, 5))
    f = x1 ** 3 + x1 * x3 * 2 - x5 * F(1, 2) + 1
    g = x1 ** 2 * x3 - x3 * 3 + x1 * x5
    p = dvar(1) ** 4 - dvar(1) * dvar(3) * 3 + dvar(5) + 2
    value = hirota_apply(p, f, g)
    assert value and hirota_apply_taylor(p, f, g) == value
    v1, v2 = Poly.variable(1, "v"), Poly.variable(2, "v")
    assert hirota._doubled(x1 ** 3, 1, 1) == v1 ** 3 + v1 ** 2 * v2 * 3
    assert hirota._doubled(x1 ** 3, -1, 0) == v1 ** 3


def test_taylor_route_index_limit():
    """z_n is the index n + 1 of the doubled alphabet, so the Taylor
    evaluator refuses any input that uses the largest index; the binomial
    evaluator takes it, and at the index below it the two agree."""
    top = MAX_INDEX
    one = Poly.one("x")
    xtop = Poly.variable(top, "x")
    for p, f, g in ((dvar(top), xtop, one), (dvar(top), Poly.variable(1, "x"), one),
                    (dvar(1), xtop, one), (dvar(1) ** 2, Poly.variable(1, "x") ** 2, xtop)):
        with pytest.raises(ValueError, match=f"below MAX_INDEX = {MAX_INDEX}"):
            hirota_apply_taylor(p, f, g)
    assert hirota_apply(dvar(top), xtop, one) == 1
    n = top - 2
    xn, x1 = Poly.variable(n, "x"), Poly.variable(1, "x")
    f = xn ** 2 + x1 * xn * 3
    g = xn - x1 ** 2 * F(1, 2)
    for p in (dvar(n), dvar(n) ** 2, dvar(1) * dvar(n), dvar(1) ** 2 * dvar(n) ** 2):
        value = hirota_apply(p, f, g)
        assert value and hirota_apply_taylor(p, f, g) == value


def test_inhomogeneous_row_is_refused(monkeypatch):
    """The parity argument needs every equation homogeneous, and the
    generator checks each one-row factor: an inhomogeneous one raises."""
    def row(m):
        return schur_q_row(m) + Poly.variable(1) if m == 3 else schur_q_row(m)

    hirota._weight_slice.cache_clear()
    monkeypatch.setattr(hirota, "schur_q_row", row)
    try:
        with pytest.raises(ArithmeticError, match="inhomogeneous one-row Q_3"):
            bkp_generate(6)
    finally:
        hirota._weight_slice.cache_clear()


def test_bkp_generate_pinned_equation():
    eqs = bkp_generate(6)
    y3sq = ((3, 2),)
    expect = (
        dvar(1) ** 6
        - dvar(1) ** 3 * dvar(3) * 5
        - dvar(3) ** 2 * 5
        + dvar(1) * dvar(5) * 9
    ) * F(8, 45)
    assert eqs[y3sq] == expect
    assert eqs[y3sq].text() == "8/45*D1^6 - 8/9*D1^3*D3 - 8/9*D3^2 + 8/5*D1*D5"


def test_bkp_generate_canonical_drops_odd_degree():
    eqs = bkp_generate(6)
    y1 = ((1, 1),)
    assert y1 not in eqs or eqs[y1].is_zero()
    raw = bkp_generate(6, canonical=False)
    assert raw[y1] == dvar(1) * -4
    for coeff in eqs.values():
        for mono in coeff.terms:
            assert sum(e for _, e in mono) % 2 == 0


def test_bkp_generate_homogeneous_and_bounded():
    eqs = bkp_generate(8)
    for ymono, coeff in eqs.items():
        yw = sum(n * e for n, e in ymono)
        assert yw <= 8
        if not coeff.is_zero():
            assert coeff.weight_part(yw) == coeff


def test_bkp_generate_validation():
    with pytest.raises(ValueError):
        bkp_generate(1)
    with pytest.raises(ValueError):
        bkp_generate(0)


def test_every_generator_entry_point_rejects_max_weight_below_2():
    for call in (lambda w: bkp_check(q_lambda((2, 1)), w), equation_listing,
                 lambda w: list(hirota._equations(w))):
        for w in (1, 0):
            with pytest.raises(ValueError):
                call(w)


def test_equation_listing_matches_golden():
    with open(GOLDEN) as fh:
        golden = fh.read().splitlines()
    assert equation_listing(6) == golden


def test_bkp_generate_raw_matches_golden():
    # Every unreduced coefficient up to weight 10, odd-degree parts included.
    raw = bkp_generate(10, canonical=False)
    lines = [f"{mono_text(m, 'y')} : {raw[m].text()}" for m in sorted(raw, key=mono_sort_key)]
    with open(GOLDEN_RAW) as fh:
        assert lines == fh.read().splitlines()


def _substituted(q, family, scale):
    """q with every p_n replaced by scale(n) * v_n, v the given family."""
    return Poly({m: c * math.prod(scale(n) ** e for n, e in m) for m, c in q.terms.items()},
                family)


def test_generator_series_are_rescaled_q_rows():
    """The identity the generator rests on: exp_series of the X-sequences
    (-2 y_n) and (2 D_n / n) gives Q_m with p_n -> -n y_n and p_n -> D_n."""
    k = 16
    sy = exp_series([Poly.variable(n, "y") * -2 if n % 2 else 0 for n in range(1, k + 1)], k)
    sd = exp_series([Poly.variable(n, "D") * F(2, n) if n % 2 else 0 for n in range(1, k + 1)], k)
    for m in range(k + 1):
        q = schur_q_row(m)
        assert sy[m] == _substituted(q, "y", lambda n: -n)
        assert sd[m] == _substituted(q, "D", lambda n: 1)


def test_bkp_generate_joins_weight_slices():
    """A lower weight bound reads the same equations, raw and canonical,
    and each canonical equation is the even-degree part of the raw one."""
    for canonical in (True, False):
        eqs = {w: bkp_generate(w, canonical=canonical) for w in range(2, 15)}
        for w in range(3, 15):
            for lower in range(2, w):
                assert eqs[lower] == {m: p for m, p in eqs[w].items() if mono_weight(m) <= lower}
    raw, canon = bkp_generate(14, canonical=False), bkp_generate(14)
    assert canon.keys() == raw.keys()
    for ymono, p in raw.items():
        even = {m: c for m, c in p.terms.items() if mono_degree(m) % 2 == 0}
        assert canon[ymono] == Poly(even, "D")


def test_odd_weight_slices_hold_every_monomial():
    """At odd weight every y-monomial has a nonzero raw equation, so the
    canonical hierarchy, zero there, has the same keys as the raw one."""
    monos = graded_monomials(15)
    for w in range(1, 16, 2):
        assert set(hirota._weight_slice(w)) == {m for m in monos if mono_weight(m) == w}


def test_raising_the_weight_bound_builds_only_the_new_weights():
    tau = q_lambda((2, 1))
    hirota._weight_slice.cache_clear()
    assert bkp_check(tau, 12).passed
    assert hirota._weight_slice.cache_info().misses == 6
    assert bkp_check(tau, 14).passed
    assert hirota._weight_slice.cache_info().misses == 7
    # The canonical hierarchy reads only the even weights.
    for w in range(2, 15, 2):
        hirota._weight_slice(w)
    assert hirota._weight_slice.cache_info().misses == 7


def test_bkp_check_passes_on_solutions():
    report = bkp_check(q_lambda((2, 1)), 10)
    assert report.passed
    assert report.max_weight == 10
    assert report.checked > 0
    assert not report.failures
    fac = ParamSeq.factorial(4)
    assert bkp_check(multiparam_q((3, 1), fac), 10).passed


def test_bkp_check_fails_on_witness(witness):
    report = bkp_check(witness, 8)
    assert not report.passed
    assert report.failures
    for residual in report.failures.values():
        assert not residual.is_zero()


@pytest.mark.parametrize("which", ["witness", "q75_perturbed"])
def test_bkp_check_residuals_match_taylor(which, witness):
    """Every residual of the memoized evaluator equals the independent
    doubled-variable route, equation by equation, failing or not."""
    tau = witness if which == "witness" else (
        q_lambda((7, 5)) + Poly.variable(1) ** 2 * q_lambda((6, 4)) * F(2, 7))
    report = bkp_check(tau, 8)
    assert report.failures
    x = p_to_x(tau)
    checked = set()
    for mono, p in bkp_generate(8).items():
        name = mono_text(mono, "y")
        if not p:
            assert name in report.trivial
            continue
        checked.add(name)
        assert report.failures.get(name, Poly.zero("x")) == hirota_apply_taylor(p, x, x)
    assert len(checked) == report.checked
    assert set(report.failures) <= checked


def test_bkp_check_trivial_equations_reported():
    report = bkp_check(Poly.one("p"), 6)
    assert report.passed
    assert "y1" in report.trivial
    assert "y1*y3" in report.trivial


def test_hierarchy_report_fields_equality_and_repr():
    """A plain class with the fields, equality and repr text that the
    dataclass declaration of the report had."""
    first = HierarchyReport(max_weight=4, checked=0)
    second = HierarchyReport(max_weight=4, checked=0)
    assert first.trivial == [] and first.failures == {}
    assert first.trivial is not second.trivial
    assert first.failures is not second.failures
    assert first == second and not first != second
    first.trivial.append("y1")
    assert second.trivial == [] and first != second
    assert first != (4, 0, ["y1"], {})
    assert repr(second) == "HierarchyReport(max_weight=4, checked=0, trivial=[], failures={})"
    assert second.passed
    full = HierarchyReport(max_weight=6, checked=2, trivial=["y1"],
                           failures={"y3^2": Poly.variable(1, "x") * F(-12)})
    assert not full.passed
    assert repr(full) == ("HierarchyReport(max_weight=6, checked=2, trivial=['y1'], "
                          "failures={'y3^2': Poly[x](-12*x1)})")
    assert full == HierarchyReport(6, 2, ["y1"], {"y3^2": Poly.variable(1, "x") * -12})
    with pytest.raises(TypeError):
        hash(full)


def test_verifiers_and_construction_decode_no_key(monkeypatch):
    """With the hierarchy slices cached, building a Q-function and both
    verifiers work on packed monomial keys throughout: no tuple monomial
    is merged and no key is decoded back into one."""
    clear_caches()
    bkp_generate(12)
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(hirota, "mono_mul")
    counted(ring, "_decode")
    tau = q_lambda((7, 5))
    assert is_bkp_tau_bilinear(tau)[0]
    assert bkp_check(tau, 12).passed
    assert calls == []
    # The boundary does decode, so the counter is live.  Keys printed
    # before are in the canonical-form cache, so it starts empty here.
    clear_caches()
    assert tau.text().startswith("16/14175*p1^12 + ")
    assert calls.count("_decode") == len(tau.terms)
