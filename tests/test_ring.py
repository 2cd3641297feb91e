"""Tests for the exact polynomial ring layer."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    Tensor,
    apply_phi,
    bkp_check,
    bkp_generate,
    complete_sym,
    elem_sym,
    eval_powersums,
    exp_derivation_coeffs,
    exp_series,
    exp_series_det,
    log_series,
    log_series_by_inversion,
    graded_monomials,
    hirota_apply,
    hirota_apply_taylor,
    is_bkp_tau_bilinear,
    mono_degree,
    mono_mul,
    mono_text,
    mono_weight,
    multiparam_q,
    p_to_x,
    poly_from_json_dict,
    powersum_image,
    q_lambda,
    q_sym_at,
    qa_sym_at,
    strict_partitions,
    tensor_map,
    tensor_of,
    x_to_p,
)

from qlab.monomial import MAX_EXPONENT, MAX_INDEX, check_mono

from conftest import RANDOM_A, rand_fraction, rand_poly


def test_mono_helpers():
    m = ((1, 3), (5, 2))
    assert mono_weight(m) == 13
    assert mono_degree(m) == 5
    assert mono_weight(()) == 0
    assert mono_degree(()) == 0
    assert mono_mul(((1, 1),), ((1, 2), (3, 1))) == ((1, 3), (3, 1))
    assert mono_mul((), ()) == ()
    assert mono_text(((1, 3), (3, 1)), "p") == "p1^3*p3"
    assert mono_text((), "p") == ""


def test_constructors_and_equality():
    zero = Poly.zero("p")
    assert zero.is_zero()
    assert zero.terms == {}
    one = Poly.one("p")
    assert one.terms == {(): Fraction(1)}
    assert Poly.const(Fraction(0), "p").is_zero()
    p1 = Poly.variable(1)
    assert p1.terms == {((1, 1),): Fraction(1)}
    assert Poly.variable(3, "x").family == "x"
    with pytest.raises(ValueError):
        Poly.variable(2)
    with pytest.raises(ValueError):
        Poly.variable(-1)


def test_basic_arithmetic_examples():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    assert (p1 * p1).terms == {((1, 2),): Fraction(1)}
    assert ((Poly.one("p") + p3) + Poly.const(Fraction(-1), "p")) == p3
    assert (p1 * 2) * (p1 * p1 * 2) == p1**3 * 4
    assert (p1 - p1).is_zero()
    assert (-p1) + p1 == Poly.zero("p")
    assert p1 * Fraction(1, 2) == p1 / 2


def test_mixed_family_rejected():
    p1 = Poly.variable(1, "p")
    x1 = Poly.variable(1, "x")
    d1 = Poly.variable(1, "D")
    # Every operation that takes one family names the family it expected
    # and the one it got, in one message.
    for call, expected, got in (
        (lambda: p1 + x1, "p", "x"),
        (lambda: p1 * x1, "p", "x"),
        (lambda: apply_phi(1, x1), "p", "x"),
        (lambda: exp_derivation_coeffs(x1), "p", "x"),
        (lambda: is_bkp_tau_bilinear(x1), "p", "x"),
        (lambda: bkp_check(x1, 4), "p", "x"),
        (lambda: p_to_x(x1), "p", "x"),
        (lambda: x_to_p(p1), "x", "p"),
        (lambda: hirota_apply(x1, x1, x1), "D", "x"),
        (lambda: hirota_apply(d1, p1, x1), "x", "p"),
        (lambda: hirota_apply(d1, x1, p1), "x", "p"),
        (lambda: hirota_apply_taylor(d1, x1, d1), "x", "D"),
        (lambda: eval_powersums(x1, [1]), "p", "x"),
        (lambda: powersum_image(x1, 2), "p", "x"),
        (lambda: Tensor.lincomb([(p1, x1, 1)]), "p", "x"),
    ):
        with pytest.raises(ValueError, match=f"^expected a '{expected}' polynomial, got '{got}'$"):
            call()
    # Equality does not raise: constants are equal whatever their family.
    assert p1 != x1
    assert Poly.one("p") == Poly.one("x")
    assert Poly.zero("p") == Poly.zero("D")
    assert Poly.const(Fraction(3, 2), "y") == Poly.const(Fraction(3, 2), "p")


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(30):
        f = rand_poly(rng, max_weight=8)
        g = rand_poly(rng, max_weight=8)
        h = rand_poly(rng, max_weight=8)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        c = rand_fraction(rng)
        assert (f + g) * c == f * c + g * c


def test_power_and_scalar_division():
    rng = random.Random(11)
    f = rand_poly(rng, max_weight=4)
    acc = Poly.one("p")
    for k in range(5):
        assert f**k == acc
        acc = acc * f
    with pytest.raises(ValueError):
        f ** (-1)
    with pytest.raises(ZeroDivisionError):
        f / 0


def test_grading_weight_additive():
    rng = random.Random(13)
    for _ in range(20):
        f = rand_poly(rng, max_weight=7)
        g = rand_poly(rng, max_weight=7)
        for wf in range(8):
            for wg in range(8):
                part = f.weight_part(wf) * g.weight_part(wg)
                if not part.is_zero():
                    assert part.weight_part(wf + wg) == part


def test_diff_examples_and_validation():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    assert (p1**3).diff(1) == p1 * p1 * 3
    assert (p3 * p1).diff(3) == p1
    assert p1.diff(3).is_zero()
    with pytest.raises(ValueError):
        p1.diff(2)
    with pytest.raises(ValueError):
        p1.diff(0)
    with pytest.raises(ValueError):
        p1.diff(-3)


def test_diff_leibniz_randomized():
    rng = random.Random(17)
    for _ in range(20):
        f = rand_poly(rng, max_weight=7)
        g = rand_poly(rng, max_weight=7)
        for n in (1, 3, 5):
            assert (f * g).diff(n) == f.diff(n) * g + f * g.diff(n)


def test_diff_drops_weight():
    rng = random.Random(19)
    f = rand_poly(rng, max_weight=9)
    for n in (1, 3, 5):
        d = f.diff(n)
        for w in range(10):
            assert d.weight_part(w) == f.weight_part(w + n).diff(n)


def test_weight_part_truncate_examples():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    f = p1 * 2 + p3
    assert f.weight_part(3) == p3
    assert f.weight_part(1) == p1 * 2
    assert f.weight_part(2).is_zero()
    assert (p1**5 + p1).truncate(4) == p1
    q21 = p1**3 * 4 - p3 * Fraction(4, 3)
    assert q21.weight_part(3) == q21
    assert q21.weight() == 3


def test_truncate_is_algebra_morphism():
    rng = random.Random(23)
    for _ in range(15):
        f = rand_poly(rng, max_weight=9)
        g = rand_poly(rng, max_weight=9)
        for w in range(0, 10, 3):
            lhs = (f * g).truncate(w)
            rhs = (f.truncate(w) * g.truncate(w)).truncate(w)
            assert lhs == rhs


def test_weight_and_degree():
    p1 = Poly.variable(1)
    p5 = Poly.variable(5)
    f = p1**2 * p5 + p1
    assert f.weight() == 7
    assert f.degree() == 3
    assert Poly.zero("p").weight() == 0
    assert Poly.zero("p").degree() == 0


def test_coeff_subs_zero_support():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    f = p1 * p3 * Fraction(5, 2) + p3 - Poly.one("p")
    assert f.coeff(((1, 1), (3, 1))) == Fraction(5, 2)
    assert f.coeff(((5, 1),)) == 0
    assert f.support_indices() == {1, 3}
    assert f.subs_zero(1) == p3 - Poly.one("p")
    assert f.subs_zero(5) == f


def test_evaluate():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    f = p1**2 * 3 + p3 * Fraction(1, 2)
    vals = {1: Fraction(2), 3: Fraction(-4)}
    assert f.evaluate(vals) == Fraction(10)
    assert Poly.one("p").evaluate({}) == 1
    with pytest.raises(ValueError):
        f.evaluate({1: Fraction(2)})


def test_text_canonical():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    q21 = p1**3 * Fraction(4, 3) - p3 * Fraction(4, 3)
    assert q21.text() == "4/3*p1^3 - 4/3*p3"
    assert (p1 * 2 + p3 * Fraction(1, 3)).text() == "2*p1 + 1/3*p3"
    assert Poly.zero("p").text() == "0"
    assert Poly.one("x").text() == "1"
    assert (Poly.variable(1, "D") * -1).text() == "-1*D1"


def test_canonical_term_order():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    p5 = Poly.variable(5)
    f = p5 + p1 * p3 * p1 + p1 + p3 * p1**2
    monos = [m for m, _ in f.canonical_terms()]
    assert monos == [((1, 1),), ((1, 2), (3, 1)), ((5, 1),)]


def test_tensor_examples():
    one = Poly.one("p")
    p1 = Poly.variable(1)
    q1 = p1 * 2
    t = tensor_of(one, one)
    assert t.terms == {((), ()): Fraction(1)}
    t2 = tensor_of(q1, q1)
    assert t2.terms == {(((1, 1),), ((1, 1),)): Fraction(4)}
    t3 = tensor_map(tensor_of(p1, p1), "left", lambda f: f.diff(1))
    assert t3 == tensor_of(one, p1)


def test_tensor_bilinearity():
    rng = random.Random(29)
    for _ in range(10):
        f = rand_poly(rng, max_weight=5)
        f2 = rand_poly(rng, max_weight=5)
        g = rand_poly(rng, max_weight=5)
        assert tensor_of(f + f2, g) == tensor_of(f, g) + tensor_of(f2, g)
        assert tensor_of(g, f + f2) == tensor_of(g, f) + tensor_of(g, f2)


def test_tensor_arithmetic():
    p1 = Poly.variable(1)
    p3 = Poly.variable(3)
    t = tensor_of(p1, p3)
    assert (t - t).is_zero()
    assert (t + t) == t * 2
    assert (t * Fraction(0)).is_zero()
    assert tensor_map(t, "right", lambda f: f * 0).is_zero()
    with pytest.raises(ValueError):
        tensor_map(t, "middle", lambda f: f)


def test_constructors_reject_malformed_monomials():
    malformed = [((2, 1),), ((1, 0),), ((3, 1), (1, 1)), ((1, 1), (1, 2)), ((0, 1),),
                 ((-1, 1),), ((1,),), ((1, 1, 1),), ((1.0, 1),), "p1"]
    for mono in malformed:
        for build in (lambda: Poly({mono: 1}), lambda: Poly.from_mono(mono),
                      lambda: Poly.from_mono(mono, 0), lambda: Tensor({(mono, ()): 1}),
                      lambda: Tensor({((), mono): 1})):
            with pytest.raises(ValueError):
                build()
    for key in [("a", "b"), (), (((1, 1),),), ((), (), ()), "pq"]:
        with pytest.raises(ValueError):
            Tensor({key: 1})
    for n, e in [(2, 1), (4, 1), (0, 1), (-1, 1), (1, 0)]:
        with pytest.raises(ValueError):
            Poly.variable(n, exponent=e)
    for mono in [{"4": 1}, {"0": 1}, {"1": 1, "01": 2}, {"3": 0}]:
        with pytest.raises(ValueError):
            poly_from_json_dict({"vars": "D", "terms": [{"mono": mono, "coef": "1"}]})
    assert Poly({((1, 1), (3, 1)): 1}) == Poly.variable(1) * Poly.variable(3)
    assert Poly({(): 1}) == Poly.one()
    # The oracle's alphabet x_1..x_N allows every positive index.
    assert Poly({((2, 1), (4, 3)): 1}, "v") == Poly.variable(2, "v") * Poly.variable(4, "v", 3)


def test_constructors_reject_unknown_families():
    for family in ("z", "zz", "P", "", None, 1):
        for build in (lambda: Poly({((1, 1),): 1}, family), lambda: Poly(None, family),
                      lambda: Poly.zero(family), lambda: Poly.one(family),
                      lambda: Poly.const(3, family), lambda: Poly.variable(2, family),
                      lambda: Poly.from_mono(((1, 1),), 1, family),
                      lambda: Poly.lincomb([], family)):
            with pytest.raises(ValueError, match="unknown variable family"):
                build()
    for family, letter in [("p", "p"), ("x", "x"), ("y", "y"), ("D", "D"), ("v", "x")]:
        assert Poly.lincomb([(Poly.variable(1, family), 2)], family).text() == f"2*{letter}1"


def test_tensor_legs_must_be_power_sum_polynomials():
    x1 = Poly.variable(1, "x")
    for f, g in [(x1, Poly.one("x")), (Poly.one(), x1), (Poly.one("D"), Poly.one())]:
        with pytest.raises(ValueError):
            tensor_of(f, g)
        with pytest.raises(ValueError):
            Tensor.lincomb([(Poly.one(), Poly.one(), 1), (f, g, 0)])
    t = tensor_of(q_lambda((2, 1)), q_lambda((1,)))
    with pytest.raises(ValueError):
        tensor_map(t, "left", p_to_x)
    assert tensor_map(t, "right", lambda f: f * 2) == t * 2


def test_graded_monomials():
    monos = graded_monomials(8)
    assert len(monos) == 25
    assert monos[0] == ()
    weights = [mono_weight(m) for m in monos]
    assert weights == sorted(weights)
    assert len(set(monos)) == len(monos)
    for m in monos:
        assert all(n % 2 == 1 for n, _ in m)
    assert graded_monomials(0) == [()]


def test_strict_partitions():
    parts = strict_partitions(8)
    assert parts[0] == ()
    assert len(parts) == 25
    assert len([p for p in parts if p]) == 24
    for lam in parts:
        assert all(a > b for a, b in zip(lam, lam[1:]))
        assert sum(lam) <= 8
    assert (3, 2, 1) in parts
    assert (2, 1) in parts


def test_cached_values_reject_mutation():
    y1 = ((1, 1),)
    cached = [
        lambda: q_lambda((2, 1)),
        lambda: multiparam_q((2, 1), ParamSeq.factorial(1)),
        lambda: bkp_generate(6, canonical=False)[y1],
        lambda: tensor_of(q_lambda((1,)), q_lambda((1,))),
    ]
    for get in cached:
        value = get()
        before = dict(value.terms)
        family = getattr(value, "family", None)
        key = next(iter(before))
        with pytest.raises(AttributeError):
            value.terms.clear()
        with pytest.raises(TypeError):
            value.terms[key] = Fraction(0)
        with pytest.raises(TypeError):
            del value.terms[key]
        for name in ("terms", "family"):
            with pytest.raises(AttributeError):
                setattr(value, name, {})
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert get().terms == before
        assert getattr(get(), "family", None) == family


def test_values_copy_and_pickle():
    f = q_lambda((3, 1)) * Fraction(2, 3)
    t = tensor_of(f, q_lambda((1,)))
    for value in (f, Poly.zero("D"), t):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value
            assert getattr(twin, "family", None) == getattr(value, "family", None)


def test_exponent_bound():
    x = Poly.variable(1)
    top = Poly.variable(1, exponent=MAX_EXPONENT)
    assert MAX_EXPONENT == 255
    assert top.terms == {((1, MAX_EXPONENT),): 1}
    assert x**MAX_EXPONENT == top
    assert (x**200 * x**55) == top
    for build in (lambda: Poly.variable(1, exponent=256), lambda: Poly({((3, 256),): 1}),
                  lambda: Poly.from_mono(((1, 1), (5, 300))), lambda: check_mono(((1, 256),)),
                  lambda: Tensor({((), ((1, 256),)): 1}),
                  lambda: poly_from_json_dict({"vars": "p", "terms": [
                      {"mono": {"1": 256}, "coef": "1"}]})):
        with pytest.raises(ValueError, match="exceeds 255"):
            build()
    # One past the bound raises and never carries into the next field.
    for build in (lambda: top * x, lambda: x**256, lambda: x ** (2**40),
                  lambda: x**200 * x**56, lambda: (x**130 + Poly.variable(3)) * x**126):
        with pytest.raises(ArithmeticError):
            build()
    # Guard bits set in different fields, or on one side only, still fit.
    y = Poly.variable(3, exponent=128)
    assert (x**128 * y).terms == {((1, 128), (3, 128)): 1}
    assert ((x**130 + Poly.variable(3)) * x**125).weight() == 255
    assert (top * Poly.variable(3, exponent=MAX_EXPONENT)).degree() == 2 * MAX_EXPONENT


def test_index_bound():
    for family in ("p", "v"):
        f = Poly.variable(MAX_INDEX, family)
        assert f.support_indices() == {MAX_INDEX}
        assert f.diff(MAX_INDEX) == 1 and f.subs_zero(MAX_INDEX).is_zero()
        assert f.diff(MAX_INDEX + 2).is_zero() and f.subs_zero(MAX_INDEX + 2) == f
        for n in (MAX_INDEX + 2, 10**12 + 1):
            with pytest.raises(ValueError, match="exceeds"):
                Poly.variable(n, family)


def test_substituted_matches_hand_built_arithmetic():
    """_substituted replaces each variable by a polynomial: the image of f
    equals f written out by hand with the images' sums, products and
    powers, whatever the images' family."""
    F = Fraction
    p1, p3, p5 = (Poly.variable(n) for n in (1, 3, 5))
    f = 3 + p1**3 * p3 * F(-2, 5) + p1 * p5**2 + p3**2 - p1**4 * p5
    v1, v2, v3 = (Poly.variable(n, "v") for n in (1, 2, 3))
    images = {1: v1 * v2 + 1, 3: v3**2 - v1 * F(1, 2), 5: v2**3 * F(7, 3) - v3}
    a, b, c = images[1], images[3], images[5]
    image = f._substituted(images, "v")
    assert image.family == "v"
    assert image == 3 + a**3 * b * F(-2, 5) + a * c**2 + b**2 - a**4 * c
    # Within one family, and with an image that is a constant.
    x1, x3, x5 = (Poly.variable(n, "x") for n in (1, 3, 5))
    g = 3 + x1**3 * x3 * F(-2, 5) + x1 * x5**2 + x3**2 - x1**4 * x5
    a, b, c = x1 + x3**2, Poly.const(F(-1, 2), "x"), x1 * x3
    assert g._substituted({1: a, 3: b, 5: c}, "x") == (
        3 + a**3 * b * F(-2, 5) + a * c**2 + b**2 - a**4 * c)
    # Constants keep their value in the new family; images may cancel.
    const = Poly.const(F(5, 7))._substituted({}, "v")
    assert const.family == "v" and const == Poly.const(F(5, 7), "v")
    assert Poly.zero()._substituted({}, "v") == Poly.zero("v")
    assert (p1**2 - p3)._substituted({1: v1, 3: v1**2}, "v").is_zero()


_P1 = Poly.variable(1)

# Every public entry point that takes a number from its caller, as a
# function of that number.
EXACT_ENTRY_POINTS = {
    "Poly": lambda x: Poly({((1, 1),): x}),
    "Tensor": lambda x: Tensor({((), ((1, 1),)): x}),
    "const": lambda x: Poly.const(x),
    "from_mono": lambda x: Poly.from_mono(((3, 1),), x),
    "Poly.lincomb": lambda x: Poly.lincomb([(_P1, x)]),
    "Tensor.lincomb": lambda x: Tensor.lincomb([(_P1, _P1, x)]),
    "evaluate": lambda x: (_P1 * _P1 + Poly.variable(3)).evaluate({1: x, 3: 1}),
    "ParamSeq": lambda x: ParamSeq([0, x]),
    "elem_sym": lambda x: elem_sym(1, [1, x]),
    "complete_sym": lambda x: complete_sym(2, [1, x]),
    "exp_series": lambda x: exp_series([x, 1], 3),
    "exp_series_det": lambda x: exp_series_det([x, 1], 3),
    "exp_series one": lambda x: exp_series([1, 1], 3, one=x),
    "log_series": lambda x: log_series([1, x], 3),
    "log_series_by_inversion": lambda x: log_series_by_inversion([1, x], 3),
    "q_sym_at": lambda x: q_sym_at((2, 1), [x, 1, 3]),
    "qa_sym_at": lambda x: qa_sym_at((2, 1), RANDOM_A, [x, 1, 3]),
    "eval_powersums": lambda x: eval_powersums(q_lambda((2, 1)), [x, 1, 3]),
}


@pytest.mark.parametrize("name", EXACT_ENTRY_POINTS)
def test_entry_points_take_only_ints_and_fractions(name):
    """Every number a caller passes in goes through one conversion, which
    takes an int or a Fraction: a float, a str or a Decimal raises
    TypeError naming its type, and an int gives what the equal Fraction
    gives.  A float used to be read as its binary value by ParamSeq and
    to crash Poly.lincomb with AttributeError."""
    entry = EXACT_ENTRY_POINTS[name]
    for bad in (0.5, "1/2", Decimal("0.5")):
        with pytest.raises(TypeError, match=type(bad).__name__):
            entry(bad)
    assert entry(2) == entry(Fraction(2))
