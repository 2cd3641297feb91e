"""Property tests for the sparse-accumulation kernel and the ring laws.

Inputs are drawn by hypothesis with a fixed derandomized seed, so every
run checks the same examples.
"""

import copy
import functools
import itertools
import json
import math
import operator
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import (
    ParamSeq,
    Poly,
    Tensor,
    apply_phi,
    complete_sym,
    elem_sym,
    exp_derivation_coeffs,
    graded_monomials,
    hirota_apply,
    hirota_apply_taylor,
    multiparam_q,
    multiparam_q_via_fermions,
    poly_from_json_dict,
    poly_to_json_dict,
    q_lambda,
    strict_partitions,
    tensor_map,
    tensor_of,
)
from qlab import fermion, monomial, ring, series
from qlab.monomial import FAMILY_LETTERS, MAX_EXPONENT, mono_degree, mono_sort_key, mono_text, mono_weight
from qlab.ring import accumulate

from conftest import rand_poly

deterministic = settings(derandomize=True, deadline=None, database=None)

coefs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
monos = st.dictionaries(st.sampled_from([1, 3, 5]), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


def polys(family="p", max_terms=5):
    return st.dictionaries(monos, coefs, max_size=max_terms).map(
        lambda terms: Poly(terms, family)
    )


def no_zero_stored(value) -> bool:
    return all(isinstance(c, Fraction) and c != 0 for c in value.terms.values())


@deterministic
@given(st.lists(st.tuples(st.integers(0, 4), coefs), max_size=12), st.integers(0, 12))
def test_accumulate_sums_and_drops_zeros(items, n_cancelled):
    items += [(key, -c) for key, c in items[:n_cancelled]]
    expect: dict = {}
    for key, c in items:
        expect[key] = expect.get(key, 0) + c
    assert accumulate({}, items) == {k: c for k, c in expect.items() if c}


@deterministic
@given(polys(), polys(), polys())
def test_add_commutative_and_associative(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)


@deterministic
@given(polys(), polys(), polys())
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f


@deterministic
@given(polys())
def test_self_difference_is_zero(f):
    assert f - f == 0
    assert (f - f).is_zero()


@deterministic
@given(polys(), polys(), coefs)
def test_no_zero_coefficient_is_stored(f, g, c):
    results = [
        f, f + g, f - g, -f, f * g, f * c, f.diff(1), f.diff(3),
        Poly.lincomb([(f, c), (g, 1), (f, -c)]),
    ]
    assert all(no_zero_stored(r) for r in results)
    tensors = [tensor_of(f, g), tensor_of(f, g) + tensor_of(g, f), tensor_of(f, g) * c,
               Tensor.lincomb([(f, g, c), (g, f, 1)])]
    assert all(no_zero_stored(t) for t in tensors)


@deterministic
@given(st.lists(st.tuples(polys(), coefs), max_size=4))
def test_poly_lincomb_is_sum_of_scaled(pairs):
    expect = functools.reduce(operator.add, (f * c for f, c in pairs), Poly.zero())
    assert Poly.lincomb(pairs) == expect


@deterministic
@given(st.lists(st.tuples(polys(max_terms=3), polys(max_terms=3), coefs), max_size=4))
def test_tensor_lincomb_is_sum_of_tensors(triples):
    expect = functools.reduce(
        operator.add, (tensor_of(f, g) * c for f, g, c in triples), Tensor.zero()
    )
    assert Tensor.lincomb(triples) == expect


@settings(deterministic, max_examples=40)
@given(polys("D", max_terms=2), polys("x", max_terms=3), polys("x", max_terms=3))
def test_hirota_evaluators_agree(p, f, g):
    assert hirota_apply(p, f, g) == hirota_apply_taylor(p, f, g)


def degree_parity(parity):
    return monos.filter(lambda m: m and sum(e for _, e in m) % 2 == parity)


# Both parities are always present: odd |gamma| must give zero on (f, f).
mixed_hirota = st.tuples(
    *(st.dictionaries(degree_parity(k), coefs.filter(bool), min_size=1, max_size=2)
      for k in (0, 1))
).map(lambda parts: Poly({**parts[0], **parts[1]}, "D"))


@settings(deterministic, max_examples=40)
@given(mixed_hirota, polys("x", max_terms=3))
def test_hirota_halved_sum_matches_taylor(p, f):
    # The same object on both sides takes the halved binomial sum.
    assert hirota_apply(p, f, f) == hirota_apply_taylor(p, f, f)


@settings(deterministic, max_examples=40)
@given(mixed_hirota, polys("x", max_terms=4))
def test_hirota_halved_sum_matches_full_sum(p, f):
    # An equal but separate object takes the full binomial sum.
    assert hirota_apply(p, f, f) == hirota_apply(p, f, Poly(dict(f.terms), "x"))


# The integer form: every operation against a plain Fraction-dict
# reference, and the canonical numerator/denominator invariant.

wide_coefs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def wide_polys(family="p", max_terms=5):
    return st.dictionaries(monos, wide_coefs, max_size=max_terms).map(
        lambda terms: Poly(terms, family)
    )


def canonical(value) -> bool:
    """den > 0, no zero numerator, gcd(den, numerators) = 1, den = 1 for zero."""
    nums, den = value._nums, value._den
    return (
        type(den) is int and den > 0
        and all(type(n) is int and n != 0 for n in nums.values())
        and math.gcd(den, *nums.values()) == 1
        and (bool(nums) or den == 1)
    )


def ref_mono_mul(a, b):
    return tuple(sorted((Counter(dict(a)) + Counter(dict(b))).items()))


def ref_sum(pairs):
    """sum of c * terms over (terms, c), dropping zeros."""
    out: dict = {}
    for terms, c in pairs:
        for key, v in terms.items():
            out[key] = out.get(key, 0) + v * c
    return {key: v for key, v in out.items() if v}


def ref_mul(a, b):
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = ref_mono_mul(m1, m2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: v for key, v in out.items() if v}


def ref_diff(a, n):
    out = {}
    for mono, c in a.items():
        exps = dict(mono)
        e = exps.get(n, 0)
        if e:
            exps[n] = e - 1
            out[tuple(sorted((k, v) for k, v in exps.items() if v))] = c * e
    return out


def ref_tensor(f, g, c=1):
    return ref_sum([({(m1, m2): c1 * c2 for m1, c1 in f.items() for m2, c2 in g.items()}, c)])


@deterministic
@given(wide_polys(), wide_polys(), wide_coefs)
def test_poly_operations_match_fraction_reference(f, g, c):
    a, b = dict(f.terms), dict(g.terms)
    const = {(): Fraction(1, 3)}
    cases = [
        (f + g, ref_sum([(a, 1), (b, 1)])),
        (f - g, ref_sum([(a, 1), (b, -1)])),
        (-f, ref_sum([(a, -1)])),
        (f * g, ref_mul(a, b)),
        (f * c, ref_sum([(a, c)])),
        (c * f, ref_sum([(a, c)])),
        (f + Fraction(1, 3), ref_sum([(a, 1), (const, 1)])),
        (f - Fraction(1, 3), ref_sum([(a, 1), (const, -1)])),
        (f ** 2, ref_mul(a, a)),
        (f.diff(1), ref_diff(a, 1)),
        (f.diff(3), ref_diff(a, 3)),
        (Poly.lincomb([(f, c), (g, Fraction(5, 7)), (f, -1)]),
         ref_sum([(a, c), (b, Fraction(5, 7)), (a, -1)])),
        (f.weight_part(3), {m: v for m, v in a.items() if sum(n * e for n, e in m) == 3}),
        (f.truncate(4), {m: v for m, v in a.items() if sum(n * e for n, e in m) <= 4}),
        (f.subs_zero(1), {m: v for m, v in a.items() if 1 not in dict(m)}),
    ]
    if c:
        cases.append((f / c, ref_sum([(a, 1 / c)])))
    for result, expect in cases:
        assert dict(result.terms) == expect
        assert canonical(result)
        assert all(isinstance(v, Fraction) for v in result.terms.values())
    point = {1: Fraction(1, 2), 3: Fraction(-2), 5: Fraction(3, 7)}
    assert f.evaluate(point) == sum(
        (v * math.prod(point[n] ** e for n, e in m) for m, v in a.items()), Fraction(0)
    )
    assert all(f.coeff(m) == v for m, v in a.items())


@deterministic
@given(wide_polys(max_terms=3), wide_polys(max_terms=3), wide_polys(max_terms=3), wide_coefs)
def test_tensor_operations_match_fraction_reference(f, g, h, c):
    a, b, d = dict(f.terms), dict(g.terms), dict(h.terms)
    t, u = tensor_of(f, g), tensor_of(g, h)
    cases = [
        (t, ref_tensor(a, b)),
        (t + u, ref_sum([(ref_tensor(a, b), 1), (ref_tensor(b, d), 1)])),
        (t - u, ref_sum([(ref_tensor(a, b), 1), (ref_tensor(b, d), -1)])),
        (-t, ref_tensor(a, b, -1)),
        (t * c, ref_tensor(a, b, c)),
        (Tensor.lincomb([(f, g, c), (g, h, Fraction(-3, 4)), (f, g, 1)]),
         ref_sum([(ref_tensor(a, b), c), (ref_tensor(b, d), Fraction(-3, 4)),
                  (ref_tensor(a, b), 1)])),
        (tensor_map(t, "left", lambda p: p.diff(1)), ref_tensor(ref_diff(a, 1), b)),
    ]
    for result, expect in cases:
        assert dict(result.terms) == expect
        assert canonical(result)


@deterministic
@given(wide_polys(), wide_polys(max_terms=3), wide_coefs.filter(bool))
def test_values_through_different_denominators_are_equal(f, g, c):
    half = Fraction(1, 2)
    for same in (
        f * half + f * half,
        (f * 3) / 3,
        (f * c) / c,
        Poly.lincomb([(f, Fraction(1, 6)), (f, Fraction(1, 3)), (f, half)]),
        f + g * c - g * c,
    ):
        assert same == f
        assert same.text() == f.text()
        assert same.terms == f.terms
        assert canonical(same)
    t = tensor_of(f, g)
    for same in (t * half + t * half, (t * c) * (1 / c), tensor_of(f * c, g * (1 / c))):
        assert same == t
        assert same.text() == t.text()
        assert canonical(same)


@deterministic
@given(wide_polys(), wide_polys(max_terms=3), wide_coefs)
def test_copy_and_pickle_keep_equality(f, g, c):
    for value in (f, f * c, Poly.lincomb([(f, c)], "p"), tensor_of(f, g) * c):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value
            assert twin.text() == value.text()
            assert canonical(twin)


@deterministic
@given(st.sampled_from(["p", "x", "y", "D"]).flatmap(wide_polys))
def test_json_round_trip(f):
    text = json.dumps(poly_to_json_dict(f))
    back = poly_from_json_dict(json.loads(text))
    assert back == f
    assert back.family == f.family
    assert json.dumps(poly_to_json_dict(back)) == text


@deterministic
@given(wide_polys("v"), st.sampled_from([(1, 3), (3, 1), (2, 5)]))
def test_rename_and_linear_division_invert(f, pq):
    p, q = pq
    swap = {1: 5, 3: 3, 5: 1}

    def renamed(g):
        (image,) = g._renamings([swap])
        return image

    assert renamed(renamed(f)) == f
    assert dict(renamed(f).terms) == {
        tuple(sorted((swap[n], e) for n, e in m)): c for m, c in f.terms.items()
    }
    multiple = f * (Poly.variable(p, "v") - Poly.variable(q, "v"))
    quotient = multiple._div_linear(p, q)
    assert quotient == f
    assert canonical(quotient)
    with pytest.raises(ArithmeticError):
        (multiple + 1)._div_linear(p, q)


@deterministic
@given(st.dictionaries(st.sampled_from(graded_monomials(6)), coefs, max_size=4).map(Poly),
       st.integers(-4, 4), st.integers(-4, 4))
def test_phi_anticommutation(f, m, n):
    lhs = apply_phi(m, apply_phi(n, f)) + apply_phi(n, apply_phi(m, f))
    assert lhs == (f * (2 if m % 2 == 0 else -2) if m + n == 0 else Poly.zero())


def _norm(f):
    return Fraction(*fermion._norm2(f))


@deterministic
@given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_phi_norm_identity(rng, terms):
    """|phi_n f|^2 + |phi_{-n} f|^2 = 2 |f|^2 for every n >= 1, the identity
    by which is_bkp_tau_bilinear proves a creation image zero: phi_n and
    (-1)^n phi_{-n} are adjoint under the inner product of _norm2."""
    f = rand_poly(rng, max_weight=8, terms=terms)
    gs = exp_derivation_coeffs(f)
    for n in range(1, f.weight() + 3):
        assert _norm(fermion._phi_from(n, gs)) + _norm(fermion._phi_from(-n, gs)) == 2 * _norm(f)


def test_norm2_is_the_schur_q_inner_product():
    """<Q_lambda, Q_mu> = 2^l(lambda) [lambda = mu] for strict |lambda|, |mu| <= 8,
    each inner product read off _norm2 by polarization."""
    qs = [(lam, q_lambda(lam)) for lam in strict_partitions(8)]
    for lam, f in qs:
        for mu, g in qs:
            assert (_norm(f + g) - _norm(f - g)) / 4 == (2 ** len(lam) if lam == mu else 0)


# The two symmetric-polynomial kernels against brute-force sums.

sym_values = st.lists(st.one_of(st.integers(-3, 3), coefs), max_size=6)


@deterministic
@given(sym_values, st.integers(-1, 8))
def test_symmetric_polynomials_match_brute_force(vals, k):
    def brute(picks):
        return sum(map(math.prod, picks(vals, k)), Fraction(0)) if k >= 0 else 0

    assert elem_sym(k, vals) == brute(itertools.combinations)
    assert complete_sym(k, vals) == brute(itertools.combinations_with_replacement)


@deterministic
@given(sym_values)
def test_shifted_product_is_monic_in_lowest_terms(vals):
    rows = series._shifted_products(vals)
    assert len(rows) == len(vals) + 1
    for k, (den, nums) in enumerate(rows):
        assert den > 0 and math.gcd(den, *nums) == 1
        assert len(nums) == k + 1 and nums[-1] == den
    assert series._shifted_products(()) == [(1, (1,))]


param_seqs = st.one_of(
    st.integers(0, 8).map(ParamSeq.zeros),
    st.integers(0, 8).map(ParamSeq.factorial),
    st.lists(coefs, max_size=8).map(lambda vals: ParamSeq([0, *vals])),
)


@deterministic
@given(param_seqs)
def test_param_seq_carries_its_shifted_basis(a):
    """Row k of the table a sequence carries is (u - a_1)...(u - a_k),
    expanded here by plain Fraction list multiplication and reduced to int
    numerators over the least common denominator; copies and unpickled
    values rebuild the same table."""
    rows = a._rows(a.max_index)
    assert len(rows) == a.max_index + 1
    poly = [Fraction(1)]  # lowest degree first
    for k in range(a.max_index + 1):
        if k:
            shifted = [Fraction(0)] + poly
            for i, c in enumerate(poly):
                shifted[i] -= a.get(k) * c
            poly = shifted
        den = math.lcm(*(c.denominator for c in poly))
        assert rows[k] == (den, tuple(int(c * den) for c in poly))
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin._rows(twin.max_index) == rows


@deterministic
@given(st.lists(st.integers(1, 4), min_size=2, max_size=3),
       st.lists(coefs, min_size=3, max_size=3), st.data())
def test_multiparam_antisymmetry(alpha, params, data):
    a = ParamSeq([0, *params])
    i = data.draw(st.integers(0, len(alpha) - 2))
    swapped = [*alpha[:i], alpha[i + 1], alpha[i], *alpha[i + 2:]]
    repeated = [*alpha[:i + 1], alpha[i], *alpha[i + 2:]]
    for build in (multiparam_q, multiparam_q_via_fermions):
        assert build(swapped, a) == -build(alpha, a)
        assert build(repeated, a).is_zero()


# Packed monomial keys: encoding and decoding, products and the canonical
# order against the tuple-monomial reference.

def family_monos(family, max_index=40, max_exponent=255):
    """Monomials of the family: odd indices, or any index for "v"."""
    step = 1 if family == "v" else 2
    indices = st.integers(0, (max_index - 1) // step).map(lambda i: i * step + 1)
    return st.dictionaries(indices, st.integers(1, max_exponent), max_size=5).map(
        lambda d: tuple(sorted(d.items()))
    )


@deterministic
@given(st.sampled_from(["p", "x", "y", "D", "v"]).flatmap(
    lambda fam: st.tuples(st.just(fam), family_monos(fam), family_monos(fam, max_exponent=127))))
def test_packed_keys_round_trip_and_multiply(case):
    family, m1, m2 = case
    step = 1 if family == "v" else 2
    key = monomial._pack(m1, step)
    assert monomial._decode(key, step) == m1
    assert monomial._key_weight(key, step) == mono_weight(m1)
    assert monomial._key_degree(key) == mono_degree(m1)
    f = Poly.from_mono(m1, Fraction(2, 3), family)
    assert dict(f.terms) == {m1: Fraction(2, 3)} and list(f.terms) == [m1]
    # m2's exponents are at most 127, so only fields of m1 can reach the bound.
    g = Poly.from_mono(m2, 5, family)
    product = ref_mono_mul(m1, m2)
    if max((e for _, e in product), default=0) <= MAX_EXPONENT:
        assert dict((f * g).terms) == {product: Fraction(10, 3)}
    else:
        with pytest.raises(ArithmeticError):
            f * g


@deterministic
@given(family_monos("p"), family_monos("p"), wide_coefs.filter(bool))
def test_tensor_keys_round_trip(ml, mr, c):
    t = Tensor({(ml, mr): c})
    assert dict(t.terms) == {(ml, mr): c}
    assert t.terms[(ml, mr)] == c and (ml, mr) in t.terms
    assert pickle.loads(pickle.dumps(t)) == t
    assert t == tensor_of(Poly.from_mono(ml, c), Poly.from_mono(mr))


@deterministic
@given(st.sampled_from(["p", "v"]).flatmap(
    lambda fam: st.tuples(st.just(fam), st.lists(family_monos(fam, 12, 4), max_size=12))))
def test_canonical_order_of_packed_keys(case):
    family, monos_ = case
    f = Poly({m: 1 for m in monos_}, family)
    assert [m for m, _ in f.canonical_terms()] == sorted(set(monos_), key=mono_sort_key)


def signed_text(pieces) -> str:
    """The text form of (Fraction, monomial text) pairs in order, written
    out term by term as the printed form is specified."""
    out = ""
    for c, body in pieces:
        mag = f"{abs(c)}*{body}" if body else str(abs(c))
        out += (mag if c > 0 else "-" + mag) if not out else (" + " if c > 0 else " - ") + mag
    return out or "0"


@deterministic
@given(st.sampled_from(["p", "v"]).flatmap(
    lambda fam: st.tuples(st.just(fam), st.lists(family_monos(fam, 12, 4), max_size=12),
                          st.integers(1, 4))))
def test_canonical_records_sort_as_mono_sort_key(case):
    """The rows of every output path come in mono_sort_key order and each
    record holds the key's monomial, whether the key was in the
    canonical-form cache before or not."""
    family, monos_, stride = case
    ring._canonical.cache_clear()
    Poly({m: 1 for m in monos_[::stride]}, family).text()
    f = Poly({m: Fraction(len(m) - 2, 3) or 1 for m in monos_}, family)
    rows = f._canonical_rows()
    expect = sorted(set(monos_), key=mono_sort_key)
    assert [rec[1] for rec, _ in rows] == expect
    assert [rec[0] for rec, _ in rows] == sorted(rec[0] for rec, _ in rows)
    letter = FAMILY_LETTERS[family]
    assert f.text() == signed_text((f.terms[m], mono_text(m, letter)) for m in expect)


@deterministic
@given(st.lists(st.tuples(family_monos("p", 12, 4), family_monos("p", 12, 4),
                          wide_coefs.filter(bool)), max_size=10))
def test_tensor_text_orders_by_left_then_right(triples):
    t = Tensor.lincomb((Poly.from_mono(ml), Poly.from_mono(mr), c) for ml, mr, c in triples)
    order = sorted(t.terms, key=lambda pair: (mono_sort_key(pair[0]), mono_sort_key(pair[1])))
    assert t.text() == signed_text(
        (t.terms[pair], f"({mono_text(pair[0], 'p') or 1} (x) {mono_text(pair[1], 'p') or 1})")
        for pair in order)
