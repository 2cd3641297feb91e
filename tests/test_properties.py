"""Property tests for the sparse-accumulation kernel and the ring laws.

Inputs are drawn by hypothesis with a fixed derandomized seed, so every
run checks the same examples.
"""

import functools
import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import Poly, Tensor, hirota_apply, hirota_apply_taylor, tensor_of
from qlab.ring import accumulate

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
