"""Tests for the cached canonical form of monomial keys that every text
and JSON output reads, and for the package's bounded caches."""

import hashlib
import json
import random
from fractions import Fraction

from qlab import (
    ParamSeq,
    Poly,
    bkp_generate,
    clear_caches,
    multiparam_q,
    poly_to_json_dict,
    q_lambda,
    strict_partitions,
)
from qlab import ring, series

CACHES = ring._CACHES


def cache_name(cached):
    return f"{cached.__module__}.{cached.__qualname__}"


def test_cache_registry_names_every_cache():
    """The registry holds exactly these caches, each an lru_cache wrapper
    with its bound.  A cache added to or dropped from the package, or a
    decorator turned back into a plain lru_cache, changes this list."""
    assert sorted((cache_name(cached), cached.cache_info().maxsize) for cached in CACHES) == [
        ("qlab.fermion._phi_mono", 512),
        ("qlab.fermion._q_lambda", 2048),
        ("qlab.hirota._weight_monomials", 128),
        ("qlab.hirota._weight_slice", 128),
        ("qlab.ring._canonical", 16384),
        ("qlab.series.schur_q_row", 256),
    ]


def test_json_output_is_fresh_for_each_call():
    """Mutating the "mono" dicts and the "terms" list of one output leaves
    the cached forms, and with them the next output, unchanged."""
    f = q_lambda((5, 3, 1)) + Poly.variable(3) * Fraction(-2, 7)
    first = json.dumps(poly_to_json_dict(f))
    data = poly_to_json_dict(f)
    for term in data["terms"]:
        term["mono"]["99"] = 1
        term["mono"].pop("1", None)
        term["coef"] = "0"
    data["terms"].reverse()
    data["terms"].append({"mono": {}, "coef": "1"})
    assert json.dumps(poly_to_json_dict(f)) == first
    assert poly_to_json_dict(f)["terms"][0]["mono"] is not poly_to_json_dict(f)["terms"][0]["mono"]


def construct_outputs():
    """Every input of the construct benchmark workload at seed 7: each
    strict partition of size at most 18 as Q_lambda, and each of size at
    most 12 as a multiparameter Q in the zero, factorial and random
    families."""
    rng = random.Random("construct:7")
    random_a = [Fraction(0)] + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                                for _ in range(12)]
    families = {"zero": ParamSeq.zeros(12), "factorial": ParamSeq.factorial(12),
                "random": ParamSeq(random_a)}
    groups = {"classical": [q_lambda(lam) for lam in strict_partitions(18) if lam]}
    for name, a in families.items():
        groups[name] = [multiparam_q(alpha, a) for alpha in strict_partitions(12) if alpha]
    return groups


def test_construct_outputs_are_byte_stable():
    """sha256 of the JSON and text of every construct input, recorded
    before outputs read the canonical-form cache."""
    expect = {
        "classical": ("ea0177785ffa6516c0f2f8e11b3385d42e77ac361852f62a2d18a6a0fd999041",
                      "2b36cc57a62c08c9d83bb0a33f643910186172132411c5b0ef4764d8be538a1a"),
        "zero": ("065c7c55447a82c34e48e27e073eed157b3d427ed0416506b20b0ea56ad310d9",
                 "dcbe462f64318f57849ce999d06836b35836480c184c35a31ca61ac234367cba"),
        "factorial": ("bc55711c37b743641f6ac57feb012f350941e5bb56077a6121a25ee936ed50d6",
                      "a9029d6f9e90ec729a6691812f600451e818596600ad37265cae5ca483bb3ce8"),
        "random": ("a82b94eefdf0078a004a44628eb19c040ac36f8bbaa399e9b94ac3dbde47a77a",
                   "f7db223f036133b660631ff61444e7144416d988d956b76979d93ffdb63b0420"),
    }
    got = {}
    for name, polys in construct_outputs().items():
        as_json, as_text = hashlib.sha256(), hashlib.sha256()
        for f in polys:
            as_json.update(json.dumps(poly_to_json_dict(f)).encode() + b"\n")
            as_text.update(f.text().encode() + b"\n")
        got[name] = (as_json.hexdigest(), as_text.hexdigest())
    assert got == expect


def test_clear_caches_empties_every_cache_and_results_stay_equal():
    def build():
        tau = q_lambda((5, 3, 1))
        return (tau, tau.text(), multiparam_q((4, 2), ParamSeq.factorial(4)),
                bkp_generate(8), series.schur_q_row(9))

    before = build()
    assert all(cached.cache_info().currsize for cached in CACHES)
    assert all(cached.cache_info().maxsize for cached in CACHES)
    clear_caches()
    assert [cached.cache_info().currsize for cached in CACHES] == [0] * len(CACHES)
    assert build() == before


def test_no_cache_evicts_on_construct_or_weight_33():
    """The bound rule of the README: building and printing every construct
    input evicts from no cache, and neither does building the weight-33
    Q-function that the bilinear CI step checks, so each miss is still an
    entry.  Each run starts from empty caches, as each runs in a process
    of its own; the two together form 750 images phi_m, over the 512 that
    _phi_mono holds."""
    def construct():
        for polys in construct_outputs().values():
            for f in polys:
                json.dumps(poly_to_json_dict(f))
                f.text()

    for run in (construct, lambda: q_lambda((15, 9, 5, 3, 1))):
        clear_caches()
        run()
        for cached in CACHES:
            info = cached.cache_info()
            assert info.misses == info.currsize, cache_name(cached)
