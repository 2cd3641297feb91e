"""JSON interchange form for polynomials.

A polynomial serializes as {"vars": <family>, "terms": [...]} where each
term is {"mono": {"<index>": <exponent>, ...}, "coef": "<rational>"}.
Terms are emitted in the canonical monomial order and coefficients as
exact rational strings, so serialization is deterministic and parsing
followed by re-serialization is the identity.  The order and the
monomial of each "mono" object come from the ring's cached canonical
form of the monomial key (ring._canonical), so a key is sorted and
decoded once however many polynomials print it; every call builds its
own "terms" list and "mono" dicts, so changing one output leaves the
next unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .monomial import Mono, check_mono
from .ring import Poly, _parse_rational, accumulate

ALLOWED_FAMILIES = ("p", "x", "y", "D")


def poly_to_json_dict(f: Poly) -> dict:
    if f.family not in ALLOWED_FAMILIES:
        raise ValueError(f"family {f.family!r} has no JSON form")
    return {
        "vars": f.family,
        "terms": [
            {"mono": {str(n): e for n, e in rec[1]}, "coef": c}
            for rec, c in f._canonical_texts()
        ],
    }


def _parse_mono(data: dict, family: str) -> Mono:
    if not isinstance(data, dict):
        raise ValueError("mono must be an object mapping index to exponent")
    pairs = []
    for key, e in data.items():
        try:
            n = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad variable index {key!r}") from None
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent for index {n} must be a positive integer")
        pairs.append((n, e))
    return check_mono(tuple(sorted(pairs)), family)


def poly_from_json_dict(data: dict) -> Poly:
    if not isinstance(data, dict):
        raise ValueError("polynomial JSON must be an object")
    family = data.get("vars")
    if family not in ALLOWED_FAMILIES:
        raise ValueError(f"unknown variable family {family!r}")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError("terms must be a list")
    pairs: list[tuple[Mono, Fraction]] = []
    for item in terms:
        if not isinstance(item, dict) or set(item) - {"mono", "coef"}:
            raise ValueError(f"malformed term {item!r}")
        mono = _parse_mono(item.get("mono", {}), family)
        coef_text = item.get("coef")
        if not isinstance(coef_text, str):
            raise ValueError("coef must be a rational string")
        try:
            coef = _parse_rational(coef_text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational {coef_text!r}") from None
        pairs.append((mono, coef))
    return Poly(accumulate({}, pairs), family)
