"""Independent reference values for the construct workload.

Nothing here imports qlab.  A Schur Q-function in N variables is evaluated
pointwise from its symmetrization formula

    Q(x) = 2^l * sum over injective l-tuples t of
           prod_k row_k(x_{t_k}) * prod_k prod_{j not in t_0..t_k}
           (x_{t_k} + x_j) / (x_{t_k} - x_j),

where row_k(x) = x^lambda_k for the classical function and the falling
product (x - a_0)(x - a_1)...(x - a_{alpha_k - 1}) for the multiparameter
one.  The point has distinct nonzero integer coordinates with distinct
absolute values, so no factor vanishes.  Every unordered pair {i, j}
occurs at most once in the denominator of a tuple's weight, so scaling by
the Vandermonde product V = prod_{i<j} (x_i - x_j) keeps all arithmetic
in integers; parameter denominators are cleared the same way.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction


def random_point(rng: random.Random, n_vars: int) -> list[int]:
    """Distinct nonzero integers with distinct absolute values."""
    mags = rng.sample(range(1, 41), n_vars)
    return [m if rng.random() < 0.5 else -m for m in mags]


class Symmetrizer:
    """Pointwise symmetrization at one fixed integer point."""

    def __init__(self, xs: list[int]):
        self.xs = xs
        self.vandermonde = math.prod(
            xs[i] - xs[j] for i in range(len(xs)) for j in range(i + 1, len(xs))
        )
        self._weights: dict[int, list[tuple[tuple[int, ...], int]]] = {}

    def _tuple_weights(self, length: int):
        """(tuple, V * weight) for every injective tuple of the given length."""
        hit = self._weights.get(length)
        if hit is None:
            xs, n = self.xs, len(self.xs)
            hit = []
            for t in itertools.permutations(range(n), length):
                w = Fraction(self.vandermonde)
                for k, i in enumerate(t):
                    for j in range(n):
                        if j not in t[: k + 1]:
                            w *= Fraction(xs[i] + xs[j], xs[i] - xs[j])
                if w.denominator != 1:
                    raise ArithmeticError("tuple weight is not integral after scaling")
                hit.append((t, int(w)))
            self._weights[length] = hit
        return hit

    def q_value(self, parts: tuple[int, ...], params: list[Fraction] | None = None) -> Fraction:
        """Q_parts at the point; with params, the multiparameter Q_parts."""
        scale = 1
        if params is None:
            rows = [[x**m for x in self.xs] for m in parts]
        else:
            d = math.lcm(*(a.denominator for a in params[: max(parts, default=0)]))
            rows = [
                [math.prod(d * x - int(d * a) for a in params[:m]) for x in self.xs]
                for m in parts
            ]
            scale = d ** sum(parts)
        total = sum(
            w * math.prod(rows[k][i] for k, i in enumerate(t))
            for t, w in self._tuple_weights(len(parts))
        )
        return Fraction(2 ** len(parts) * total, self.vandermonde * scale)


def json_value(text: str, xs: list[int]) -> Fraction:
    """Evaluate a power-sum polynomial in qlab's JSON form at
    p_n = sum_i x_i^n."""
    data = json.loads(text)
    if data["vars"] != "p":
        raise ValueError(f"expected power sums, got vars {data['vars']!r}")
    psums: dict[str, int] = {}
    total = Fraction(0)
    for term in data["terms"]:
        v = Fraction(term["coef"])
        for n, e in term["mono"].items():
            if n not in psums:
                psums[n] = sum(x ** int(n) for x in xs)
            v *= psums[n] ** e
        total += v
    return total
