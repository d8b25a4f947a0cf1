"""Tensor Gauss-Chebyshev quadrature for the product Chebyshev measure.

The univariate m-point rule has nodes cos((2j-1)pi/(2m)) and equal weights
1/m; it integrates every polynomial of degree <= 2m-1 exactly against the
arcsine weight dx / (pi sqrt(1-x^2)).  Tensor products of the rule do the
same per variable on the cube.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebpoly import ChebPoly, check_point_budget


@dataclass(slots=True, frozen=True)
class QuadratureRule:
    """Positive quadrature rule exact per variable up to ``exact_degree``."""

    num_vars: int
    nodes: tuple            # tuple of points, each a tuple of floats
    weights: tuple          # positive floats summing to 1
    exact_degree: int

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def axis_nodes(self) -> np.ndarray:
        """The shared univariate node set, ascending."""
        vals = sorted({pt[0] for pt in self.nodes})
        return np.asarray(vals)


class IntegrationResult(NamedTuple):
    value: float
    exact: bool


def chebyshev_nodes(m: int) -> np.ndarray:
    """Univariate Gauss-Chebyshev nodes cos((2j-1)pi/(2m)), ascending."""
    j = np.arange(m, 0, -1)
    return np.cos((2 * j - 1) * math.pi / (2 * m))


def gauss_chebyshev(n: int, m: int) -> QuadratureRule:
    """Tensor product of the univariate m-point Gauss-Chebyshev rule."""
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 1:
        raise ValueError("need m >= 1 nodes per axis")
    check_point_budget(m, n)
    axis = chebyshev_nodes(m)
    w = 1.0 / m ** n
    nodes = tuple(tuple(float(axis[i]) for i in combo)
                  for combo in itertools.product(range(m), repeat=n))
    weights = tuple(w for _ in nodes)
    return QuadratureRule(num_vars=n, nodes=nodes, weights=weights,
                          exact_degree=2 * m - 1)


def integrate(rule: QuadratureRule, p: ChebPoly) -> IntegrationResult:
    """Apply the rule to ``p``; flags whether the result is exact.

    Exact means every per-variable degree of ``p`` is within the rule's
    exactness degree, in which case the value equals the inner product of
    ``p`` with the constant 1 up to round-off.
    """
    if rule.num_vars != p.num_vars:
        raise ValueError(
            f"dimension mismatch: rule has {rule.num_vars} variables, "
            f"polynomial has {p.num_vars}"
        )
    exact = all(d <= rule.exact_degree for d in p.per_variable_degrees())
    total = 0.0
    for pt, w in zip(rule.nodes, rule.weights):
        total += w * p.eval(pt)
    return IntegrationResult(value=total, exact=exact)
