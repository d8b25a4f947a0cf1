"""The smoothing operator induced by the Jackson kernel, and its inverse.

On polynomials whose per-variable degree stays within the kernel degree r,
the integral transform against K_r is diagonal in the tensor Chebyshev
basis: T_kappa is scaled by prod_i lambda_{kappa_i}.  Both directions are
therefore coefficient maps.  This module also provides the quantitative
machinery around the inverse: a computable majorant for the sup-norm of
K_r^{-1} p - p, the convergence constant C(n, d), and the degree threshold
pi d sqrt(2 n) under which the eigenvalue bounds kick in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import ChebPoly, enumerate_multidegrees, grid_extrema, hamming_weight
# spectrum is no longer called here, but stays importable from this module
# for callers that wrap it here (bench/tracing.py)
from .jackson import _integral_degree, _lambdas, multi_lambda, spectrum  # noqa: F401


def _check_degree(d: int, r: int) -> None:
    """Refuse a largest per-variable degree d above the kernel degree r."""
    if d > r:
        raise ValueError(f"per-variable degree {d} exceeds kernel degree {r}")


def _eigenpairs(p: ChebPoly, r: int):
    """Yield ``(kappa, c, lambda_kappa)`` for every stored term of ``p``; only
    lambda_0 .. lambda_d are used, d the largest per-variable degree, read
    from the memo ``jackson._lambdas`` keyed by (r, d).  Raises
    ``ValueError`` when r is not a nonnegative integer or d exceeds it."""
    r = _integral_degree(r)
    d = max(p.per_variable_degrees())
    _check_degree(d, r)
    lams = _lambdas(r, d)
    for kappa, c in p.coeffs.items():
        lam = 1.0
        for k in kappa:
            if k:
                lam *= lams[k]
        yield kappa, c, lam


def apply_forward(p: ChebPoly, r: int) -> ChebPoly:
    """Smooth ``p``: scale each coefficient by its eigenvalue."""
    return ChebPoly(p.num_vars, {kappa: c * lam for kappa, c, lam in _eigenpairs(p, r)})


def apply_inverse(p: ChebPoly, r: int) -> ChebPoly:
    """Unsmooth ``p``: divide each coefficient by its eigenvalue."""
    return ChebPoly(p.num_vars, {kappa: c / lam for kappa, c, lam in _eigenpairs(p, r)})


def deviation_bound_exact(p: ChebPoly, r: int) -> float:
    """Computable majorant of sup |K_r^{-1} p - p| over the cube.

    Equals sum_kappa 2^w(kappa) |p_kappa| |1 - 1/lambda_kappa| with p_kappa
    the inner-product coefficients; since |T_kappa| <= 1 on the cube this
    dominates the true sup-norm.  In terms of the stored basis coefficients
    the 2^w factors cancel.
    """
    total = 0.0
    for _, c, lam in _eigenpairs(p, r):
        total += abs(c) * abs(1.0 - 1.0 / lam)
    return total


@dataclass(slots=True, frozen=True)
class CertConstant:
    """The convergence constant C(n, d), in all its computable variants.

    ``poly_in_d`` is 2 pi^2 d^2 n^2 2^(n/2) (d+1)^n (polynomial in d for
    fixed n), ``poly_in_n`` is 2 pi^2 d^2 n^2 2^(d/2) (n+1)^d, and ``exact``
    is the sharper pre-bound binom(n+d, d) 2^(min(n,d)/2) 2 n^2 pi^2 d^2
    that both closed forms relax.
    """

    n: int
    d: int
    poly_in_d: float
    poly_in_n: float
    exact: float

    @property
    def closed_min(self) -> float:
        return min(self.poly_in_d, self.poly_in_n)

    @property
    def sharpest(self) -> float:
        return self.exact


def constant_C(n: int, d: int) -> CertConstant:
    """Convergence constant for ``n`` variables and degree ``d``."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    base = 2.0 * math.pi ** 2 * d ** 2 * n ** 2
    poly_in_d = base * 2.0 ** (n / 2.0) * float(d + 1) ** n
    poly_in_n = base * 2.0 ** (d / 2.0) * float(n + 1) ** d
    exact = base * 2.0 ** (min(n, d) / 2.0) * math.comb(n + d, d)
    return CertConstant(n=n, d=d, poly_in_d=poly_in_d, poly_in_n=poly_in_n,
                        exact=exact)


def theorem_threshold(n: int, d: int) -> float:
    """Kernel degree pi d sqrt(2 n) above which the O(1/r^2) bound holds."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return math.pi * d * math.sqrt(2.0 * n)


@dataclass(slots=True, frozen=True)
class EigenvalueBoundReport:
    """Sweep of the eigenvalue and coefficient bounds used in the analysis."""

    n: int
    d: int
    r: int
    decay_applicable: bool        # r >= pi d, for |1 - lambda| <= n pi^2 d^2 / r^2
    inverse_applicable: bool      # r >= pi d sqrt(2n), for the 1 - 1/lambda bound
    worst_decay: float            # max |1 - lambda_kappa| over the simplex
    worst_inverse: float          # max |1 - 1/lambda_kappa|
    decay_bound: float
    inverse_bound: float
    worst_coeff_excess: float     # max over samples of |p_kappa| - 2^(-w/2)
    decay_ok: bool
    inverse_ok: bool
    coeff_ok: bool

    @property
    def ok(self) -> bool:
        checks = [self.coeff_ok]
        if self.decay_applicable:
            checks.append(self.decay_ok)
        if self.inverse_applicable:
            checks.append(self.inverse_ok)
        return all(checks)


def _random_sup_normalized(n: int, d: int, rng: np.random.Generator) -> ChebPoly:
    """Random polynomial scaled so its sup norm over the cube is ~1."""
    keys = enumerate_multidegrees(n, d)
    coeffs = {k: rng.standard_normal() for k in keys}
    p = ChebPoly(n, coeffs)
    lo, _, hi, _ = grid_extrema(p)
    scale = max(abs(lo), abs(hi))
    if scale == 0.0:
        return ChebPoly.constant(n, 1.0)
    # shrink a touch so the grid estimate cannot undershoot the true sup norm
    return p.scale(1.0 / (scale * (1.0 + 1e-9)))


def lemma_bounds_check(n: int, d: int, r: int, samples: int = 10,
                       seed: int = 0) -> EigenvalueBoundReport:
    """Verify the eigenvalue bounds and the coefficient bound numerically.

    Over every multidegree in the total-degree-d simplex: |1 - lambda_kappa|
    <= n pi^2 d^2 / r^2 (meaningful for r >= pi d) and |1 - 1/lambda_kappa|
    <= 2 n pi^2 d^2 / r^2 (for r >= pi d sqrt(2n)).  Additionally, for
    random polynomials normalized to sup norm <= 1, every inner-product
    coefficient satisfies |p_kappa| <= 2^(-w(kappa)/2).
    """
    if not 1 <= d <= r:
        raise ValueError("need r >= d >= 1")
    worst_decay = 0.0
    worst_inverse = 0.0
    for kappa in enumerate_multidegrees(n, d):
        lam = multi_lambda(kappa, r)
        worst_decay = max(worst_decay, abs(1.0 - lam))
        worst_inverse = max(worst_inverse, abs(1.0 - 1.0 / lam))
    decay_bound = n * math.pi ** 2 * d ** 2 / r ** 2
    inverse_bound = 2.0 * decay_bound

    rng = np.random.default_rng(seed)
    worst_excess = -math.inf
    for _ in range(samples):
        p = _random_sup_normalized(n, d, rng)
        for kappa, c in p.coeffs.items():
            w = hamming_weight(kappa)
            inner_coeff = abs(c) * 2.0 ** (-w)
            worst_excess = max(worst_excess, inner_coeff - 2.0 ** (-w / 2.0))

    return EigenvalueBoundReport(
        n=n, d=d, r=r,
        decay_applicable=r >= math.pi * d,
        inverse_applicable=r >= theorem_threshold(n, d),
        worst_decay=worst_decay,
        worst_inverse=worst_inverse,
        decay_bound=decay_bound,
        inverse_bound=inverse_bound,
        worst_coeff_excess=worst_excess,
        decay_ok=worst_decay <= decay_bound + 1e-12,
        inverse_ok=worst_inverse <= inverse_bound + 1e-12,
        coeff_ok=worst_excess <= 1e-9,
    )
