"""Jackson damping coefficients and the associated polynomial kernel.

For a degree parameter r the damping coefficients are

    lambda_k = ((r+2-k) cos(k t) + sin(k t) cos(t) / sin(t)) / (r+2),
    t = pi / (r+2),  lambda_0 = 1,

and the kernel is K_r(x, y) = 1 + 2 sum_{k=1}^r lambda_k T_k(x) T_k(y),
which is pointwise nonnegative on [-1, 1]^2 with 0 < lambda_k <= 1 and
1 - lambda_k = O(k^2 / r^2).  Products over coordinates give the
multivariate kernel.

The kernel is an autocorrelation, lambda_k = sum_j a_j a_{j+k}, of the
amplitudes of ``_kernel_amplitudes``; ``sos1d`` builds its slices from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebpoly import Multidegree, _t_table


def _integral_degree(r) -> int:
    """``r`` as an int: refuse a kernel degree that is a bool, not integral
    (7.0 and 7.5 alike) or negative; numpy integers pass.  Every public
    function that takes a kernel degree checks it here, a plain int without
    the ABC check."""
    if type(r) is not int and (isinstance(r, bool) or not isinstance(r, numbers.Integral)):
        raise ValueError(f"kernel degree {r!r} is not an integer")
    r = int(r)
    if r < 0:
        raise ValueError(f"kernel degree {r} is negative")
    return r


def jackson_lambda(k: int, r: int) -> float:
    """Damping coefficient lambda_k for degree parameter r (0 <= k <= r)."""
    r = _integral_degree(r)
    if k < 0 or k > r:
        raise ValueError(f"need 0 <= k <= r, got k={k}, r={r}")
    if k == 0:
        return 1.0
    theta = math.pi / (r + 2)
    return ((r + 2 - k) * math.cos(k * theta)
            + math.sin(k * theta) * math.cos(theta) / math.sin(theta)) / (r + 2)


@lru_cache(maxsize=1024)
def _lambdas(r: int, d: int) -> tuple:
    """``(lambda_0, .., lambda_d)`` of the degree-r kernel, 0 <= d <= r, from
    :func:`jackson_lambda` and memoized by (r, d): the one eigenvalue table
    that the spectrum, the kernel expansion and the operator read."""
    return tuple(jackson_lambda(k, r) for k in range(d + 1))


def _kernel_amplitudes(r: int) -> np.ndarray:
    """a_j = sin(pi (j + 1) / (r + 2)) / sqrt((r + 2) / 2), j = 0..r, whose
    autocorrelation matches the closed-form lambda_0..lambda_r to round-off
    (Weisse et al., Rev. Mod. Phys. 78, 275 (2006))."""
    return np.sin(np.pi * np.arange(1, r + 2) / (r + 2)) / math.sqrt((r + 2) / 2)


@dataclass(slots=True, frozen=True)
class JacksonSpectrum:
    """Eigenvalues lambda_0..lambda_r of the degree-r kernel operator."""

    r: int
    theta_r: float
    lambdas: tuple

    def __getitem__(self, k: int) -> float:
        return self.lambdas[k]

    def __len__(self) -> int:
        return len(self.lambdas)


def spectrum(r: int) -> JacksonSpectrum:
    """All damping coefficients for degree parameter ``r``."""
    r = _integral_degree(r)
    return JacksonSpectrum(r=r, theta_r=math.pi / (r + 2), lambdas=_lambdas(r, r))


def multi_lambda(kappa: Multidegree, r: int) -> float:
    """Eigenvalue of the multivariate operator: prod_i lambda_{kappa_i}."""
    r = _integral_degree(r)
    if not all(0 <= k <= r for k in kappa):
        raise ValueError(f"multidegree {tuple(kappa)} has an entry outside 0..{r}")
    lams = _lambdas(r, max(kappa, default=0))
    return math.prod((lams[k] for k in kappa), start=1.0)   # times lambda_0 = 1.0 is exact


def _kernel_coeffs(r: int) -> np.ndarray:
    """Coefficients (1, 2*lambda_1, ..., 2*lambda_r) of the kernel expansion."""
    coef = 2.0 * np.array(_lambdas(r, r))
    coef[0] = 1.0
    return coef


def kernel_eval_1d(r: int, x, y):
    """Evaluate K_r(x, y); broadcasts over array-valued x and y, and is a
    float when both are scalars."""
    r = _integral_degree(r)
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    x = np.array(x, dtype=float, ndmin=1)
    y = np.array(y, dtype=float, ndmin=1)
    coef = _kernel_coeffs(r)
    tx = _t_table(x.ravel(), r).reshape((r + 1,) + x.shape)
    ty = _t_table(y.ravel(), r).reshape((r + 1,) + y.shape)
    out = np.einsum("k...,k...,k->...", tx, ty, coef)
    return float(out[0]) if scalar else out


def kernel_eval_nd(r: int, x, y) -> float:
    """Evaluate the product kernel prod_i K_r(x_i, y_i) at two points."""
    x = tuple(float(t) for t in x)
    y = tuple(float(t) for t in y)
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    out = 1.0
    for xi, yi in zip(x, y):
        out *= kernel_eval_1d(r, xi, yi)
    return out


@dataclass(slots=True, frozen=True)
class SpectralPropertyReport:
    """Numerical check of the kernel's nonnegativity and eigenvalue bounds."""

    r: int
    d: int
    kernel_min: float            # over the sampled grid of [-1,1]^2
    lambda_min: float            # over 0 <= k <= r
    lambda_max: float
    decay_margin: float          # min over 1 <= k <= d of bound_k - (1 - lambda_k)
    nonneg_ok: bool
    range_ok: bool
    decay_ok: bool

    @property
    def ok(self) -> bool:
        return self.nonneg_ok and self.range_ok and self.decay_ok


def verify_prop21(r: int, d: int, grid: int = 201) -> SpectralPropertyReport:
    """Sample-check kernel nonnegativity plus the eigenvalue bounds.

    Checks nonnegativity of K_r on a ``grid`` x ``grid`` sample of the
    square, to -1e-12 times K_r(1, 1) = 1 + 2 sum lambda_k (the kernel's
    maximum, which its rounding grows with); 0 < lambda_k <= 1 for k <= r;
    and the decay bound 1 - lambda_k <= pi^2 k^2 / (r+2)^2 for each
    1 <= k <= d, whose least margin is ``decay_margin`` (0 at d = 0).
    """
    r = _integral_degree(r)
    if not 0 <= d <= r:
        raise ValueError(f"need 0 <= d <= r, got d={d}, r={r}")
    axis = np.cos(np.linspace(0.0, math.pi, grid))
    kvals = kernel_eval_1d(r, axis[:, None], axis[None, :])
    kernel_min = float(np.min(kvals))
    peak = float(_kernel_coeffs(r).sum())      # K_r(1, 1)
    lams = spectrum(r).lambdas
    lambda_min = min(lams)
    lambda_max = max(lams)
    decay_margin = min((math.pi ** 2 * k ** 2 / (r + 2) ** 2 - (1.0 - lams[k])
                        for k in range(1, d + 1)), default=0.0)
    return SpectralPropertyReport(
        r=r,
        d=d,
        kernel_min=kernel_min,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        decay_margin=decay_margin,
        nonneg_ok=kernel_min >= -1e-12 * peak,
        range_ok=0.0 < lambda_min and lambda_max <= 1.0,
        decay_ok=decay_margin >= -1e-12,
    )
