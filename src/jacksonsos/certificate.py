"""End-to-end construction and verification of cube positivity certificates.

Given f nonnegative on [-1, 1]^n and a shift eta >= 0, ``certify`` builds an
explicit decomposition

    f + eta = sum_{J subset of {1..n}} sigma_J * prod_{j in J} (1 - x_j^2)

in which every sigma_J is a positive combination of squares.  The
construction unsmooths f + eta with the inverse Jackson operator, checks the
result is still nonnegative, re-smooths it through the kernel written as a
positive combination of its values at tensor Gauss-Chebyshev nodes, and
splits every univariate kernel slice into squares in closed form, two for
each of sigma_0 and sigma_1.  The nodes are the fewest that make the
identity exact: m = ceil((r + d + 1) / 2) per axis, d the largest
per-variable degree of f.  The certificate stores one nonnegative weight per
node and nothing else, since the squares of every slice are a function of
r and m alone.  Its validity is machine-checkable by contracting the
weights with the split slices, without expanding the squares.

``kernel_lower_bound`` turns the same identity into certified lower bounds
on the minimum of f: f - lambda is a nonnegative node combination of kernel
slices when lambda is the least unsmoothed value at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import (
    POINT_BUDGET,
    ChebPoly,
    check_point_budget,
    chebyshev_nodes,
    grid_extrema,
    grid_minimum,
    lobatto_axis,
)
from .kernelop import _check_degree, apply_inverse, constant_C, theorem_threshold
# decompose_kernel_slice is no longer called here, but stays importable from
# this module for callers that look it up or wrap it here (bench/tracing.py)
from .sos1d import (decompose_kernel_slice, decompose_kernel_slices,  # noqa: F401
                    split_coeffs)

#: most variables a certificate may have: numpy's array rank limit
MAX_VARS = 64

#: a certificate is valid when its reconstruction matches f + eta this closely
RESIDUAL_TOL = 1e-8
#: tolerance of the nonnegativity gate on the unsmoothed polynomial, relative
#: to max |f + eta| on the gate grid
GATE_TOL = 1e-10
#: node weights more negative than this abort; values in [-NODE_CLAMP, 0) drop
NODE_CLAMP = 1e-12
#: golden-section polish rounds of f's own grid extrema in a bound sweep
_BOUND_REFINE_ITERS = 3


class NotCertifiable(Exception):
    """The unsmoothed polynomial goes negative, so no certificate comes out."""

    def __init__(self, message: str, min_value: float = math.nan, location=None):
        super().__init__(message)
        self.min_value = min_value
        self.location = location


class ResidualTooLarge(Exception):
    """The assembled identity failed its own reconstruction check."""

    def __init__(self, residual: float):
        super().__init__(f"certificate residual {residual:.3e} exceeds "
                         f"{RESIDUAL_TOL:.0e}")
        self.residual = residual


def _grid_points(n: int) -> tuple:
    """Default grid points per axis for n variables: (certify's gate, f's extrema).

    From n = 4 on, both are the largest k <= 17 with k^n <= ``POINT_BUDGET``
    (14 at n = 6), or 2, so that n >= 24 still meets the budget error.
    """
    k = 17
    while k > 2 and k ** n > POINT_BUDGET:
        k -= 1
    return {1: (2049, 4097), 2: (257, 513), 3: (65, 65)}.get(n, (k, k))


def _check_slices(r: int, m: int) -> None:
    """Refuse a kernel degree no m-node identity makes exact, and a table of
    kernel-slice factors (m nodes, 2 factors, r + 2 coefficients) past
    ``POINT_BUDGET``."""
    if not 0 <= r <= 2 * m - 1:
        raise ValueError(f"kernel degree {r} on {m} nodes per axis; "
                         f"need 0 <= r <= 2m - 1")
    if 2 * m * (r + 2) > POINT_BUDGET:
        raise ValueError(f"kernel-slice table of {m} x 2 x {r + 2} entries "
                         f"exceeds budget {POINT_BUDGET}")


@dataclass(slots=True)
class SchmudgenCertificate:
    """Explicit membership witness for f + eta in the truncated preordering.

    ``weights`` is the m^n array of node weights W >= 0 (clamped nodes hold
    0), m nodes per axis, and it is all a certificate stores besides its
    header.  The kernel slice at node t splits in closed form as

        S_t = u_{t,c}^2 + u_{t,s}^2 + (1 - x^2) (v_{t,c}^2 + v_{t,s}^2),

    a function of (r, m) alone, which :meth:`squares` derives for all m
    nodes.  The identity is

        f + eta = sum_idx W[idx] prod_j S_{idx_j}(x_j),

    and multiplying it out gives the Schmudgen form: sigma_J is the sum over
    the nodes idx, and over one square of the chosen kind per axis, of
    W[idx] * (prod_{j not in J} u_{idx_j}(x_j) prod_{j in J} v_{idx_j}(x_j))^2.
    """

    num_vars: int
    r: int
    eta: float
    weights: np.ndarray
    residual: float

    def __post_init__(self):
        if not 1 <= self.num_vars <= MAX_VARS:
            raise ValueError(f"{self.num_vars} variables; need 1 to {MAX_VARS}")
        shape = np.shape(self.weights)
        m = shape[0] if shape else 0
        if shape != (m,) * self.num_vars:
            raise ValueError(f"weights of shape {shape} for {self.num_vars} variables; "
                             f"need shape {(m,) * self.num_vars}")
        _check_slices(self.r, m)

    def squares(self) -> tuple:
        """(u, v) of the kernel slices at all m nodes: ``u[t]`` holds the
        sigma_0 squares of node t and ``v[t]`` the sigma_1 squares, one dense
        Chebyshev row per square (``sos1d.decompose_kernel_slices``)."""
        return decompose_kernel_slices(self.r, chebyshev_nodes(len(self.weights)))

    def reconstruct(self) -> ChebPoly:
        """sum_idx W[idx] prod_j S_{idx_j}(x_j), contracting W along every axis."""
        table = np.zeros((len(self.weights), self.r + 2))
        for t, (u, v) in enumerate(zip(*self.squares())):
            s = split_coeffs(u, v)
            table[t, :s.size] = s
        dense = self.weights
        for _ in range(self.num_vars):
            dense = np.tensordot(dense, table, axes=(0, 0))
        return ChebPoly(self.num_vars, dict(np.ndenumerate(dense)))

    def squares_per_subset(self) -> dict:
        """Squares in each expanded sigma_J: over the nodes with W > 0, the
        product of the nonzero squares of each axis's kind (u for j not in J,
        v for j in J)."""
        n = self.num_vars
        u, v = self.squares()
        counts = np.stack([np.any(u, axis=-1).sum(axis=-1),
                           np.any(v, axis=-1).sum(axis=-1)], axis=1)
        out = {}
        for mask in range(2 ** n):
            subset = tuple(j for j in range(n) if mask >> j & 1)
            live = (self.weights > 0.0).astype(np.int64)
            for j in range(n):
                live = live * counts[:, int(j in subset)].reshape((-1,) + (1,) * (n - 1 - j))
            if live.any():
                out[subset] = int(live.sum())
        return out

    def square_count(self) -> int:
        return sum(self.squares_per_subset().values())


@dataclass(slots=True, frozen=True)
class VerificationReport:
    """Independent check of a stored certificate."""

    residual: float
    scales_positive: bool
    square_count: int

    @property
    def valid(self) -> bool:
        return self.residual <= RESIDUAL_TOL and self.scales_positive


def _relative_residual(recon: ChebPoly, target: ChebPoly) -> float:
    diff = recon - target
    scale = target.max_abs_coeff()
    if scale == 0.0:
        return diff.max_abs_coeff()
    return diff.max_abs_coeff() / scale


def _node_count(f: ChebPoly, r: int) -> int:
    """Gauss-Chebyshev nodes per axis that make the kernel identity exact for f.

    With g = K_r^{-1}(f + c) of per-variable degree at most d = max_j deg_{x_j} f,
    K_r(x, y) g(y) has degree r + d in each y_j, and m nodes integrate degree
    2m - 1 exactly: m = ceil((r + d + 1) / 2).
    """
    return (r + max(f.per_variable_degrees()) + 2) // 2


def certify(f: ChebPoly, eta: float, r: int) -> SchmudgenCertificate:
    """Build an explicit square decomposition of f + eta over the cube.

    Raises :class:`NotCertifiable` when the polished grid minimum of the
    unsmoothed polynomial K_r^{-1}(f + eta) lies below -``GATE_TOL`` times
    the gate's scale, max |f + eta| over the same Chebyshev-Lobatto grid
    (unpolished), or when a quadrature node weight comes out negative beyond
    round-off; and
    :class:`ResidualTooLarge` if the assembled identity fails to reconstruct
    f + eta within ``RESIDUAL_TOL``.  Kernel slices split in closed form,
    so no slice can fail.  Raises ``ValueError`` when the m^n quadrature
    nodes, m = ceil((r + d + 1) / 2) with d = max_j deg_{x_j} f, or the
    table of kernel-slice factors exceed ``POINT_BUDGET``.  A constant
    f + eta is certified on one node at r = 0, since K_0 = 1.
    """
    n = f.num_vars
    eta = float(eta)
    if r < 0:
        raise ValueError("need r >= 0")
    _check_degree(f, r)
    target = f.shift(eta)

    # constants are fixed points of the operator: certify them directly
    const = target.coeffs.get((0,) * n, 0.0)
    if all(k == (0,) * n for k in target.coeffs):
        if const < 0.0:
            raise NotCertifiable(
                f"constant target {const:.3e} is negative", min_value=const
            )
        return SchmudgenCertificate(num_vars=n, r=0, eta=eta,
                                    weights=np.full((1,) * n, const), residual=0.0)

    m = _node_count(f, r)
    check_point_budget(m, n)
    _check_slices(r, m)
    unsmoothed = apply_inverse(target, r)
    lobatto = lobatto_axis(_grid_points(n)[0])
    gmin, gloc = grid_minimum(unsmoothed, lobatto)[:2]
    # the gate's scale: max |f + eta| on the same grid, unpolished (min and
    # max, so that no second grid-sized array is alive at once)
    tvals = target.eval_grid([lobatto] * n)
    norm = max(-float(tvals.min()), float(tvals.max()))
    if gmin < -GATE_TOL * norm:
        raise NotCertifiable(
            f"unsmoothed polynomial reaches {gmin:.6e} at {gloc}",
            min_value=gmin,
            location=gloc,
        )

    axis = chebyshev_nodes(m)
    gvals = unsmoothed.eval_grid([axis] * n)

    weights = (1.0 / m ** n) * gvals
    if weights.min() < -NODE_CLAMP:
        idx = tuple(int(i) for i in np.argwhere(weights < -NODE_CLAMP)[0])
        raise NotCertifiable(
            f"negative node weight {weights[idx]:.3e} at node {idx}",
            min_value=float(weights[idx]),
        )
    weights[weights <= 0.0] = 0.0

    cert = SchmudgenCertificate(num_vars=n, r=r, eta=eta, weights=weights, residual=0.0)
    residual = _relative_residual(cert.reconstruct(), target)
    if residual > RESIDUAL_TOL:
        raise ResidualTooLarge(residual)
    cert.residual = residual
    return cert


def verify(cert: SchmudgenCertificate, f: ChebPoly) -> VerificationReport:
    """Check a certificate against f + eta from its stored weights alone.

    The weights must be nonnegative, and their contraction with the squares
    derived from (r, m) must match f + eta to ``RESIDUAL_TOL`` relative.
    """
    target = f.shift(cert.eta)
    return VerificationReport(
        residual=_relative_residual(cert.reconstruct(), target),
        scales_positive=bool(np.all(cert.weights >= 0.0)),
        square_count=cert.square_count(),
    )


# -- certified lower bounds -------------------------------------------------------


@dataclass(slots=True, frozen=True)
class BoundReport:
    """Certified kernel lower bound and its convergence bookkeeping."""

    r: int
    lambda_star: float          # min of K_r^{-1} f over the quadrature nodes
    fmin_est: float             # polished grid estimates of f's own extrema
    fmax_est: float
    gap: float                  # fmin_est - lambda_star
    C_used: float
    threshold: float
    bound: float                # (fmax_est - fmin_est) * C_used / r^2
    theorem_satisfied: bool
    argmin: tuple               # the node where lambda_star falls


def kernel_lower_bound(f: ChebPoly, r: int) -> BoundReport:
    """Certified lower bound on min f over the cube via unsmoothing.

    lambda_star is the minimum of g = K_r^{-1} f over the m^n Gauss-Chebyshev
    nodes, m = ceil((r + d + 1) / 2) with d the largest per-variable degree:
    that rule makes f - lambda = sum_idx m^-n (g(y_idx) - lambda) prod_j
    K_r(x_j, y_idx_j) exact, and K_r >= 0.  Raises ``ValueError`` when the
    m^n nodes exceed ``POINT_BUDGET``.
    """
    return rate_sweep(f, [r])[0]


def _lower_bound(f: ChebPoly, r: int, m: int, fmin_est: float,
                 fmax_est: float) -> BoundReport:
    """One :func:`rate_sweep` row on m nodes per axis, given f's own extrema."""
    n = f.num_vars
    d = f.degree()

    axis = chebyshev_nodes(m)
    vals = apply_inverse(f, r).eval_grid([axis] * n)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    lambda_star = float(vals[idx])

    gap = fmin_est - lambda_star

    if d >= 1:
        threshold = theorem_threshold(n, d)
        c_used = constant_C(n, d).sharpest
        bound = (fmax_est - fmin_est) * c_used / r ** 2
        theorem_satisfied = (r < threshold) or (gap <= bound + 1e-12)
    else:
        threshold = 0.0
        c_used = 0.0
        bound = 0.0
        theorem_satisfied = True
    return BoundReport(
        r=r,
        lambda_star=lambda_star,
        fmin_est=fmin_est,
        fmax_est=fmax_est,
        gap=gap,
        C_used=c_used,
        threshold=threshold,
        bound=bound,
        theorem_satisfied=theorem_satisfied,
        argmin=tuple(float(axis[i]) for i in idx),
    )


def rate_sweep(f: ChebPoly, r_values) -> list:
    """One :class:`BoundReport` per kernel degree in ``r_values``.

    Every degree and node count is checked before any grid is evaluated.
    f's own extrema do not depend on r, so they are found once per sweep.
    """
    n = f.num_vars
    r_values = [int(r) for r in r_values]
    nodes = [_node_count(f, r) for r in r_values]
    for r, m in zip(r_values, nodes):
        _check_degree(f, r)
        check_point_budget(m, n)
    if not r_values:
        return []
    fmin_est, _, fmax_est, _ = grid_extrema(f, _grid_points(n)[1], _BOUND_REFINE_ITERS)
    return [_lower_bound(f, r, m, fmin_est, fmax_est) for r, m in zip(r_values, nodes)]


def corollary_degree(f: ChebPoly, eta: float) -> int:
    """Smallest kernel degree guaranteed to certify f + eta.

    Returns the least integer r at or above both the threshold
    pi d sqrt(2 n) and sqrt(C(n, d) * (f_max - f_min) / eta), with the range
    taken from a refined grid estimate.  Guaranteed sufficiency comes from
    the O(1/r^2) convergence bound; practice usually succeeds far earlier.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("need finite eta > 0")
    n = f.num_vars
    d = f.degree()
    if d == 0:
        return 0
    fmin, _, fmax, _ = grid_extrema(f, _grid_points(n)[1], 2)
    c_used = constant_C(n, d).sharpest
    need = max(theorem_threshold(n, d),
               math.sqrt(c_used * (fmax - fmin) / eta))
    return int(math.ceil(need))
