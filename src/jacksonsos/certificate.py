"""End-to-end construction and verification of cube positivity certificates.

Given f nonnegative on [-1, 1]^n and a shift eta >= 0, ``certify`` builds an
explicit decomposition

    f + eta = sum_{J subset of {1..n}} sigma_J * prod_{j in J} (1 - x_j^2)

in which every sigma_J is a positive combination of squares.  The
construction unsmooths f + eta with the inverse Jackson operator, checks the
result is still nonnegative, re-smooths it through the kernel written as a
positive combination of its values at tensor Gauss-Chebyshev nodes, and
splits every univariate kernel slice into u^2 + (1 - x^2) v^2.  The nodes
are the fewest that make the identity exact: m = ceil((r + d + 1) / 2) per
axis, d the largest per-variable degree of f.  The
certificate stores exactly that: one nonnegative weight per node and one
square split per node coordinate y >= 0, since the slices at -y are those at
y with x -> -x.  Its validity is machine-checkable by contracting the
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


@dataclass(slots=True)
class SchmudgenCertificate:
    """Explicit membership witness for f + eta in the truncated preordering.

    ``weights`` is the m^n array of node weights W >= 0 (clamped nodes hold
    0), m nodes per axis.  ``rows`` holds the ceil(m / 2) pairs (u_t, v_t)
    of the nodes t >= m // 2 (those at y >= 0), in node order: dense
    Chebyshev coefficient arrays (empty for zero) of the square split
    S_t = u_t^2 + (1 - x^2) v_t^2 of the kernel slice at node t.  As
    K_r(x, -y) = K_r(-x, y) and the nodes are symmetric, S_t for t < m // 2
    is S_{m-1-t} with its odd coefficients negated, and so are u_t and v_t.
    The identity is

        f + eta = sum_idx W[idx] prod_j S_{idx_j}(x_j),

    and multiplying it out gives the Schmudgen form: sigma_J is the sum over
    the nodes idx of W[idx] * (prod_{j not in J} u_{idx_j}(x_j)
    prod_{j in J} v_{idx_j}(x_j))^2.
    """

    num_vars: int
    r: int
    eta: float
    weights: np.ndarray
    rows: tuple
    residual: float

    def __post_init__(self):
        shape = np.shape(self.weights)
        m = shape[0] if shape else 0
        if shape != (m,) * self.num_vars:
            raise ValueError(f"weights of shape {shape} for {self.num_vars} variables; "
                             f"need shape {(m,) * self.num_vars}")
        if len(self.rows) != m - m // 2:
            raise ValueError(f"{len(self.rows)} rows for {m} nodes per axis; need the "
                             f"{m - m // 2} of nodes t >= m // 2")

    def reconstruct(self) -> ChebPoly:
        """sum_idx W[idx] prod_j S_{idx_j}(x_j), contracting W along every axis."""
        values = [split_coeffs(u, v) for u, v in self.rows]
        upper = np.zeros((len(values), max((s.size for s in values), default=1)))
        for t, s in enumerate(values):
            upper[t, :s.size] = s
        # S_t of the nodes t < m // 2: row m - 1 - t with T_k(-x) = (-1)^k T_k(x)
        lower = upper[::-1][:len(self.weights) // 2] * (-1.0) ** np.arange(upper.shape[1])
        table = np.concatenate([lower, upper])
        dense = self.weights
        for _ in range(self.num_vars):
            dense = np.tensordot(dense, table, axes=(0, 0))
        return ChebPoly(self.num_vars, dict(np.ndenumerate(dense)))

    def squares_per_subset(self) -> dict:
        """Squares in each expanded sigma_J: nodes with W > 0 and every factor nonzero."""
        n = self.num_vars
        upper = np.array([[np.any(u), np.any(v)] for u, v in self.rows],
                         dtype=bool).reshape(-1, 2)
        present = np.concatenate([upper[::-1][:len(self.weights) // 2], upper])
        out = {}
        for mask in range(2 ** n):
            subset = tuple(j for j in range(n) if mask >> j & 1)
            live = self.weights > 0.0
            for j in range(n):
                factor = present[:, int(j in subset)]      # u for j not in J, v for j in J
                live = live & factor.reshape((-1,) + (1,) * (n - 1 - j))
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
    degrees_ok: bool
    square_count: int

    @property
    def valid(self) -> bool:
        return (self.residual <= RESIDUAL_TOL and self.scales_positive
                and self.degrees_ok)


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
    f + eta within ``RESIDUAL_TOL``.  Kernel slices are nonnegative by
    construction and skip sos1d's Lobatto gate; one that does not split
    into squares raises sos1d's ``IllConditioned``, or ``NotNonnegative``
    from the Fejer-Riesz sampled gate (none does for r = 1..300).  Raises
    ``ValueError`` when the m^n quadrature nodes, m = ceil((r + d + 1) / 2)
    with d = max_j deg_{x_j} f, exceed ``POINT_BUDGET``.
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
        return SchmudgenCertificate(num_vars=n, r=r, eta=eta,
                                    weights=np.full((1,) * n, const),
                                    rows=((np.ones(1), np.zeros(0)),), residual=0.0)

    m = _node_count(f, r)
    check_point_budget(m, n)
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

    # factor the slices at y >= 0 (the middle node too for odd m) in one call
    upper = decompose_kernel_slices(r, axis[m // 2:])

    weights = (1.0 / m ** n) * gvals
    if weights.min() < -NODE_CLAMP:
        idx = tuple(int(i) for i in np.argwhere(weights < -NODE_CLAMP)[0])
        raise NotCertifiable(
            f"negative node weight {weights[idx]:.3e} at node {idx}",
            min_value=float(weights[idx]),
        )
    weights[weights <= 0.0] = 0.0

    cert = SchmudgenCertificate(num_vars=n, r=r, eta=eta, weights=weights,
                                rows=tuple((s.u, s.v) for s in upper), residual=0.0)
    residual = _relative_residual(cert.reconstruct(), target)
    if residual > RESIDUAL_TOL:
        raise ResidualTooLarge(residual)
    cert.residual = residual
    return cert


def verify(cert: SchmudgenCertificate, f: ChebPoly) -> VerificationReport:
    """Check a certificate against f + eta using only its stored weights and rows.

    The weights must be nonnegative, every square split must keep degree
    r + 1 (2 deg u <= r + 1 and 2 deg v + 2 <= r + 1), and the contraction
    must match f + eta to ``RESIDUAL_TOL`` relative.
    """
    target = f.shift(cert.eta)
    residual = _relative_residual(cert.reconstruct(), target)
    scales_positive = bool(np.all(cert.weights >= 0.0))
    degrees_ok = all(2 * len(u) - 2 <= cert.r + 1 and 2 * len(v) <= cert.r + 1
                     for u, v in cert.rows)
    return VerificationReport(
        residual=residual,
        scales_positive=scales_positive,
        degrees_ok=degrees_ok,
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
