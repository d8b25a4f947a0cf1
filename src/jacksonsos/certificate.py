"""End-to-end construction and verification of cube positivity certificates.

Given f nonnegative on [-1, 1]^n and a shift eta >= 0, ``certify`` builds an
explicit decomposition

    f + eta = sum_{J subset of {1..n}} sigma_J * prod_{j in J} (1 - x_j^2)

in which every sigma_J is a positive combination of squares.  The
construction unsmooths f + eta with the inverse Jackson operator, checks the
result is still nonnegative, at the quadrature nodes and then on a
Chebyshev-Lobatto grid, and re-smooths it through the kernel written as a
positive combination of its values at the m = ceil((r + d + 1) / 2)
Gauss-Chebyshev nodes per axis that make the identity exact, d the largest
per-variable degree of f.  Every kernel slice splits into squares in closed
form, a function of r and m alone, so the certificate stores one
nonnegative weight per node and nothing else (:class:`SchmudgenCertificate`).
Checking it contracts the weights with the split slices, without expanding
the squares, in O(n m^n).

``kernel_lower_bound`` turns the same identity into certified lower bounds
on the minimum of f: f - lambda is a nonnegative node combination of kernel
slices when lambda is the least unsmoothed value at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebpoly import (
    POINT_BUDGET,
    RESIDUAL_TOL,
    ChebPoly,
    _relative_residual,
    check_point_budget,
    chebyshev_nodes,
    gate_witness,
    grid_extrema,
)
from .jackson import _integral_degree
from .kernelop import _check_degree, apply_inverse, constant_C, theorem_threshold
# decompose_kernel_slice is no longer called here, but stays importable from
# this module for callers that look it up or wrap it here (bench/tracing.py)
from .sos1d import (decompose_kernel_slice, decompose_kernel_slices,  # noqa: F401
                    split_coeffs)

#: most variables a certificate may have: numpy's array rank limit
MAX_VARS = 64

#: node weights more negative than this abort; values in [-NODE_CLAMP, 0) drop
NODE_CLAMP = 1e-12


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


def _check_slices(r: int, m: int, n: int) -> None:
    """Refuse a kernel degree no m-node identity makes exact, a table of
    kernel-slice factors (m nodes, 2 factors, r + 2 coefficients) past
    ``POINT_BUDGET``, and a reconstruction of w^n coefficients past it, w =
    r + 1 + r % 2 the width of a split slice."""
    if not 0 <= r <= 2 * m - 1:
        raise ValueError(f"kernel degree {r} on {m} nodes per axis; "
                         f"need 0 <= r <= 2m - 1")
    if 2 * m * (r + 2) > POINT_BUDGET:
        raise ValueError(f"kernel-slice table of {m} x 2 x {r + 2} entries "
                         f"exceeds budget {POINT_BUDGET}")
    w = r + 1 + r % 2
    if w ** n > POINT_BUDGET:
        raise ValueError(f"reconstruction of {w}^{n} coefficients "
                         f"exceeds budget {POINT_BUDGET}")


def _contract(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_idx weights[idx] prod_j table[idx_j], one ``tensordot`` per axis:
    n axes of ``table``'s row length, or a scalar for a 1-D ``table``."""
    out = weights
    for _ in range(weights.ndim):
        out = np.tensordot(out, table, axes=(0, 0))
    return out


def _reflect(half: np.ndarray, m: int) -> np.ndarray:
    """All m rows of a per-node table from its rows at the nodes t >= m // 2:
    row t < m // 2 is a copy of row m-1-t."""
    return np.concatenate([half[::-1][:m // 2], half])


def _mirror(half: np.ndarray, m: int) -> np.ndarray:
    """:func:`_reflect` with the odd Chebyshev columns of the lower rows
    negated, so row t < m // 2 holds q(-x) for the q(x) of row m-1-t, as
    S_t(x) = S_{m-1-t}(-x).  A mirrored row of products is, in exact
    arithmetic, the product of the mirrored squares: every term of a
    Chebyshev product flips sign with the parity of its index."""
    full = _reflect(half, m)
    full[:m // 2, ..., 1::2] *= -1.0
    return full


@dataclass(slots=True)
class SchmudgenCertificate:
    """Explicit membership witness for f + eta in the truncated preordering.

    ``weights`` is the m^n array of node weights W >= 0 (clamped nodes hold
    0), m nodes per axis, and it is all a certificate stores besides its
    header.  The kernel slice at node t splits in closed form as

        S_t = u_{t,c}^2 + u_{t,s}^2 + (1 - x^2) (v_{t,c}^2 + v_{t,s}^2),

    a function of (r, m) alone.  A certificate derives it once, when it is
    built, at the ceil(m/2) nodes t >= m // 2, and every method below reads
    that table; :meth:`squares` mirrors it to the other nodes: the squares
    of node t < m // 2 are those of node m-1-t at -x, a split of S_t(x) =
    S_{m-1-t}(-x).  The identity is

        f + eta = sum_idx W[idx] prod_j S_{idx_j}(x_j),

    whose right side :meth:`reconstruct` returns as a dense Chebyshev
    coefficient array with r + 1 + r % 2 entries per axis;
    multiplying it out gives the Schmudgen form: sigma_J is the sum over
    the nodes idx, and over one square of the chosen kind per axis, of
    W[idx] * (prod_{j not in J} u_{idx_j}(x_j) prod_{j in J} v_{idx_j}(x_j))^2.

    Square counts are int64.  A count is at most the number of weights times
    4^n, and the reconstruction budget, w^n <= ``POINT_BUDGET`` with w >= 3,
    caps n at 14 for r >= 1 (r = 0 has one square per node), so a
    certificate of fewer than 2^35 weights counts below 2^63.
    """

    num_vars: int
    r: int
    eta: float
    weights: np.ndarray
    residual: float
    #: (u, v) of the slices at the nodes t >= m // 2, derived once from (r, m)
    _half: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.num_vars <= MAX_VARS:
            raise ValueError(f"{self.num_vars} variables; need 1 to {MAX_VARS}")
        self.r = _integral_degree(self.r)
        self.weights = np.asarray(self.weights, dtype=float)
        shape = self.weights.shape
        m = shape[0] if shape else 0
        if shape != (m,) * self.num_vars:
            raise ValueError(f"weights of shape {shape} for {self.num_vars} variables; "
                             f"need shape {(m,) * self.num_vars}")
        _check_slices(self.r, m, self.num_vars)
        self._half = decompose_kernel_slices(self.r, chebyshev_nodes(m)[m // 2:])
        for rows in self._half:
            rows.flags.writeable = False

    def squares(self) -> tuple:
        """(u, v) of the kernel slices at all m nodes: ``u[t]`` holds the
        sigma_0 squares of node t and ``v[t]`` the sigma_1 squares, one dense
        Chebyshev row per square.  The rows of the nodes t >= m // 2 are
        ``sos1d.decompose_kernel_slices`` at those nodes; the row of a lower
        node t is that of node m-1-t mirrored (:func:`_mirror`)."""
        return tuple(_mirror(half, len(self.weights)) for half in self._half)

    def reconstruct(self) -> np.ndarray:
        """Dense Chebyshev coefficients of sum_idx W[idx] prod_j S_{idx_j}(x_j):
        n axes of r + 1 + r % 2 entries, the width of a split slice.  The
        ceil(m/2) slices at nodes t >= m // 2 are multiplied out in one
        batched ``split_coeffs`` call; the others are their mirrors,
        S_t(x) = S_{m-1-t}(-x)."""
        return _contract(self.weights, _mirror(split_coeffs(*self._half), len(self.weights)))

    def squares_per_subset(self) -> dict:
        """Squares in each expanded sigma_J: over the nodes with W > 0, the
        product of the nonzero squares of each axis's kind (u for j not in J,
        v for j in J).  A mirrored row has the nonzero entries of its
        original, so the counts of the upper nodes are reflected.  When no
        node has a v square (r = 0) only sigma_0 is contracted, so that n
        variables need not build 2^n counts."""
        per_node = np.stack([np.any(rows, axis=-1).sum(axis=-1, dtype=np.int64)
                             for rows in self._half], axis=1)
        if not per_node[:, 1].any():
            per_node = per_node[:, :1]
        per_kind = _contract(self.weights > 0.0, _reflect(per_node, len(self.weights)))
        return {tuple(np.flatnonzero(kinds).tolist()): int(per_kind[tuple(kinds)])
                for kinds in np.argwhere(per_kind)}

    def square_count(self) -> int:
        """Squares over all sigma_J, without listing the 2^n sigma_J: the
        nodes with W > 0 contracted with the squares of both kinds per node."""
        per_node = sum(np.any(rows, axis=-1).sum(axis=-1, dtype=np.int64)
                       for rows in self._half)
        return int(_contract(self.weights > 0.0, _reflect(per_node, len(self.weights))))


@dataclass(slots=True, frozen=True)
class VerificationReport:
    """Independent check of a stored certificate."""

    residual: float
    scales_positive: bool
    square_count: int

    @property
    def valid(self) -> bool:
        return self.residual <= RESIDUAL_TOL and self.scales_positive


def _node_count(d: int, r: int, n: int) -> int:
    """Gauss-Chebyshev nodes per axis that make the kernel identity exact for
    f of n variables and largest per-variable degree d.

    g = K_r^{-1}(f + c) has per-variable degree <= d, so K_r(x, y) g(y) has
    degree r + d in each y_j, and m nodes integrate degree 2m - 1 exactly:
    m = ceil((r + d + 1) / 2).  Raises ValueError if d > r or m^n > budget.
    """
    _check_degree(d, r)
    m = (r + d + 2) // 2
    check_point_budget(m, n)
    return m


def _node_values(g: ChebPoly, m: int) -> tuple:
    """(values of g on the m^n Gauss-Chebyshev nodes, the least of them, its
    node): the node step that :func:`certify` and the lower bounds share."""
    axis = chebyshev_nodes(m)
    vals = g.eval_grid([axis] * g.num_vars)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return vals, float(vals[idx]), tuple(float(axis[i]) for i in idx)


def certify(f: ChebPoly, eta: float, r: int) -> SchmudgenCertificate:
    """Build an explicit square decomposition of f + eta over the cube.

    The checks run in this order, the cheap ones first:

    1. degree and budgets: raises ``ValueError`` when r is not an integer,
       d = max_j deg_{x_j} f exceeds r, or the m^n quadrature nodes, m =
       ceil((r + d + 1) / 2), the table of kernel-slice factors or the
       (r + 1 + r % 2)^n coefficients of the reconstruction exceed
       ``POINT_BUDGET``;
    2. node weights: raises :class:`NotCertifiable` when a weight g / m^n,
       g = K_r^{-1}(f + eta) at a node, lies below -``NODE_CLAMP``; it
       reports the least node value of g and its node;
    3. the Lobatto gate, the paper's sufficient condition
       (``chebpoly.gate_witness``): raises :class:`NotCertifiable` when the
       polished grid minimum of g on the Chebyshev-Lobatto grid of
       ``chebpoly._scan_points(n)`` points per axis lies below the floor
       -``GATE_TOL`` * sum |c| of f + eta, a bound on max |f + eta|
       over the cube.  The refusal reports g's lowest grid cell and its
       Lobatto point when that cell is already below the floor, with no
       polish; else the polished minimum and its point;
    4. residual: raises :class:`ResidualTooLarge` if the assembled identity
       fails to reconstruct f + eta within ``RESIDUAL_TOL``.

    A rung refused by its node weights scans no Lobatto grid.  Kernel
    slices split in closed form, so no slice can fail.  A constant f + eta
    is certified on one node at r = 0, since K_0 = 1, once f's degree passes.
    """
    n = f.num_vars
    eta = float(eta)
    r = _integral_degree(r)
    if r < 0:
        raise ValueError("need r >= 0")
    d = max(f.per_variable_degrees())
    _check_degree(d, r)         # on f: the shift can drop f's top terms
    target = f.shift(eta)

    # constants are fixed points of the operator: certify them directly
    const = target.coeffs.get((0,) * n, 0.0)
    if not any(target.per_variable_degrees()):
        if const < 0.0:
            raise NotCertifiable(
                f"constant target {const:.3e} is negative", min_value=const
            )
        return SchmudgenCertificate(num_vars=n, r=0, eta=eta,
                                    weights=np.full((1,) * n, const), residual=0.0)

    m = _node_count(d, r, n)
    _check_slices(r, m, n)
    unsmoothed = apply_inverse(target, r)

    gvals, least, node = _node_values(unsmoothed, m)
    # the least weight is the least value's: a positive scale keeps the order
    if (1.0 / m ** n) * least < -NODE_CLAMP:
        raise NotCertifiable(
            f"unsmoothed polynomial is {least:.6e} at node {node}",
            min_value=least,
            location=node,
        )
    weights = (1.0 / m ** n) * gvals
    weights[weights <= 0.0] = 0.0

    witness = gate_witness(unsmoothed, target)
    if witness is not None:
        gmin, gloc = witness
        raise NotCertifiable(
            f"unsmoothed polynomial reaches {gmin:.6e} at {gloc}",
            min_value=gmin,
            location=gloc,
        )

    cert = SchmudgenCertificate(num_vars=n, r=r, eta=eta, weights=weights, residual=0.0)
    residual = _relative_residual(cert.reconstruct(), target)
    if not residual <= RESIDUAL_TOL:        # NaN fails too
        raise ResidualTooLarge(residual)
    cert.residual = residual
    return cert


def verify(cert: SchmudgenCertificate, f: ChebPoly) -> VerificationReport:
    """Check a certificate against f + eta from its stored weights alone.

    The weights must be nonnegative, and their contraction with the squares
    derived from (r, m) must match f + eta to ``RESIDUAL_TOL`` relative; a
    term of f + eta beyond the reconstruction counts in full.  Costs O(n m^n)
    and never expands the squares.  Raises ``ValueError`` when f has another
    number of variables than the certificate.
    """
    return VerificationReport(
        residual=_relative_residual(cert.reconstruct(), f.shift(cert.eta)),
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


def _range_and_constants(f: ChebPoly, d: int) -> tuple:
    """(fmin_est, fmax_est, threshold, C) for f of total degree d: f's
    polished grid extrema (``chebpoly.grid_extrema``), then
    ``theorem_threshold(n, d)`` and ``constant_C(n, d).sharpest``, or 0 and 0
    for a constant f.  The range and the constants do not depend on r."""
    fmin_est, _, fmax_est, _ = grid_extrema(f)
    if d == 0:
        return fmin_est, fmax_est, 0.0, 0.0
    n = f.num_vars
    return fmin_est, fmax_est, theorem_threshold(n, d), constant_C(n, d).sharpest


def rate_sweep(f: ChebPoly, r_values) -> list:
    """One :class:`BoundReport` per kernel degree in ``r_values``.

    Every degree and node count is checked before any grid is evaluated; a
    degree that is not an integer raises ``ValueError``.
    f's extrema and theorem constants do not depend on r, so they are found
    once per sweep; a constant f has bound 0 and meets the theorem at any r.
    """
    n = f.num_vars
    r_values = [_integral_degree(r) for r in r_values]
    d = max(f.per_variable_degrees())
    nodes = [_node_count(d, r, n) for r in r_values]
    if not r_values:
        return []
    fmin_est, fmax_est, threshold, c_used = _range_and_constants(f, f.degree())
    reports = []
    for r, m in zip(r_values, nodes):
        _, lambda_star, argmin = _node_values(apply_inverse(f, r), m)
        gap = fmin_est - lambda_star
        bound = (fmax_est - fmin_est) * c_used / r ** 2 if c_used else 0.0
        reports.append(BoundReport(
            r=r, lambda_star=lambda_star, fmin_est=fmin_est, fmax_est=fmax_est,
            gap=gap, C_used=c_used, threshold=threshold, bound=bound,
            theorem_satisfied=not c_used or r < threshold or gap <= bound + 1e-12,
            argmin=argmin))
    return reports


def corollary_degree(f: ChebPoly, eta: float) -> int:
    """Smallest kernel degree that the convergence bound guarantees to
    certify f + eta, for f's estimated range.

    Returns the least integer r at or above both the threshold
    pi d sqrt(2 n) and sqrt(C(n, d) * (f_max - f_min) / eta), with the range
    taken from the polished grid estimate that :func:`rate_sweep` uses.
    Sufficiency comes from the O(1/r^2) convergence bound and holds for that
    estimate: a grid estimate can fall short of the true f_max - f_min, and
    then so can the degree.  Practice usually succeeds far earlier.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("need finite eta > 0")
    d = f.degree()
    if d == 0:
        return 0
    fmin, fmax, threshold, c_used = _range_and_constants(f, d)
    return int(math.ceil(max(threshold, math.sqrt(c_used * (fmax - fmin) / eta))))
