"""End-to-end construction and verification of cube positivity certificates.

Given f nonnegative on [-1, 1]^n and a shift eta >= 0, ``certify`` builds an
explicit decomposition

    f + eta = sum_{J subset of {1..n}} sigma_J * prod_{j in J} (1 - x_j^2)

in which every sigma_J is a positive combination of squares.  The
construction unsmooths f + eta with the inverse Jackson operator, checks the
result is still nonnegative, at the quadrature nodes and then on a
Chebyshev-Lobatto grid, re-smooths it through the kernel written as a
positive combination of its values at tensor Gauss-Chebyshev nodes, and
splits every univariate kernel slice into squares in closed form, two for
each of sigma_0 and sigma_1.  The nodes are the fewest that make the
identity exact: m = ceil((r + d + 1) / 2) per axis, d the largest
per-variable degree of f.  The certificate stores one nonnegative weight per
node and nothing else, since the squares of every slice are a function of
r and m alone; it derives that slice table once, when it is built.  The
nodes are symmetric, y_{m-1-t} = -y_t, and K_r(x, -y) = K_r(-x, y), so only
the slices at the ceil(m/2) nodes y >= 0 are split and multiplied out, all
in one batched product; a lower node takes its partner's squares and
product with the odd Chebyshev coefficients negated.  A certificate's
validity is machine-checkable by contracting the weights with the split
slices, without expanding the squares: one ``tensordot`` per axis gives the
dense Chebyshev coefficients of the identity, and the same contraction of
the nonzero weights with the squares per node counts the squares of every
sigma_J, in int64.  Checking costs O(n m^n).

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
    ChebPoly,
    check_point_budget,
    chebyshev_nodes,
    gate_witness,
    grid_extrema,
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
        shape = np.shape(self.weights)
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
        original, so the counts of the upper nodes are reflected."""
        per_node = np.stack([np.any(rows, axis=-1).sum(axis=-1, dtype=np.int64)
                             for rows in self._half], axis=1)
        per_kind = _contract(self.weights > 0.0, _reflect(per_node, len(self.weights)))
        return {tuple(j for j, kind in enumerate(kinds) if kind): int(c)
                for kinds, c in np.ndenumerate(per_kind) if c}

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


def _relative_residual(dense: np.ndarray, target: ChebPoly) -> float:
    """max |dense - target| over the coefficients, relative to max |target|.

    A term of ``target`` beyond the coefficients of ``dense`` counts in full,
    and a non-finite coefficient of ``dense`` makes the residual NaN or inf.
    ``dense`` is consumed: the terms are subtracted from it in place.
    """
    if dense.ndim != target.num_vars:
        raise ValueError(f"dimension mismatch: {dense.ndim} vs "
                         f"{target.num_vars} variables")
    worst = 0.0
    for kappa, c in target.coeffs.items():
        if all(k < s for k, s in zip(kappa, dense.shape)):
            dense[kappa] -= c
        else:
            worst = max(worst, abs(c))
    # np.max keeps a NaN, which Python's max would drop
    worst = float(np.max(np.abs(dense), initial=worst))
    scale = target.max_abs_coeff()
    return worst / scale if scale else worst


def _node_count(f: ChebPoly, r: int) -> int:
    """Gauss-Chebyshev nodes per axis that make the kernel identity exact for f.

    With g = K_r^{-1}(f + c) of per-variable degree at most d = max_j deg_{x_j} f,
    K_r(x, y) g(y) has degree r + d in each y_j, and m nodes integrate degree
    2m - 1 exactly: m = ceil((r + d + 1) / 2).
    """
    return (r + max(f.per_variable_degrees()) + 2) // 2


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

    1. budgets: raises ``ValueError`` when the m^n quadrature nodes,
       m = ceil((r + d + 1) / 2) with d = max_j deg_{x_j} f, the table of
       kernel-slice factors or the (r + 1 + r % 2)^n coefficients of the
       reconstruction exceed ``POINT_BUDGET``;
    2. node weights: raises :class:`NotCertifiable` when a weight g / m^n,
       g = K_r^{-1}(f + eta) at a node, lies below -``NODE_CLAMP``; it
       reports the least node value of g and its node;
    3. the Lobatto gate, the paper's sufficient condition: raises
       :class:`NotCertifiable` when the polished grid minimum of g lies
       below zero and below -``GATE_TOL`` times the gate's scale, max
       |f + eta| over the same Chebyshev-Lobatto grid (unpolished).  The
       refusal reports a witness (``chebpoly.gate_witness``): g's lowest
       grid cell and its Lobatto point when that cell is below -``GATE_TOL``
       times sum |c| of f + eta, which bounds the scale, with no polish and
       no scale grid; else the polished minimum and its point, the scale
       read only for a negative minimum;
    4. residual: raises :class:`ResidualTooLarge` if the assembled identity
       fails to reconstruct f + eta within ``RESIDUAL_TOL``.

    A rung refused by its node weights builds no Lobatto grid.  Kernel
    slices split in closed form, so no slice can fail.  A constant f + eta
    is certified on one node at r = 0, since K_0 = 1.
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
    _check_slices(r, m, n)
    unsmoothed = apply_inverse(target, r)

    gvals, least, node = _node_values(unsmoothed, m)
    weights = (1.0 / m ** n) * gvals
    if weights.min() < -NODE_CLAMP:
        raise NotCertifiable(
            f"unsmoothed polynomial is {least:.6e} at node {node}",
            min_value=least,
            location=node,
        )
    weights[weights <= 0.0] = 0.0

    witness = gate_witness(unsmoothed, target, lobatto_axis(_grid_points(n)[0]), GATE_TOL)
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


def _lower_bound(f: ChebPoly, r: int, m: int, fmin_est: float,
                 fmax_est: float) -> BoundReport:
    """One :func:`rate_sweep` row on m nodes per axis, given f's own extrema."""
    n = f.num_vars
    d = f.degree()

    _, lambda_star, argmin = _node_values(apply_inverse(f, r), m)
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
        argmin=argmin,
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
