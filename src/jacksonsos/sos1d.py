"""Constructive sum-of-squares splittings for polynomials on [-1, 1].

A univariate polynomial p of degree d that is nonnegative on [-1, 1] is
written as

    p = u^2 + (1 - x^2) v^2          (2 deg u <= d + 1, 2 deg v + 2 <= d + 1)

which is the form p = sigma_0 + sigma_1 (1 - x^2) with one square in each
of sigma_0 and sigma_1.  The construction goes through the circle: the
Chebyshev coefficients of p are the cosine coefficients of the nonnegative
trigonometric polynomial p(cos t), whose spectral factor h (a real
polynomial in z with |h(e^{it})|^2 = p(cos t)) has one root from each
reciprocal pair of roots of the palindromic z^d p((z + 1/z) / 2) inside
the closed unit disc.  Those pairs are x -/+ sqrt(x^2 - 1) over the d roots
x of p itself, which are the eigenvalues of p's d x d Chebyshev colleague
matrix (I. J. Good, Q. J. Math. 12, 1961), so no 2d x 2d power-basis
companion matrix is formed.  A factor of odd degree is multiplied by z,
which keeps its modulus on the circle and makes its degree even; splitting
h by frequency parity then yields u and v as dense Chebyshev coefficient
arrays.  ``LukacsPair(u, v)`` is the one split type: ``certify`` stores its
two arrays as a certificate row as they are, and the mirrored slice
x -> p(-x) is a sign flip of their odd entries.

``decompose_kernel_slices`` factors all the slices x -> K_r(x, y) of one
degree r in one call: the kernel coefficients and the T_k tables of the
nonnegativity gate and of the factorization's sampled checks are built once
and shared, and each slice then runs on its own through the same gate,
polish, roots, split and reconstruction check as ``lukacs_decompose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebadd, chebmul, chebroots, chebsub, chebvander

from .chebpoly import DROP_TOL, ChebPoly, lobatto_axis, polish_minimum
from .jackson import _kernel_coeffs

#: relative tolerance of the sampled nonnegativity gates: to max |p| on the
#: grid of lukacs_decompose, to max |q| in fejer_riesz
NONNEG_TOL = 1e-10
#: relative tolerance on the spectral factorization residual
FACTOR_TOL = 1e-9
#: relative tolerance on the final reconstruction residual
RECON_TOL = 1e-8

_MODULUS_BAND = 1e-7      # |z| within this of 1 counts as an on-circle root
_ANGLE_TOLS = (1e-5, 1e-3)  # clustering tolerances tried for on-circle roots

_ONE_MINUS_X2 = np.array([0.5, 0.0, -0.5])     # Chebyshev coefficients of 1 - x^2


class NotNonnegative(ValueError):
    """The input polynomial dips below zero on [-1, 1] beyond tolerance."""

    def __init__(self, message: str, value: float = math.nan, location=None):
        super().__init__(message)
        self.value = value
        self.location = location


class IllConditioned(ArithmeticError):
    """Root clustering or cancellation spoiled the requested tolerance."""


def _cluster_circle_roots(roots: np.ndarray, angle_tol: float):
    """Group on-circle roots into even-sized clusters; None if impossible.

    Each cluster of size 2s contributes s copies of a representative placed
    exactly on the unit circle at the cluster's circular mean angle.
    """
    if roots.size == 0:
        return []
    order = np.argsort(np.angle(roots))
    roots = roots[order]
    angles = np.angle(roots)
    breaks = [i for i in range(1, roots.size)
              if angles[i] - angles[i - 1] > angle_tol]
    clusters = []
    prev = 0
    for b in breaks + [roots.size]:
        clusters.append(list(range(prev, b)))
        prev = b
    # wrap-around: merge the first and last cluster when they touch mod 2 pi
    if len(clusters) > 1 and (angles[0] + 2.0 * math.pi - angles[-1]) <= angle_tol:
        clusters[0] = clusters.pop() + clusters[0]
    reps = []
    for cluster in clusters:
        if len(cluster) % 2:
            return None
        mean = np.sum(roots[cluster])
        if mean == 0:
            return None
        rep = mean / abs(mean)
        reps.extend([rep] * (len(cluster) // 2))
    return reps


def _autocorrelation(h: np.ndarray, d: int) -> np.ndarray:
    """Cosine coefficients a_0..a_d of |h(e^{it})|^2."""
    acf = np.zeros(d + 1)
    lags = np.correlate(h, h, "full")[h.size - 1:][: d + 1]
    acf[: lags.size] = lags
    acf[1:] *= 2.0
    return acf


def _autocorrelation_jacobian(h: np.ndarray, d: int) -> np.ndarray:
    """Jacobian of :func:`_autocorrelation` at ``h``: d a_k / d h_j."""
    padded = np.concatenate([np.zeros(d), h, np.zeros(d)])
    j = np.arange(h.size)
    k = np.arange(d + 1)[:, None]
    return (padded[d + j + k] + padded[d + j - k]) * np.where(k == 0, 1.0, 2.0)


def _polish_factor(h: np.ndarray, q: np.ndarray, iters: int = 6) -> np.ndarray:
    """Damped Gauss-Newton on ||autocorrelation(h) - q||.

    Root extraction loses about half the working precision at double roots
    on the unit circle (the radial split of a double root scales with the
    square root of the backward error); a few Newton steps on the
    coefficient identity restore it.  Any real factor with the right
    autocorrelation is acceptable here, so leaving the minimum-phase
    manifold is harmless.
    """
    d = q.size - 1
    best = h.copy()
    best_res = float(np.linalg.norm(_autocorrelation(best, d) - q))
    cur = best
    for _ in range(iters):
        res = _autocorrelation(cur, d) - q
        step = np.linalg.lstsq(_autocorrelation_jacobian(cur, d), -res, rcond=None)[0]
        scale = 1.0
        nxt = cur + step
        nres = float(np.linalg.norm(_autocorrelation(nxt, d) - q))
        while nres >= best_res and scale > 1.0 / 32.0:
            scale *= 0.5
            nxt = cur + scale * step
            nres = float(np.linalg.norm(_autocorrelation(nxt, d) - q))
        cur = nxt
        if nres < best_res:
            best, best_res = nxt, nres
        else:
            break
        if best_res <= 1e-15 * max(1.0, float(np.linalg.norm(q))):
            break
    return best


def _circle_roots(q: np.ndarray) -> np.ndarray:
    """The 2 deg q roots in z of z^deg q * q((z + 1/z) / 2), inside first.

    The deg q roots x of the Chebyshev series are the eigenvalues of its
    colleague matrix; each maps to the reciprocal pair 1/s and s, where
    s = x + sqrt(x^2 - 1) on the branch with |s| >= 1.
    """
    x = chebroots(q).astype(complex)
    w = np.sqrt(x * x - 1.0)
    s = np.where(np.abs(x + w) >= np.abs(x - w), x + w, x - w)
    return np.concatenate([1.0 / s, s])


def _expand(roots: np.ndarray) -> np.ndarray:
    """Real coefficients (ascending powers) of prod (z - root).

    The factors are multiplied in van der Corput order of their angles
    (angular ranks sorted by their reversed binary digits), so every
    partial product has its roots spread round the circle.  In
    angular order (as the colleague roots come) the partial products'
    coefficients grow like binomials and the expansion loses up to half
    the digits.
    """
    by_angle = np.argsort(np.angle(roots))
    spread = sorted(range(roots.size), key=lambda i: f"{i:b}"[::-1])
    return np.real(np.poly(roots[by_angle[spread]]))[::-1]


@dataclass(slots=True, frozen=True)
class _Tables:
    """T_k tables up to one degree d, built once per call and shared by its
    polynomials: the Lobatto grid of the nonnegativity gate, and the sample
    and check angles of :func:`fejer_riesz` (0 to pi, 512 and 256 of them)."""

    axis: np.ndarray        # the gate's 1025 Chebyshev-Lobatto points
    gate: np.ndarray        # T_k(axis), one row per k: (d + 1, 1025)
    sample: np.ndarray      # T_k(cos t) at the sample angles: (512, d + 1)
    check: np.ndarray       # T_k(cos t) at the check angles: (256, d + 1)
    check_z: np.ndarray     # e^{ikt} at the check angles: (256, d + 1)


def _tables(d: int) -> _Tables:
    axis = lobatto_axis(1025)
    check = np.linspace(0.0, math.pi, 256)
    return _Tables(axis=axis, gate=np.ascontiguousarray(chebvander(axis, d).T),
                   sample=chebvander(np.cos(np.linspace(0.0, math.pi, 512)), d),
                   check=chebvander(np.cos(check), d),
                   check_z=np.exp(1j * np.outer(check, np.arange(d + 1))))


def fejer_riesz(q) -> np.ndarray:
    """Spectral factor of a nonnegative cosine polynomial.

    Parameters
    ----------
    q : sequence of float
        Cosine coefficients: the input is ``t -> sum_k q[k] cos(k t)``,
        assumed nonnegative for all ``t``.

    Returns
    -------
    ndarray
        Real coefficients ``h_0..h_d`` (ascending powers of z) with
        ``|h(e^{it})|^2`` equal to the input to ``FACTOR_TOL`` relative at
        256 sampled angles, where d is the effective trigonometric degree.

    Raises
    ------
    NotNonnegative
        If sampling finds values below ``-NONNEG_TOL * max|q|``.
    IllConditioned
        If root pairing fails or the factorization residual is too large.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("expected a nonempty 1-D coefficient sequence")
    return _spectral_factor(q, _tables(q.size - 1))


def _spectral_factor(q: np.ndarray, tables: _Tables) -> np.ndarray:
    """:func:`fejer_riesz` of a validated ``q``, sampled on shared tables."""
    scale = float(np.max(np.abs(q)))
    if scale == 0.0:
        return np.zeros(1)
    # trim trailing coefficients that are negligible relative to the rest
    dq = q.size - 1
    while dq > 0 and abs(q[dq]) <= 1e-13 * scale:
        dq -= 1
    q = q[: dq + 1]

    vals = tables.sample[:, : dq + 1] @ q
    vmin = float(np.min(vals))
    if vmin < -NONNEG_TOL * scale:
        theta = np.linspace(0.0, math.pi, 512)
        raise NotNonnegative(
            f"sampled value {vmin:.3e} below tolerance for a nonnegative input",
            value=vmin,
            location=float(math.cos(theta[int(np.argmin(vals))])),
        )

    if dq == 0:
        return np.array([math.sqrt(max(q[0], 0.0))])

    roots = _circle_roots(q)

    moduli = np.abs(roots)
    on_circle = np.abs(moduli - 1.0) <= _MODULUS_BAND
    inside = roots[(moduli < 1.0) & ~on_circle]
    reps = None
    for tol in _ANGLE_TOLS:
        reps = _cluster_circle_roots(roots[on_circle], tol)
        if reps is not None:
            break
    if reps is None:
        raise IllConditioned("on-circle roots do not pair up evenly")
    selected = np.concatenate([inside, np.asarray(reps, dtype=complex)]) \
        if reps else inside
    if selected.size != dq:
        raise IllConditioned(
            f"selected {selected.size} roots for a degree-{dq} factor"
        )

    h = _expand(selected)

    # scale so the autocorrelation best matches q, then polish
    acf = _autocorrelation(h, dq)
    denom = float(np.dot(acf, acf))
    if denom == 0.0:
        raise IllConditioned("degenerate spectral factor")
    gamma2 = float(np.dot(acf, q)) / denom
    if not math.isfinite(gamma2) or gamma2 <= 0.0:
        raise IllConditioned(f"normalization failed (gamma^2 = {gamma2:.3e})")
    h = _polish_factor(math.sqrt(gamma2) * h, q)

    hv = tables.check_z[:, : h.size] @ h
    resid = float(np.max(np.abs(np.abs(hv) ** 2 - tables.check[:, : dq + 1] @ q)))
    val_scale = max(float(np.max(np.abs(vals))), 1e-300)
    if not resid <= FACTOR_TOL * val_scale:
        raise IllConditioned(
            f"factorization residual {resid:.3e} exceeds "
            f"{FACTOR_TOL:.0e} * {val_scale:.3e}"
        )
    return h


# -- splitting the spectral factor ----------------------------------------------


def _dense(q: ChebPoly) -> np.ndarray:
    """Coefficients c_0..c_deg of a univariate polynomial; empty for zero."""
    out = np.zeros(q.degree() + 1 if q.coeffs else 0)
    for (k,), c in q.coeffs.items():
        out[k] = c
    return out


def _cut(a: np.ndarray) -> np.ndarray:
    """``a`` with every |c| <= DROP_TOL * max|c| zeroed and trailing zeros dropped.

    The same cut as :func:`chebpoly._canon`, on a dense array.
    """
    a = np.where(np.abs(a) > DROP_TOL * np.max(np.abs(a), initial=0.0), a, 0.0)
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1 if nonzero.size else 0]


def split_coeffs(u, v) -> np.ndarray:
    """Chebyshev coefficients of u^2 + (1 - x^2) v^2 from dense u, v.

    An empty coefficient array stands for the zero polynomial.
    """
    out = np.zeros(1)
    if len(u):
        out = chebadd(out, chebmul(u, u))
    if len(v):
        out = chebadd(out, chebmul(_ONE_MINUS_X2, chebmul(v, v)))
    return out


def _split_even(h: np.ndarray) -> tuple:
    """h of even degree 2m: factor as u(x) + i sin(t) v(x) on the circle."""
    m = (h.size - 1) // 2
    u = np.zeros(m + 1)
    u[0] = h[m]
    for j in range(1, m + 1):
        u[j] = h[m + j] + h[m - j]
    v = np.zeros(m)
    for j in range(1, m + 1):
        c = h[m + j] - h[m - j]             # coefficient of U_{j-1}
        if c == 0.0:
            continue
        k = j - 1
        while k >= 0:
            v[k] += c * (1.0 if k == 0 else 2.0)
            k -= 2
    return _cut(u), _cut(v)


@dataclass(slots=True, frozen=True)
class LukacsPair:
    """Two-square representation of a polynomial p nonnegative on [-1, 1].

    p = u^2 + (1 - x^2) v^2, where ``u`` and ``v`` are dense Chebyshev
    coefficient arrays (empty for zero) with 2 deg u <= deg p + 1 and
    2 deg v + 2 <= deg p + 1, for even and odd deg p alike.
    """

    u: np.ndarray
    v: np.ndarray
    residual: float

    def reconstruct(self) -> np.ndarray:
        """Chebyshev coefficients of u^2 + (1 - x^2) v^2."""
        return split_coeffs(self.u, self.v)

    def mirrored(self) -> "LukacsPair":
        """The pair of x -> p(-x), exactly: T_k(-x) = (-1)^k T_k(x)."""
        u, v = self.u.copy(), self.v.copy()
        u[1::2] *= -1.0
        v[1::2] *= -1.0
        return LukacsPair(u=u, v=v, residual=self.residual)


def lukacs_decompose(p: ChebPoly) -> LukacsPair:
    """Decompose a univariate polynomial nonnegative on [-1, 1].

    The nonnegativity gate refuses ``p`` when its polished minimum on the
    1025-point Chebyshev-Lobatto grid lies below -``NONNEG_TOL`` times
    max |p| over the same grid (unpolished); the output reconstructs ``p``
    coefficientwise to ``RECON_TOL`` relative or the decomposition is
    rejected.
    """
    if p.num_vars != 1:
        raise ValueError("decomposition is univariate only")
    return _split(p, _tables(p.degree()))


def _split(p: ChebPoly, tables: _Tables) -> LukacsPair:
    """:func:`lukacs_decompose` of a univariate ``p`` on shared tables."""
    if p.is_zero():
        return LukacsPair(u=np.zeros(0), v=np.zeros(0), residual=0.0)

    # the grid values of eval_grid, bit for bit: the terms in map order
    vals = np.zeros(tables.axis.size)
    for (k,), c in p.coeffs.items():
        vals += c * tables.gate[k]
    lo, loc = polish_minimum(p, tables.axis, vals, 1)
    norm = float(np.max(np.abs(vals)))
    if lo < -NONNEG_TOL * norm:
        raise NotNonnegative(
            f"grid minimum {lo:.3e} at x={loc[0]:.6f} below tolerance",
            value=lo,
            location=loc[0],
        )

    target = _dense(p)
    h = _spectral_factor(target, tables)
    if h.size % 2 == 0:
        h = np.concatenate(([0.0], h))      # z h: same modulus, even degree
    u, v = _split_even(h)

    diff = chebsub(split_coeffs(u, v), target)
    residual = float(np.max(np.abs(diff))) / p.max_abs_coeff()
    if not residual <= RECON_TOL:
        raise IllConditioned(
            f"reconstruction residual {residual:.3e} exceeds {RECON_TOL:.0e}"
        )
    return LukacsPair(u=u, v=v, residual=residual)


def decompose_kernel_slices(r: int, ys) -> list:
    """Square decompositions of the kernel slices x -> K_r(x, y), y in ``ys``.

    One :class:`LukacsPair` per slice point, each as :func:`lukacs_decompose`
    gives it for the slice 1 + 2 sum_k lambda_k T_k(y) T_k(x).  The kernel
    coefficients and the gate's and the factorization's T_k tables are
    built once for all slices; the slices are split one at a time in the
    order of ``ys``, and the first that fails raises.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError("slice points must be a 1-D sequence")
    for y in ys:
        if not -1.0 <= y <= 1.0:
            raise ValueError(f"slice point {float(y)} outside [-1, 1]")
    stack = _kernel_coeffs(r) * chebvander(ys, r)
    tables = _tables(r)
    return [_split(ChebPoly(1, {(k,): c for k, c in enumerate(coeffs)}), tables)
            for coeffs in stack]


def decompose_kernel_slice(r: int, y: float) -> LukacsPair:
    """Square decomposition of the kernel slice x -> K_r(x, y), y in [-1, 1]:
    :func:`decompose_kernel_slices` at the one node ``y``."""
    return decompose_kernel_slices(r, [y])[0]
