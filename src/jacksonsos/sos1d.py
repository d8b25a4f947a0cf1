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
arrays, returned as ``LukacsPair(u, v)`` by ``lukacs_decompose``.  Both
public tools take an arbitrary input, so both first run the one sampled
nonnegativity gate, on a 1025-point Chebyshev-Lobatto grid, with the floor
-``chebpoly.GATE_TOL`` times sum |c| of the input.  Both accept what they
build by the library's one coefficient residual, ``chebpoly._relative_residual``
at ``chebpoly.RESIDUAL_TOL``: the cosine coefficients of |h|^2 must match the
input, and those of u^2 + (1 - x^2) v^2 must match p.

Kernel slices x -> K_r(x, y) need no roots.  The Jackson kernel is an
autocorrelation of the amplitudes of ``jackson._kernel_amplitudes``, so each
slice is |A|^2 + |B|^2 on the circle for two factors A, B built from them,
and ``decompose_kernel_slices`` splits both by frequency parity, all slices
of one degree in a few array operations: two squares in each of sigma_0 and
sigma_1 per slice.  ``split_coeffs`` multiplies squares back out, a whole
batch of slices in one real FFT of all their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from .chebpoly import DROP_TOL, RESIDUAL_TOL, ChebPoly, _relative_residual, gate_witness
from .jackson import _kernel_amplitudes

_MODULUS_BAND = 1e-7      # |z| within this of 1 counts as an on-circle root
_ANGLE_TOLS = (1e-5, 1e-3)  # clustering tolerances tried for on-circle roots


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
        Real coefficients ``h_0..h_d`` (ascending powers of z), where d is the
        effective trigonometric degree: the cosine coefficients of
        ``|h(e^{it})|^2`` match ``q`` to ``chebpoly.RESIDUAL_TOL`` times
        max |q| (``chebpoly._relative_residual``).

    Raises
    ------
    ValueError
        If ``q`` is not a nonempty 1-D sequence of finite numbers.
    NotNonnegative
        If the gate of :func:`lukacs_decompose` refuses the input as a
        Chebyshev series, with the same message, value and location.
    IllConditioned
        If root pairing fails or the factorization residual is too large.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("expected a nonempty 1-D coefficient sequence")
    if not np.all(np.isfinite(q)):
        raise ValueError("cosine coefficient is not finite")
    p = ChebPoly(1, {(k,): c for k, c in enumerate(q)})
    _gate(p)
    return _spectral_factor(p)


def _gate(p: ChebPoly) -> None:
    """Raise :class:`NotNonnegative` when the sampled gate refuses ``p``.

    ``p`` is refused when its polished minimum on the 1025-point
    Chebyshev-Lobatto grid lies below -``chebpoly.GATE_TOL`` times sum |c| of
    p, a bound on max |p| over [-1, 1].  The refusal reports the lowest grid
    cell and its Lobatto point when that cell is already below, and the
    polished minimum and its point otherwise (``chebpoly.gate_witness``).
    """
    witness = gate_witness(p, p, 1025)
    if witness is not None:
        lo, (loc,) = witness
        raise NotNonnegative(f"grid minimum {lo:.3e} at x={loc:.6f} below tolerance",
                             value=lo, location=loc)


def _spectral_factor(p: ChebPoly) -> np.ndarray:
    """:func:`fejer_riesz` of a univariate ``p`` that passed the gate."""
    if p.is_zero():
        return np.zeros(1)
    q = _dense(p)
    scale = float(np.max(np.abs(q)))
    # trim trailing coefficients that are negligible relative to the rest
    dq = q.size - 1
    while dq > 0 and abs(q[dq]) <= 1e-13 * scale:
        dq -= 1
    q = q[: dq + 1]

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

    # against all of p: a trimmed coefficient counts in full
    residual = _relative_residual(_autocorrelation(h, dq), p)
    if not residual <= RESIDUAL_TOL:
        raise IllConditioned(
            f"factorization residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
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


def _square_sums(conv: np.ndarray, corr: np.ndarray, k: int) -> np.ndarray:
    """Chebyshev coefficients (2k - 1 of them) of a sum of squares of rows of
    k coefficients, from the sums of the rows' z-series self-convolutions
    ``conv`` and autocorrelations ``corr``: T_i T_j = (T_{i+j} + T_{|i-j|}) / 2."""
    c = 0.5 * conv[..., :2 * k - 1]
    c[..., :k] += corr[..., :k]
    c[..., 0] -= 0.5 * corr[..., 0]
    return c


def split_coeffs(u, v) -> np.ndarray:
    """Chebyshev coefficients of sum_i u_i^2 + (1 - x^2) sum_i v_i^2, batched.

    ``u`` of shape (..., k, K) and ``v`` of shape (..., k', K') hold one
    square per dense Chebyshev row; a 1-D array is one square.  The leading
    axes broadcast, and the result has shape (..., w) with w = max(2K - 1,
    2K' + 1): a kernel slice of ``decompose_kernel_slices`` comes out r + 1 +
    r % 2 wide.  A ``v`` of length zero adds nothing and does not widen the
    result, and w is at least 1.

    All rows go through one real FFT, zero-padded to a power of two >= 2K - 1
    (and 2K' - 1), so the z-series convolutions conv = irfft(sum F^2) and
    autocorrelations corr = irfft(sum F conj F) do not wrap; then c_k =
    conv_k / 2 + corr_k for 1 <= k < K, c_0 = (conv_0 + corr_0) / 2 and c_k =
    conv_k / 2 beyond.  The sum of the v squares is multiplied by
    1 - x^2 = (T_0 - T_2) / 2 as T_k -> T_k / 2 - (T_{k+2} + T_{|k-2|}) / 4.
    """
    u, v = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (u, v))
    ku, kv, nu = u.shape[-1], v.shape[-1], u.shape[-2]
    batch = np.broadcast_shapes(u.shape[:-2], v.shape[:-2])
    rows = np.zeros(batch + (nu + v.shape[-2], max(ku, kv)))
    rows[..., :nu, :ku] = u
    rows[..., nu:, :kv] = v
    size = 1 << max(2 * max(ku, kv) - 2, 0).bit_length()
    f = np.fft.rfft(rows, size, axis=-1)
    sq, pw = f * f, f.real ** 2 + f.imag ** 2
    spec = np.stack([sq[..., :nu, :].sum(axis=-2), pw[..., :nu, :].sum(axis=-2),
                     sq[..., nu:, :].sum(axis=-2), pw[..., nu:, :].sum(axis=-2)], axis=-2)
    conv_u, corr_u, conv_v, corr_v = np.moveaxis(np.fft.irfft(spec, size, axis=-1), -2, 0)

    out = np.zeros(batch + (max(2 * ku - 1, 2 * kv + 1 if kv else 1),))
    if ku:
        out[..., :2 * ku - 1] += _square_sums(conv_u, corr_u, ku)
    if kv:
        s = _square_sums(conv_v, corr_v, kv)
        out[..., :2 * kv - 1] += 0.5 * s
        out[..., 2:2 * kv + 1] -= 0.25 * s
        out[..., :max(2 * kv - 3, 0)] -= 0.25 * s[..., 2:]       # T_k -> T_{k-2}
        out[..., 2:2 - min(2 * kv - 1, 2):-1] -= 0.25 * s[..., :2]   # T_0, T_1 -> T_2, T_1
    return out


def _split_even(h: np.ndarray) -> tuple:
    """h of even degree 2m along its last axis: u(x) + i sin(t) v(x) on the circle.

    e^{-imt} h(e^{it}) has cosine part u_j = h_{m+j} + h_{m-j} (u_0 = h_m),
    and c_j = h_{m+j} - h_{m-j} multiplies sin(jt) = sin(t) U_{j-1}(x), with
    U_{j-1} = sum of w_k T_k over k = j-1, j-3, ... >= 0 (w_0 = 1, else 2).
    So v_k is w_k times the sum of c_{i+1} over i >= k of k's parity: one
    reverse cumulative sum per parity.
    """
    m = (h.shape[-1] - 1) // 2
    low = h[..., m::-1]                     # h_{m-j}, j = 0..m
    u = h[..., m:] + low
    u[..., 0] = h[..., m]
    c = h[..., m + 1:] - low[..., 1:]      # c_{i+1}, i = 0..m-1
    v = np.zeros_like(c)
    for parity in (0, 1):
        v[..., parity::2] = np.cumsum(c[..., parity::2][..., ::-1], axis=-1)[..., ::-1]
    v[..., 1:] *= 2.0
    return u, v


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


def lukacs_decompose(p: ChebPoly) -> LukacsPair:
    """Decompose a univariate polynomial nonnegative on [-1, 1].

    The sampled nonnegativity gate (:func:`_gate`) may refuse ``p`` with
    :class:`NotNonnegative`.  Both the spectral factor and the pair must
    match ``p`` coefficientwise to ``chebpoly.RESIDUAL_TOL`` relative
    (``chebpoly._relative_residual``), or :class:`IllConditioned` is raised.
    """
    if p.num_vars != 1:
        raise ValueError("decomposition is univariate only")
    if p.is_zero():
        return LukacsPair(u=np.zeros(0), v=np.zeros(0), residual=0.0)
    _gate(p)
    h = _spectral_factor(p)
    if h.size % 2 == 0:
        h = np.concatenate(([0.0], h))      # z h: same modulus, even degree
    u, v = map(_cut, _split_even(h))

    residual = _relative_residual(split_coeffs(u, v), p)
    if not residual <= RESIDUAL_TOL:
        raise IllConditioned(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    return LukacsPair(u=u, v=v, residual=residual)


def decompose_kernel_slices(r: int, ys) -> tuple:
    """Squares of the kernel slices x -> K_r(x, y), y in ``ys``, in closed form.

    With the amplitudes a_j = sin(pi (j + 1) / (r + 2)) / sqrt((r + 2) / 2),
    j = 0..r, of ``jackson._kernel_amplitudes`` and y = cos(phi), the kernel
    is an autocorrelation (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)):

        K_r(cos t, y) = |sum_j a_j cos(j phi) e^{ijt}|^2
                        + |sum_j a_j sin(j phi) e^{ijt}|^2.

    Both factors, times z for odd r, are split by frequency parity, so the
    slice is u_c^2 + u_s^2 + (1 - x^2)(v_c^2 + v_s^2) with no roots.

    Returns ``(u, v)``, one row per slice point: ``u[t]`` of shape
    (2, M + 1) holds the sigma_0 squares (u_c, u_s) of slice t as dense
    Chebyshev rows, and ``v[t]`` of shape (2, M) the sigma_1 squares
    (v_c, v_s), with M = ceil(r / 2).
    """
    if r < 0:
        raise ValueError("need r >= 0")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError("slice points must be a 1-D sequence")
    for y in ys:
        if not -1.0 <= y <= 1.0:
            raise ValueError(f"slice point {float(y)} outside [-1, 1]")
    a = _kernel_amplitudes(r)
    angles = np.outer(np.arccos(ys), np.arange(r + 1))
    h = a * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if r % 2:
        h = np.concatenate([np.zeros(h.shape[:-1] + (1,)), h], axis=-1)    # z h
    return _split_even(h)


def decompose_kernel_slice(r: int, y: float) -> tuple:
    """Squares (u, v) of the kernel slice x -> K_r(x, y), y in [-1, 1]:
    :func:`decompose_kernel_slices` at the one node ``y``."""
    u, v = decompose_kernel_slices(r, [y])
    return u[0], v[0]
