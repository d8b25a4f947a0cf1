"""Shared helpers for the test suite: demo inputs and independent oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from jacksonsos import (
    ChebPoly,
    MonoPoly,
    SchmudgenCertificate,
    cheb_from_monomial,
    mono_from_cheb,
)
from jacksonsos.chebpoly import enumerate_multidegrees, grid_blocks, lobatto_axis


def demo_f() -> ChebPoly:
    """1 - x^2 - x^3 + x^4, nonnegative on [-1, 1] with minimum 0 at x = 1."""
    return cheb_from_monomial(
        MonoPoly(1, {(0,): 1.0, (2,): -1.0, (3,): -1.0, (4,): 1.0})
    )


def random_cheb(rng: np.random.Generator, n: int, d: int,
                scale: float = 1.0) -> ChebPoly:
    """Dense random polynomial over the total-degree-d simplex."""
    keys = enumerate_multidegrees(n, d)
    return ChebPoly(n, {k: scale * rng.standard_normal() for k in keys})


def lowest_grid_cell(p: ChebPoly, points: int) -> tuple:
    """(value, Lobatto point) of the lowest value of ``p`` on the tensor grid
    of ``points`` Lobatto points per axis, from the blocks of
    ``chebpoly.grid_blocks`` joined into one array (ties: the
    lexicographically first point)."""
    vals = np.concatenate([v for _, v in grid_blocks(p, points)], axis=-1)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    axis = lobatto_axis(points)
    return float(vals[idx]), tuple(float(axis[i]) for i in idx)


def abs_sum(p: ChebPoly) -> float:
    """sum |c| over the coefficients of ``p``: a bound on max |p| on the cube,
    since |T_kappa| <= 1 there."""
    return math.fsum(abs(c) for c in p.coeffs.values())


def tamper_heaviest_node(cert: SchmudgenCertificate,
                         factor: float) -> SchmudgenCertificate:
    """Copy of ``cert`` with its largest node weight multiplied by ``factor``."""
    weights = cert.weights.copy()
    weights[np.unravel_index(int(np.argmax(weights)), weights.shape)] *= factor
    return SchmudgenCertificate(cert.num_vars, cert.r, cert.eta, weights,
                                cert.residual)


def expand_certificate(cert: SchmudgenCertificate):
    """Multiply a certificate out square by square with ``ChebPoly`` products.

    Independent of the library's tensor contraction: for every node idx with
    W[idx] > 0, every subset J and every choice of one nonzero square per
    axis (a u square for j not in J, a v square for j in J), the square of
    the product of the chosen factors is formed, weighted, and multiplied by
    prod_{j in J} (1 - x_j^2).  Returns (sum_J sigma_J g_J, squares per J).
    """
    n = cert.num_vars
    rows = list(zip(*cert.squares()))

    def lift(coeffs, j):
        return ChebPoly(n, {tuple(k if i == j else 0 for i in range(n)): c
                            for k, c in enumerate(coeffs)})

    weight = [lift([0.5, 0.0, -0.5], j) for j in range(n)]    # 1 - x_j^2
    total = ChebPoly.zero(n)
    counts: dict = {}
    for idx in np.ndindex(cert.weights.shape):
        w = float(cert.weights[idx])
        if w <= 0.0:
            continue
        for mask in range(2 ** n):
            subset = tuple(j for j in range(n) if mask >> j & 1)
            kinds = [[q for q in rows[t][int(j in subset)] if np.any(q)]
                     for j, t in enumerate(idx)]
            for factors in itertools.product(*kinds):
                root = ChebPoly.constant(n, 1.0)
                for j, q in enumerate(factors):
                    root = root * lift(q, j)
                term = (root * root).scale(w)
                for j in subset:
                    term = term * weight[j]
                total = total + term
                counts[subset] = counts.get(subset, 0) + 1
    return total, counts


def _dense_mono_coeffs(p: MonoPoly) -> np.ndarray:
    shape = tuple(d + 1 for d in _per_var(p))
    out = np.zeros(shape)
    for alpha, c in p.coeffs.items():
        out[alpha] = c
    return out


def _per_var(p: MonoPoly) -> tuple:
    degs = [0] * p.num_vars
    for alpha in p.coeffs:
        for i, e in enumerate(alpha):
            degs[i] = max(degs[i], e)
    return tuple(degs)


def oracle_extrema(p: ChebPoly, base_points: int = 2001, zooms: int = 3):
    """Dense-uniform-grid extremum oracle, independent of grid_extrema.

    Evaluates the power-basis form of ``p`` with numpy on uniform grids of
    [-1, 1]^n and zooms three times into the best cell.  Supports n <= 2.
    Returns (min_est, max_est).
    """
    mono = mono_from_cheb(p)
    if not mono.coeffs:
        return 0.0, 0.0
    coeffs = _dense_mono_coeffs(mono)
    n = p.num_vars
    if n == 1:
        points = base_points

        def scan(lo, hi, m):
            xs = np.linspace(lo, hi, m)
            vals = npoly.polyval(xs, coeffs[:])
            return xs, vals

        lo, hi = -1.0, 1.0
        best_min = best_max = None
        for mode in ("min", "max"):
            a, b = lo, hi
            m = points
            for _ in range(zooms):
                xs, vals = scan(a, b, m)
                i = int(np.argmin(vals) if mode == "min" else np.argmax(vals))
                step = (b - a) / (m - 1)
                a2 = max(lo, xs[i] - 2 * step)
                b2 = min(hi, xs[i] + 2 * step)
                a, b = a2, b2
                m = 257
            xs, vals = scan(a, b, 257)
            if mode == "min":
                best_min = float(np.min(vals))
            else:
                best_max = float(np.max(vals))
        return best_min, best_max
    if n == 2:
        points = min(base_points, 401)

        def scan2(box, m):
            xs = np.linspace(box[0][0], box[0][1], m)
            ys = np.linspace(box[1][0], box[1][1], m)
            vals = npoly.polygrid2d(xs, ys, coeffs)
            return xs, ys, vals

        results = []
        for mode in ("min", "max"):
            box = [(-1.0, 1.0), (-1.0, 1.0)]
            m = points
            for _ in range(zooms):
                xs, ys, vals = scan2(box, m)
                flat = int(np.argmin(vals) if mode == "min" else np.argmax(vals))
                i, j = np.unravel_index(flat, vals.shape)
                sx = (box[0][1] - box[0][0]) / (m - 1)
                sy = (box[1][1] - box[1][0]) / (m - 1)
                box = [
                    (max(-1.0, xs[i] - 2 * sx), min(1.0, xs[i] + 2 * sx)),
                    (max(-1.0, ys[j] - 2 * sy), min(1.0, ys[j] + 2 * sy)),
                ]
                m = 65
            _, _, vals = scan2(box, 65)
            results.append(float(np.min(vals) if mode == "min" else np.max(vals)))
        return results[0], results[1]
    raise ValueError("oracle supports n <= 2 only")
