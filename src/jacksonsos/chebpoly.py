"""Sparse multivariate polynomial arithmetic in the tensor Chebyshev basis.

A polynomial is stored as a finite map from multidegrees (tuples of
nonnegative ints, one entry per variable) to real coefficients.  The map
``{kappa: c}`` represents ``sum_kappa c * T_kappa`` where
``T_kappa(x) = prod_i T_{kappa_i}(x_i)`` and ``T_k`` is the Chebyshev
polynomial of the first kind, ``T_k(cos t) = cos(k t)``.  The companion
class :class:`MonoPoly` uses the same storage for the ordinary power basis
``x^kappa`` and exists for parsing and reporting.

All operations are pure: they never mutate their inputs and return values
in canonical sparse form (no stored zeros, and no coefficients tinier than
``DROP_TOL`` relative to the largest one).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _ncheb

Multidegree = tuple[int, ...]

#: coefficients smaller than this (relative to the largest magnitude in the
#: same polynomial) are dropped when canonicalizing
DROP_TOL = 1e-14

#: refuse to materialize tensor grids with more points than this
POINT_BUDGET = 10 ** 7

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def total_degree(kappa: Multidegree) -> int:
    """Sum of the entries of a multidegree."""
    return sum(kappa)


def hamming_weight(kappa: Multidegree) -> int:
    """Number of nonzero entries of a multidegree."""
    return sum(1 for k in kappa if k)


def _require_finite(coeffs: dict) -> None:
    """Raise ValueError on an inf or NaN coefficient, which no cut may drop."""
    if not all(map(math.isfinite, coeffs.values())):
        raise ValueError("polynomial coefficient is not finite")


def _canon(coeffs: dict) -> dict:
    """Drop zeros and relatively negligible coefficients."""
    if not coeffs:
        return {}
    _require_finite(coeffs)
    top = max(abs(c) for c in coeffs.values())
    if top == 0.0:
        return {}
    cut = DROP_TOL * top
    return {k: float(c) for k, c in coeffs.items() if abs(c) > cut}


def _t_values(x: float, dmax: int) -> list[float]:
    """T_0(x) .. T_dmax(x) by the three-term recurrence."""
    vals = [1.0]
    if dmax >= 1:
        vals.append(x)
    for _ in range(2, dmax + 1):
        vals.append(2.0 * x * vals[-1] - vals[-2])
    return vals


def _t_table(x: np.ndarray, d: int) -> np.ndarray:
    """T_0(x) .. T_d(x) as the rows of a (d + 1, x.size) array: numpy's
    ``chebvander(x, d).T`` bit for bit, by its own recurrence, without its
    argument conversions and axis move."""
    table = np.empty((d + 1, x.size))
    table[0] = 1.0
    if d:
        table[1] = x
        x2 = 2.0 * x
        for k in range(2, d + 1):
            table[k] = table[k - 1] * x2 - table[k - 2]
    return table


@dataclass(slots=True)
class ChebPoly:
    """Polynomial ``sum_kappa c_kappa T_kappa`` in ``num_vars`` variables.

    The empty coefficient map is the zero polynomial.  Inner-product
    coefficients against the product Chebyshev probability measure are
    ``c_kappa * 2**(-hamming_weight(kappa))``; plain basis coefficients are
    stored so that addition, multiplication and evaluation stay factor-free.
    """

    num_vars: int
    coeffs: dict

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        self.coeffs = {tuple(k): float(c) for k, c in self.coeffs.items() if c != 0.0}
        _require_finite(self.coeffs)

    @classmethod
    def zero(cls, num_vars: int) -> "ChebPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "ChebPoly":
        return cls(num_vars, {(0,) * num_vars: float(value)})

    @classmethod
    def basis(cls, num_vars: int, kappa: Multidegree) -> "ChebPoly":
        """The basis polynomial T_kappa."""
        kappa = tuple(int(k) for k in kappa)
        if len(kappa) != num_vars or any(k < 0 for k in kappa):
            raise ValueError(f"bad multidegree {kappa} for {num_vars} variables")
        return cls(num_vars, {kappa: 1.0})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(total_degree(k) for k in self.coeffs)

    def per_variable_degrees(self) -> tuple[int, ...]:
        """Largest exponent of each variable over the stored terms."""
        degs = [0] * self.num_vars
        for kappa in self.coeffs:
            for i, k in enumerate(kappa):
                if k > degs[i]:
                    degs[i] = k
        return tuple(degs)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def _require_same_vars(self, other: "ChebPoly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"dimension mismatch: {self.num_vars} vs {other.num_vars} variables"
            )

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "ChebPoly") -> "ChebPoly":
        self._require_same_vars(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return ChebPoly(self.num_vars, _canon(out))

    def __sub__(self, other: "ChebPoly") -> "ChebPoly":
        return self + other.scale(-1.0)

    def __neg__(self) -> "ChebPoly":
        return self.scale(-1.0)

    def scale(self, a: float) -> "ChebPoly":
        a = float(a)
        return ChebPoly(self.num_vars, _canon({k: a * c for k, c in self.coeffs.items()}))

    def shift(self, a: float) -> "ChebPoly":
        """Add the constant ``a``."""
        return self + ChebPoly.constant(self.num_vars, a)

    # -- products ------------------------------------------------------------

    def __mul__(self, other: "ChebPoly") -> "ChebPoly":
        """Pointwise product, via T_a T_b = (T_{a+b} + T_{|a-b|}) / 2 per axis."""
        self._require_same_vars(other)
        out: dict = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                base = ca * cb
                options = []
                for a, b in zip(ka, kb):
                    if a == 0 or b == 0:
                        options.append(((a + b, 1.0),))
                    else:
                        options.append(((a + b, 0.5), (abs(a - b), 0.5)))
                for combo in itertools.product(*options):
                    key = tuple(e[0] for e in combo)
                    w = base
                    for e in combo:
                        w *= e[1]
                    out[key] = out.get(key, 0.0) + w
        return ChebPoly(self.num_vars, _canon(out))

    def inner(self, other: "ChebPoly") -> float:
        """Inner product against the product Chebyshev measure.

        By orthogonality this is ``sum_kappa c_kappa(p) c_kappa(q)
        2**(-hamming_weight(kappa))`` over the shared multidegrees.
        """
        self._require_same_vars(other)
        small, big = self.coeffs, other.coeffs
        if len(big) < len(small):
            small, big = big, small
        total = 0.0
        for k, c in small.items():
            d = big.get(k)
            if d is not None:
                total += c * d * 2.0 ** (-hamming_weight(k))
        return total

    # -- evaluation -----------------------------------------------------------

    def eval(self, point) -> float:
        """Evaluate at a single point (allowed outside the cube)."""
        pt = [float(t) for t in point]
        if len(pt) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: point has {len(pt)} entries, "
                f"polynomial has {self.num_vars} variables"
            )
        if not self.coeffs:
            return 0.0
        degs = self.per_variable_degrees()
        tables = [_t_values(x, d) for x, d in zip(pt, degs)]
        total = 0.0
        for kappa, c in self.coeffs.items():
            term = c
            for i, k in enumerate(kappa):
                term *= tables[i][k]
            total += term
        return total

    __call__ = eval

    def eval_grid(self, axes) -> np.ndarray:
        """Evaluate on the tensor grid spanned by the 1-D arrays ``axes``.

        Sum factorization over the sparse terms, one axis at a time from the
        last.  After axes i+1 .. n-1 are done, each row holds the sum, on
        their grid, of the terms sharing one prefix (k_0 .. k_i).  Axis i
        scatters the rows into (k_0 .. k_{i-1}, k_i, grid) and contracts
        k_i with the T_k(axes[i]) table, which merges the rows that share
        k_0 .. k_{i-1}.  The scattered array has (distinct k_0 .. k_{i-1})
        x (distinct k_i) x grid entries, each count at most the number of
        terms, and never prod(d_i + 1).  The last axis adds the terms in map
        order, so a one-variable grid is the plain term-by-term sum.
        """
        return next(self.eval_blocks(axes, 0))[1]

    def eval_blocks(self, axes, cols: int):
        """Yield ``(offset, values)``: :meth:`eval_grid` of ``axes`` in blocks
        of ``cols`` last-axis points (one block when ``cols`` is 0), ``offset``
        the block's first last-axis index.

        The last axis's term sums are formed once, on the whole last axis,
        and every block contracts the other axes on its slice of them, so a
        block holds about its own share of the grid.  A block's values are
        :meth:`eval_grid` of the block's own grid, bit for bit; the products
        with the other axes' tables may round in the last bit otherwise than
        on the whole grid.
        """
        if len(axes) != self.num_vars:
            raise ValueError("one axis array per variable required")
        axes = [np.atleast_1d(np.asarray(a, dtype=float)) for a in axes]
        shape = tuple(a.size for a in axes)
        cols = cols or max(shape[-1], 1)
        offsets = range(0, max(shape[-1], 1), cols)
        if not self.coeffs:
            for a in offsets:
                yield a, np.zeros(shape[:-1] + (min(cols, shape[-1] - a),))
            return
        n = self.num_vars
        keys = np.array(list(self.coeffs), dtype=np.intp)
        cs = np.fromiter(self.coeffs.values(), dtype=float, count=len(keys))
        degs = keys.max(axis=0)
        # prefix[i][t]: term t's (k_0 .. k_{i-1}) numbered among the distinct ones
        prefix = [np.zeros(len(keys), dtype=np.intp)]
        for i in range(n - 1):
            code = prefix[-1] * (degs[i] + 1) + keys[:, i]
            prefix.append(np.unique(code, return_inverse=True)[1])

        table = _t_table(axes[-1], degs[-1])
        last = np.zeros((prefix[-1].max() + 1, shape[-1]))
        for row, k, c in zip(prefix[-1].tolist(), keys[:, -1].tolist(), cs.tolist()):
            last[row] += c * table[k]

        # axis i's step: rows, their k_i slots and the T_k(axes[i]) table
        steps = []
        for i in range(n - 2, -1, -1):
            _, rep = np.unique(prefix[i + 1], return_index=True)   # a term per row
            kset, kidx = np.unique(keys[rep, i], return_inverse=True)
            steps.append((prefix[i][rep], kidx, (prefix[i].max() + 1, kset.size),
                          _t_table(axes[i], degs[i]).T[:, kset]))
        for a in offsets:
            vals = last[:, a:a + cols]
            width = points = vals.shape[1]
            for rows, kidx, size, table in steps:
                scattered = np.zeros(size + (points,))
                scattered[rows, kidx] = vals
                points *= len(table)
                vals = (table @ scattered).reshape(size[0], points)
            yield a, vals.reshape(shape[:-1] + (width,))


@dataclass(slots=True)
class MonoPoly:
    """Polynomial ``sum_alpha a_alpha x^alpha`` in the power basis."""

    num_vars: int
    coeffs: dict

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        self.coeffs = {tuple(k): float(c) for k, c in self.coeffs.items() if c != 0.0}
        _require_finite(self.coeffs)

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "MonoPoly":
        return cls(num_vars, {(0,) * num_vars: float(value)})

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(total_degree(k) for k in self.coeffs)

    def eval(self, point) -> float:
        pt = [float(t) for t in point]
        if len(pt) != self.num_vars:
            raise ValueError("dimension mismatch")
        total = 0.0
        for alpha, a in self.coeffs.items():
            term = a
            for x, e in zip(pt, alpha):
                if e:
                    term *= x ** e
            total += term
        return total

    __call__ = eval


# -- basis conversions ---------------------------------------------------------


@lru_cache(maxsize=None)
def _xpow_as_cheb(k: int) -> tuple:
    """Nonzero Chebyshev coefficients of x^k, as ((degree, coeff), ...)."""
    c = _ncheb.poly2cheb([0.0] * k + [1.0])
    return tuple((j, float(v)) for j, v in enumerate(c) if v != 0.0)


@lru_cache(maxsize=None)
def _cheb_as_xpow(k: int) -> tuple:
    """Nonzero power coefficients of T_k, as ((degree, coeff), ...)."""
    c = _ncheb.cheb2poly([0.0] * k + [1.0])
    return tuple((j, float(v)) for j, v in enumerate(c) if v != 0.0)


def _convert(coeffs: dict, table) -> dict:
    out: dict = {}
    for key, a in coeffs.items():
        expansions = [table(e) for e in key]
        for combo in itertools.product(*expansions):
            new_key = tuple(e[0] for e in combo)
            w = a
            for e in combo:
                w *= e[1]
            out[new_key] = out.get(new_key, 0.0) + w
    return _canon(out)


def cheb_from_monomial(p: MonoPoly) -> ChebPoly:
    """Re-express a power-basis polynomial in the tensor Chebyshev basis."""
    return ChebPoly(p.num_vars, _convert(p.coeffs, _xpow_as_cheb))


def mono_from_cheb(p: ChebPoly) -> MonoPoly:
    """Re-express a Chebyshev-basis polynomial in the power basis."""
    return MonoPoly(p.num_vars, _convert(p.coeffs, _cheb_as_xpow))


def enumerate_multidegrees(n: int, d: int) -> list[Multidegree]:
    """All multidegrees with ``n`` entries and total degree <= ``d``.

    Returned in lexicographic order; the count is binomial(n + d, d).
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")

    def rec(vars_left: int, budget: int):
        if vars_left == 1:
            for k in range(budget + 1):
                yield (k,)
            return
        for k in range(budget + 1):
            for rest in rec(vars_left - 1, budget - k):
                yield (k,) + rest

    return list(rec(n, d))


# -- node sets, the grid budget and grid extremum estimation ---------------------


def check_point_budget(points_per_axis: int, num_vars: int) -> None:
    """Refuse a tensor grid of more than ``POINT_BUDGET`` points."""
    if points_per_axis ** num_vars > POINT_BUDGET:
        raise ValueError(
            f"grid of {points_per_axis}^{num_vars} points exceeds budget {POINT_BUDGET}"
        )


def chebyshev_nodes(m: int) -> np.ndarray:
    """The m Gauss-Chebyshev nodes cos((2j - 1) pi / (2m)), ascending.

    Weight 1/m^n per point of their n-fold grid integrates every polynomial of
    per-variable degree <= 2m - 1 exactly against prod_j dx_j / (pi sqrt(1 - x_j^2)):
    the mean of ``p.eval_grid([chebyshev_nodes(m)] * n)`` is p's constant
    Chebyshev coefficient.  ``certify`` and ``kernel_lower_bound`` both rely on
    this for m = ceil((r + d + 1) / 2), d = max_j deg_{x_j} f, the fewest nodes
    that integrate K_r(x, y) g(y) of degree r + d in each y_j.
    """
    if m < 1:
        raise ValueError("need m >= 1 nodes per axis")
    j = np.arange(m, 0, -1)
    return np.cos((2 * j - 1) * math.pi / (2 * m))


def lobatto_axis(points: int) -> np.ndarray:
    """``points`` Chebyshev-Lobatto nodes cos(j*pi/(points-1)), ascending."""
    if points < 2:
        raise ValueError("need at least 2 points per axis")
    return np.cos(np.arange(points - 1, -1, -1) * math.pi / (points - 1))


def _golden_min(f, lo: float, hi: float, iters: int = 80):
    """Golden-section minimum of ``f`` on [lo, hi]; returns (value, point).

    Endpoints are probed as well, so the result never exceeds min(f(lo), f(hi)).
    """
    best_x, best_v = lo, f(lo)
    fv = f(hi)
    if fv < best_v:
        best_x, best_v = hi, fv
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
            if fc < best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
            if fd < best_v:
                best_x, best_v = d, fd
        if b - a < 1e-14:
            break
    return best_v, best_x


def _refine(p: ChebPoly, axis: np.ndarray, idx, start_val: float, sign: float,
            refine_iters: int):
    """Coordinate-wise golden-section polish of ``sign * p`` from a grid cell.

    Each coordinate line is a univariate Chebyshev series, gathered from the
    sparse terms with the other coordinates fixed at ``best_x`` (so memory
    grows with the number of terms, not with prod(d_i + 1)), and evaluated
    as sum_k line_k cos(k acos t) (every probe lies in the cube).

    Line j depends only on the other coordinates, so it is searched again
    only after one of them has moved; a repeat would return the same point
    and value and change nothing.
    """
    m = axis.size
    x = [float(axis[i]) for i in idx]
    brackets = [(float(axis[max(i - 1, 0)]), float(axis[min(i + 1, m - 1)])) for i in idx]
    best_v, best_x = sign * start_val, list(x)
    n = p.num_vars
    degs = p.per_variable_degrees()
    kappas = np.array(list(p.coeffs), dtype=np.intp).reshape(-1, n)
    cs = np.fromiter(p.coeffs.values(), dtype=float, count=len(p.coeffs))
    stale = [True] * n
    for _ in range(max(refine_iters, 0)):
        for j in range(n):
            if not stale[j]:
                continue
            stale[j] = False
            lo, hi = brackets[j]
            w = cs.copy()
            for i in range(n):
                if i != j:
                    w *= np.asarray(_t_values(best_x[i], degs[i]))[kappas[:, i]]
            line = np.bincount(kappas[:, j], weights=w, minlength=degs[j] + 1)

            def slice_fn(t, line=line, kj=np.arange(degs[j] + 1)):
                return sign * float(np.cos(kj * math.acos(t)) @ line)

            v, t = _golden_min(slice_fn, lo, hi)
            if v < best_v:
                best_v = v
                best_x[j] = t
                stale = [i != j for i in range(n)]
    return sign * best_v, tuple(best_x)


def grid_blocks(p: ChebPoly, axis: np.ndarray):
    """``(offset, values)`` over the tensor grid of the Lobatto ``axis``.

    The grid (within ``POINT_BUDGET``) comes in :meth:`ChebPoly.eval_blocks`
    of last-axis points, about 2^16 values and at least one point each, so
    that no grid-sized array is held; ``offset`` is the block's first
    last-axis index.
    """
    n = p.num_vars
    check_point_budget(axis.size, n)
    return p.eval_blocks([axis] * n, max(1, 2 ** 16 // axis.size ** (n - 1)))


def _lowest_cell(best, a: int, vals: np.ndarray, sign: float):
    """The lower of ``best`` and the lowest (sign * value, grid index) cell of
    the block ``vals`` at last-axis offset ``a``; ties go to the
    lexicographically first index."""
    pick = np.argmin if sign > 0 else np.argmax
    idx = np.unravel_index(int(pick(vals)), vals.shape)
    cell = (sign * float(vals[idx]), idx[:-1] + (a + idx[-1],))
    return cell if best is None else min(best, cell)


def _grid_low(p: ChebPoly, axis: np.ndarray):
    """(value, grid index) of the lowest cell of ``p`` on the tensor grid of
    the Lobatto ``axis``, read in :func:`grid_blocks`."""
    best = None
    for a, vals in grid_blocks(p, axis):
        best = _lowest_cell(best, a, vals, 1.0)
    return best


def grid_minimum(p: ChebPoly, axis: np.ndarray, refine_iters: int = 2):
    """Polished grid minimum of ``p`` over the cube [-1, 1]^n.

    Scans the tensor grid of the Lobatto ``axis`` in :func:`grid_blocks`,
    polishes the lowest cell by coordinate-wise golden section and returns
    ``(min_est, argmin)``.  An estimate, not a certified bound; ties go to
    the lexicographically smallest point.
    """
    low, idx = _grid_low(p, axis)
    return _refine(p, axis, idx, low, 1.0, refine_iters)


def grid_max_abs(p: ChebPoly, axis: np.ndarray) -> float:
    """max |p| over the tensor grid of the Lobatto ``axis``, read in
    :func:`grid_blocks` (unpolished): the scale of a one-sided gate."""
    return max(max(-float(v.min()), float(v.max())) for _, v in grid_blocks(p, axis))


def gate_witness(p: ChebPoly, scale: ChebPoly, axis: np.ndarray, tol: float):
    """The sampled nonnegativity gate of ``p``: ``None`` when it passes, else
    ``(value, point)``, a point of the cube where p lies below ``-tol`` times
    max |scale| over the tensor grid of the Lobatto ``axis``.

    The grid is scanned once, in :func:`grid_blocks`.  Since |T_kappa| <= 1
    on the cube, sum |c| of ``scale`` bounds that max, so a lowest cell below
    -tol * sum |c| is the witness itself, its value and Lobatto point: the
    polish could only lower it.  Any other lowest cell is polished as in
    :func:`grid_minimum` (two rounds), and a negative polished value below
    -tol times :func:`grid_max_abs` of ``scale`` is the witness, at the
    polished point.
    Either way p is refused exactly when its polished grid minimum is
    negative and below -tol times that max.
    """
    low, idx = _grid_low(p, axis)
    # the grid's T_k tables may round |scale| past sum |c| by about
    # (deg^2 + terms) 2^-52; the 1e-6 headroom covers degrees below 10^4
    if low < -tol * (1.0 + 1e-6) * math.fsum(map(abs, scale.coeffs.values())):
        return low, tuple(float(axis[i]) for i in idx)
    low, point = _refine(p, axis, idx, low, 1.0, refine_iters=2)
    if low < 0.0 and low < -tol * grid_max_abs(scale, axis):
        return low, point
    return None


def grid_extrema(p: ChebPoly, points_per_axis: int, refine_iters: int = 2):
    """Estimate both extrema of ``p`` over the cube [-1, 1]^n.

    Polishes the lowest and highest cell (ties: lexicographically first) of
    the grid on ``points_per_axis`` Lobatto points per axis, read in
    :func:`grid_blocks`.  Returns ``(min_est, argmin, max_est, argmax)``.
    """
    check_point_budget(points_per_axis, p.num_vars)
    axis = lobatto_axis(points_per_axis)
    lo = hi = None
    for a, vals in grid_blocks(p, axis):
        lo = _lowest_cell(lo, a, vals, 1.0)
        hi = _lowest_cell(hi, a, vals, -1.0)
    return (*_refine(p, axis, lo[1], lo[0], 1.0, refine_iters),
            *_refine(p, axis, hi[1], -hi[0], -1.0, refine_iters))
