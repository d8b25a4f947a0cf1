"""Sparse multivariate polynomial arithmetic in the tensor Chebyshev basis.

A polynomial is stored as a finite map from multidegrees (tuples of
nonnegative ints, one entry per variable) to real coefficients.  The map
``{kappa: c}`` represents ``sum_kappa c * T_kappa`` where
``T_kappa(x) = prod_i T_{kappa_i}(x_i)`` and ``T_k`` is the Chebyshev
polynomial of the first kind, ``T_k(cos t) = cos(k t)``.  The companion
class :class:`MonoPoly` uses the same storage for the ordinary power basis
``x^kappa`` and exists for parsing and reporting.

Polynomials are immutable values: the constructor checks the terms and
measures the per-variable degrees once, and stores the map read-only.  All
operations return values in canonical sparse form (no stored zeros, and no
coefficients tinier than ``DROP_TOL`` relative to the largest one).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial import chebyshev as _ncheb

Multidegree = tuple[int, ...]

#: coefficients smaller than this (relative to the largest magnitude in the
#: same polynomial) are dropped when canonicalizing
DROP_TOL = 1e-14

#: refuse to materialize tensor grids with more points than this
POINT_BUDGET = 10 ** 7

#: an identity the library builds (a certificate, a Lukacs pair, a spectral
#: factor) is accepted when :func:`_relative_residual` is at most this
RESIDUAL_TOL = 1e-8

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


def _terms(num_vars: int, coeffs) -> tuple[dict, tuple]:
    """The nonzero terms of ``coeffs``, float-valued and finite, and their
    per-variable degrees.  Every key must be a tuple of ``num_vars``
    nonnegative integers, not bools, or ValueError names it; numpy integers
    become int.  Tuples of plain ints, as any polynomial holds, are checked
    in bulk, without a Python loop per term, and give the degrees."""
    ok = set(map(type, coeffs)) <= {tuple} and set(map(len, coeffs)) <= {num_vars}
    if ok:
        entries = list(itertools.chain.from_iterable(coeffs))
        ok = set(map(type, entries)) <= {int} and min(entries, default=0) >= 0
    if not ok:
        for key in coeffs:
            if not isinstance(key, tuple) or len(key) != num_vars or not all(
                    isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 0
                    for k in key):
                raise ValueError(f"bad multidegree {key!r} for {num_vars} variables")
        coeffs = {tuple(map(int, k)): c for k, c in coeffs.items()}
    terms = {k: float(c) for k, c in coeffs.items() if c != 0.0}
    _require_finite(terms)
    if not ok or len(terms) < len(coeffs):
        entries = list(itertools.chain.from_iterable(terms))
    return terms, tuple(max(entries[i::num_vars], default=0) for i in range(num_vars))


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


def _expand(terms) -> dict:
    """Canonical sum of expanded terms, for products and basis conversions:
    ``terms`` yields (base, options), options holding per axis the ((degree,
    weight), ...) that its factor expands into, and every choice of one per
    axis adds base times their weights, in axis order, at their degrees."""
    out: dict = {}
    for base, options in terms:
        for combo in itertools.product(*options):
            key = tuple(e[0] for e in combo)
            w = base
            for e in combo:
                w *= e[1]
            out[key] = out.get(key, 0.0) + w
    return _canon(out)


def _t_table(x: np.ndarray, d: int) -> np.ndarray:
    """T_0(x) .. T_d(x) as the rows of a (d + 1, x.size) array, by the
    library's one T_k recurrence: the transposed Chebyshev Vandermonde matrix
    of ``numpy.polynomial``, bit for bit, without its argument conversions
    and axis move."""
    table = np.empty((d + 1, x.size))
    table[0] = 1.0
    if d:
        table[1] = x
        x2 = 2.0 * x
        for k in range(2, d + 1):
            table[k] = table[k - 1] * x2 - table[k - 2]
    return table


@dataclass(slots=True, frozen=True)
class _Poly:
    """An immutable polynomial in ``num_vars`` variables: ``coeffs`` is a
    read-only map from multidegrees to nonzero coefficients, checked by
    :func:`_terms`, which also measures ``_degrees``, the per-variable
    degrees.  The empty map is the zero polynomial."""

    num_vars: int
    coeffs: MappingProxyType
    _degrees: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        terms, degrees = _terms(self.num_vars, self.coeffs)
        object.__setattr__(self, "coeffs", MappingProxyType(terms))
        object.__setattr__(self, "_degrees", degrees)

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild through the constructor
        return type(self), (self.num_vars, self.coeffs.copy())

    @classmethod
    def constant(cls, num_vars: int, value: float):
        return cls(num_vars, {(0,) * num_vars: float(value)})

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(total_degree, self.coeffs), default=0)

    def per_variable_degrees(self) -> tuple[int, ...]:
        """Largest exponent of each variable over the stored terms."""
        return self._degrees

    def _point(self, point) -> list:
        """``point`` as a list of floats, one per variable."""
        pt = [float(t) for t in point]
        if len(pt) != self.num_vars:
            raise ValueError(f"dimension mismatch: point has {len(pt)} entries, "
                             f"polynomial has {self.num_vars} variables")
        return pt


@dataclass(slots=True, frozen=True)
class ChebPoly(_Poly):
    """Polynomial ``sum_kappa c_kappa T_kappa`` in ``num_vars`` variables.

    Inner-product coefficients against the product Chebyshev probability
    measure are ``c_kappa * 2**(-hamming_weight(kappa))``; plain basis
    coefficients are stored so that addition, multiplication and evaluation
    stay factor-free.
    """

    @classmethod
    def zero(cls, num_vars: int) -> "ChebPoly":
        return cls(num_vars, {})

    @classmethod
    def basis(cls, num_vars: int, kappa: Multidegree) -> "ChebPoly":
        """The basis polynomial T_kappa."""
        return cls(num_vars, {tuple(kappa): 1.0})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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
        out = self.coeffs.copy()
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
        """Add the constant ``a``: ``self + ChebPoly.constant(num_vars, a)``,
        bit for bit, canonicalized once."""
        out = self.coeffs.copy()
        key = (0,) * self.num_vars
        out[key] = out.get(key, 0.0) + float(a)
        return ChebPoly(self.num_vars, _canon(out))

    # -- products ------------------------------------------------------------

    def __mul__(self, other: "ChebPoly") -> "ChebPoly":
        """Pointwise product, via T_a T_b = (T_{a+b} + T_{|a-b|}) / 2 per axis."""
        self._require_same_vars(other)
        return ChebPoly(self.num_vars, _expand(
            (ca * cb, [((a + b, 1.0),) if a == 0 or b == 0
                       else ((a + b, 0.5), (abs(a - b), 0.5))
                       for a, b in zip(ka, kb)])
            for ka, ca in self.coeffs.items() for kb, cb in other.coeffs.items()))

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
        pt = self._point(point)
        if not self.coeffs:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):    # far outside the cube
            table = _t_table(np.array(pt), max(self._degrees)).tolist()
        total = 0.0
        for kappa, c in self.coeffs.items():
            term = c
            for i, k in enumerate(kappa):
                term *= table[k][i]
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

        A memoized axis (:func:`chebyshev_nodes`, :func:`lobatto_axis`) is
        read from its cached T_k table (:func:`_axis_table`).
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
        return self._eval_tables([np.atleast_1d(np.asarray(a, dtype=float))
                                  for a in axes], cols)

    def _eval_tables(self, axes: list, cols: int):
        """The one grid evaluator behind :meth:`eval_blocks`: the blocks of
        the grid of the 1-D float arrays ``axes``, axis i read from
        ``_axis_table(axes[i], d)``, the rows T_0 .. T_D (D >= d) on that
        axis, d = deg_{x_i} p.  Rows past d are never read."""
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
        degs = self._degrees
        # prefix[i][t]: term t's (k_0 .. k_{i-1}) numbered among the distinct ones
        prefix = [np.zeros(len(keys), dtype=np.intp)]
        for i in range(n - 1):
            code = prefix[-1] * (degs[i] + 1) + keys[:, i]
            prefix.append(np.unique(code, return_inverse=True)[1])

        table = _axis_table(axes[-1], degs[-1])
        last = np.zeros((prefix[-1].max() + 1, shape[-1]))
        for row, k, c in zip(prefix[-1].tolist(), keys[:, -1].tolist(), cs.tolist()):
            last[row] += c * table[k]

        # axis i's step: rows, their k_i slots and the T_k(axes[i]) table
        steps = []
        for i in range(n - 2, -1, -1):
            _, rep = np.unique(prefix[i + 1], return_index=True)   # a term per row
            kset, kidx = np.unique(keys[rep, i], return_inverse=True)
            steps.append((prefix[i][rep], kidx, (prefix[i].max() + 1, kset.size),
                          _axis_table(axes[i], degs[i]).T[:, kset]))
        for a in offsets:
            vals = last[:, a:a + cols]
            width = points = vals.shape[1]
            for rows, kidx, size, table in steps:
                scattered = np.zeros(size + (points,))
                scattered[rows, kidx] = vals
                points *= len(table)
                vals = (table @ scattered).reshape(size[0], points)
            yield a, vals.reshape(shape[:-1] + (width,))


@dataclass(slots=True, frozen=True)
class MonoPoly(_Poly):
    """Polynomial ``sum_alpha a_alpha x^alpha`` in the power basis."""

    def eval(self, point) -> float:
        pt = self._point(point)
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


def cheb_from_monomial(p: MonoPoly) -> ChebPoly:
    """Re-express a power-basis polynomial in the tensor Chebyshev basis."""
    return ChebPoly(p.num_vars, _expand((a, [_xpow_as_cheb(e) for e in key])
                                        for key, a in p.coeffs.items()))


def mono_from_cheb(p: ChebPoly) -> MonoPoly:
    """Re-express a Chebyshev-basis polynomial in the power basis."""
    return MonoPoly(p.num_vars, _expand((c, [_cheb_as_xpow(k) for k in kappa])
                                        for kappa, c in p.coeffs.items()))


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


def _relative_residual(dense: np.ndarray, target: ChebPoly) -> float:
    """max |dense - target| over the Chebyshev coefficients (one axis of
    ``dense`` per variable), relative to max |target|.

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


# -- node sets, the grid budget and grid extremum estimation ---------------------


def check_point_budget(points_per_axis: int, num_vars: int) -> None:
    """Refuse a tensor grid of more than ``POINT_BUDGET`` points."""
    if points_per_axis ** num_vars > POINT_BUDGET:
        raise ValueError(
            f"grid of {points_per_axis}^{num_vars} points exceeds budget {POINT_BUDGET}"
        )


#: golden-section polish rounds of every Lobatto scan's extremum cells
_POLISH_ROUNDS = 2


def _scan_points(n: int) -> int:
    """Lobatto points per axis of every scan of n variables (the gates and
    :func:`grid_extrema`): 2049, 257 and 65 for n <= 3, then the largest
    k <= 17 with k^n <= ``POINT_BUDGET`` (14 at n = 6), or 2, so that
    n >= 24 still meets the budget error."""
    if n <= 3:
        return (2049, 257, 65)[n - 1]
    return next((k for k in range(17, 2, -1) if k ** n <= POINT_BUDGET), 2)


@lru_cache(maxsize=None)
def chebyshev_nodes(m: int) -> np.ndarray:
    """The m Gauss-Chebyshev nodes cos((2j - 1) pi / (2m)), ascending.

    Weight 1/m^n per point of their n-fold grid integrates every polynomial of
    per-variable degree <= 2m - 1 exactly against prod_j dx_j / (pi sqrt(1 - x_j^2)):
    the mean of ``p.eval_grid([chebyshev_nodes(m)] * n)`` is p's constant
    Chebyshev coefficient.  ``certify`` and ``kernel_lower_bound`` both rely on
    this for m = ceil((r + d + 1) / 2), d = max_j deg_{x_j} f, the fewest nodes
    that integrate K_r(x, y) g(y) of degree r + d in each y_j.  Memoized like
    :func:`lobatto_axis`.
    """
    if m < 1:
        raise ValueError("need m >= 1 nodes per axis")
    j = np.arange(m, 0, -1)
    return _memoized(np.cos((2 * j - 1) * math.pi / (2 * m)))


@lru_cache(maxsize=None)
def lobatto_axis(points: int) -> np.ndarray:
    """``points`` Chebyshev-Lobatto nodes cos(j*pi/(points-1)), ascending:
    one read-only array per process and point count, whose T_k table
    :func:`_axis_table` keeps."""
    if points < 2:
        raise ValueError("need at least 2 points per axis")
    return _memoized(np.cos(np.arange(points - 1, -1, -1) * math.pi / (points - 1)))


#: id of each memoized axis -> (the axis, its read-only T_0 .. T_D rows), D the
#: highest degree asked for so far; holding the axis keeps its id its own
_AXIS_TABLES: dict = {}


def _memoized(axis: np.ndarray) -> np.ndarray:
    """Set a memoized axis read-only and enter it, with no rows yet, in the
    table cache of :func:`_axis_table`."""
    axis.flags.writeable = False
    _AXIS_TABLES[id(axis)] = (axis, np.empty((0, axis.size)))
    return axis


def _axis_table(axis: np.ndarray, d: int) -> np.ndarray:
    """T_0 .. T_D on ``axis`` as rows, D >= d.  A memoized axis
    (:func:`chebyshev_nodes`, :func:`lobatto_axis`) has one read-only
    :func:`_t_table`, rebuilt only when a higher degree is asked for; any
    other array gets a new ``_t_table(axis, d)``.  The rows are the
    recurrence's, so they do not depend on D."""
    entry = _AXIS_TABLES.get(id(axis))
    if entry is None:
        return _t_table(axis, d)
    table = entry[1]
    if len(table) <= d:
        table = _t_table(axis, d)
        table.flags.writeable = False
        _AXIS_TABLES[id(axis)] = (axis, table)
    return table


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


def _refine(p: ChebPoly, axis: np.ndarray, idx, start_val: float, sign: float):
    """Coordinate-wise golden-section polish of ``sign * p`` from a grid cell,
    ``_POLISH_ROUNDS`` sweeps over the coordinates.

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
    for _ in range(_POLISH_ROUNDS):
        for j in range(n):
            if not stale[j]:
                continue
            stale[j] = False
            lo, hi = brackets[j]
            table = _t_table(np.array(best_x), max(degs))
            w = cs.copy()
            for i in range(n):
                if i != j:
                    w *= table[kappas[:, i], i]
            line = np.bincount(kappas[:, j], weights=w, minlength=degs[j] + 1)

            # the probe stays cos(k acos t), not a T_k table: it is the
            # extremum polish's hottest call, one point at a time
            def slice_fn(t, line=line, kj=np.arange(degs[j] + 1)):
                return sign * float(np.cos(kj * math.acos(t)) @ line)

            v, t = _golden_min(slice_fn, lo, hi)
            if v < best_v:
                best_v = v
                best_x[j] = t
                stale = [i != j for i in range(n)]
    return sign * best_v, tuple(best_x)


def grid_blocks(p: ChebPoly, points: int):
    """``(offset, values)`` over the tensor grid of ``lobatto_axis(points)``.

    The grid (within ``POINT_BUDGET``) comes in blocks of last-axis points,
    about 2^16 values and at least one point each, so that no grid-sized
    array is held; ``offset`` is the block's first last-axis index.  The
    blocks are those of :meth:`ChebPoly.eval_blocks` on the memoized axis.
    """
    n = p.num_vars
    check_point_budget(points, n)
    return p.eval_blocks([lobatto_axis(points)] * n, max(1, 2 ** 16 // points ** (n - 1)))


def _scan(p: ChebPoly, signs) -> tuple:
    """The Lobatto axis of every scan of p (:func:`_scan_points` points per
    axis) and, for each sign, the lowest (sign * value, grid index) cell of
    sign * p on its tensor grid, read in :func:`grid_blocks`; ties go to the
    lexicographically first index."""
    points = _scan_points(p.num_vars)
    cells = []
    for a, vals in grid_blocks(p, points):
        for sign in signs:
            pick = np.argmin if sign > 0 else np.argmax
            idx = np.unravel_index(int(pick(vals)), vals.shape)
            cells.append((sign * float(vals[idx]), idx[:-1] + (a + idx[-1],)))
    return lobatto_axis(points), [min(cells[k::len(signs)]) for k in range(len(signs))]


#: relative tolerance of the sampled nonnegativity gate: :func:`gate_witness`
#: refuses below -GATE_TOL times sum |c| of its scale polynomial
GATE_TOL = 1e-10


def gate_witness(p: ChebPoly, scale: ChebPoly):
    """The sampled nonnegativity gate of ``p``: ``None`` when it passes, else
    ``(value, point)``, a point of the cube where p lies below the floor
    -``GATE_TOL`` * sum |c| of ``scale`` (a bound on max |scale| there).

    The scan's lowest cell (:func:`_scan`) below the floor is the witness,
    its value and Lobatto point: the polish could only lower it.  Any other
    is polished (:func:`_refine`), and a polished value below the floor is
    the witness.  Either way p is refused exactly when its polished grid
    minimum lies below the floor.
    """
    floor = -GATE_TOL * math.fsum(map(abs, scale.coeffs.values()))
    axis, ((low, idx),) = _scan(p, (1.0,))
    if low < floor:
        return low, tuple(float(axis[i]) for i in idx)
    low, point = _refine(p, axis, idx, low, 1.0)
    return (low, point) if low < floor else None


def grid_extrema(p: ChebPoly):
    """``(min_est, argmin, max_est, argmax)`` of ``p`` over the cube: the
    lowest and the highest cell of the scan (:func:`_scan`), polished."""
    axis, (lo, hi) = _scan(p, (1.0, -1.0))
    return (*_refine(p, axis, lo[1], lo[0], 1.0), *_refine(p, axis, hi[1], -hi[0], -1.0))
