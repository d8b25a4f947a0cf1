"""Seeded inputs of the benchmark workloads, one op of each, and its checks.

The generators and the reference extrema live here, not in the program or
its test helpers: polynomials are drawn in the power basis (or, for the
smoothed squares, as random Chebyshev coefficients) with numpy, and every
reference minimum is computed from the power basis with numpy on dense
grids, independently of ``grid_extrema`` and ``eval_grid``.

Every input of a workload is fixed by the seed, and the structure of a
workload (which sizes, degrees and kernel degrees it holds) does not depend
on the seed at all, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

WORKLOADS = ("cert-multivar", "cert-univariate", "bound-sweep")
#: passes every untraced run makes at least, whatever ``--seconds`` says;
#: the tail percentile is fixed by the samples they give (``summary.timing``)
MIN_PASSES = {"cert-multivar": 3, "cert-univariate": 4, "bound-sweep": 2}

#: (n, r, ops, repeated) of the multivariate certificates; odd r at n = 2
#: and n = 3 shows the 4^n squares per node that odd kernel degrees cost.
#: The ops alternate between the two input kinds in this order, smoothed
#: square first.  The heavy configs (n=3, r=3 takes about 12 s an op, n=2,
#: r=7 about 4 s, n=3, r=4 about 2.5 s and n=2, r=8 about 1 s) run once a
#: run, in the first pass; the others repeat in every pass.  In a run of
#: three passes the counts put the median of the times in the middle of the
#: n=2, r=6 samples and the tail in the middle of the n=2, r=5 ones, and
#: several inputs make up each of the two.
MULTIVAR_CONFIGS = ((2, 4, 5, True), (2, 5, 4, True), (2, 6, 6, True), (2, 7, 1, False),
                    (2, 8, 1, False), (3, 3, 1, False), (3, 4, 1, False))
#: the demo polynomial's shifts; its ladders end at r = 6, 20 and 39
DEMO_ETAS = (0.1, 0.01, 0.003)
#: (degree, kernel degree its ladder is built to end at) of the random
#: univariate polynomials.  Slice factorization raises IllConditioned from
#: r = 58 on, so every target stays below it and no op fails.  A pass is
#: short (about 6 s) so that a run repeats it several times and the median
#: op, a ladder ending at r = 32, is sampled across the whole run.
LADDERS = ((3, 21), (4, 32), (5, 45), (6, 56), (7, 21), (8, 32))
LADDER_TOP = 72
#: (n, degrees, largest r, polynomials per degree) of the bound sweeps; r
#: steps by 8 from the theorem threshold pi d sqrt(2 n).  The median op is
#: an n = 1 one whose time depends on the polynomial, so n = 1 sweeps three
#: polynomials of each degree to keep that median from resting on a few.
BOUND_SWEEPS = ((1, (2, 3, 4, 5, 6), 200, 3), (2, (2, 3, 4), 64, 1), (3, (2, 3), 32, 1))
BOUND_STEP = 8
DEMO_POWER = {(0,): 1.0, (2,): -1.0, (3,): -1.0, (4,): 1.0}


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class LadderExhausted(Exception):
    """Every rung of a ladder was refused."""


@dataclass
class Op:
    kind: str                 # "cert", "ladder" or "bound"
    group: str                # label of the op's shape, for breakdowns
    f: object                 # ChebPoly
    r: int                    # kernel degree; first rung for a ladder
    eta: float = 0.0
    ref_min: float = math.nan
    ref_max: float = math.nan
    repeat: bool = True       # False: run in the first pass only


@dataclass
class OpResult:
    ok: bool
    t_result: float = math.inf    # certify (whole ladder) + dump, or the bound call
    t_op: float = math.inf        # the whole op, checks excluded
    scale: float = math.nan       # to the reference speed (speed.ProbeLog)
    t_busy: float = math.nan      # wall time the op took the client, failed or not
    payload: str = ""             # certificate JSON or bound row
    squares: int = 0
    rungs: int = 0
    refusals: int = 0
    gap_rel: float = math.nan
    failure: dict = field(default_factory=dict)
    incorrect: bool = False       # a check on an output failed


# -- polynomial generators and reference extrema ------------------------------------


def _simplex(n: int, d: int):
    return [k for k in itertools.product(range(d + 1), repeat=n) if sum(k) <= d]


def random_power(rng, n: int, d: int) -> dict:
    """Dense random power-basis coefficients over the total-degree-d simplex."""
    return {k: float(rng.standard_normal()) for k in _simplex(n, d)}


def _dense(coeffs: dict, n: int) -> np.ndarray:
    deg = max(max(k) for k in coeffs)
    out = np.zeros((deg + 1,) * n)
    for k, c in coeffs.items():
        out[k] += c
    return out


def _grid_values(dense: np.ndarray, axes, basis) -> np.ndarray:
    n = dense.ndim
    if n == 1:
        return basis.val(axes[0], dense)
    if n == 2:
        return basis.grid2d(axes[0], axes[1], dense)
    return basis.grid3d(axes[0], axes[1], axes[2], dense)


class _Power:
    val, grid2d, grid3d = nppoly.polyval, nppoly.polygrid2d, nppoly.polygrid3d


class _Cheb:
    val, grid2d, grid3d = npcheb.chebval, npcheb.chebgrid2d, npcheb.chebgrid3d


_POINTS = {1: 4097, 2: 201, 3: 49}
_ZOOM_POINTS = {1: 257, 2: 33, 3: 17}


def dense_extrema(dense: np.ndarray, basis=_Power, zooms: int = 3):
    """(min, max) of a polynomial on the cube from dense grids and zooms.

    Each estimate is a value the polynomial takes, so the minimum estimate
    is never below the true minimum.
    """
    n = dense.ndim
    out = []
    for sign in (1.0, -1.0):
        box = [(-1.0, 1.0)] * n
        m = _POINTS[n]
        best = math.inf
        for _ in range(zooms + 1):
            axes = [np.linspace(lo, hi, m) for lo, hi in box]
            vals = sign * _grid_values(dense, axes, basis)
            flat = int(np.argmin(vals))
            best = min(best, float(vals.flat[flat]))
            idx = np.unravel_index(flat, vals.shape)
            box = [(max(-1.0, a[i] - 2 * (a[1] - a[0])), min(1.0, a[i] + 2 * (a[1] - a[0])))
                   for a, i in zip(axes, idx)]
            m = _ZOOM_POINTS[n]
        out.append(sign * best)
    return out[0], out[1]


def _cheb_dense(p) -> np.ndarray:
    shape = tuple(d + 1 for d in p.per_variable_degrees())
    out = np.zeros(shape)
    for k, c in p.coeffs.items():
        out[k] = c
    return out


def _to_cheb(jx, coeffs: dict, n: int):
    return jx.chebpoly.cheb_from_monomial(jx.chebpoly.MonoPoly(n, coeffs))


# -- corpora ------------------------------------------------------------------------


def _rng(seed: int, *stream: int):
    return np.random.default_rng([seed, *stream])


def _multivar(jx, seed: int):
    ops = []
    for i, (n, r, count, repeat) in enumerate(MULTIVAR_CONFIGS):
        for j in range(count):
            op = _multivar_op(jx, _rng(seed, 0, i, j), n, r, smoothed=len(ops) % 2 == 0)
            op.repeat = repeat
            ops.append(op)
    return ops


def _multivar_op(jx, rng, n: int, r: int, smoothed: bool) -> Op:
    if smoothed:
        # a smoothed square: K_r^{-1} f = q^2 + 0.1 > 0, certified at eta = 0
        q = jx.chebpoly.ChebPoly(n, {k: float(rng.standard_normal())
                                     for k in _simplex(n, max(1, r // 2))})
        p = q * q + jx.chebpoly.ChebPoly.constant(n, 0.1)
        return Op("cert", f"n{n}r{r}", jx.kernelop.apply_forward(p, r), r, 0.0)
    # a random f lifted so that K_r^{-1}(f + eta) >= 0.1 (criterion 7)
    f = _to_cheb(jx, random_power(rng, n, min(r, 3)), n)
    gmin, _ = dense_extrema(_cheb_dense(jx.kernelop.apply_inverse(f, r)), _Cheb)
    return Op("cert", f"n{n}r{r}", f, r, 0.1 + max(0.0, -gmin))


def _shifted_univariate(jx, rng, d: int):
    """Random degree-d polynomial shifted so its minimum on [-1, 1] is ~0."""
    coeffs = random_power(rng, 1, d)
    lo, _ = dense_extrema(_dense(coeffs, 1))
    coeffs[(0,)] -= lo
    return _to_cheb(jx, coeffs, 1)


def _target_eta(jx, f, r_target: int) -> float:
    """A shift that the gate accepts at ``r_target`` and, near it, not below."""
    gmin, gmax = dense_extrema(_cheb_dense(jx.kernelop.apply_inverse(f, r_target)), _Cheb)
    return max(0.0, -gmin) * 1.001 + 1e-9 * (gmax - gmin)


def _univariate(jx, seed: int):
    demo = _to_cheb(jx, DEMO_POWER, 1)
    ops = [Op("ladder", "demo", demo, demo.degree(), eta) for eta in DEMO_ETAS]
    for d, target in LADDERS:
        f = _shifted_univariate(jx, _rng(seed, 1, d), d)
        ops.append(Op("ladder", f"r{target}", f, max(1, f.degree()),
                      _target_eta(jx, f, target)))
    return ops


def _bound_polys(jx, seed: int):
    polys = [(DEMO_POWER, 1)]
    for n, degrees, _, count in BOUND_SWEEPS:
        for d in degrees:
            polys += [(random_power(_rng(seed, 2, n, d, j), n, d), n) for j in range(count)]
    return polys


def _bound(jx, seed: int):
    ops = []
    r_top = {n: top for n, _, top, _ in BOUND_SWEEPS}
    for coeffs, n in _bound_polys(jx, seed):
        f = _to_cheb(jx, coeffs, n)
        d = max(sum(k) for k in coeffs)
        lo, hi = dense_extrema(_dense(coeffs, n))
        start = math.ceil(math.pi * d * math.sqrt(2 * n))
        for r in range(start, r_top[n] + 1, BOUND_STEP):
            ops.append(Op("bound", f"n{n}", f, r, ref_min=lo, ref_max=hi))
    return ops


def _warmup(jx, workload: str, seed: int):
    """Small ops of the workload's kinds, run before timing starts."""
    rng = _rng(seed, 9)
    if workload == "cert-multivar":
        q = jx.chebpoly.ChebPoly(2, {k: float(rng.standard_normal()) for k in _simplex(2, 1)})
        p = q * q + jx.chebpoly.ChebPoly.constant(2, 0.1)
        return [Op("cert", "warmup", jx.kernelop.apply_forward(p, 3), 3, 0.0)]
    if workload == "cert-univariate":
        demo = _to_cheb(jx, DEMO_POWER, 1)
        return [Op("ladder", "warmup", demo, demo.degree(), 0.1)]
    ops = []
    for n, r in ((1, 9), (2, 13)):
        coeffs = random_power(rng, n, 2)
        lo, hi = dense_extrema(_dense(coeffs, n))
        ops.append(Op("bound", "warmup", _to_cheb(jx, coeffs, n), r, ref_min=lo, ref_max=hi))
    return ops


def build(jx, workload: str, seed: int):
    """(ops in their seeded order, warm-up ops) for one workload."""
    make = {"cert-multivar": _multivar, "cert-univariate": _univariate,
            "bound-sweep": _bound}[workload]
    ops = make(jx, seed)
    order = _rng(seed, 3).permutation(len(ops))
    return [ops[i] for i in order], _warmup(jx, workload, seed)


# -- one op -------------------------------------------------------------------------


def _failure(stage: str, exc: BaseException) -> dict:
    return {"stage": stage, "type": type(exc).__name__, "message": str(exc)[:200]}


def execute(jx, op: Op, tracer=None) -> OpResult:
    """Run one op; the benchmark's checks run outside the timed region."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    res = OpResult(ok=False)
    stage = "bound" if op.kind == "bound" else "certify"
    t0 = perf_counter()
    try:
        if op.kind == "bound":
            rep = jx.certificate.kernel_lower_bound(op.f, op.r)
            res.t_result = res.t_op = perf_counter() - t0
            res.payload = ",".join([str(rep.r), repr(rep.lambda_star), repr(rep.fmin_est),
                                    repr(rep.gap), repr(rep.C_used), repr(rep.threshold),
                                    repr(rep.bound), str(rep.theorem_satisfied).lower()])
            width = op.ref_max - op.ref_min
            if not rep.lambda_star <= op.ref_min + 1e-12 * width:
                raise CheckFailed(f"lambda* {rep.lambda_star!r} above the dense-grid "
                                  f"minimum {op.ref_min!r} at r={op.r}")
            res.gap_rel = (op.ref_min - rep.lambda_star) / width
            res.ok = True
            return res
        cert = None
        for r in range(op.r, op.r + 1 if op.kind == "cert" else LADDER_TOP + 1):
            res.rungs += 1
            try:
                cert = jx.certificate.certify(op.f, op.eta, r)
                break
            except jx.certificate.NotCertifiable:
                if op.kind == "cert":
                    raise
                res.refusals += 1
        if cert is None:
            raise LadderExhausted(f"no certificate up to r={LADDER_TOP}")
        stage = "dump"
        with span("bench.dump"):
            text = json.dumps(jx.cli.certificate_to_dict(cert))
        t_dumped = perf_counter()
        stage = "load"
        with span("bench.load"):
            loaded = jx.cli.certificate_from_dict(json.loads(text))
        stage = "verify"
        report = jx.certificate.verify(loaded, op.f)
        t_end = perf_counter()
        if not report.valid:
            raise CheckFailed(f"reloaded certificate is not valid: {report}")
        if report.residual != loaded.residual:
            raise CheckFailed(f"verify residual {report.residual!r} differs from the "
                              f"stored {loaded.residual!r}")
        res.t_result, res.t_op = t_dumped - t0, t_end - t0
        res.payload, res.squares = text, cert.square_count()
        if tracer is not None:
            tracer.add(tracer.op, "bytes", len(text))
        res.ok = True
    except CheckFailed as exc:
        res.failure = _failure(stage, exc)
        res.incorrect = True
    except Exception as exc:  # a program error fails this op, and the run goes on
        res.failure = _failure(stage, exc)
    if not res.ok:
        res.t_result = res.t_op = math.inf
    return res
