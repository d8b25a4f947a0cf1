"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test measures its own wall-clock time and reports one pass/fail line
through the terminal-summary hook in conftest.py.
"""

import math
import time

import numpy as np
import pytest

from jacksonsos.certificate import (
    NotCertifiable,
    certify,
    kernel_lower_bound,
    verify,
)
from jacksonsos.chebpoly import (
    ChebPoly,
    chebyshev_nodes,
    enumerate_multidegrees,
    grid_extrema,
    hamming_weight,
    mono_from_cheb,
)
from jacksonsos.jackson import jackson_lambda, kernel_eval_1d, spectrum
from jacksonsos.kernelop import (
    apply_forward,
    apply_inverse,
    constant_C,
    deviation_bound_exact,
    theorem_threshold,
)
from jacksonsos.sos1d import decompose_kernel_slice, lukacs_decompose

from helpers import demo_f, oracle_extrema, random_cheb, tamper_heaviest_node

WEIGHT_1D = ChebPoly(1, {(0,): 0.5, (2,): -0.5})


def test_criterion_1_figure_reproduction(criterion_record):
    """Unsmoothed demo coefficients match the plotted quartics to 1e-4."""
    start = time.perf_counter()
    shifted = demo_f().shift(0.1)
    expected = {
        5: [1.61985, 0.968875, -5.15883, -2.40175, 5.15883],
        7: [1.28978, 0.456657, -2.5182, -1.67305, 2.5182],
    }
    worst = 0.0
    for r, wants in expected.items():
        mono = mono_from_cheb(apply_inverse(shifted, r))
        for k, want in enumerate(wants):
            worst = max(worst, abs(mono.coeffs.get((k,), 0.0) - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 1.0
    criterion_record(1, ok, f"max coefficient error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 1.0


def test_criterion_2_dichotomy(criterion_record):
    """r=7 certifies the demo at eta=0.1; r=5 fails with a visible minimum."""
    start = time.perf_counter()
    f = demo_f()
    cert = certify(f, 0.1, 7)
    report = verify(cert, f)
    refused_min = 0.0
    try:
        certify(f, 0.1, 5)
        refused = False
    except NotCertifiable as err:
        refused = True
        refused_min = err.min_value
    elapsed = time.perf_counter() - start
    ok = (cert.residual <= 1e-8 and report.valid and refused
          and refused_min < -1e-3 and elapsed < 5.0)
    criterion_record(2, ok, f"residual {cert.residual:.2e}, r=5 min "
                            f"{refused_min:.4f}, {elapsed:.2f}s")
    assert cert.residual <= 1e-8 and report.valid
    assert refused and refused_min < -1e-3
    assert elapsed < 5.0


def test_criterion_3_spectral_sweep(criterion_record):
    """Eigenvalue range/decay for r <= 200 and kernel grids for r <= 50."""
    start = time.perf_counter()
    range_ok = True
    decay_ok = True
    for r in range(1, 201):
        lams = spectrum(r).lambdas
        prefix_max = 0.0
        gaps = []
        for k in range(r + 1):
            if not 0.0 < lams[k] <= 1.0:
                range_ok = False
            prefix_max = max(prefix_max, 1.0 - lams[k])
            gaps.append(prefix_max)
        for d in range(1, min(r, 20) + 1):
            if gaps[d] > math.pi ** 2 * d ** 2 / (r + 2) ** 2:
                decay_ok = False
    axis = np.cos(np.linspace(0.0, math.pi, 201))
    kmin = 0.0
    for r in range(1, 51):
        vals = kernel_eval_1d(r, axis[:, None], axis[None, :])
        kmin = min(kmin, float(np.min(vals)))
    elapsed = time.perf_counter() - start
    ok = range_ok and decay_ok and kmin >= -1e-12 and elapsed < 60.0
    criterion_record(3, ok, f"kernel grid min {kmin:.2e}, {elapsed:.1f}s")
    assert range_ok and decay_ok
    assert kmin >= -1e-12
    assert elapsed < 60.0


def test_criterion_4_operator_diagonality(criterion_record):
    """Node-sum transform of T_kappa equals lambda_kappa T_kappa pointwise."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        r = int(rng.integers(1, 13))
        kappa = tuple(int(rng.integers(0, r + 1)) for _ in range(n))
        m = r + 1
        axis = chebyshev_nodes(m)
        xs = rng.uniform(-1, 1, size=(20, n))
        lam = 1.0
        for k in kappa:
            if k:
                lam *= jackson_lambda(k, r)
        transformed = np.ones(20)
        expected = np.full(20, lam)
        for j in range(n):
            t_axis = np.cos(kappa[j] * np.arccos(axis))
            kmat = kernel_eval_1d(r, xs[:, j][:, None], axis[None, :])
            transformed *= (kmat @ t_axis) / m
            expected *= np.cos(kappa[j] * np.arccos(xs[:, j]))
        worst = max(worst, float(np.max(np.abs(transformed - expected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    criterion_record(4, ok, f"worst pointwise error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_5_square_decompositions(criterion_record):
    """200 random nonnegative inputs plus all kernel slices decompose."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    degree_ok = True

    def check(p):
        nonlocal worst, degree_ok
        pair = lukacs_decompose(p)
        recon = pair.reconstruct()
        diff = np.zeros(max(recon.size, p.degree() + 1))
        for (k,), c in p.coeffs.items():
            diff[k] = c
        diff[: recon.size] -= recon
        worst = max(worst, float(np.max(np.abs(diff))) / p.max_abs_coeff())
        deg = p.degree()
        du, dv = pair.u.size - 1, pair.v.size - 1     # -1 for an empty array
        if pair.u.size and 2 * du > deg + 1:
            degree_ok = False
        if pair.v.size and 2 * dv + 2 > deg + 1 and not (
                deg % 2 == 0 and 2 * dv + 2 <= deg + 2):
            degree_ok = False

    for _ in range(200):
        du = int(rng.integers(0, 13))
        dv = int(rng.integers(0, 12))
        u = ChebPoly(1, {(k,): rng.standard_normal() for k in range(du + 1)})
        v = ChebPoly(1, {(k,): rng.standard_normal() for k in range(dv + 1)})
        check(u * u + WEIGHT_1D * (v * v))

    ys = chebyshev_nodes(50)
    for r in range(31):
        coef = [2.0 * jackson_lambda(k, r) for k in range(1, r + 1)]
        for y in ys:
            coeffs = {(0,): 1.0}
            tkm, tk = 1.0, float(y)
            for k in range(1, r + 1):
                coeffs[(k,)] = coef[k - 1] * tk
                tkm, tk = tk, 2.0 * float(y) * tk - tkm
            check(ChebPoly(1, coeffs))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and degree_ok and elapsed < 60.0
    criterion_record(5, ok, f"worst residual {worst:.2e}, degree bounds "
                            f"{'ok' if degree_ok else 'VIOLATED'}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert degree_ok
    assert elapsed < 60.0


def _theorem_corpus():
    rng = np.random.default_rng(11)
    corpus = [demo_f(), ChebPoly.basis(1, (1,)).shift(0.5)]
    for d in (2, 3, 4, 4):
        corpus.append(random_cheb(rng, 1, d))
    for d in (2, 2, 3, 3, 4, 4):
        corpus.append(random_cheb(rng, 2, d))
    return corpus


def test_criterion_6_convergence_rate(criterion_record):
    """Certified-bound gaps obey (fmax-fmin) C(n,d) / r^2 across the sweep."""
    start = time.perf_counter()
    corpus = _theorem_corpus()
    assert len(corpus) >= 10
    rows = 0
    worst_ratio = 0.0
    worst_r2gap = 0.0
    for f in corpus:
        n = f.num_vars
        d = f.degree()
        fmin_o, fmax_o = oracle_extrema(f)
        frange = fmax_o - fmin_o
        c_used = constant_C(n, d).sharpest
        r0 = int(math.ceil(theorem_threshold(n, d)))
        for r in range(r0, 101, 8):
            rep = kernel_lower_bound(f, r)
            gap = fmin_o - rep.lambda_star
            bound = frange * c_used / r ** 2
            worst_ratio = max(worst_ratio, gap / bound)
            worst_r2gap = max(worst_r2gap, r ** 2 * gap / max(frange * c_used,
                                                              1e-300))
            rows += 1
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and worst_r2gap <= 1.0 and elapsed < 600.0
    criterion_record(6, ok, f"{rows} sweep rows, worst gap/bound "
                            f"{worst_ratio:.3f}, {elapsed:.1f}s")
    assert worst_ratio <= 1.0, "theorem inequality violated"
    assert worst_r2gap <= 1.0, "r^2-scaled gap exceeded the rate constant"
    assert elapsed < 600.0


def _fuzz_instances(rng, count):
    for i in range(count):
        n = 1 if i % 2 == 0 else 2
        if n == 1:
            r = int(rng.integers(2, 11))
            d = int(rng.integers(1, min(r, 4) + 1))
        else:
            r = int(rng.integers(2, 6))
            d = int(rng.integers(1, min(r, 3) + 1))
        if i % 4 == 3:
            q = random_cheb(rng, n, max(1, r // 2))
            p = q * q + ChebPoly.constant(n, 0.1)
            yield apply_forward(p, r), 0.0, r
        else:
            f = random_cheb(rng, n, d)
            g = apply_inverse(f, r)
            gmin = grid_extrema(g, 513 if n == 1 else 65, 1)[0]
            yield f, max(0.0, -gmin) + 0.1, r


def test_criterion_7_soundness_fuzz(criterion_record):
    """100 certificates reconstruct f + eta; tampering is detected."""
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    tamper_checks = 0
    for i, (f, eta, r) in enumerate(_fuzz_instances(rng, 100)):
        cert = certify(f, eta, r)
        report = verify(cert, f)
        assert report.valid, (i, report)
        worst = max(worst, report.residual)
        if i % 10 == 0 and cert.square_count():
            assert not verify(tamper_heaviest_node(cert, -1.0), f).valid
            assert not verify(tamper_heaviest_node(cert, 0.0), f).valid
            tamper_checks += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and tamper_checks >= 10 and elapsed < 300.0
    criterion_record(7, ok, f"100 instances, worst residual {worst:.2e}, "
                            f"{tamper_checks} tamper pairs, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert tamper_checks >= 10
    assert elapsed < 300.0


def test_criterion_8_eigenvalue_lemmas(criterion_record):
    """Eigenvalue bounds across the sweep; the majorant dominates sup norms."""
    start = time.perf_counter()
    bounds_ok = True
    for n in (1, 2, 3):
        for d in range(1, 7):
            r0 = int(math.ceil(theorem_threshold(n, d)))
            kappas = enumerate_multidegrees(n, d)
            for r in range(r0, 121):
                lams = spectrum(r).lambdas
                base = n * math.pi ** 2 * d ** 2 / r ** 2
                for kappa in kappas:
                    lam = 1.0
                    for k in kappa:
                        if k:
                            lam *= lams[k]
                    if abs(1.0 - lam) > base + 1e-12 or \
                            abs(1.0 - 1.0 / lam) > 2 * base + 1e-12:
                        bounds_ok = False
    rng = np.random.default_rng(17)
    domination_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5 if n < 3 else 4))
        r = int(rng.integers(d, 16))
        p = random_cheb(rng, n, d)
        diff = apply_inverse(p, r) - p
        points = {1: 513, 2: 65, 3: 21}[n]
        lo, _, hi, _ = grid_extrema(diff, points, 1)
        sup = max(abs(lo), abs(hi))
        bound = deviation_bound_exact(p, r)
        if sup > bound * (1 + 1e-12) + 1e-12:
            domination_ok = False
    elapsed = time.perf_counter() - start
    ok = bounds_ok and domination_ok and elapsed < 60.0
    criterion_record(8, ok, f"bounds {'ok' if bounds_ok else 'VIOLATED'}, "
                            f"majorant {'ok' if domination_ok else 'VIOLATED'}, "
                            f"{elapsed:.1f}s")
    assert bounds_ok
    assert domination_ok
    assert elapsed < 60.0
