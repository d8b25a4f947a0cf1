"""Tests for certificate construction, verification, and certified bounds."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from jacksonsos import certificate as certificate_module
from jacksonsos import chebpoly as chebpoly_module
from jacksonsos.certificate import (
    NotCertifiable,
    SchmudgenCertificate,
    certify,
    corollary_degree,
    kernel_lower_bound,
    rate_sweep,
    verify,
)
from jacksonsos.chebpoly import (
    POINT_BUDGET,
    ChebPoly,
    chebyshev_nodes,
    grid_extrema,
    mono_from_cheb,
)
from jacksonsos.cli import certificate_from_dict, certificate_to_dict
from jacksonsos.kernelop import apply_forward, apply_inverse, constant_C, theorem_threshold
from jacksonsos.sos1d import decompose_kernel_slice

from helpers import demo_f, expand_certificate, random_cheb, tamper_heaviest_node


class TestCertify:
    def test_demo_r7_valid(self):
        f = demo_f()
        cert = certify(f, 0.1, 7)
        assert cert.residual <= 1e-8
        report = verify(cert, f)
        assert report.valid
        assert report.degrees_ok
        assert set(cert.squares_per_subset()) <= {(), (0,)}
        # the weights are the unsmoothed values at the nodes over m, bit for bit
        nodes = chebyshev_nodes(8)
        unsmoothed = apply_inverse(f.shift(0.1), 7).eval_grid([nodes])
        assert np.all(unsmoothed > 0.0)
        assert np.array_equal(cert.weights, (1.0 / 8) * unsmoothed)
        # the rows at y >= 0 are the slice splits' arrays, bit for bit
        for t in range(4, 8):
            pair = decompose_kernel_slice(7, float(nodes[t]))
            assert pair.u.size > 0 and pair.v.size > 0
            for stored, root in zip(cert.rows[t], (pair.u, pair.v)):
                assert stored.tobytes() == root.tobytes()

    def test_demo_r5_not_certifiable(self):
        f = demo_f()
        with pytest.raises(NotCertifiable) as err:
            certify(f, 0.1, 5)
        assert err.value.min_value < -1e-3

    def test_zero_with_eta(self):
        cert = certify(ChebPoly.zero(1), 1.0, 4)
        assert cert.residual == 0.0
        assert cert.weights.tolist() == [1.0]
        assert [(u.tolist(), v.tolist()) for u, v in cert.rows] == [([1.0], [])]
        assert cert.squares_per_subset() == {(): 1}

    def test_constant_negative(self):
        with pytest.raises(NotCertifiable):
            certify(ChebPoly.constant(1, -0.5), 0.2, 3)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_rejected(self, eta):
        """A NaN or inf shift must not vanish into an empty certificate."""
        with pytest.raises(ValueError, match="not finite"):
            certify(demo_f(), eta, 4)

    def test_constant_zero_gives_empty(self):
        cert = certify(ChebPoly.constant(1, -1.0), 1.0, 2)
        assert cert.weights.tolist() == [0.0]
        assert [(u.tolist(), v.tolist()) for u, v in cert.rows] == [([1.0], [])]
        assert cert.squares_per_subset() == {}
        assert cert.square_count() == 0
        assert verify(cert, ChebPoly.constant(1, -1.0)).residual == 0.0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            certify(demo_f(), 0.1, 3)

    def test_smoothed_squares_certify_at_eta_zero(self):
        """Images of nonnegative polynomials certify without any shift."""
        rng = np.random.default_rng(0)
        cases = [(1, r) for r in (2, 5, 8, 11)] + [(2, r) for r in (2, 3, 4)]
        for n, r in cases:
            q = random_cheb(rng, n, max(1, r // 2))
            p = q * q + ChebPoly.constant(n, 0.05)
            smooth = apply_forward(p, r)
            cert = certify(smooth, 0.0, r)
            report = verify(cert, smooth)
            assert report.valid, (n, r, report)

    def test_eta_lift_certifies(self):
        rng = np.random.default_rng(1)
        f = random_cheb(rng, 2, 2)
        g = apply_inverse(f, 4)
        gmin = grid_extrema(g, 129, 1)[0]
        eta = max(0.0, -gmin) + 0.2
        cert = certify(f, eta, 4)
        assert verify(cert, f).valid

    def test_square_count_accounting(self):
        f = demo_f()
        cert = certify(f, 0.1, 7)
        nodes = 8
        per_node_limit = 1  # every slice, odd r too, has one square per sigma list
        for subset, count in cert.squares_per_subset().items():
            assert count <= nodes * per_node_limit
        assert cert.square_count() == 16
        # n=2, r=5: one square per node and subset, so at most (r + 1)^n
        q = random_cheb(np.random.default_rng(5), 2, 2)
        cert2 = certify(apply_forward(q * q + ChebPoly.constant(2, 0.1), 5), 0.0, 5)
        assert set(cert2.squares_per_subset()) == {(), (0,), (1,), (0, 1)}
        for subset, count in cert2.squares_per_subset().items():
            assert count <= 6 ** 2

    def test_term_degree_bound(self):
        f = demo_f()
        cert = certify(f, 0.1, 7)
        assert all(2 * len(u) - 2 <= 8 and 2 * len(v) <= 8 for u, v in cert.rows)
        assert verify(cert, f).degrees_ok
        # one extra coefficient in one row gives sigma_J of degree 10 > r + 1
        rows = list(cert.rows)
        u, v = rows[3]
        rows[3] = (u, np.append(v, 1e-3))
        tampered = SchmudgenCertificate(
            num_vars=1, r=7, eta=0.1, weights=cert.weights, rows=tuple(rows),
            residual=cert.residual)
        assert not verify(tampered, f).degrees_ok
        assert not verify(tampered, f).valid

    def test_output_is_deterministic(self):
        """Two calls give byte-identical certificate JSON."""
        rng = np.random.default_rng(5)
        q = random_cheb(rng, 2, 2)
        square = apply_forward(q * q + ChebPoly.constant(2, 0.1), 4)
        for f, eta, r in ((demo_f(), 0.1, 7), (square, 0.0, 4)):
            first, second = (json.dumps(certificate_to_dict(certify(f, eta, r)))
                             for _ in range(2))
            assert first == second

    @pytest.mark.parametrize("r", [56, 57, 58, 100])
    def test_top_of_slice_range_verifies(self, r):
        """Degrees at and past the old slice-factorization edge (r=58)."""
        f = ChebPoly(1, {(0,): 2.0, (1,): 1.0})
        cert = certify(f, 0.1, r)
        report = verify(cert, f)
        assert report.residual <= 1e-12
        assert report.scales_positive and report.degrees_ok

    @pytest.mark.parametrize("n, r", [(1, 7), (1, 8), (2, 4), (2, 5)])
    def test_factors_only_nonnegative_nodes(self, monkeypatch, n, r):
        """ceil((r+1)/2) slices are factored, in one call; the rest are mirrored."""
        calls = []
        original = certificate_module.decompose_kernel_slices

        def counted(r_, ys):
            calls.append(list(ys))
            return original(r_, ys)

        monkeypatch.setattr(certificate_module, "decompose_kernel_slices", counted)
        if n == 1:
            f, eta = demo_f(), 0.1
        else:
            q = random_cheb(np.random.default_rng(5), 2, 2)
            f, eta = apply_forward(q * q + ChebPoly.constant(2, 0.1), r), 0.0
        cert = certify(f, eta, r)
        assert len(calls) == 1
        assert len(calls[0]) == (r + 2) // 2
        assert all(y >= 0.0 for y in calls[0])
        assert verify(cert, f).valid

    def test_node_budget_checked_before_evaluation(self, grid_budget_enforced):
        # would pass the gate, but needs 251^3 quadrature nodes
        f3 = ChebPoly(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.1})
        with pytest.raises(ValueError, match="budget"):
            certify(f3, 0.0, 250)

    def test_node_budget_checked_before_gate(self, monkeypatch):
        # the gate's first step, on either polynomial, is a grid evaluation
        def gate(*args):
            raise AssertionError("gate ran before the node budget check")

        monkeypatch.setattr(ChebPoly, "eval_grid", gate)
        f5 = ChebPoly(5, {tuple(60 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        with pytest.raises(ValueError, match="61\\^5"):
            certify(f5, 0.1, 60)

    @pytest.mark.parametrize("r", [5, 7, 8, 12])
    def test_gate_polishes_only_the_minimum(self, monkeypatch, r):
        """One polish for the gate, and one per factored slice (n = 1)."""
        calls = []
        golden_min = chebpoly_module._golden_min

        def counting(*args):
            calls.append(args)
            return golden_min(*args)

        monkeypatch.setattr(chebpoly_module, "_golden_min", counting)
        if r == 5:
            with pytest.raises(NotCertifiable):
                certify(demo_f(), 0.1, r)
            assert len(calls) == 1
        else:
            certify(demo_f(), 0.1, r)
            assert len(calls) == 1 + math.ceil((r + 1) / 2)

    def test_gate_holds_one_grid_array_at_a_time(self):
        # the 65^3 gate grid values take 2.1 MiB; holding the unsmoothed
        # values while f + eta is evaluated, or an |f + eta| copy, adds more
        f = _smoothed_square(3, 4)
        tracemalloc.start()
        try:
            certify(f, 0.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2 ** 20

    def test_refusal_reports_the_polished_minimum(self):
        f = demo_f()
        with pytest.raises(NotCertifiable) as err:
            certify(f, 0.1, 5)
        lo, loc, _, _ = grid_extrema(apply_inverse(f.shift(0.1), 5), 2049)
        assert (err.value.min_value, err.value.location) == (lo, loc)
        assert str(err.value) == f"unsmoothed polynomial reaches {lo:.6e} at {loc}"


class TestDefaultGrids:
    @pytest.mark.parametrize("n", range(1, 24))
    def test_within_budget(self, n):
        gate, bound = certificate_module._grid_points(n)
        assert gate ** n <= POINT_BUDGET and bound ** n <= POINT_BUDGET

    def test_rows_past_three_variables(self):
        assert [certificate_module._grid_points(n) for n in (4, 5, 6, 7, 23, 24)] == [
            (17, 17), (17, 17), (14, 14), (10, 10), (2, 2), (2, 2)]

    def test_six_variables_certify(self, grid_budget_enforced):
        q = random_cheb(np.random.default_rng(5), 6, 1)
        f = apply_forward(q * q + ChebPoly.constant(6, 0.1), 2)
        cert = certify(f, 0.0, 2)
        assert verify(cert, f).valid
        assert corollary_degree(f, 0.1) >= theorem_threshold(6, 2)

    def test_twenty_four_variables_still_refused(self, grid_budget_enforced):
        f = ChebPoly(24, {(0,) * 24: 1.0, (1,) + (0,) * 23: 0.5})
        with pytest.raises(ValueError, match="2\\^24 points exceeds budget"):
            kernel_lower_bound(f, 1)


def _smoothed_square(n: int, r: int) -> ChebPoly:
    q = random_cheb(np.random.default_rng(5), n, max(1, r // 2))
    return apply_forward(q * q + ChebPoly.constant(n, 0.1), r)


class TestFactoredForm:
    @pytest.mark.parametrize("n, r", [(1, 7), (1, 12), (2, 4), (2, 5), (3, 3)])
    def test_matches_product_expansion(self, n, r):
        """Multiplying every square out gives f + eta and the contraction."""
        f, eta = (demo_f(), 0.1) if n == 1 else (_smoothed_square(n, r), 0.0)
        cert = certify(f, eta, r)
        expanded, counts = expand_certificate(cert)
        assert counts == cert.squares_per_subset()
        target = f.shift(eta)
        scale = target.max_abs_coeff()
        assert (expanded - target).max_abs_coeff() <= 1e-12 * scale
        assert (expanded - cert.reconstruct()).max_abs_coeff() <= 1e-12 * scale

    @pytest.mark.parametrize("n, r, squares", [
        (1, 40, 82), (2, 4, 100), (2, 5, 144), (2, 8, 324), (3, 3, 512), (3, 4, 1000),
    ])
    def test_implied_square_counts(self, n, r, squares):
        assert certify(_smoothed_square(n, r), 0.0, r).square_count() == squares

    @pytest.mark.parametrize("n, r", [(3, 10), (4, 6)])
    def test_large_smoothed_squares(self, n, r):
        """Sizes the expanded form could not reach certify, reload and verify."""
        f = _smoothed_square(n, r)
        cert = certify(f, 0.0, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        report = verify(loaded, f)
        assert report.valid
        assert report.residual == cert.residual
        stored = cert.weights.size + sum(len(u) + len(v) for u, v in cert.rows)
        assert stored <= (r + 1) ** n + (r + 1) * (r + 3)


class TestVerifyTampering:
    def _base(self):
        f = demo_f()
        return f, certify(f, 0.1, 7)

    def test_sign_flip_detected(self):
        f, cert = self._base()
        report = verify(tamper_heaviest_node(cert, -1.0), f)
        assert not report.valid
        assert not report.scales_positive

    def test_dropped_square_detected(self):
        f, cert = self._base()
        report = verify(tamper_heaviest_node(cert, 0.0), f)
        assert report.residual > 1e-8
        assert not report.valid

    def test_nan_eta_rejected(self):
        f, cert = self._base()
        data = certificate_to_dict(cert)
        data["eta"] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            verify(certificate_from_dict(json.loads(json.dumps(data))), f)

    def test_hand_built_certificate(self):
        """sigma_empty = {}, sigma_{1} = {1} certifies 1 - x^2 exactly."""
        weight = ChebPoly(1, {(0,): 0.5, (2,): -0.5})
        cert = SchmudgenCertificate(
            num_vars=1, r=2, eta=0.0, weights=np.array([1.0]),
            rows=((np.zeros(0), np.array([1.0])),), residual=0.0)
        report = verify(cert, weight)
        assert report.residual == 0.0
        assert report.valid
        assert cert.squares_per_subset() == {(0,): 1}


class TestKernelLowerBound:
    def test_constant(self):
        rep = kernel_lower_bound(ChebPoly.constant(1, 2.0), 5)
        assert rep.lambda_star == pytest.approx(2.0)
        assert rep.delta == 0.0
        assert rep.gap == pytest.approx(0.0)
        assert rep.theorem_satisfied

    def test_demo_r7_matches_critical_point_oracle(self):
        f = demo_f()
        rep = kernel_lower_bound(f, 7)
        # oracle: minimum of the unsmoothed quartic from its derivative roots
        mono = mono_from_cheb(apply_inverse(f, 7))
        dense = [mono.coeffs.get((k,), 0.0) for k in range(5)]
        deriv = np.polynomial.polynomial.polyder(dense)
        roots = np.polynomial.polynomial.polyroots(deriv)
        cands = [r.real for r in roots
                 if abs(r.imag) < 1e-12 and -1 <= r.real <= 1] + [-1.0, 1.0]
        oracle = min(np.polynomial.polynomial.polyval(x, dense) for x in cands)
        assert rep.lambda_star <= oracle + 1e-12
        assert rep.lambda_star == pytest.approx(oracle - rep.delta, abs=1e-9)
        assert rep.lambda_star <= rep.fmin_est

    def test_lower_bound_validity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 5))
            f = random_cheb(rng, n, d)
            r = d + int(rng.integers(0, 20))
            rep = kernel_lower_bound(f, r, grid=513 if n == 1 else 129)
            assert rep.lambda_star <= rep.fmin_est + 1e-12

    def test_theorem_inequality_demo(self):
        f = demo_f()
        for rep in rate_sweep(f, range(18, 99, 8)):
            assert rep.theorem_satisfied
            assert rep.gap <= rep.bound + 1e-12

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            kernel_lower_bound(demo_f(), 3)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            kernel_lower_bound(ChebPoly(1, {(0,): math.nan, (2,): 1.0}), 8)
        # a NaN written into the map after construction is refused too
        f = ChebPoly(1, {(0,): -5.0, (2,): 1.0})
        f.coeffs[(0,)] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            kernel_lower_bound(f, 8)

    def test_grid_budget_checked_before_evaluation(self, grid_budget_enforced):
        f2 = ChebPoly(2, {(0, 0): 1.0, (1, 1): 0.5})
        with pytest.raises(ValueError, match="budget"):
            kernel_lower_bound(f2, 4, grid=3200)

    def test_polish_memory_follows_terms(self):
        # 5 sparse terms of degree 24: a dense coefficient tensor would be ~78 MB
        f5 = ChebPoly(5, {tuple(24 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        tracemalloc.start()
        try:
            rep = kernel_lower_bound(f5, 24, grid=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22
        assert rep.lambda_star <= rep.fmin_est

    def test_margin_memory_at_six_variables(self):
        """The finite-difference margin keeps one difference array at a time.

        The default 14^6 grid values take 60 MB and each axis's differences
        13/14 of that; full-grid temporaries per axis took the peak to 228 MB.
        """
        f6 = ChebPoly(6, {(0,) * 6: 2.0, (1,) * 6: 1.0})
        tracemalloc.start()
        try:
            rep = kernel_lower_bound(f6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160e6
        assert rep.lambda_star == -7.928586884085165
        assert rep.delta == 1.928586884085167


class TestRateSweep:
    def test_constant_rows(self):
        reports = rate_sweep(ChebPoly.constant(1, 1.5), [3, 6, 9])
        assert all(rep.gap == pytest.approx(0.0) for rep in reports)

    def test_linear_closed_form(self):
        """For T_1 the unsmoothed minimum is -1/cos(theta_r) at x = -1."""
        t1 = ChebPoly.basis(1, (1,))
        c_range = constant_C(1, 1).sharpest * 2.0
        for rep in rate_sweep(t1, [8, 16, 32, 64]):
            exact = -1.0 / math.cos(math.pi / (rep.r + 2))
            assert rep.lambda_star == pytest.approx(exact - rep.delta, abs=1e-9)
            assert rep.r ** 2 * rep.gap <= c_range

    def test_rows_equal_single_bounds_with_one_extrema_pass(self, monkeypatch):
        """A sweep's rows are kernel_lower_bound's, with f's extrema found once."""
        calls = []

        def counting(p, *args):
            calls.append(p)
            return grid_extrema(p, *args)

        monkeypatch.setattr(certificate_module, "grid_extrema", counting)
        rs = [9, 14, 27]
        cubic = random_cheb(np.random.default_rng(4), 2, 3)
        for f, grid in ((demo_f(), None), (cubic, 33)):
            expected = [kernel_lower_bound(f, r, grid=grid) for r in rs]
            assert len(calls) == len(rs)
            calls.clear()
            assert rate_sweep(f, rs, grid=grid) == expected
            assert calls == [f]
            calls.clear()
        assert rate_sweep(demo_f(), []) == []
        assert calls == []

    def test_reports_monotone_not_required(self):
        f = demo_f()
        reports = rate_sweep(f, [20, 28, 36])
        stars = [rep.lambda_star for rep in reports]
        print("lambda_star sequence (not asserted monotone):", stars)


class TestCorollaryDegree:
    def test_demo_value(self):
        assert corollary_degree(demo_f(), 0.1) == 212

    def test_large_eta_hits_threshold(self):
        f = demo_f()
        want = int(math.ceil(theorem_threshold(1, 4)))
        assert corollary_degree(f, 1e9) == want == 18

    def test_constant(self):
        assert corollary_degree(ChebPoly.constant(2, 3.0), 0.5) == 0

    def test_eta_guard(self):
        with pytest.raises(ValueError):
            corollary_degree(demo_f(), 0.0)
