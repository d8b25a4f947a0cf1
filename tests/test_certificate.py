"""Tests for certificate construction, verification, and certified bounds."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from jacksonsos import certificate as certificate_module
from jacksonsos import chebpoly as chebpoly_module
from jacksonsos import sos1d
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
from jacksonsos.jackson import jackson_lambda
from jacksonsos.kernelop import apply_forward, apply_inverse, constant_C, theorem_threshold
from jacksonsos.sos1d import decompose_kernel_slices

from helpers import demo_f, expand_certificate, random_cheb, tamper_heaviest_node


class TestCertify:
    def test_demo_r7_valid(self):
        f = demo_f()
        cert = certify(f, 0.1, 7)
        assert cert.residual <= 1e-8
        report = verify(cert, f)
        assert report.valid
        assert set(cert.squares_per_subset()) <= {(), (0,)}
        # the weights are the unsmoothed values at the m = ceil((7 + 4 + 1) / 2)
        # nodes over m, bit for bit
        nodes = chebyshev_nodes(6)
        unsmoothed = apply_inverse(f.shift(0.1), 7).eval_grid([nodes])
        assert np.all(unsmoothed > 0.0)
        assert np.array_equal(cert.weights, (1.0 / 6) * unsmoothed)
        # the squares are the closed-form slices at all six nodes, bit for
        # bit: two of each kind per node, with 2 deg <= r + 1 = 8
        u, v = cert.squares()
        expected = decompose_kernel_slices(7, nodes)
        assert u.shape == (6, 2, 5) and v.shape == (6, 2, 4)
        assert u.tobytes() == expected[0].tobytes()
        assert v.tobytes() == expected[1].tobytes()

    def test_demo_r5_not_certifiable(self):
        f = demo_f()
        with pytest.raises(NotCertifiable) as err:
            certify(f, 0.1, 5)
        assert err.value.min_value < -1e-3

    def test_zero_with_eta(self):
        cert = certify(ChebPoly.zero(1), 1.0, 4)
        assert cert.residual == 0.0
        assert cert.weights.tolist() == [1.0]
        # K_0 = 1 on one node: its cosine square is 1, its sine square 0
        assert cert.r == 0
        u, v = cert.squares()
        assert u.tolist() == [[[1.0], [0.0]]] and v.shape == (1, 2, 0)
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
        assert cert.r == 0
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
        nodes = 6  # ceil((r + d + 1) / 2) with d = 4
        per_node_limit = 2  # every slice, odd r too, has two squares per sigma list
        for subset, count in cert.squares_per_subset().items():
            assert count <= nodes * per_node_limit
        assert cert.square_count() == 24
        # n=2, r=5, d=4: two squares per axis, so at most 2^n m^n, m = 5
        q = random_cheb(np.random.default_rng(5), 2, 2)
        cert2 = certify(apply_forward(q * q + ChebPoly.constant(2, 0.1), 5), 0.0, 5)
        assert set(cert2.squares_per_subset()) == {(), (0,), (1,), (0, 1)}
        for subset, count in cert2.squares_per_subset().items():
            assert count <= 2 ** 2 * 5 ** 2

    def test_term_degree_bound(self):
        """Derived squares keep degree r + 1, and a wrong stored r fails verify."""
        f = demo_f()
        for r in range(0, 12):
            u, v = decompose_kernel_slices(r, chebyshev_nodes(4))
            assert 2 * (u.shape[-1] - 1) <= r + 1 and 2 * v.shape[-1] <= r + 1
        cert = certify(f, 0.1, 7)
        for r in (6, 8):
            tampered = SchmudgenCertificate(
                num_vars=1, r=r, eta=0.1, weights=cert.weights, residual=cert.residual)
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
        assert report.scales_positive

    @pytest.mark.parametrize("n, r", [(1, 7), (2, 2)])
    def test_never_reaches_the_root_path(self, monkeypatch, n, r):
        """Kernel slices come in closed form: no spectral factor, no colleague roots."""
        def refuse(*args):
            raise AssertionError("certify reached the root path")

        monkeypatch.setattr(sos1d, "_spectral_factor", refuse)
        monkeypatch.setattr(sos1d, "chebroots", refuse)
        f, eta = (demo_f(), 0.1) if n == 1 else (_smoothed_square(n, r), 0.0)
        cert = certify(f, eta, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert verify(loaded, f).valid

    @pytest.mark.parametrize("n, r", [(1, 0), (1, 7), (2, 5), (2, 6)])
    def test_constant_target_is_the_r0_closed_form(self, n, r):
        """A constant is certified on one node at r = 0 whatever r was asked."""
        cert = certify(ChebPoly.constant(n, 0.3), 0.1, r)
        assert (cert.r, cert.weights.shape) == (0, (1,) * n)
        assert cert.weights.flat[0] == pytest.approx(0.4, rel=1e-15)
        assert verify(cert, ChebPoly.constant(n, 0.3)).residual == 0.0

    def test_demo_at_the_corollary_degree(self):
        """The degree the theory asks for at eta = 0.01 certifies and verifies."""
        f = demo_f()
        r = corollary_degree(f, 0.01)
        assert r == 669
        start = time.perf_counter()
        cert = certify(f, 0.01, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        report = verify(loaded, f)
        assert report.valid and report.residual == cert.residual
        assert time.perf_counter() - start < 5.0

    def test_node_budget_checked_before_evaluation(self, grid_budget_enforced):
        # unsmooths to 1 + 0.1 T_250(x1) >= 0.9, so it would pass the gate, but
        # d = r = 250 needs 251^3 quadrature nodes
        f3 = apply_forward(ChebPoly(3, {(0, 0, 0): 1.0, (250, 0, 0): 0.1}), 250)
        with pytest.raises(ValueError, match="251\\^3 points exceeds budget"):
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
        """One polish, the gate's (n = 1): kernel slices run no Lobatto gate."""
        calls = []
        golden_min = chebpoly_module._golden_min

        def counting(*args):
            calls.append(args)
            return golden_min(*args)

        monkeypatch.setattr(chebpoly_module, "_golden_min", counting)
        if r == 5:
            with pytest.raises(NotCertifiable):
                certify(demo_f(), 0.1, r)
        else:
            certify(demo_f(), 0.1, r)
        assert len(calls) == 1

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
    @pytest.mark.parametrize("n, r", [(1, 7), (1, 12), (2, 4), (2, 5), (3, 3), (2, 0)])
    def test_matches_product_expansion(self, n, r):
        """Multiplying every square out gives f + eta and the contraction.

        Odd and even m = ceil((r + d + 1) / 2) nodes per axis (the demo at r = 7
        has m = 6), and at r = 0 a constant, whose certificate has one node.
        """
        if r == 0:
            f, eta = ChebPoly.constant(n, 0.3), 0.1
        else:
            f, eta = (demo_f(), 0.1) if n == 1 else (_smoothed_square(n, r), 0.0)
        cert = certify(f, eta, r)
        m = (r + max(f.per_variable_degrees()) + 2) // 2
        assert len(cert.weights) == m
        expanded, counts = expand_certificate(cert)
        assert counts == cert.squares_per_subset()
        assert cert.square_count() == sum(counts.values())
        target = f.shift(eta)
        scale = target.max_abs_coeff()
        assert (expanded - target).max_abs_coeff() <= 1e-12 * scale
        dense = cert.reconstruct()
        assert dense.shape == (r + 1 + r % 2,) * n
        recon = ChebPoly(n, dict(np.ndenumerate(dense)))
        assert (expanded - recon).max_abs_coeff() <= 1e-12 * scale

    @pytest.mark.parametrize("n, r", [(1, 7), (1, 6), (2, 4), (3, 3), (2, 0)])
    def test_row_count_is_checked_on_construction(self, n, r):
        """The m rows of a certificate are derived from (r, m), so construction
        refuses a degree no m-node identity makes exact: r outside 0..2m - 1."""
        f = _smoothed_square(n, r) if r else ChebPoly.constant(n, 0.3)
        cert = certify(f, 0.0, r)
        m = len(cert.weights)
        for bad in (-1, 2 * m):
            with pytest.raises(ValueError, match=f"^kernel degree {bad} on {m} nodes "
                               "per axis; need 0 <= r <= 2m - 1$"):
                SchmudgenCertificate(n, bad, cert.eta, cert.weights, cert.residual)
        SchmudgenCertificate(n, 2 * m - 1, cert.eta, cert.weights, cert.residual)

    @pytest.mark.parametrize("n", [0, -1, 65, 10 ** 7])
    def test_variable_count_is_checked_first(self, n):
        """num_vars outside 1..64 is refused before any (m,) * n shape is built."""
        with pytest.raises(ValueError, match=f"^{n} variables; need 1 to 64$"):
            SchmudgenCertificate(n, 1, 0.1, np.ones(1), 0.0)

    def test_slice_table_budget(self):
        """2 m (r + 2) factor entries past POINT_BUDGET are refused before any
        slice is built; one node fewer fits."""
        m = 1581                        # 2 * 1581 * 3163 > 10^7 >= 2 * 1580 * 3161
        with pytest.raises(ValueError, match=f"table of {m} x 2 x {2 * m + 1} entries"):
            SchmudgenCertificate(1, 2 * m - 1, 0.1, np.ones(m), 0.0)
        SchmudgenCertificate(1, 2 * m - 3, 0.1, np.ones(m - 1), 0.0)

    def test_reconstruction_budget(self):
        """(r + 1 + r % 2)^n reconstruction coefficients past POINT_BUDGET are
        refused on construction, before any table is built: 57^4 at r = 55
        is, 55^4 at r = 54 fits."""
        weights = np.ones((28,) * 4)
        with pytest.raises(ValueError, match="^reconstruction of 57\\^4 coefficients "
                           f"exceeds budget {POINT_BUDGET}$"):
            SchmudgenCertificate(4, 55, 0.0, weights, 0.0)
        SchmudgenCertificate(4, 54, 0.0, weights, 0.0)

    @pytest.mark.parametrize("n, shape", [(2, (8,)), (1, (8, 8)), (2, (8, 7)), (1, ())])
    def test_weight_shape_is_checked_on_construction(self, n, shape):
        """Weights are m^n with m nodes on every axis, for the certificate's n."""
        m = shape[0] if shape else 0
        with pytest.raises(ValueError, match=re.escape(
                f"weights of shape {shape} for {n} variables; need shape {(m,) * n}")):
            SchmudgenCertificate(n, 7, 0.1, np.ones(shape), 0.0)

    @pytest.mark.parametrize("n, r, squares", [
        (1, 40, 82), (2, 4, 100), (2, 5, 100), (2, 8, 324), (3, 3, 216), (3, 4, 1000),
    ])
    def test_implied_square_counts(self, n, r, squares):
        """``squares`` counts one square of each kind per node and axis (2^n m^n
        in all); the closed form has two of each kind, so 2^n times as many."""
        assert certify(_smoothed_square(n, r), 0.0, r).square_count() == 2 ** n * squares

    @pytest.mark.parametrize("n, r", [(3, 10), (4, 6)])
    def test_large_smoothed_squares(self, n, r):
        """Sizes the expanded form could not reach certify, reload and verify."""
        f = _smoothed_square(n, r)
        cert = certify(f, 0.0, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        report = verify(loaded, f)
        assert report.valid
        assert report.residual == cert.residual
        assert loaded.weights.size <= (r + 1) ** n


def _hand_built(f: ChebPoly, eta: float, r: int, m: int) -> SchmudgenCertificate:
    """The certificate of f + eta on m nodes per axis, without certify's checks."""
    n = f.num_vars
    axis = chebyshev_nodes(m)
    weights = apply_inverse(f.shift(eta), r).eval_grid([axis] * n) / m ** n
    return SchmudgenCertificate(num_vars=n, r=r, eta=eta, weights=weights, residual=0.0)


class TestNodeCount:
    """certify uses m = ceil((r + d + 1) / 2) nodes per axis, and no fewer work."""

    CASES = [(demo_f, 0.1, 7, 6), (lambda: _smoothed_square(2, 5), 0.0, 5, 5)]

    @pytest.mark.parametrize("make_f, eta, r, m", CASES, ids=["demo-r7", "square-n2-r5"])
    def test_one_node_fewer_breaks_the_identity(self, make_f, eta, r, m):
        f = make_f()
        cert = certify(f, eta, r)
        assert len(cert.weights) == m
        assert verify(cert, f).residual <= 1e-12
        assert verify(_hand_built(f, eta, r, m), f).residual <= 1e-12
        assert verify(_hand_built(f, eta, r, m - 1), f).residual > 1e-6

    @pytest.mark.parametrize("make_f, eta, r, m", CASES, ids=["demo-r7", "square-n2-r5"])
    def test_bounds_use_certify_nodes(self, monkeypatch, make_f, eta, r, m):
        """One node rule: the bound's argmin is one of certify's node coordinates.

        certify takes the nodes twice, for the weights and for the squares of
        its residual check, and the bound once.
        """
        counts = []
        original = certificate_module.chebyshev_nodes

        def recorded(k):
            counts.append(k)
            return original(k)

        monkeypatch.setattr(certificate_module, "chebyshev_nodes", recorded)
        f = make_f()
        cert = certify(f, eta, r)
        report = kernel_lower_bound(f, r)
        assert counts == [m, m, m]
        assert set(report.argmin) <= set(original(len(cert.weights)).tolist())

    @pytest.mark.parametrize("n, r", [(1, 7), (2, 5), (3, 3)])
    def test_r_plus_one_node_certificates_still_load(self, n, r):
        """Certificates written on m = r + 1 nodes reload and verify."""
        f, eta = (demo_f(), 0.1) if n == 1 else (_smoothed_square(n, r), 0.0)
        old = _hand_built(f, eta, r, r + 1)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(old))))
        assert loaded.weights.shape == (r + 1,) * n
        assert verify(loaded, f).valid


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
        """Weights alone certify 3/4 + x^2 / 2 = 1 + T_2 / 4 at r = 2 on m = 3 nodes.

        lambda_2 = 1/4 at r = 2, so g = K_2^{-1} f = 1 + T_2, which is 3/2 at
        +-sqrt(3)/2 and 0 at the middle node: the weights are 1/2, 0, 1/2.
        """
        f = ChebPoly(1, {(0,): 1.0, (2,): 0.25})
        cert = SchmudgenCertificate(
            num_vars=1, r=2, eta=0.0, weights=np.array([0.5, 0.0, 0.5]), residual=0.0)
        report = verify(cert, f)
        assert report.residual <= 1e-15
        assert report.valid
        # two squares of each kind at each of the two nodes with W > 0
        assert cert.squares_per_subset() == {(): 4, (0,): 4}

    def test_term_beyond_reconstruction_counts_in_full(self):
        """The hand-built r = 2 certificate reconstructs 1 + T_2 / 4 with three
        coefficients; against 1 + T_9 / 2 the T_2 term misses by 1/4 and the
        T_9 term, past the reconstruction, by all of its 1/2."""
        f = ChebPoly(1, {(0,): 1.0, (9,): 0.5})
        cert = SchmudgenCertificate(1, 2, 0.0, np.array([0.5, 0.0, 0.5]), 0.0)
        report = verify(cert, f)
        assert report.residual == pytest.approx(0.5, abs=1e-15)
        assert not report.valid

    def test_variable_count_mismatch(self):
        """A one-variable certificate checked against a two-variable f."""
        cert = SchmudgenCertificate(1, 2, 0.0, np.array([0.5, 0.0, 0.5]), 0.0)
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2 variables$"):
            verify(cert, ChebPoly(2, {(0, 0): 1.0, (2, 0): 0.25}))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_are_not_valid(self):
        """Loaded weights near the float maximum overflow the contraction:
        inf in the T_0 column, then inf - inf = NaN against the nodes' +-T_1
        coefficients.  The NaN must reach the residual, not be dropped."""
        cert = certificate_from_dict({"num_vars": 2, "r": 1, "eta": 0, "residual": 0,
                                      "weights": [1.7e308] * 4})
        report = verify(cert, ChebPoly(2, {(0, 0): 1.0}))
        assert math.isnan(report.residual)
        assert not report.valid


class TestScale:
    """verify contracts the stored weights once per axis and never expands
    the squares, so its cost is O(n m^n) whatever the number of sigma_J."""

    def test_sixty_four_variable_constant(self):
        cert = certificate_from_dict(
            {"num_vars": 64, "r": 0, "eta": 0, "residual": 0, "weights": [1.0]})
        start = time.perf_counter()
        report = verify(cert, ChebPoly.constant(64, 1.0))
        assert time.perf_counter() - start < 1.0
        assert report.valid
        assert report.square_count == 1

    def test_square_counts_are_exact_integers(self):
        """Counts are contracted in Python integers.  At n = 14, r = 1 on two
        nodes every axis has 2 x 4 squares: 8^14 in all, 2^14 of them in
        each sigma_J."""
        cert = SchmudgenCertificate(14, 1, 0.0, np.ones((2,) * 14), 0.0)
        assert cert.square_count() == 8 ** 14
        per_subset = cert.squares_per_subset()
        assert len(per_subset) == 2 ** 14
        assert set(per_subset.values()) == {4 ** 14}

    def test_ten_variable_smoothed_square(self):
        f = _smoothed_square(10, 2)
        cert = certify(f, 0.0, 2)
        assert cert.weights.size == 3 ** 10
        report = verify(cert, f)
        assert report.valid
        assert report.residual == cert.residual


def _node_identity_residual(f: ChebPoly, r: int, m: int):
    """Rebuild f - lambda from g = K_r^{-1} f at m Gauss-Chebyshev nodes per axis.

    Independent of ``certificate``: nodes from their closed form, g's node
    values and the kernel rows (1, 2 lambda_k T_k(y)) from numpy's
    ``chebvander``.  Returns (lambda, g at the nodes, relative coefficient
    residual of sum_idx m^-n (g(y_idx) - lambda) prod_j K_r(x_j, y_idx_j)).
    """
    n = f.num_vars
    nodes = np.cos((2 * np.arange(m, 0, -1) - 1) * math.pi / (2 * m))
    rows = np.polynomial.chebyshev.chebvander(nodes, r)        # T_k(y_t)
    dense_g = np.zeros((r + 1,) * n)
    for kappa, c in apply_inverse(f, r).coeffs.items():
        dense_g[kappa] = c
    gvals = dense_g
    for _ in range(n):
        gvals = np.tensordot(gvals, rows, axes=(0, 1))          # sum_k c_k T_k(y_t)
    lam = float(gvals.min())
    kernel = rows * np.array([1.0] + [2.0 * jackson_lambda(k, r) for k in range(1, r + 1)])
    rebuilt = (gvals - lam) / m ** n
    for _ in range(n):
        rebuilt = np.tensordot(rebuilt, kernel, axes=(0, 0))
    target = np.zeros((r + 1,) * n)
    for kappa, c in f.shift(-lam).coeffs.items():
        target[kappa] = c
    return lam, gvals, np.abs(rebuilt - target).max() / np.abs(target).max()


class TestKernelLowerBound:
    def test_constant(self):
        rep = kernel_lower_bound(ChebPoly.constant(1, 2.0), 5)
        assert rep.lambda_star == pytest.approx(2.0)
        assert rep.gap == pytest.approx(0.0)
        assert rep.theorem_satisfied

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_identity_rebuilds_f_minus_lambda(self, n):
        """lambda_star is min g over ceil((r + d + 1) / 2)^n nodes, and proven.

        f - lambda_star is rebuilt as a nonnegative combination of kernel
        products to round-off; one node fewer per axis breaks the identity.
        """
        rng = np.random.default_rng(10 + n)
        for _ in range(4):
            d = int(rng.integers(1, 5))
            f = random_cheb(rng, n, d)
            r = max(f.per_variable_degrees()) + int(rng.integers(0, 7))
            m = (r + max(f.per_variable_degrees()) + 2) // 2
            rep = kernel_lower_bound(f, r)
            lam, gvals, residual = _node_identity_residual(f, r, m)
            assert rep.lambda_star == pytest.approx(lam, rel=1e-13, abs=1e-13)
            assert residual <= 1e-12
            assert np.all(gvals - lam >= 0.0)
            assert _node_identity_residual(f, r, m - 1)[2] > 1e-6

    def test_demo_r7_matches_critical_point_oracle(self):
        f = demo_f()
        rep = kernel_lower_bound(f, 7)
        unsmoothed = apply_inverse(f, 7)
        # oracle: minima of f and of the unsmoothed quartic from derivative roots
        oracle = []
        for p in (f, unsmoothed):
            mono = mono_from_cheb(p)
            dense = [mono.coeffs.get((k,), 0.0) for k in range(5)]
            roots = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(dense))
            cands = [x.real for x in roots
                     if abs(x.imag) < 1e-12 and -1 <= x.real <= 1] + [-1.0, 1.0]
            oracle.append(min(np.polynomial.polynomial.polyval(x, dense) for x in cands))
        fmin, gmin = oracle
        assert gmin - 1e-12 <= rep.lambda_star <= fmin
        # m = ceil((7 + 4 + 1) / 2) = 6 nodes, at which numpy evaluates g
        dense_g = [unsmoothed.coeffs.get((k,), 0.0) for k in range(5)]
        at_nodes = np.polynomial.chebyshev.chebval(chebyshev_nodes(6), dense_g)
        assert rep.lambda_star == pytest.approx(at_nodes.min(), abs=1e-14)
        assert rep.argmin == (chebyshev_nodes(6)[int(np.argmin(at_nodes))],)
        assert rep.lambda_star <= rep.fmin_est

    def test_lower_bound_validity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 5))
            f = random_cheb(rng, n, d)
            r = d + int(rng.integers(0, 20))
            rep = kernel_lower_bound(f, r)
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

    def test_grid_budget_checked_before_evaluation(self, grid_budget_enforced, monkeypatch):
        """r = 30 on a degree-1 product of 6 variables needs 16^6 nodes.

        Every degree of a sweep is refused before f's 14^6 extrema grid runs.
        """
        def extrema(*args):
            raise AssertionError("f's extrema grid ran before the node budget check")

        monkeypatch.setattr(certificate_module, "grid_extrema", extrema)
        f6 = ChebPoly(6, {(0,) * 6: 1.0, (1,) * 6: 0.5})
        for sweep in ([30], [2, 30]):
            with pytest.raises(ValueError, match="16\\^6 points exceeds budget"):
                rate_sweep(f6, sweep)

    def test_extrema_memory_at_six_variables(self):
        """f's 14^6 extrema grid (60 MB) is evaluated one block at a time.

        The bound itself needs 2^6 nodes: g = 2 + (T_1 / cos(pi / 4))^{x 6}
        reaches min f = 1 at the nodes (+-cos(pi / 4), ...).
        """
        f6 = ChebPoly(6, {(0,) * 6: 2.0, (1,) * 6: 1.0})
        tracemalloc.start()
        try:
            rep = kernel_lower_bound(f6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert rep.lambda_star == pytest.approx(1.0, abs=1e-15)
        assert (rep.fmin_est, rep.fmax_est) == (1.0, 3.0)

    def test_polish_memory_follows_terms(self):
        # 5 sparse terms of degree 24: a dense coefficient tensor would be ~78 MB
        f5 = ChebPoly(5, {tuple(24 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        tracemalloc.start()
        try:
            lo, _, hi, _ = grid_extrema(f5, 3, certificate_module._BOUND_REFINE_ITERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22
        assert lo <= hi


class TestRateSweep:
    def test_constant_rows(self):
        reports = rate_sweep(ChebPoly.constant(1, 1.5), [3, 6, 9])
        assert all(rep.gap == pytest.approx(0.0) for rep in reports)

    def test_linear_closed_form(self):
        """For T_1, g = T_1 / cos(theta_r): its least node is -cos(pi / (2m)).

        m = ceil((r + 2) / 2) nodes; at even r, pi / (2m) = theta_r.
        """
        t1 = ChebPoly.basis(1, (1,))
        c_range = constant_C(1, 1).sharpest * 2.0
        for rep in rate_sweep(t1, [8, 9, 16, 33, 64]):
            m = (rep.r + 3) // 2
            exact = -math.cos(math.pi / (2 * m)) / math.cos(math.pi / (rep.r + 2))
            assert rep.lambda_star == pytest.approx(exact, abs=1e-15)
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
        for f in (demo_f(), cubic):
            expected = [kernel_lower_bound(f, r) for r in rs]
            assert len(calls) == len(rs)
            calls.clear()
            assert rate_sweep(f, rs) == expected
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

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_rejected(self, eta):
        """max(threshold, nan) would drop the NaN and return the threshold."""
        with pytest.raises(ValueError, match="need finite eta > 0"):
            corollary_degree(demo_f(), eta)
