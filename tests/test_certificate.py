"""Tests for certificate construction, verification, and certified bounds."""

import json
import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from jacksonsos import certificate as certificate_module
from jacksonsos import chebpoly as chebpoly_module
from jacksonsos import kernelop, sos1d
from jacksonsos.certificate import (
    NotCertifiable,
    ResidualTooLarge,
    SchmudgenCertificate,
    certify,
    corollary_degree,
    kernel_lower_bound,
    rate_sweep,
    verify,
)
from jacksonsos.chebpoly import (
    GATE_TOL,
    POINT_BUDGET,
    ChebPoly,
    chebyshev_nodes,
    grid_extrema,
    mono_from_cheb,
)
from jacksonsos.cli import certificate_from_dict, certificate_to_dict
from jacksonsos.jackson import _kernel_amplitudes, jackson_lambda
from jacksonsos.kernelop import apply_forward, apply_inverse, constant_C, theorem_threshold
from jacksonsos.sos1d import decompose_kernel_slices

from helpers import (abs_sum, demo_f, expand_certificate, lowest_grid_cell,
                     random_cheb, tamper_heaviest_node)


def _band_f() -> ChebPoly:
    """1 + 0.4 T_1 - 0.3 T_2 + 0.8 T_3 + 0.5 T_4: at eta = 0.02 and r = 15 its
    node weights pass, and g = K_r^{-1}(f + eta) dips to -0.0686345 at an
    inner grid cell, which the polish lowers by 1.9e-6.  sum |c| of f + eta
    is 3.02, so GATE_TOL = 0.025 (floor -0.0755) polishes g and accepts it,
    and 0.02 (floor -0.0604) refuses it on the cell."""
    return ChebPoly(1, {(0,): 1.0, (1,): 0.4, (2,): -0.3, (3,): 0.8, (4,): 0.5})


def _odd_negated(rows: np.ndarray) -> np.ndarray:
    """Rows of Chebyshev coefficients of q(x) turned into those of q(-x)."""
    return rows * (-1.0) ** np.arange(rows.shape[-1])


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
        # the squares of the upper three nodes are the closed-form slices
        # there, bit for bit, and the lower three are their mirrors: two of
        # each kind per node, with 2 deg <= r + 1 = 8
        u, v = cert.squares()
        assert u.shape == (6, 2, 5) and v.shape == (6, 2, 4)
        for got, upper in zip((u, v), decompose_kernel_slices(7, nodes[3:])):
            assert got[3:].tobytes() == upper.tobytes()
            assert got[:3].tobytes() == _odd_negated(upper[::-1]).tobytes()

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

    def test_degree_guard_reads_f_before_the_constant_shortcut(self):
        """The shift by 1e20 drops T_5, so f + eta is a constant; f itself
        still exceeds the kernel degree and must be refused, not certified
        at r = 0."""
        f = ChebPoly(1, {(5,): 1.0, (0,): 2.0})
        assert f.shift(1e20).per_variable_degrees() == (0,)
        with pytest.raises(ValueError, match="per-variable degree 5 exceeds kernel degree 3"):
            certify(f, 1e20, 3)

    @pytest.mark.parametrize("r", [7.0, 7.5, True])
    def test_non_integral_degree_refused(self, r):
        """r = 7.0 built a certificate that certificate_from_dict refuses,
        7.5 failed inside the slice split with a broadcast error, and True
        was taken for 1; each is refused up front, naming r."""
        message = f"^kernel degree {re.escape(repr(r))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            certify(demo_f(), 0.1, r)

    def test_numpy_integer_degree_certifies_and_round_trips(self):
        cert = certify(demo_f(), 0.1, np.int64(7))
        assert type(cert.r) is int and cert.r == 7
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert loaded.r == 7
        assert verify(loaded, demo_f()).residual == cert.residual

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
        gmin = grid_extrema(g)[0]
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

    def test_node_budget_checked_before_the_block(self, grid_budget_enforced):
        """16 terms (j, .., j) in 6 variables have a coefficient block past
        POINT_BUDGET; at r = 15 certify and kernel_lower_bound refuse their
        16^6 nodes first, before any grid evaluation builds the block."""
        f6 = ChebPoly(6, {(j,) * 6: 1.0 for j in range(16)})
        for run in (lambda: certify(f6, 0.0, 15), lambda: kernel_lower_bound(f6, 15)):
            with pytest.raises(ValueError, match="^grid of 16\\^6 points exceeds budget"):
                run()
        assert f6._plan is None

    def test_node_budget_checked_before_gate(self, monkeypatch):
        # the node step and the gate both start with a grid evaluation, and
        # every grid evaluation goes through ChebPoly._eval_tables
        def gate(*args):
            raise AssertionError("a grid was evaluated before the node budget check")

        monkeypatch.setattr(ChebPoly, "_eval_tables", gate)
        f5 = ChebPoly(5, {tuple(60 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        with pytest.raises(ValueError, match="61\\^5"):
            certify(f5, 0.1, 60)

    @pytest.mark.parametrize("r", [5, 7, 8, 12])
    def test_gate_polishes_only_the_minimum(self, monkeypatch, r):
        """One polish, the gate's (n = 1): kernel slices run no Lobatto gate.
        r = 5 is refused on its grid witness and polishes nothing."""
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
        assert len(calls) == (0 if r == 5 else 1)

    @pytest.mark.parametrize("r, refusal", [(12, "at node"), (19, "reaches"), (20, None)])
    def test_a_rung_builds_one_plan(self, monkeypatch, r, refusal):
        """The node step, the gate's scan and its polish share the plan of
        g = K_r^{-1}(f + eta), built once; f + eta only gives the floor."""
        built = []
        build = chebpoly_module._build_plan
        monkeypatch.setattr(chebpoly_module, "_build_plan",
                            lambda p: built.append(p) or build(p))
        f = demo_f()
        if refusal:
            with pytest.raises(NotCertifiable, match=refusal):
                certify(f, 0.01, r)
        else:
            certify(f, 0.01, r)
        assert built == [apply_inverse(f.shift(0.01), r)]

    def test_gate_holds_one_grid_array_at_a_time(self):
        # the 65^3 gate grid is read in 5 blocks of 13 last-axis points (0.4
        # MiB each, about 0.9 MiB peak with eval_grid's own temporaries); the
        # whole grid's values alone would take 2.1 MiB
        f = _smoothed_square(3, 4)
        tracemalloc.start()
        try:
            certify(f, 0.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("eta, r, refused", [(0.1, 5, True), (0.1, 6, False)])
    def test_gate_scans_one_grid(self, monkeypatch, eta, r, refused):
        """The gate scans one grid, of g, accepted or refused: its floor is
        read from the coefficients of f + eta.  r = 6's minimum is positive,
        and r = 5's lowest cell lies below the floor."""
        f = demo_f()
        g = apply_inverse(f.shift(eta), r)
        scanned = []
        blocks = chebpoly_module.grid_blocks

        def counting(p, points):
            scanned.append(p)
            return blocks(p, points)

        monkeypatch.setattr(chebpoly_module, "grid_blocks", counting)
        if refused:
            with pytest.raises(NotCertifiable, match="reaches"):
                certify(f, eta, r)
        else:
            certify(f, eta, r)
        assert scanned == [g]

    def test_refusal_reports_its_grid_witness(self, monkeypatch):
        """A lowest cell below -GATE_TOL sum |c| of f + eta is the refusal:
        its value and Lobatto point, with no polish."""
        def no_call(*args):
            raise AssertionError("the polish ran")

        f = demo_f()
        g = apply_inverse(f.shift(0.1), 5)
        cell, point = lowest_grid_cell(g, 2049)
        monkeypatch.setattr(chebpoly_module, "_golden_min", no_call)
        with pytest.raises(NotCertifiable) as err:
            certify(f, 0.1, 5)
        assert (err.value.min_value, err.value.location) == (cell, point)
        assert g.eval(point) == pytest.approx(cell, rel=1e-12)
        assert str(err.value) == f"unsmoothed polynomial reaches {cell:.6e} at {point}"

    def test_refusal_reports_the_polished_minimum(self, monkeypatch):
        """A lowest cell above the floor -tol sum |c| of f + eta is polished,
        and a polished minimum below the floor is the refusal: tol halfway
        between the cell's and the polished minimum's."""
        f, eta, r = _band_f(), 0.02, 15
        target = f.shift(eta)
        g = apply_inverse(target, r)
        cell = lowest_grid_cell(g, 2049)[0]
        lo, loc = grid_extrema(g)[:2]
        tol = -(cell + lo) / (2.0 * abs_sum(target))
        assert lo < -tol * abs_sum(target) <= cell
        monkeypatch.setattr(chebpoly_module, "GATE_TOL", tol)
        with pytest.raises(NotCertifiable) as err:
            certify(f, eta, r)
        assert (err.value.min_value, err.value.location) == (lo, loc)
        assert str(err.value) == f"unsmoothed polynomial reaches {lo:.6e} at {loc}"

    def test_gate_accepts_a_polished_minimum_within_its_scale(self, monkeypatch):
        """A negative lowest cell above the floor -tol sum |c| of f + eta is
        polished once and, when the polished minimum stays above the floor
        too, accepted, with one grid scanned: g's, and none of f + eta."""
        f, eta, r, tol = _band_f(), 0.02, 15, 0.025
        target = f.shift(eta)
        g = apply_inverse(target, r)
        assert -tol * abs_sum(target) <= grid_extrema(g)[0] < 0.0
        assert lowest_grid_cell(g, 2049)[0] < 0.0
        polish, scanned = [], []
        golden_min, blocks = chebpoly_module._golden_min, chebpoly_module.grid_blocks
        monkeypatch.setattr(chebpoly_module, "_golden_min",
                            lambda *args: polish.append(args) or golden_min(*args))
        monkeypatch.setattr(chebpoly_module, "grid_blocks",
                            lambda p, points: scanned.append(p) or blocks(p, points))
        monkeypatch.setattr(chebpoly_module, "GATE_TOL", tol)
        cert = certify(f, eta, r)
        assert verify(cert, f).valid
        assert len(polish) == 1 and scanned == [g]

    def test_gate_decides_as_the_polished_rule(self, monkeypatch):
        """On a seeded corpus, certify refuses exactly when the least node
        value or the polished grid minimum of g lies below the one floor
        -tol sum |c| of f + eta, on both paths of the gate.  The random rungs
        whose node values pass dip at x = -1, where the polish cannot go
        lower, so _band_f's inner dip is added for a refusal after the
        polish.  A tolerance far above GATE_TOL zeroes node values large
        enough to break the identity, so a rung it passes may still fail its
        residual check; at GATE_TOL none does."""
        rng = np.random.default_rng(22)
        cases = [(_band_f(), 0.02, 15)]
        for n in (1, 2):
            for _ in range(8 if n == 1 else 2):
                f = random_cheb(rng, n, int(rng.integers(3, 6)))
                f = f.shift(-grid_extrema(f)[0])
                cases += [(f, eta, r) for eta, r in ((0.01, 8), (0.03, 14), (0.1, 20))]
        paths = set()
        for f, eta, r in cases:
            n = f.num_vars
            points = chebpoly_module._scan_points(n)
            target = f.shift(eta)
            norm = abs_sum(target)
            g = apply_inverse(target, r)
            m = (r + max(f.per_variable_degrees()) + 2) // 2
            least = g.eval_grid([chebyshev_nodes(m)] * n).min()
            gmin = grid_extrema(g)[0]
            cell = lowest_grid_cell(g, points)[0]
            tols = [GATE_TOL, 1e-2, 3e-2]
            if gmin < 0.0:      # the middle of the polish band, then above it
                tols += [-(cell + gmin) / (2.0 * norm), -2.0 * gmin / norm]
            for tol in tols:
                floor = -tol * norm
                rule = not least < floor and not gmin < floor
                monkeypatch.setattr(chebpoly_module, "GATE_TOL", tol)
                try:
                    certify(f, eta, r)
                    passed = True
                except NotCertifiable:
                    passed = False
                except ResidualTooLarge:
                    assert tol != GATE_TOL, (n, eta, r)
                    passed = True
                assert passed == rule, (n, eta, r, tol)
                if not least < floor:
                    paths.add((cell < floor, passed))
        assert paths == {(True, False), (False, False), (False, True)}

    def test_node_refusal_builds_no_lobatto_grid(self, monkeypatch):
        """A rung whose node values go negative is refused before the gate,
        at the node and with the value that kernel_lower_bound reports, in
        whatever units c the demo is given."""
        def no_gate(*args, **kwargs):
            raise AssertionError("a Lobatto gate grid was built")

        bounds = {c: kernel_lower_bound(demo_f().scale(c), 12) for c in (1e-12, 1.0, 1e9)}
        monkeypatch.setattr(certificate_module, "gate_witness", no_gate)
        monkeypatch.setattr(chebpoly_module, "grid_blocks", no_gate)
        for c, bound in bounds.items():
            f = demo_f().scale(c)
            with pytest.raises(NotCertifiable, match="at node") as err:
                certify(f, 0.01 * c, 12)
            assert err.value.location == bound.argmin, c
            assert err.value.min_value == pytest.approx(bound.lambda_star + 0.01 * c, rel=1e-12)
            assert str(err.value) == (f"unsmoothed polynomial is {err.value.min_value:.6e} "
                                      f"at node {bound.argmin}")

    @pytest.mark.parametrize("eta, first", [(0.1, 6), (0.01, 20), (0.003, 39)])
    def test_decisions_are_the_gate_and_node_rule(self, eta, first):
        """certify accepts exactly when both the Lobatto gate and the node
        values pass the one floor, whichever it checks first (the bench's
        ladder ends)."""
        f = demo_f()
        floor = -GATE_TOL * abs_sum(f.shift(eta))
        for r in range(4, first + 1):
            g = apply_inverse(f.shift(eta), r)
            m = (r + f.degree() + 2) // 2
            rule = (grid_extrema(g)[0] >= floor
                    and g.eval_grid([chebyshev_nodes(m)]).min() >= floor)
            try:
                certify(f, eta, r)
                accepted = True
            except NotCertifiable:
                accepted = False
            assert accepted == rule == (r == first), r


#: units of f from 1e-12 to 1e12
_UNITS = [10.0 ** k for k in range(-12, 13, 3)]


def _node_square() -> ChebPoly:
    """K_8((x - y)^2) at y = chebyshev_nodes(6)[2], one of certify's m = 6
    nodes at r = 8: g = (x - y)^2 is zero at that node up to rounding of
    about 1e-16 times the units of f, of either sign."""
    y = float(chebyshev_nodes(6)[2])
    return apply_forward(ChebPoly(1, {(0,): 0.5 + y * y, (1,): -2.0 * y, (2,): 0.5}), 8)


class TestUnits:
    """The node values and the Lobatto gate compare g with one floor,
    -GATE_TOL sum |c| of f + eta, so certify decides alike in any units."""

    def test_floor_is_relative(self):
        for c in _UNITS:
            target = demo_f().scale(c).shift(0.01 * c)
            assert chebpoly_module.gate_floor(target) == -GATE_TOL * abs_sum(target), c

    @pytest.mark.parametrize("c", _UNITS)
    def test_zero_at_a_node_is_certified(self, c):
        f = _node_square().scale(c)
        cert = certify(f, 0.0, 8)
        assert len(cert.weights) == 6
        assert verify(cert, f).valid

    @pytest.mark.parametrize("c", _UNITS)
    def test_negative_node_is_refused_at_the_node(self, c):
        """The demo at eta = 0.01 and r = 12 dips below zero at a node by
        1.3e-3 times the units of f: refused there, never at the gate."""
        with pytest.raises(NotCertifiable, match="at node") as err:
            certify(demo_f().scale(c), 0.01 * c, 12)
        assert err.value.min_value == pytest.approx(-1.313367e-3 * c, rel=1e-6)


class TestDefaultGrids:
    """Every Lobatto scan, certify's gate and the bound rows' range alike,
    takes its points per axis from the one rule ``chebpoly._scan_points``."""

    @pytest.mark.parametrize("n", range(1, 24))
    def test_within_budget(self, n):
        assert chebpoly_module._scan_points(n) ** n <= POINT_BUDGET

    def test_rows_past_three_variables(self):
        assert [chebpoly_module._scan_points(n) for n in (1, 2, 3, 4, 5, 6, 7, 23, 24)] == [
            2049, 257, 65, 17, 17, 14, 10, 2, 2]

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
        refuses a degree no m-node identity makes exact, r past 2m - 1, and
        a negative one as every kernel degree check does."""
        f = _smoothed_square(n, r) if r else ChebPoly.constant(n, 0.3)
        cert = certify(f, 0.0, r)
        m = len(cert.weights)
        for bad, message in ((-1, "is negative"),
                             (2 * m, f"on {m} nodes per axis; need r <= 2m - 1")):
            with pytest.raises(ValueError, match=f"^kernel degree {bad} {message}$"):
                SchmudgenCertificate(n, bad, cert.eta, cert.weights, cert.residual)
        SchmudgenCertificate(n, 2 * m - 1, cert.eta, cert.weights, cert.residual)

    def test_non_integral_degree_refused_on_construction(self):
        with pytest.raises(ValueError, match=r"^kernel degree 7\.0 is not an integer$"):
            SchmudgenCertificate(1, 7.0, 0.1, np.ones(5), 0.0)

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

    @pytest.mark.parametrize("n, r, eta", [(1, 7, 0.1), (1, 212, 0.1), (1, 669, 0.01),
                                           (2, 5, 0.0), (3, 3, 0.0)],
                             ids=["demo-r7", "demo-r212", "demo-r669", "square-n2-r5",
                                  "square-n3-r3"])
    def test_verify_reproduces_the_stored_residual(self, n, r, eta):
        """certify -> JSON -> load -> verify gives back the residual certify
        stored, bit for bit: verify multiplies out the same squares in the
        same batched product."""
        f = demo_f() if n == 1 else _smoothed_square(n, r)
        cert = certify(f, eta, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        report = verify(loaded, f)
        assert report.valid
        assert loaded.residual.hex() == cert.residual.hex()
        assert report.residual.hex() == cert.residual.hex()

    @pytest.mark.parametrize("make_f, eta, r", [(demo_f, 0.1, 7),
                                                (lambda: ChebPoly.constant(1, 1.0), 2.0, 0),
                                                (lambda: _smoothed_square(2, 5), 0.0, 5)],
                             ids=["demo-r7", "constant", "square-n2-r5"])
    def test_one_slice_table_per_certificate(self, monkeypatch, make_f, eta, r):
        """certify -> JSON -> load -> verify -> square_count derives the slice
        table once per certificate object, two in all, and multiplies it out
        once for certify's residual check and once for verify."""
        calls = {"decompose_kernel_slices": 0, "split_coeffs": 0}
        for name in calls:
            def counting(*args, name=name, original=getattr(certificate_module, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(certificate_module, name, counting)
        f = make_f()
        cert = certify(f, eta, r)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        report = verify(loaded, f)
        assert report.valid and report.square_count == cert.square_count()
        assert calls == {"decompose_kernel_slices": 2, "split_coeffs": 2 if r else 1}

    def test_squares_are_copies_of_the_slice_table(self):
        """squares() hands out copies of the table a certificate derives, so
        writing to them leaves reconstruct and the counts as they were."""
        cert = certify(demo_f(), 0.1, 7)
        dense, count = cert.reconstruct(), cert.square_count()
        for rows in cert.squares():
            rows[...] = 0.0
        assert cert.reconstruct().tobytes() == dense.tobytes()
        assert cert.square_count() == count


def _mirror_cases():
    """(r, m): r = 0..12, 31 and 56, each on the fewest nodes that make an
    identity exact, m >= (r + 1) / 2, and on one more, so m is odd and even
    and m = 1 at r = 0 and 1."""
    for r in [*range(13), 31, 56]:
        low = max(1, (r + 2) // 2)
        yield from ((r, low), (r, low + 1))


def _all_node_counts(r: int, m: int) -> np.ndarray:
    """(m, 2) nonzero u and v squares per node, from the slices at all m nodes."""
    u, v = decompose_kernel_slices(r, chebyshev_nodes(m))
    return np.stack([np.any(u, axis=-1).sum(axis=-1), np.any(v, axis=-1).sum(axis=-1)], axis=1)


class TestMirroredSlices:
    """Only the slices at the nodes t >= m // 2 (y >= 0) are derived; node
    t < m // 2 takes those of node m-1-t, since S_t(x) = S_{m-1-t}(-x)."""

    @pytest.mark.parametrize("r, m", list(_mirror_cases()))
    def test_lower_rows_are_mirrors_bit_for_bit(self, r, m):
        u, v = SchmudgenCertificate(1, r, 0.0, np.ones(m), 0.0).squares()
        half = m // 2
        for rows, upper in zip((u, v), decompose_kernel_slices(r, chebyshev_nodes(m)[half:])):
            assert len(rows) == m
            assert rows[half:].tobytes() == upper.tobytes()
            assert rows[:half].tobytes() == _odd_negated(rows[m - 1:m - 1 - half:-1]).tobytes()

    @pytest.mark.parametrize("r, m", [*_mirror_cases(), (669, 337)])
    def test_lower_slices_match_the_direct_split(self, r, m):
        """A mirrored slice is another split of the slice at its own node: the
        two agree to 1e-14 relative, or 1e-17 (r + 2)^2 at high r (worst seen
        1.8e-12 at r = 669, against 4.5e-12)."""
        u, v = SchmudgenCertificate(1, r, 0.0, np.ones(m), 0.0).squares()
        direct = decompose_kernel_slices(r, chebyshev_nodes(m)[:m // 2])
        tol = max(1e-14, 1e-17 * (r + 2) ** 2)
        for t, (du, dv) in enumerate(zip(*direct)):
            mirrored, own = sos1d.split_coeffs(u[t], v[t]), sos1d.split_coeffs(du, dv)
            diff = np.polynomial.chebyshev.chebsub(mirrored, own)
            assert np.max(np.abs(diff)) <= tol * np.max(np.abs(own)), (r, m, t)

    @pytest.mark.parametrize("m", [1, 4, 5, 6, 9])
    def test_reconstruct_splits_half_the_slices(self, monkeypatch, m):
        """reconstruct multiplies out the slices of the (m + 1) // 2 upper
        nodes in one batched split_coeffs call."""
        rows = []

        def counting(u, v):
            rows.append((len(u), len(v)))
            return sos1d.split_coeffs(u, v)

        monkeypatch.setattr(certificate_module, "split_coeffs", counting)
        weights = np.arange(1.0, m + 1.0)
        dense = SchmudgenCertificate(1, 2 * m - 1, 0.0, weights, 0.0).reconstruct()
        assert rows == [((m + 1) // 2, (m + 1) // 2)]
        assert dense.shape == (2 * m + 1,)

    @pytest.mark.parametrize("n", [1, 2])
    def test_counts_match_an_all_node_count(self, n):
        """square_count and squares_per_subset, counted on the upper nodes and
        reflected, equal a count over the slices of all m nodes, with every
        third weight zero; for n = 1 at r < 100 and m from the fewest nodes
        up to 5 above, for n = 2 at r < 12."""
        for r in range(100 if n == 1 else 12):
            low = max(1, (r + 2) // 2)
            for m in range(low, low + 6):
                weights = np.ones((m,) * n)
                weights.flat[::3] = 0.0
                cert = SchmudgenCertificate(n, r, 0.0, weights, 0.0)
                counts = _all_node_counts(r, m)
                expected = {}
                for idx in zip(*np.nonzero(weights)):
                    for kinds in np.ndindex((2,) * n):
                        subset = tuple(j for j, kind in enumerate(kinds) if kind)
                        squares = math.prod(int(counts[i, k]) for i, k in zip(idx, kinds))
                        expected[subset] = expected.get(subset, 0) + squares
                expected = {s: c for s, c in expected.items() if c}
                assert cert.squares_per_subset() == expected, (r, m)
                assert cert.square_count() == sum(expected.values()), (r, m)


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

    def test_terms_checked_once_per_polynomial_built(self, monkeypatch):
        """The term check (``chebpoly._terms``) runs once per polynomial
        built, and measures its degrees, which are read from then on without
        a walk: certify builds the shift and apply_inverse's result, a sweep
        apply_inverse's result per r.  A sweep takes f's total degree once,
        for its theorem constants."""
        f = demo_f()
        assert f.per_variable_degrees() is f.per_variable_degrees()
        calls = Counter()
        original = chebpoly_module._terms

        def counted(*args):
            calls["_terms"] += 1
            return original(*args)

        def degree(self, original=ChebPoly.degree):
            calls["degree"] += 1
            return original(self)

        monkeypatch.setattr(chebpoly_module, "_terms", counted)
        monkeypatch.setattr(ChebPoly, "degree", degree)
        certify(f, 0.1, 7)
        assert calls["_terms"] == 2
        calls.clear()
        with pytest.raises(NotCertifiable):        # at g's lowest grid cell, unpolished
            certify(f, 0.1, 5)
        assert calls["_terms"] == 2
        calls.clear()
        rate_sweep(f, range(20, 100, 8))
        assert calls == {"_terms": 10, "degree": 1}

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

    def test_list_weights_verify_like_the_array(self):
        """Weights given as a list (the demo's r = 7 weights ``.tolist()``)
        used to build a certificate whose verify raised AttributeError."""
        f, cert = self._base()
        listed = SchmudgenCertificate(num_vars=1, r=7, eta=0.1,
                                      weights=cert.weights.tolist(), residual=0.0)
        assert listed.weights.tobytes() == cert.weights.tobytes()
        assert verify(listed, f) == verify(cert, f)

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
        """Counts are contracted in int64, exact below 2^63: a count is at
        most the number of weights times 4^n, and the reconstruction budget,
        3^n <= POINT_BUDGET at r = 1, caps n at 14 for r >= 1.  At n = 14,
        r = 1 on two nodes every axis has 2 x 4 squares: 8^14 in all, 4^14
        in each of the 2^14 sigma_J."""
        cert = SchmudgenCertificate(14, 1, 0.0, np.ones((2,) * 14), 0.0)
        assert cert.square_count() == 8 ** 14
        per_subset = cert.squares_per_subset()
        assert len(per_subset) == 2 ** 14
        assert set(per_subset.values()) == {4 ** 14}

    def test_r0_subsets_contract_sigma_0_alone(self):
        """At r = 0 no node has a v square, so the sigma_1 kind is skipped:
        twenty variables give {(): 1} without 2^20 counts of both kinds."""
        cert = SchmudgenCertificate(20, 0, 0.0, np.ones((1,) * 20), 0.0)
        tracemalloc.start()
        try:
            per_subset = cert.squares_per_subset()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_subset == {(): 1}
        assert peak < 2 ** 20

    def test_square_counts_are_int64(self, monkeypatch):
        """square_count and squares_per_subset contract the W > 0 mask with
        int64 squares per node, and the contraction stays int64."""
        dtypes = []
        original = certificate_module._contract

        def recording(weights, table):
            out = original(weights, table)
            dtypes.append((weights.dtype, table.dtype, np.asarray(out).dtype))
            return out

        monkeypatch.setattr(certificate_module, "_contract", recording)
        cert = SchmudgenCertificate(2, 3, 0.0, np.ones((3, 3)), 0.0)
        assert cert.square_count() == sum(cert.squares_per_subset().values())
        assert dtypes == [(np.bool_, np.int64, np.int64)] * 2

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

    def test_constant_at_r0(self):
        """A constant has no theorem constants, so its bound is 0 even at
        r = 0, where the row formula would divide by r^2."""
        f = ChebPoly.constant(2, 3.0)
        for rep in [kernel_lower_bound(f, 0)] + rate_sweep(f, [0, 2]):
            assert rep.lambda_star == 3.0
            assert (rep.bound, rep.C_used, rep.threshold) == (0.0, 0.0, 0.0)
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

    @pytest.mark.parametrize("r", [7.5, 8.0, False])
    def test_non_integral_degree_refused(self, r):
        """7.5 was reported as r = 7 and 8.0 as r = 8, through int(r)."""
        message = f"^kernel degree {re.escape(repr(r))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            kernel_lower_bound(demo_f(), r)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            kernel_lower_bound(ChebPoly(1, {(0,): math.nan, (2,): 1.0}), 8)
        # a polynomial is immutable: a NaN cannot be written in after construction
        f = ChebPoly(1, {(0,): -5.0, (2,): 1.0})
        with pytest.raises(TypeError):
            f.coeffs[(0,)] = math.nan

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
        """A bound row's range and constants (its setup, before any node is
        evaluated) stay sparse: f's range is grid_extrema's, min f = -5 and
        max f = 5 are found, and the constants are the theorem's."""
        # 5 sparse terms of degree 24: a dense coefficient tensor would be ~78 MB
        f5 = ChebPoly(5, {tuple(24 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        tracemalloc.start()
        try:
            got = certificate_module._range_and_constants(f5, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22
        lo, _, hi, _ = grid_extrema(f5)
        assert got == (lo, hi, theorem_threshold(5, 24), constant_C(5, 24).sharpest)
        assert (lo, hi) == (-5.0, 5.0)


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

        def counting(p):
            calls.append(p)
            return grid_extrema(p)

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


def _least_certifying_r(f: ChebPoly, eta: float) -> int:
    """The least r that certify accepts f + eta at, by doubling from f's
    degree and then bisection: certify accepts every larger r on the demo at
    the shifts tested below."""
    def accepts(r):
        try:
            certify(f, eta, r)
        except NotCertifiable:
            return False
        return True

    lo = max(f.per_variable_degrees())
    if accepts(lo):
        return lo
    hi = 2 * lo
    while not accepts(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepts(mid) else (mid, hi)
    return hi


def _fejer_amplitudes(r: int) -> np.ndarray:
    """Amplitudes of the Fejer kernel, whose autocorrelation is 1 - k / (r + 1)."""
    return np.full(r + 1, 1.0 / math.sqrt(r + 1))


def _fejer_lambda(k: int, r: int) -> float:
    return 1.0 - k / (r + 1)


class TestHeadlineRate:
    """The degree the demo needs grows like eta^(-1/2) with the Jackson
    kernel and like 1/eta with the Fejer kernel: the quadratic gain of the
    paper comes from 1 - lambda_k = O(k^2 / r^2), where Fejer has O(k / r).
    Both kernels are autocorrelations of their amplitudes (Weisse et al.,
    Rev. Mod. Phys. 78, 275 (2006)), so swapping the amplitudes of the slices
    and the eigenvalues of the inverse swaps the kernel of certify."""

    ETAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)

    @pytest.mark.parametrize("amplitudes, lam, ulps", [(_kernel_amplitudes, jackson_lambda, 2),
                                                       (_fejer_amplitudes, _fejer_lambda, 4)],
                             ids=["jackson", "fejer"])
    @pytest.mark.parametrize("r", [1, 2, 7, 40, 212, 669])
    def test_amplitudes_autocorrelate_to_the_eigenvalues(self, amplitudes, lam, ulps, r):
        """sum_j a_j a_{j+k} = lambda_k to a few units of 2^-52."""
        a = amplitudes(r)
        assert a.shape == (r + 1,)
        lags = np.correlate(a, a, "full")[r:]
        worst = np.max(np.abs(lags - [lam(k, r) for k in range(r + 1)]))
        assert worst <= ulps * np.finfo(float).eps

    def _slope(self, monkeypatch, amplitudes, lam) -> tuple:
        monkeypatch.setattr(sos1d, "_kernel_amplitudes", amplitudes)
        monkeypatch.setattr(kernelop, "_lambdas",
                            lambda r, d: tuple(lam(k, r) for k in range(d + 1)))
        rs = [_least_certifying_r(demo_f(), eta) for eta in self.ETAS]
        return rs, float(np.polyfit(np.log(self.ETAS), np.log(rs), 1)[0])

    def test_jackson_degree_grows_like_inverse_sqrt_eta(self, monkeypatch):
        rs, slope = self._slope(monkeypatch, _kernel_amplitudes, jackson_lambda)
        assert -0.6 <= slope <= -0.45, (rs, slope)
        monkeypatch.undo()
        for r, eta in zip(rs, self.ETAS):
            assert corollary_degree(demo_f(), eta) >= r

    def test_fejer_degree_grows_like_inverse_eta(self, monkeypatch):
        rs, slope = self._slope(monkeypatch, _fejer_amplitudes, _fejer_lambda)
        assert -1.1 <= slope <= -0.9, (rs, slope)
