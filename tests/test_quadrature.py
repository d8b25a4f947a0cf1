"""Tests for the Gauss-Chebyshev nodes and the equal-weight tensor rule on them.

The rule puts weight 1/m^n on every point of the m^n node grid, so its
value on p is the mean of ``p.eval_grid([chebyshev_nodes(m)] * n)``.
"""

import math

import numpy as np
import pytest

from jacksonsos.chebpoly import ChebPoly, chebyshev_nodes


def _rule(p: ChebPoly, m: int) -> float:
    return float(np.mean(p.eval_grid([chebyshev_nodes(m)] * p.num_vars)))


class TestRuleConstruction:
    def test_univariate_three_point(self):
        xs = chebyshev_nodes(3)
        assert xs[0] == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)
        assert xs[1] == pytest.approx(0.0, abs=1e-15)
        assert xs[2] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        # sum of T2 over the nodes: (1/2 - 1 + 1/2)/3 = 0
        assert _rule(ChebPoly.basis(1, (2,)), 3) == pytest.approx(0.0, abs=1e-15)

    def test_single_node(self):
        assert chebyshev_nodes(1).tolist() == [pytest.approx(0.0, abs=1e-16)]
        assert _rule(ChebPoly.constant(1, 4.0), 1) == pytest.approx(4.0)

    def test_nodes_strictly_interior(self):
        for m in (1, 5, 12):
            axis = chebyshev_nodes(m)
            assert axis.shape == (m,)
            assert np.all((-1.0 < axis) & (axis < 1.0))


class TestExactness:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_univariate_sweep(self, m):
        for k in range(2 * m):
            expected = 1.0 if k == 0 else 0.0
            assert _rule(ChebPoly.basis(1, (k,)), m) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_bivariate_sweep(self, m):
        dmax = 2 * m - 1
        for a in range(dmax + 1):
            for b in range(0, dmax + 1, max(1, dmax // 4)):
                expected = 1.0 if (a, b) == (0, 0) else 0.0
                value = _rule(ChebPoly.basis(2, (a, b)), m)
                assert value == pytest.approx(expected, abs=1e-12)

    def test_product_t2_squared(self):
        # T2*T2 = (T4 + T0)/2 averages to 1/2 once m >= 3
        p = ChebPoly.basis(1, (2,)) * ChebPoly.basis(1, (2,))
        assert _rule(p, 3) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_aliasing_boundary(self, m):
        """Degree 2m hits the rule's blind spot: T_{2m} averages to -1."""
        assert _rule(ChebPoly.basis(1, (2 * m,)), m) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="one axis array per variable"):
            ChebPoly.basis(1, (1,)).eval_grid([chebyshev_nodes(2)] * 2)


class TestNodeHelpers:
    def test_axis_ascending(self):
        axis = chebyshev_nodes(5)
        assert list(axis) == sorted(axis)
        assert axis[0] == pytest.approx(-math.cos(math.pi / 10))

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_no_nodes(self, m):
        with pytest.raises(ValueError, match="need m >= 1"):
            chebyshev_nodes(m)
