"""Tests for the tensor Chebyshev polynomial algebra."""

import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from jacksonsos import chebpoly
from jacksonsos.chebpoly import (
    ChebPoly,
    MonoPoly,
    _axis_table,
    _canon,
    _golden_min,
    _refine,
    _scan_points,
    _t_table,
    cheb_from_monomial,
    chebyshev_nodes,
    enumerate_multidegrees,
    gate_witness,
    grid_blocks,
    grid_extrema,
    hamming_weight,
    lobatto_axis,
    mono_from_cheb,
    total_degree,
)

from helpers import demo_f, random_cheb


class TestMalformedKeys:
    """Both polynomial classes refuse a key that is not a tuple of num_vars
    nonnegative integers, naming it; a zero coefficient does not hide a bad
    key."""

    @pytest.mark.parametrize("cls", [ChebPoly, MonoPoly])
    @pytest.mark.parametrize("key", [(1,), (1, 0, 0), (1.5, 0), (1.0, 0), (-1, 0),
                                     (True, 0), (0, np.float64(2)), (0, np.int64(-1)),
                                     3, None, "12"])
    @pytest.mark.parametrize("coeff", [1.0, 0.0])
    def test_refused_naming_the_key(self, cls, key, coeff):
        with pytest.raises(ValueError, match=re.escape(f"bad multidegree {key!r}")):
            cls(2, {(0, 0): 2.0, key: coeff})

    def test_short_key_no_longer_evaluates(self):
        """A 1-entry key of a 2-variable polynomial used to evaluate as a
        product over the first axis only: 0.06 on the grid [[0.3], [0.2]]."""
        with pytest.raises(ValueError, match=re.escape("bad multidegree (1,) for 2")):
            ChebPoly(2, {(1,): 1.0}).eval_grid([[0.3], [0.2]])

    @pytest.mark.parametrize("cls", [ChebPoly, MonoPoly])
    def test_numpy_integers_become_int(self, cls):
        p = cls(2, {(np.int64(2), np.uint8(1)): 1.5, (0, 0): np.float32(0.5)})
        assert p.coeffs == {(2, 1): 1.5, (0, 0): 0.5}
        assert all(type(k) is int for key in p.coeffs for k in key)

    def test_basis_uses_the_same_check(self):
        assert ChebPoly.basis(2, [np.int64(1), 0]).coeffs == {(1, 0): 1.0}
        with pytest.raises(ValueError, match=re.escape("bad multidegree (1.5,) for 1")):
            ChebPoly.basis(1, (1.5,))


class TestImmutable:
    """A polynomial is an immutable value: its checked terms cannot be
    changed after construction, and it survives pickling and copying."""

    @pytest.mark.parametrize("cls", [ChebPoly, MonoPoly])
    def test_terms_cannot_be_written(self, cls):
        """A key written after construction used to skip the check: (1,) on
        a 2-variable p made p.eval([0.3, 0.2]) read 0.9 and eval_grid fail."""
        p = cls(2, {(1, 0): 1.0})
        with pytest.raises(TypeError):
            p.coeffs[(1,)] = 2.0
        with pytest.raises(TypeError):
            del p.coeffs[(1, 0)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.coeffs = {(1,): 2.0}
        assert p.coeffs == {(1, 0): 1.0}
        assert p.per_variable_degrees() == (1, 0)

    @pytest.mark.parametrize("cls", [ChebPoly, MonoPoly])
    def test_pickle_and_deepcopy(self, cls):
        p = cls(2, {(1, 0): 1.5, (0, 3): -2.0})
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p
            assert type(q) is cls
            assert q.per_variable_degrees() == (1, 3)
            with pytest.raises(TypeError):
                q.coeffs[(0, 0)] = 1.0

    def test_plan_is_built_once(self, monkeypatch):
        """The node grid, the Lobatto scans and their polish share the plan
        the first evaluation built."""
        built = []
        build = chebpoly._build_plan
        monkeypatch.setattr(chebpoly, "_build_plan", lambda p: built.append(p) or build(p))
        p = random_cheb(np.random.default_rng(4), 2, 4)
        first = p.eval_grid([chebyshev_nodes(5)] * 2)
        grid_extrema(p)
        gate_witness(p, p)
        assert p.eval_grid([chebyshev_nodes(5)] * 2).tobytes() == first.tobytes()
        assert built == [p]

    def test_pickle_deepcopy_and_equality_ignore_the_plan(self):
        p = random_cheb(np.random.default_rng(5), 3, 3)
        grid = p.eval_grid([lobatto_axis(9)] * 3)
        assert p._plan is not None
        assert p == ChebPoly(3, p.coeffs.copy())
        assert "_plan" not in repr(p)
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p and q._plan is None
            assert q.eval_grid([lobatto_axis(9)] * 3).tobytes() == grid.tobytes()


class TestMultidegrees:
    def test_total_and_weight(self):
        assert total_degree((2, 0, 3)) == 5
        assert hamming_weight((2, 0, 3)) == 2
        assert hamming_weight((0, 0)) == 0

    def test_enumerate_n2_d2(self):
        got = enumerate_multidegrees(2, 2)
        assert len(got) == 6
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_enumerate_n1_d4(self):
        assert enumerate_multidegrees(1, 4) == [(0,), (1,), (2,), (3,), (4,)]

    def test_enumerate_count_n3_d2(self):
        got = enumerate_multidegrees(3, 2)
        assert len(got) == math.comb(5, 2) == 10
        # cross-check against exhaustive enumeration
        brute = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                 if a + b + c <= 2]
        assert set(got) == set(brute)

    def test_enumerate_rejects_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_multidegrees(0, 2)
        with pytest.raises(ValueError):
            enumerate_multidegrees(1, -1)


class TestConversions:
    def test_quartic_example(self):
        """1 - x^2 - x^3 + x^4 has the closed-form Chebyshev expansion."""
        f = demo_f()
        expected = {(0,): 7 / 8, (1,): -3 / 4, (3,): -1 / 4, (4,): 1 / 8}
        assert set(f.coeffs) == set(expected)
        for k, v in expected.items():
            assert f.coeffs[k] == pytest.approx(v, abs=1e-15)
        # evaluation agreement with the power form at random points
        mono = MonoPoly(1, {(0,): 1.0, (2,): -1.0, (3,): -1.0, (4,): 1.0})
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, 10):
            assert f.eval((x,)) == pytest.approx(mono.eval((x,)), abs=1e-12)

    def test_constant(self):
        got = cheb_from_monomial(MonoPoly.constant(1, 5.0))
        assert got.coeffs == {(0,): 5.0}

    def test_cross_term(self):
        got = cheb_from_monomial(MonoPoly(2, {(1, 1): 1.0}))
        assert got.coeffs == {(1, 1): 1.0}

    def test_t4_to_monomials(self):
        mono = mono_from_cheb(ChebPoly.basis(1, (4,)))
        assert mono.coeffs == {(4,): 8.0, (2,): -8.0, (0,): 1.0}

    def test_t0_and_t11(self):
        assert mono_from_cheb(ChebPoly.basis(1, (0,))).coeffs == {(0,): 1.0}
        assert mono_from_cheb(ChebPoly.basis(2, (1, 1))).coeffs == {(1, 1): 1.0}

    def test_round_trip_random(self):
        """mono_from_cheb inverts cheb_from_monomial to 1e-12 relative."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(0, 13))
            p = random_cheb(rng, n, d)
            back = cheb_from_monomial(mono_from_cheb(p))
            diff = back - p
            assert diff.max_abs_coeff() <= 1e-12 * max(p.max_abs_coeff(), 1.0)

    def test_degree_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 9))
            keys = enumerate_multidegrees(n, d)
            top = [k for k in keys if total_degree(k) == d]
            coeffs = {k: rng.standard_normal() for k in keys}
            coeffs[top[0]] = 1.0
            mono = MonoPoly(n, coeffs)
            assert cheb_from_monomial(mono).degree() == d


class TestEvaluation:
    def test_defining_identity(self):
        x = math.cos(math.pi / 7)
        got = ChebPoly.basis(1, (3,)).eval((x,))
        assert got == pytest.approx(math.cos(3 * math.pi / 7), abs=1e-14)

    def test_all_ones_point(self):
        rng = np.random.default_rng(1)
        p = random_cheb(rng, 3, 4)
        assert p.eval((1.0, 1.0, 1.0)) == pytest.approx(sum(p.coeffs.values()),
                                                        rel=1e-12)

    @pytest.mark.parametrize("points", [1, 21, 2049])
    @pytest.mark.parametrize("d", [0, 1, 8, 40])
    def test_t_table_is_chebvander(self, points, d):
        """The T_k rows of eval_blocks are numpy's chebvander, bit for bit."""
        x = np.random.default_rng(points + d).uniform(-1.0, 1.0, points)
        assert np.array_equal(_t_table(x, d), npcheb.chebvander(x, d).T)

    def test_t22_at_origin(self):
        assert ChebPoly.basis(2, (2, 2)).eval((0.0, 0.0)) == pytest.approx(1.0)

    def test_eval_matches_monomial_form(self):
        rng = np.random.default_rng(2)
        p = random_cheb(rng, 2, 5)
        mono = mono_from_cheb(p)
        for _ in range(100):
            pt = rng.uniform(-1, 1, 2)
            a, b = p.eval(pt), mono.eval(pt)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_eval_outside_cube(self):
        p = ChebPoly.basis(1, (3,))
        mono = mono_from_cheb(p)
        for x in (1.5, -2.0, 3.25):
            assert p.eval((x,)) == pytest.approx(mono.eval((x,)), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ChebPoly.basis(2, (1, 0)).eval((0.5,))

    def test_eval_grid_matches_pointwise(self):
        rng = np.random.default_rng(3)
        p = random_cheb(rng, 2, 4)
        ax = np.linspace(-1, 1, 7)
        grid = p.eval_grid([ax, ax])
        for i, x in enumerate(ax):
            for j, y in enumerate(ax):
                assert grid[i, j] == pytest.approx(p.eval((x, y)), rel=1e-12,
                                                   abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("keep", [1.0, 0.3])
    def test_eval_grid_matches_eval(self, n, keep):
        """Dense and sparse maps, axes of unequal length, size-1 axes."""
        rng = np.random.default_rng(60 + n)
        d = {1: 9, 2: 7, 3: 5, 4: 4}[n]
        for lengths in ([5, 3, 4, 2][:n], [1, 6, 1, 3][:n]):
            keys = [k for k in enumerate_multidegrees(n, d) if rng.random() < keep]
            p = ChebPoly(n, {keys[i]: rng.standard_normal()
                             for i in rng.permutation(len(keys))})
            axes = [rng.uniform(-1.2, 1.2, m) for m in lengths]
            grid = p.eval_grid(axes)
            assert grid.shape == tuple(lengths)
            tol = 1e-12 * sum(abs(c) for c in p.coeffs.values())
            for idx in np.ndindex(grid.shape):
                pt = [axes[i][j] for i, j in enumerate(idx)]
                assert abs(grid[idx] - p.eval(pt)) <= tol

    def test_eval_grid_zero_polynomial(self):
        grid = ChebPoly.zero(3).eval_grid([np.ones(2), np.ones(1), np.ones(4)])
        assert grid.shape == (2, 1, 4) and not grid.any()

    @pytest.mark.parametrize("n, d, points", [(1, 9, 33), (2, 5, 17), (3, 3, 9)])
    def test_eval_blocks_are_their_own_grids(self, n, d, points):
        """Blocks of at most 1, 4, 7 and all last-axis points tile eval_grid,
        ceil(points / cols) of them, their widths apart by at most 1; each is
        eval_grid of its own grid bit for bit, and one block is the grid."""
        p = random_cheb(np.random.default_rng(90 + n), n, d)
        axis = lobatto_axis(points)
        grid = p.eval_grid([axis] * n)
        for cols in (1, 4, 7, points):
            blocks = list(p.eval_blocks([axis] * n, cols))
            widths = [vals.shape[-1] for _, vals in blocks]
            assert len(blocks) == -(-points // cols) and sum(widths) == points
            assert max(widths) <= cols and max(widths) - min(widths) <= 1
            assert [a for a, _ in blocks] == np.cumsum([0] + widths[:-1]).tolist()
            for a, vals in blocks:
                own = p.eval_grid([axis] * (n - 1) + [axis[a:a + vals.shape[-1]]])
                assert vals.tobytes() == own.tobytes()
            tiled = np.concatenate([v for _, v in blocks], axis=-1)
            np.testing.assert_allclose(tiled, grid, rtol=0, atol=1e-14 * p.max_abs_coeff())
        assert blocks[0][1].tobytes() == grid.tobytes()
        zero = list(ChebPoly.zero(2).eval_blocks([np.ones(2), np.ones(5)], 2))
        assert [(a, v.shape) for a, v in zero] == [(0, (2, 2)), (2, (2, 2)), (4, (2, 1))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("memoized", [True, False], ids=["memoized", "plain"])
    def test_blocks_match_numpy_chebgrid(self, n, memoized):
        """Every block, for every block width, against numpy's chebval,
        chebgrid2d and chebgrid3d of the dense coefficient array, on random
        sparse maps, to 1e-13 sum |c|."""
        oracle = (npcheb.chebval, npcheb.chebgrid2d, npcheb.chebgrid3d)[n - 1]
        rng = np.random.default_rng(130 + n)
        d = (12, 6, 4)[n - 1]
        axes = [chebyshev_nodes(m) for m in (9, 7, 6)[:n]]
        if not memoized:
            axes = [rng.uniform(-1.0, 1.0, a.size) for a in axes]
        for _ in range(4):
            keys = [k for k in enumerate_multidegrees(n, d) if rng.random() < 0.4]
            p = ChebPoly(n, {keys[i]: rng.standard_normal() for i in rng.permutation(len(keys))})
            dense = np.zeros([g + 1 for g in p.per_variable_degrees()])
            for kappa, c in p.coeffs.items():
                dense[kappa] = c
            tol = 1e-13 * sum(abs(c) for c in p.coeffs.values())
            size = axes[-1].size
            for cols in range(size + 1):
                for a, vals in p.eval_blocks(axes, cols):
                    block = axes[:-1] + [axes[-1][a:a + vals.shape[-1]]]
                    expected = oracle(*block, dense)
                    assert vals.shape == expected.shape
                    assert np.max(np.abs(vals - expected), initial=0.0) <= tol

    def test_eval_grid_memory_follows_terms(self):
        """A sparse degree-24 map in 5 variables never goes dense on a 9^5 grid."""
        keys = [tuple(24 * (i == j) for i in range(5)) for j in range(5)]
        keys += [(12, 0, 12, 0, 0), (0, 8, 0, 8, 8), (6, 6, 6, 6, 0), (0,) * 5]
        p = ChebPoly(5, {k: 1.0 + 0.1 * i for i, k in enumerate(keys)})
        axes = [lobatto_axis(9)] * 5
        tracemalloc.start()
        try:
            grid = p.eval_grid(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid.nbytes
        pt = [axes[i][j] for i, j in enumerate((1, 7, 3, 0, 8))]
        assert grid[1, 7, 3, 0, 8] == pytest.approx(p.eval(pt), abs=1e-12 * 10)


class TestAlgebra:
    def test_add_cancels(self):
        t1 = ChebPoly.basis(1, (1,))
        assert (t1 + t1.scale(-1.0)).is_zero()

    def test_scale_zero(self):
        assert ChebPoly.basis(1, (2,)).scale(0.0).is_zero()

    def test_constant_shift(self):
        f = demo_f()
        shifted = f.shift(0.1)
        assert shifted.coeffs[(0,)] == pytest.approx(7 / 8 + 0.1)
        assert shifted.coeffs[(1,)] == f.coeffs[(1,)]

    def test_shift_adds_a_constant_polynomial(self):
        """shift(a) is f + constant(a) bit for bit, order of the map included,
        also when a is 0, cancels the constant term or drops every other term."""
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            for f in [ChebPoly.zero(n)] + [random_cheb(rng, n, 4) for _ in range(10)]:
                c0 = f.coeffs.get((0,) * n, 0.0)
                for a in (0.0, -c0, 1e20, float(rng.standard_normal())):
                    expected = f + ChebPoly.constant(n, a)
                    assert list(f.shift(a).coeffs.items()) == list(expected.coeffs.items())

    def test_t2_times_t3(self):
        got = ChebPoly.basis(1, (2,)) * ChebPoly.basis(1, (3,))
        assert got.coeffs == {(5,): 0.5, (1,): 0.5}
        rng = np.random.default_rng(4)
        for x in rng.uniform(-1, 1, 10):
            assert got.eval((x,)) == pytest.approx(
                math.cos(2 * math.acos(x)) * math.cos(3 * math.acos(x)), abs=1e-12)

    def test_t0_is_identity(self):
        rng = np.random.default_rng(7)
        p = random_cheb(rng, 2, 3)
        q = ChebPoly.constant(2, 1.0) * p
        assert (q - p).max_abs_coeff() <= 1e-15

    def test_weight_times_t1(self):
        weight = ChebPoly(1, {(0,): 0.5, (2,): -0.5})   # 1 - x^2
        got = weight * ChebPoly.basis(1, (1,))
        rng = np.random.default_rng(8)
        for x in rng.uniform(-1, 1, 10):
            assert got.eval((x,)) == pytest.approx((1 - x * x) * x, abs=1e-13)

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            p = random_cheb(rng, n, int(rng.integers(0, 5)))
            q = random_cheb(rng, n, int(rng.integers(0, 5)))
            s = random_cheb(rng, n, int(rng.integers(0, 4)))
            comm = p * q - q * p
            assert comm.max_abs_coeff() <= 1e-12 * max(
                (p * q).max_abs_coeff(), 1.0)
            assoc = (p * q) * s - p * (q * s)
            assert assoc.max_abs_coeff() <= 1e-12 * max(
                ((p * q) * s).max_abs_coeff(), 1.0)

    def test_mul_degree_adds(self):
        rng = np.random.default_rng(10)
        p = random_cheb(rng, 1, 3)
        q = random_cheb(rng, 1, 4)
        assert (p * q).degree() == p.degree() + q.degree()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        """An inf or NaN raises instead of wiping or skipping terms."""
        for cls in (ChebPoly, MonoPoly):
            with pytest.raises(ValueError, match="not finite"):
                cls(1, {(0,): 1.0, (2,): bad})
        # _canon's relative cut would drop them (or skip a NaN in its max)
        with pytest.raises(ValueError, match="not finite"):
            _canon({(0,): 1.0, (1,): bad})
        with pytest.raises(ValueError, match="not finite"):
            ChebPoly.constant(1, 1.0).shift(bad)
        # overflow inside arithmetic raises too
        big = ChebPoly.constant(1, 1e300)
        with pytest.raises(ValueError, match="not finite"):
            big * big

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ChebPoly.basis(1, (1,)) + ChebPoly.basis(2, (1, 0))
        with pytest.raises(ValueError):
            ChebPoly.basis(1, (1,)) * ChebPoly.basis(2, (1, 0))


class TestInnerProduct:
    def test_orthogonality_table(self):
        """Inner products of basis pairs over the n=2, d=4 simplex are exact."""
        kappas = enumerate_multidegrees(2, 4)
        for a in kappas:
            for b in kappas:
                got = ChebPoly.basis(2, a).inner(ChebPoly.basis(2, b))
                expected = 2.0 ** (-hamming_weight(a)) if a == b else 0.0
                assert got == expected

    def test_named_values(self):
        t2 = ChebPoly.basis(1, (2,))
        assert t2.inner(t2) == 0.5
        t11 = ChebPoly.basis(2, (1, 1))
        assert t11.inner(t11) == 0.25
        assert ChebPoly.basis(1, (1,)).inner(ChebPoly.basis(1, (3,))) == 0.0


class TestBoundedness:
    def test_basis_bounded_on_cube(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(10_000, 2))
        for kappa in [(3, 0), (5, 2), (1, 7), (4, 4)]:
            p = ChebPoly.basis(2, kappa)
            vals = [p.eval(pt) for pt in pts[:2500]]
            assert max(abs(v) for v in vals) <= 1.0 + 1e-12


def _fresh_table(monkeypatch, axis):
    """Give the memoized ``axis``, which memoizing entered in the cache, an
    empty T_k table for one test."""
    assert chebpoly._AXIS_TABLES[id(axis)][0] is axis
    monkeypatch.setitem(chebpoly._AXIS_TABLES, id(axis), (axis, np.empty((0, axis.size))))


def _counting_t_table(monkeypatch) -> list:
    """Record the size of every axis that ``_t_table`` runs on."""
    sizes = []
    t_table = chebpoly._t_table

    def counting(x, d):
        sizes.append(x.size)
        return t_table(x, d)

    monkeypatch.setattr(chebpoly, "_t_table", counting)
    return sizes


def _assert_table_grows(axis):
    """The cached rows of the memoized ``axis`` are _t_table's bit for bit,
    also after the table grew from a lower degree; a lower degree reads the
    grown table, which is read-only, and a copy of the axis gets its own."""
    expected = _t_table(axis, 12)
    for d in (5, 6, 12):    # 6: one row past the table
        grown = _axis_table(axis, d)
        assert grown.tobytes() == expected[:d + 1].tobytes()
    assert _axis_table(axis, 7) is grown
    with pytest.raises(ValueError):
        grown[1, 0] = 0.0
    own = _axis_table(axis.copy(), 7)
    assert own is not _axis_table(axis.copy(), 7)
    assert own.tobytes() == expected[:8].tobytes()


class TestLobattoGrids:
    """Each Lobatto axis and its T_k table are built once per process and
    point count, and the scans that read them give eval_blocks' values."""

    @pytest.mark.parametrize("points", [2, 17, 2049])
    def test_axis_is_built_once_and_read_only(self, points):
        axis = lobatto_axis(points)
        assert lobatto_axis(points) is axis
        expected = np.cos(np.arange(points - 1, -1, -1) * math.pi / (points - 1))
        assert axis.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            axis[0] = 0.0

    @pytest.mark.parametrize("points", [3, 65, 4097])
    def test_table_rows_are_the_recurrence(self, monkeypatch, points):
        """The rows are _t_table's bit for bit, also after the table grew
        from a lower degree; a lower degree reads the grown table."""
        axis = lobatto_axis(points)
        _fresh_table(monkeypatch, axis)
        _assert_table_grows(axis)

    def test_second_gate_scan_builds_no_table(self, monkeypatch):
        """A second gate scan at the same count runs the T_k recurrence on no
        Lobatto axis; only the polish's one-point tables remain."""
        points = 257
        _fresh_table(monkeypatch, lobatto_axis(points))
        sizes = _counting_t_table(monkeypatch)
        p = random_cheb(np.random.default_rng(5), 2, 4)
        p = p.shift(2.0 * p.max_abs_coeff() * len(p.coeffs))    # passes, polished
        assert gate_witness(p, p) is None
        assert sizes.count(points) == 1
        sizes.clear()
        assert gate_witness(p, p) is None
        assert sizes and points not in sizes

    @pytest.mark.parametrize("n, d, points", [(1, 9, 4097), (2, 5, 257), (3, 3, 65)])
    def test_blocks_are_eval_grids_of_their_own(self, monkeypatch, n, d, points):
        """grid_blocks gives eval_blocks' blocks, each eval_grid of its own
        grid bit for bit, in blocks of near-equal width (257^2: 129 + 128
        columns, 65^3: 5 x 13), and from a table grown past p's degree too."""
        p = random_cheb(np.random.default_rng(110 + n), n, d)
        axis = lobatto_axis(points)
        _fresh_table(monkeypatch, axis)
        cols = max(1, 2 ** 16 // points ** (n - 1))
        expected = list(p.eval_blocks([axis.copy()] * n, cols))    # tables of its own
        assert [v.shape[-1] for _, v in expected] == {1: [4097], 2: [129, 128], 3: [13] * 5}[n]
        for grow in (0, 3 * d):
            _axis_table(axis, grow)
            blocks = list(grid_blocks(p, points))
            assert [a for a, _ in blocks] == [a for a, _ in expected]
            for (a, vals), (_, own) in zip(blocks, expected):
                assert vals.tobytes() == own.tobytes()
                sub = p.eval_grid([axis] * (n - 1) + [axis[a:a + vals.shape[-1]]])
                assert vals.tobytes() == sub.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_block_widths_are_balanced(self, n):
        """grid_blocks splits the last axis into ceil(points / cap) blocks,
        cap = max(1, 2^16 // points^(n-1)), whose widths are apart by at most
        1 and none above the cap, at the scan's count and at others."""
        p = ChebPoly(n, {(1,) * n: 1.0})
        for points in {_scan_points(n), 2, 3, 9, 17, 40}:
            if points ** n > 2 * 10 ** 6:     # keeps the test small
                continue
            cap = max(1, 2 ** 16 // points ** (n - 1))
            widths = [v.shape[-1] for _, v in grid_blocks(p, points)]
            assert len(widths) == -(-points // cap) and sum(widths) == points
            assert max(widths) <= cap and max(widths) - min(widths) <= 1


class TestNodeGrids:
    """Each Gauss-Chebyshev node axis and its T_k table are built once per
    process and node count, and eval_grid reads them with the values of a
    writeable copy of the axis."""

    @pytest.mark.parametrize("m", [1, 6, 57])
    def test_axis_is_built_once_and_read_only(self, m):
        axis = chebyshev_nodes(m)
        assert chebyshev_nodes(m) is axis
        expected = np.cos((2 * np.arange(m, 0, -1) - 1) * math.pi / (2 * m))
        assert axis.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            axis[0] = 0.0

    @pytest.mark.parametrize("m", [1, 6, 57])
    def test_table_rows_are_the_recurrence(self, monkeypatch, m):
        axis = chebyshev_nodes(m)
        _fresh_table(monkeypatch, axis)
        _assert_table_grows(axis)

    def test_second_node_scan_builds_no_table(self, monkeypatch):
        """The node step's second eval_grid at the same count runs the T_k
        recurrence on no axis."""
        m = 11
        axis = chebyshev_nodes(m)
        _fresh_table(monkeypatch, axis)
        sizes = _counting_t_table(monkeypatch)
        p = random_cheb(np.random.default_rng(5), 2, 4)
        assert p.per_variable_degrees() == (4, 4)
        first = p.eval_grid([axis] * 2)
        assert sizes == [m]
        sizes.clear()
        assert p.eval_grid([axis] * 2).tobytes() == first.tobytes()
        assert sizes == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_memoized_axes_match_copies(self, monkeypatch, n):
        """eval_grid on the memoized axes equals eval_grid on writeable copies
        of them bit for bit, before and after a higher degree grows the table."""
        rng = np.random.default_rng(60 + n)
        axes = [chebyshev_nodes(m) for m in (7, 9, 8)[:n]]
        for axis in axes:
            _fresh_table(monkeypatch, axis)
        polys = [random_cheb(rng, n, 5) for _ in range(4)]
        before = [g.eval_grid(axes).tobytes() for g in polys]
        assert before == [g.eval_grid([a.copy() for a in axes]).tobytes() for g in polys]
        random_cheb(rng, n, 16).eval_grid(axes)
        assert all(len(chebpoly._AXIS_TABLES[id(a)][1]) == 17 for a in axes)
        assert [g.eval_grid(axes).tobytes() for g in polys] == before


class TestGridExtrema:
    def test_t2(self):
        t2 = ChebPoly.basis(1, (2,))
        lo, argmin, hi, argmax = grid_extrema(t2)
        assert lo == pytest.approx(-1.0, abs=1e-10)
        assert argmin[0] == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-12)
        # both endpoints attain the max; lexicographically smallest wins
        assert argmax[0] == pytest.approx(-1.0, abs=1e-12)

    def test_quartic_min_matches_root_oracle(self):
        """Candidates are the endpoints and the real critical points."""
        f = demo_f()
        deriv = np.polynomial.polynomial.polyder([1.0, 0.0, -1.0, -1.0, 1.0])
        roots = np.polynomial.polynomial.polyroots(deriv)
        cands = [r.real for r in roots
                 if abs(r.imag) < 1e-12 and -1 <= r.real <= 1] + [-1.0, 1.0]
        vals = [np.polynomial.polynomial.polyval(x, [1.0, 0.0, -1.0, -1.0, 1.0])
                for x in cands]
        lo, argmin, _, _ = grid_extrema(f)
        assert lo == pytest.approx(min(vals), abs=1e-9)
        assert argmin[0] == pytest.approx(cands[int(np.argmin(vals))], abs=1e-5)

    def test_constant(self):
        c = ChebPoly.constant(2, 2.5)
        lo, _, hi, _ = grid_extrema(c)
        assert lo == hi == 2.5

    def test_point_budget_guard(self):
        """From n = 24 on even 2 points per axis exceed the budget."""
        p = ChebPoly.constant(24, 1.0)
        with pytest.raises(ValueError, match="2\\^24 points exceeds budget"):
            grid_extrema(p)

    def test_min_points(self):
        with pytest.raises(ValueError):
            lobatto_axis(1)

    @pytest.mark.parametrize("n, d, points", [(1, 8, 33), (2, 5, 17), (3, 3, 9)])
    def test_polished_extrema_are_values_of_p(self, monkeypatch, n, d, points):
        """The polish evaluates like ChebPoly.eval and never loses to the grid."""
        monkeypatch.setattr(chebpoly, "_scan_points", lambda _: points)
        rng = np.random.default_rng(40 + n)
        raw_axis = lobatto_axis(points)
        for _ in range(6):
            p = random_cheb(rng, n, d)
            tol = 1e-12 * p.max_abs_coeff()
            lo, argmin, hi, argmax = grid_extrema(p)
            assert abs(lo - p.eval(argmin)) <= tol
            assert abs(hi - p.eval(argmax)) <= tol
            raw = p.eval_grid([raw_axis] * n)
            assert lo <= raw.min() and hi >= raw.max()

    @pytest.mark.parametrize("n, d, points", [(1, 9, 65), (2, 5, 17), (3, 3, 9)])
    def test_minimum_is_the_one_sided_helpers(self, monkeypatch, n, d, points):
        """grid_extrema's minimum is _refine of the whole grid's lowest cell,
        bit for bit, for any number of polish rounds."""
        monkeypatch.setattr(chebpoly, "_scan_points", lambda _: points)
        rng = np.random.default_rng(60 + n)
        axis = lobatto_axis(points)
        for rounds in (1, 2, 3):
            monkeypatch.setattr(chebpoly, "_POLISH_ROUNDS", rounds)
            p = random_cheb(rng, n, d)
            vals = p.eval_grid([axis] * n)
            idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
            assert grid_extrema(p)[:2] == _refine(p, axis, idx, float(vals[idx]), 1.0)

    @pytest.mark.parametrize("n, points", [(2, 513), (3, 65)])
    def test_blocks_pick_the_full_grid_cells(self, monkeypatch, n, points):
        """Several last-axis blocks; ties go to the lexicographically first cell.
        With no polish rounds grid_extrema returns the cells themselves, and
        under an infinite floor the gate returns its lowest cell.

        T_2(x_1) T_2(x_2) is -1 at (-1, 0) and (0, -1), in different blocks at
        n = 2, and +1 at the corners and the centre.
        """
        monkeypatch.setattr(chebpoly, "_scan_points", lambda _: points)
        monkeypatch.setattr(chebpoly, "_POLISH_ROUNDS", 0)
        monkeypatch.setattr(chebpoly, "GATE_TOL", -math.inf)
        axis = lobatto_axis(points)
        tied = ChebPoly.basis(n, (2, 2) + (0,) * (n - 2))
        for p in (tied, random_cheb(np.random.default_rng(70 + n), n, 4)):
            vals = p.eval_grid([axis] * n)
            cells = [tuple(float(axis[i]) for i in np.unravel_index(int(pick(vals)), vals.shape))
                     for pick in (np.argmin, np.argmax)]
            assert grid_extrema(p) == (vals.min(), cells[0], vals.max(), cells[1])
            assert gate_witness(p, p) == (vals.min(), cells[0])
        assert grid_extrema(tied)[1][:2] == (-1.0, float(axis[points // 2]))

    def test_polish_memory_follows_terms(self):
        """The polish never builds the dense prod(d_i + 1) coefficient tensor."""
        # 5 terms; the dense tensor would be 25^5 doubles, about 78 MB
        p = ChebPoly(5, {tuple(24 * (i == j) for i in range(5)): 1.0 for j in range(5)})
        tracemalloc.start()
        try:
            lo, argmin, hi, argmax = grid_extrema(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22
        assert lo == pytest.approx(p.eval(argmin), abs=1e-12)
        assert hi == pytest.approx(p.eval(argmax), abs=1e-12)


def _t_scalar(x, dmax):
    """T_0(x) .. T_dmax(x) by the scalar three-term recurrence, apart from
    the library's ``_t_table``."""
    vals = [1.0]
    if dmax >= 1:
        vals.append(x)
    for _ in range(2, dmax + 1):
        vals.append(2.0 * x * vals[-1] - vals[-2])
    return vals


def _refine_full_sweep(p, axis, idx, start_val, sign, rounds):
    """The polish that searches every line in every sweep (reference copy)."""
    m = axis.size
    brackets = [(float(axis[max(i - 1, 0)]), float(axis[min(i + 1, m - 1)])) for i in idx]
    best_v, best_x = sign * start_val, [float(axis[i]) for i in idx]
    n = p.num_vars
    degs = p.per_variable_degrees()
    kappas = np.array(list(p.coeffs), dtype=np.intp).reshape(-1, n)
    cs = np.fromiter(p.coeffs.values(), dtype=float, count=len(p.coeffs))
    for _ in range(rounds):
        for j in range(n):
            lo, hi = brackets[j]
            w = cs.copy()
            for i in range(n):
                if i != j:
                    w *= np.asarray(_t_scalar(best_x[i], degs[i]))[kappas[:, i]]
            line = np.bincount(kappas[:, j], weights=w, minlength=degs[j] + 1)

            def slice_fn(t, line=line, kj=np.arange(degs[j] + 1)):
                return sign * float(np.cos(kj * math.acos(t)) @ line)

            v, t = _golden_min(slice_fn, lo, hi)
            if v < best_v:
                best_v = v
                best_x[j] = t
    return sign * best_v, tuple(best_x)


class TestPolishSkipsRepeatedLines:
    @pytest.mark.parametrize("n, d, points", [(1, 7, 33), (2, 5, 17), (3, 4, 9)])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_matches_full_sweep(self, monkeypatch, n, d, points, rounds):
        monkeypatch.setattr(chebpoly, "_POLISH_ROUNDS", rounds)
        rng = np.random.default_rng(80 + 10 * n + rounds)
        axis = lobatto_axis(points)
        for _ in range(4):
            p = random_cheb(rng, n, d)
            vals = p.eval_grid([axis] * n)
            for sign, pick in ((1.0, np.argmin), (-1.0, np.argmax)):
                idx = np.unravel_index(int(pick(vals)), vals.shape)
                args = (p, axis, idx, float(vals[idx]), sign)
                assert _refine(*args) == _refine_full_sweep(*args, rounds)

    @pytest.mark.parametrize("rounds", [1, 2, 3, 5])
    def test_univariate_searches_once(self, monkeypatch, rounds):
        calls = []

        def counting(f, lo, hi):
            calls.append((lo, hi))
            return _golden_min(f, lo, hi)

        monkeypatch.setattr(chebpoly, "_golden_min", counting)
        monkeypatch.setattr(chebpoly, "_POLISH_ROUNDS", rounds)
        p = demo_f()
        axis = lobatto_axis(65)
        vals = p.eval_grid([axis])
        idx = (int(np.argmin(vals)),)
        _refine(p, axis, idx, float(vals[idx]), 1.0)
        assert len(calls) == 1
