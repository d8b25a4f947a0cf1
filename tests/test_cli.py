"""Tests for the command-line interface and serialization."""

import csv
import io
import json
import math

import numpy as np
import pytest

from jacksonsos import certificate as certificate_module
from jacksonsos import cli, sos1d
from jacksonsos.certificate import SchmudgenCertificate, certify, verify
from jacksonsos.chebpoly import ChebPoly, MonoPoly, cheb_from_monomial
from jacksonsos.kernelop import apply_forward
from jacksonsos.cli import (
    EXIT_NOT_CERTIFIABLE,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_USAGE,
    PolynomialSyntaxError,
    certificate_from_dict,
    certificate_to_dict,
    demo_polynomial,
    main,
    parse_polynomial,
)
from jacksonsos.sos1d import IllConditioned, NotNonnegative

from helpers import demo_f, random_cheb

DEMO = "1 - x1^2 - x1^3 + x1^4"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_demo_polynomial(self):
        got = parse_polynomial(DEMO)
        assert got == demo_polynomial()

    def test_constant(self):
        assert parse_polynomial("3").coeffs == {(0,): 3.0}

    def test_bivariate_with_rational(self):
        got = parse_polynomial("x1*x2 - 1/2")
        assert got.coeffs == {(1, 1): 1.0, (0, 0): -0.5}

    def test_implicit_products(self):
        got = parse_polynomial("2x1^2 + 1/2 x1")
        assert got.coeffs == {(2,): 2.0, (1,): 0.5}

    def test_repeated_variable_multiplies(self):
        got = parse_polynomial("x1*x1^2")
        assert got.coeffs == {(3,): 1.0}

    def test_nvars_override(self):
        got = parse_polynomial("x1", num_vars=3)
        assert got.num_vars == 3
        assert got.coeffs == {(1, 0, 0): 1.0}
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x3", num_vars=2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("1 - x1^-2")
        assert err.value.position == 7

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("1 + ?")
        assert err.value.position == 4

    def test_empty_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1 2x1 x")

    def test_zero_indexed_variable_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x0 + 1")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1^1.5")

    @pytest.mark.parametrize("text, position", [
        ("1e400*x1^2 - 5", 0),
        ("1 + 1e300/1e-300 x1", 4),
        ("x1 - 1e200*1e200", 5),
        ("1e308*x1 + 1e308*x1", 11),
    ])
    def test_non_finite_coefficient_rejected(self, text, position):
        with pytest.raises(PolynomialSyntaxError, match="not finite") as err:
            parse_polynomial(text)
        assert err.value.position == position


class TestCertifyCommand:
    def test_valid_run(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["num_vars"] == 1 and data["r"] == 7
        assert data["residual"] <= 1e-8
        cert = certify(demo_f(), 0.1, 7)
        assert data["weights"] == cert.weights.tolist()
        # only the rows of nodes t >= m // 2 are written
        assert data["rows"] == [{"u": u.tolist(), "v": v.tolist()}
                                for u, v in cert.rows[4:]]

    def test_not_certifiable_exit(self, tmp_path, capsys):
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "5",
                     "--out", str(tmp_path / "c.json")])
        assert code == EXIT_NOT_CERTIFIABLE
        assert "not certifiable" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        IllConditioned("factorization residual 3.043e-08 exceeds 1e-09 * 2.427e+01"),
        NotNonnegative("sampled value -1.000e-03 below tolerance", value=-1e-3),
    ], ids=["factor", "gate"])
    def test_slice_failure_exit(self, monkeypatch, tmp_path, capsys, error):
        """A slice that fails to factor or to pass its gate exits 3.

        Every y >= 0 kernel slice factors for r = 1..300, so no degree fails
        cheaply: the factorization error is injected like the gate refusal.
        """
        def fail_slices(r_, ys):
            raise error

        monkeypatch.setattr(certificate_module, "decompose_kernel_slices", fail_slices)
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_RESIDUAL
        err = capsys.readouterr().err
        assert err.startswith("kernel-slice factorization failed:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nan_factor_exit(self, monkeypatch, tmp_path, capsys):
        """A spectral factor that comes out NaN is a slice failure, not usage."""
        monkeypatch.setattr(sos1d, "_polish_factor",
                            lambda h, q: np.full_like(h, np.nan))
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_RESIDUAL
        err = capsys.readouterr().err
        assert err.startswith("kernel-slice factorization failed: factorization residual")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_six_variables_reach_the_gate(self, grid_budget_enforced, capsys):
        # 17^6 default gate points used to exceed the budget (exit 64); the
        # unsmoothed 2.1 + 8 x1 x2 x3 x4 x5 x6 dips to -5.9 on the cube
        code = main(["certify", "--poly", "2 + x1*x2*x3*x4*x5*x6", "--eta", "0.1",
                     "--r", "2"])
        assert code == EXIT_NOT_CERTIFIABLE
        assert "unsmoothed polynomial reaches -5.9" in capsys.readouterr().err

    def test_malformed_poly_usage_exit(self, capsys):
        code = main(["certify", "--poly", "1 - x1^^", "--eta", "0.1", "--r", "5"])
        assert code == EXIT_USAGE

    def test_non_finite_coefficient_usage_exit(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", "1e400*x1^2 - 5", "--eta", "0.1",
                     "--r", "4", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_usage_exit(self, tmp_path, eta):
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", DEMO, "--eta", eta, "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_missing_poly_usage_exit(self, capsys):
        code = main(["certify", "--eta", "0.1", "--r", "5"])
        assert code == EXIT_USAGE

    def test_poly_file_input(self, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text(DEMO + "\n")
        out = tmp_path / "cert.json"
        code = main(["certify", "--poly-file", str(src), "--eta", "0.1",
                     "--r", "7", "--out", str(out)])
        assert code == EXIT_OK

    def test_json_round_trip_reproduces_residual(self, tmp_path):
        out = tmp_path / "cert.json"
        main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
              "--out", str(out)])
        data = json.loads(out.read_text())
        cert = certificate_from_dict(data)
        report = verify(cert, demo_f())
        assert abs(report.residual - data["residual"]) <= 1e-12

    def test_dict_round_trip_identity(self):
        cert = certify(demo_f(), 0.1, 7)
        again = certificate_from_dict(
            json.loads(json.dumps(certificate_to_dict(cert))))
        assert again.weights.shape == cert.weights.shape
        assert again.weights.tobytes() == cert.weights.tobytes()
        assert len(again.rows) == len(cert.rows) == 8
        for (u1, v1), (u2, v2) in zip(cert.rows, again.rows):
            assert u1.tobytes() == u2.tobytes()
            assert v1.tobytes() == v2.tobytes()


class TestCertificateFromDict:
    """Malformed certificate JSON is refused with ValueError at load time."""

    @staticmethod
    def _data(n=2):
        if n == 1:
            return certificate_to_dict(certify(demo_f(), 0.1, 7))
        f = cheb_from_monomial(MonoPoly(2, {(0, 0): 1.0, (1, 1): 0.2}))
        return certificate_to_dict(certify(f, 0.0, 3))

    def test_wrong_weight_count(self):
        data = self._data()
        assert len(data["weights"]) == 16 and len(data["rows"]) == 2
        data["weights"] = data["weights"][:-1]
        with pytest.raises(ValueError, match="15 weights are not m\\^2"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("where", ["weights", "u", "v", "eta", "residual"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_number(self, where, bad):
        data = json.loads(json.dumps(self._data(1)))
        if where in ("eta", "residual"):
            data[where] = bad
            message = f"{where} is not finite"
        else:
            target = data["weights"] if where == "weights" else data["rows"][1][where]
            target[0] = bad
            message = "must be a flat list of finite numbers"
        with pytest.raises(ValueError, match=message):
            certificate_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("key, value, message", [
        ("num_vars", None, "num_vars is not an integer"),
        ("num_vars", 1.0, "num_vars is not an integer"),
        ("num_vars", "1", "num_vars is not an integer"),
        ("num_vars", True, "num_vars is not an integer"),
        ("r", None, "r is not an integer"),
        ("r", "7", "r is not an integer"),
        ("eta", None, "eta is not a number"),
        ("eta", "0.1", "eta is not a number"),
        ("residual", None, "residual is not a number"),
        ("rows", None, "rows must be a list"),
        ("rows", {"u": [1.0], "v": []}, "rows must be a list"),
        ("weights", None, "weights must be a flat list"),
        ("weights", {"0": 1.0}, "weights must be a flat list"),
        ("weights", ["1.0"] * 8, "weights must be a flat list"),
    ])
    def test_null_or_mistyped_field(self, key, value, message):
        data = json.loads(json.dumps(self._data(1)))
        data[key] = value
        with pytest.raises(ValueError, match=message):
            certificate_from_dict(data)

    @pytest.mark.parametrize("value", [None, {"0": 1.0}, ["0.5"], [0.5, None],
                                       [[0.5]], [0.5, [0.1]]])
    def test_mistyped_row_coefficients(self, value):
        data = json.loads(json.dumps(self._data(1)))
        data["rows"][0]["u"] = value
        with pytest.raises(ValueError, match="row coefficients must be a flat list"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("key", ["num_vars", "r", "eta", "residual",
                                     "weights", "rows"])
    def test_missing_key(self, key):
        data = self._data(1)
        del data[key]
        with pytest.raises(ValueError, match=f"certificate lacks {key}"):
            certificate_from_dict(data)

    def test_missing_row_key(self):
        data = self._data(1)
        del data["rows"][2]["v"]
        with pytest.raises(ValueError, match="'u' and 'v'"):
            certificate_from_dict(data)

    def test_expanded_terms_format(self):
        data = {"num_vars": 1, "r": 7, "eta": 0.1, "residual": 2e-16,
                "terms": [{"J": [], "squares": [{"scale": 0.29,
                                                  "coeffs": {"0": 1.0}}]}]}
        with pytest.raises(ValueError, match="run certify again"):
            certificate_from_dict(data)


class TestMirroredRows:
    """Certificate JSON stores the rows of nodes t >= m // 2 only."""

    @staticmethod
    def _square(n, r):
        q = random_cheb(np.random.default_rng([7, n, r]), n, max(1, r // 2))
        return apply_forward(q * q + ChebPoly.constant(n, 0.1), r)

    @pytest.mark.parametrize("n, r", [(1, 6), (1, 7), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_reload_is_bitwise(self, n, r):
        """Odd and even m = r + 1: the reloaded rows are the in-memory rows."""
        f = self._square(n, r)
        cert = certify(f, 0.0, r)
        m = r + 1
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        assert len(data["rows"]) == m - m // 2 and len(data["weights"]) == m ** n
        again = certificate_from_dict(data)
        assert len(again.rows) == len(cert.rows) == m
        assert again.weights.tobytes() == cert.weights.tobytes()
        for (u1, v1), (u2, v2) in zip(cert.rows, again.rows):
            assert u1.tobytes() == u2.tobytes() and v1.tobytes() == v2.tobytes()
        assert (again.num_vars, again.r, again.eta, again.residual) == \
            (cert.num_vars, cert.r, cert.eta, cert.residual)
        assert verify(again, f).residual == cert.residual

    def test_constant_certificate(self):
        cert = certify(ChebPoly.constant(2, 3.0), 0.1, 4)
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        assert data["rows"] == [{"u": [1.0], "v": []}]
        again = certificate_from_dict(data)
        assert again.weights.tobytes() == cert.weights.tobytes()
        assert [(u.tolist(), v.tolist()) for u, v in again.rows] == [([1.0], [])]

    @pytest.mark.parametrize("change", ["value", "zero sign", "length"])
    def test_writer_refuses_rows_that_are_not_mirrors(self, change):
        cert = certify(demo_f(), 0.1, 7)
        rows = list(cert.rows)
        u, v = (a.copy() for a in rows[1])
        if change == "value":
            u[0] = np.nextafter(u[0], np.inf)
        elif change == "zero sign":
            # v gains T_4 and T_5 terms of 0.0; the mirror of row 6's has -0.0
            assert v.size == 4
            v = np.append(v, [0.0, 0.0])
            rows[6] = (rows[6][0], np.append(rows[6][1], [0.0, 0.0]))
        else:
            v = np.append(v, 0.0)
        rows[1] = (u, v)
        tampered = SchmudgenCertificate(1, 7, 0.1, cert.weights, tuple(rows), cert.residual)
        with pytest.raises(ValueError, match="row 1 is not the mirror of row 6"):
            certificate_to_dict(tampered)

    @pytest.mark.parametrize("n, r, keep, message", [
        (1, 7, 3, "3 rows for 8 nodes per axis; need the 4"),
        (1, 6, 3, "3 rows for 7 nodes per axis; need the 4"),
        (2, 4, 4, "4 rows for 5 nodes per axis; need the 3"),
        (1, 7, 8, "holds all 8 rows"),
        (2, 5, 6, "holds all 6 rows"),
    ])
    def test_reader_refuses_wrong_row_counts(self, n, r, keep, message):
        cert = certify(self._square(n, r), 0.0, r)
        data = certificate_to_dict(cert)
        data["rows"] = [{"u": u.tolist(), "v": v.tolist()} for u, v in cert.rows][-keep:]
        with pytest.raises(ValueError, match=message):
            certificate_from_dict(data)


class TestBoundCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", DEMO, "--r-sweep", "18:98:8",
                     "--grid", "1025", "--out", str(out)])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 11
        assert [int(r["r"]) for r in rows] == list(range(18, 99, 8))
        assert all(r["ok"] == "true" for r in rows)
        for r in rows:
            assert float(r["gap"]) <= float(r["bound"]) + 1e-12

    def test_constant_gaps_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["bound", "--poly", "2", "--r", "5", "--out", str(out)])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 1
        assert float(rows[0]["gap"]) == pytest.approx(0.0, abs=1e-15)

    def test_r_below_degree_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        for degrees in (["--r", "3"], ["--r-sweep", "2:10:1"]):
            code = main(["bound", "--poly", DEMO, *degrees, "--out", str(out)])
            assert code == EXIT_USAGE
            assert not out.exists()

    def test_non_finite_coefficient_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", "1e400*x1^2 - 5", "--r", "8",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_over_budget_usage_error(self, grid_budget_enforced, capsys):
        code = main(["bound", "--poly", "x1*x2*x3", "--r", "3", "--grid", "2000"])
        assert code == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_grid_points_usage_error(self, tmp_path, capsys, points):
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", DEMO, "--r", "8", "--grid", points,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "need at least 2 points per axis" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bound", "--poly", DEMO, "--r-sweep", "18:42:8",
              "--grid", "513", "--out", str(a)])
        main(["bound", "--poly", DEMO, "--r-sweep", "18:42:8",
              "--grid", "513", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommand:
    def test_default_samples_and_pinned_values(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--out", str(out)])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 201
        at_zero = next(r for r in rows if float(r["x"]) == 0.0)
        assert float(at_zero["inv5"]) == pytest.approx(1.61985, abs=1e-4)
        assert float(at_zero["inv7"]) == pytest.approx(1.28978, abs=1e-4)
        at_one = next(r for r in rows if float(r["x"]) == 1.0)
        assert float(at_one["f_plus_eta"]) == pytest.approx(0.1, abs=1e-12)

    def test_custom_samples(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure1", "--samples", "10", "--out", str(out)])
        assert len(_rows(out)) == 11


class TestInspectKernel:
    def test_table(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["inspect-kernel", "--r", "5", "--out", str(out)])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 6
        assert float(rows[0]["lambda"]) == 1.0
        assert float(rows[4]["lambda"]) == pytest.approx(0.1938434, abs=2e-6)


class TestSelftest:
    def test_quick_level(self, capsys):
        code = main(["selftest", "--level", "quick", "--seed", "0"])
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert code == EXIT_OK
        assert summary["ok"] is True
        assert {c["name"] for c in summary["checks"]} == {
            "spectral_bounds", "quadrature_exactness", "sos_reconstruction",
            "certificate_roundtrip"}

    def test_full_quadrature_check(self):
        check = cli._check_quadrature("full")
        assert check["name"] == "quadrature_exactness"
        assert check["ok"] is True

    def test_deterministic_given_seed(self, capsys):
        main(["selftest", "--level", "quick", "--seed", "3"])
        first = capsys.readouterr().out
        main(["selftest", "--level", "quick", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
