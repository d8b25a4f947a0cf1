"""Tests for the command-line interface and serialization."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from jacksonsos import certificate as certificate_module
from jacksonsos import cli, sos1d
from jacksonsos.certificate import ResidualTooLarge, certify, verify
from jacksonsos.chebpoly import POINT_BUDGET, ChebPoly, MonoPoly, cheb_from_monomial
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
from helpers import demo_f, random_cheb

DEMO = "1 - x1^2 - x1^3 + x1^4"

#: the demo's certificate at eta = 0.1, r = 7 as certify wrote it while
#: certificates stored the rows of the nodes t >= m // 2
PARENT_DEMO_R7 = {
    "num_vars": 1, "r": 7, "eta": 0.1, "residual": 3.416070845000482e-16,
    "weights": [0.36651368995547995, 0.15480554881524566, 0.17386714451491017,
                0.20359540631938025, 0.0652693495161735, 0.010948860878810307],
    "rows": [
        {"u": [0.14869375382987673, -0.14041445549117798, -0.4196184694927422,
               0.22406084553661404, 0.40605161357694936],
         "v": [-0.6534442369396352, -0.20129198250913583, 0.6954725280813697,
               0.8121032271538987]},
        {"u": [-0.37783906711572535, -0.3638181764179943, 0.37460048453636086,
               0.6653041748224036, 0.34219118995420006],
         "v": [0.9221478510200377, 1.817606126821595, 1.1157426830902732,
               0.6843823799084001]},
        {"u": [0.3996753166817214, 0.7418093962883581, 0.589335842859919,
               0.39509725707174415, 0.22606274239104213],
         "v": [0.7545453372737856, 1.4070621862389472, 0.9092414127324391,
               0.45212548478208425]},
    ],
}


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

    @pytest.mark.parametrize("text, message", [
        ("2^3", "expected '+' or '-' between terms (at position 1)"),
        ("1/x1", "expected denominator (at position 2)"),
        ("1/0", "zero denominator (at position 2)"),
        ("x1 * + 1", "expected factor after '*' (at position 5)"),
        ("1 + * 2", "expected a term (at position 4)"),
    ])
    def test_refusal_message_and_position(self, text, message, capsys):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert str(err.value) == message
        assert err.value.position == int(message.rsplit(" ", 1)[1][:-1])
        assert main(["bound", "--poly", text, "--r", "4"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"jacksonsos: error: {message}\n"


class TestCertifyCommand:
    def test_valid_run(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert list(data) == ["num_vars", "r", "eta", "residual", "weights"]
        assert data["num_vars"] == 1 and data["r"] == 7
        assert data["residual"] <= 1e-8
        cert = certify(demo_f(), 0.1, 7)
        assert data["weights"] == cert.weights.tolist()

    def test_not_certifiable_exit(self, tmp_path, capsys):
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "5",
                     "--out", str(tmp_path / "c.json")])
        assert code == EXIT_NOT_CERTIFIABLE
        assert "not certifiable" in capsys.readouterr().err

    def test_nan_factor_exit(self, monkeypatch, tmp_path, capsys):
        """A spectral factor that comes out NaN cannot reach certify, whose
        slices come in closed form: the run succeeds."""
        monkeypatch.setattr(sos1d, "_polish_factor",
                            lambda h, q: np.full_like(h, np.nan))
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert verify(certificate_from_dict(json.loads(out.read_text())), demo_f()).valid

    def test_residual_failure_exit(self, monkeypatch, tmp_path, capsys):
        """Exit 3 means the assembled identity failed its residual check."""
        def fail(f, eta, r):
            raise ResidualTooLarge(2e-8)

        monkeypatch.setattr(cli, "certify", fail)
        out = tmp_path / "c.json"
        code = main(["certify", "--poly", DEMO, "--eta", "0.1", "--r", "7",
                     "--out", str(out)])
        assert code == EXIT_RESIDUAL
        assert capsys.readouterr().err == "residual failure: certificate residual " \
            "2.000e-08 exceeds 1e-08\n"
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
        assert (again.num_vars, again.r, again.eta, again.residual) == \
            (cert.num_vars, cert.r, cert.eta, cert.residual)


class TestCertificateFromDict:
    """Malformed certificate JSON is refused with ValueError at load time."""

    @staticmethod
    def _data(n=2):
        if n == 1:
            return certificate_to_dict(certify(demo_f(), 0.1, 7))
        f = cheb_from_monomial(MonoPoly(2, {(0, 0): 1.0, (1, 1): 0.2}))
        return certificate_to_dict(certify(f, 0.0, 3))

    def test_ragged_weights(self):
        data = self._data()
        data["weights"] = [data["weights"][:2], data["weights"][2:5]]
        with pytest.raises(ValueError, match="^certificate weights must be a flat "
                                             "list of finite numbers$"):
            certificate_from_dict(data)

    def test_wrong_weight_count(self):
        data = self._data()
        assert len(data["weights"]) == 9
        data["weights"] = data["weights"][:-1]
        with pytest.raises(ValueError, match="8 weights are not m\\^2"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("where", ["weights", "u", "v", "eta", "residual"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_number(self, where, bad):
        """Refused where the reader reads it; ignored in the rows ("u", "v") of
        an older file, which it no longer reads."""
        data = json.loads(json.dumps(self._data(1)))
        if where in ("u", "v"):
            data["rows"] = json.loads(json.dumps(PARENT_DEMO_R7))["rows"]
            data["rows"][1][where][0] = bad
            cert = certificate_from_dict(json.loads(json.dumps(data)))
            assert verify(cert, demo_f()).valid
            return
        if where in ("eta", "residual"):
            data[where] = bad
            message = f"{where} is not finite"
        else:
            data["weights"][0] = bad
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
        ("r", 7.0, "r is not an integer"),
        ("residual", "3.4e-16", "residual is not a number"),
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
        """Rows are not read, so whatever an older file's rows hold is ignored."""
        data = json.loads(json.dumps(PARENT_DEMO_R7))
        data["rows"][0]["u"] = value
        assert verify(certificate_from_dict(data), demo_f()).valid

    @pytest.mark.parametrize("key", ["num_vars", "r", "eta", "residual",
                                     "weights", "rows"])
    def test_missing_key(self, key):
        """Every key certify writes is required; the rows of older files are not."""
        data = json.loads(json.dumps(PARENT_DEMO_R7))
        del data[key]
        if key == "rows":
            assert verify(certificate_from_dict(data), demo_f()).valid
            return
        with pytest.raises(ValueError, match=f"certificate lacks {key}"):
            certificate_from_dict(data)

    def test_missing_row_key(self):
        """An older file's row without 'v' is ignored like the rest of its rows."""
        data = json.loads(json.dumps(PARENT_DEMO_R7))
        del data["rows"][2]["v"]
        assert verify(certificate_from_dict(data), demo_f()).valid

    @pytest.mark.parametrize("n", [0, 65, 10 ** 7, 10 ** 9])
    def test_variable_count_out_of_range(self, n):
        """Refused before any (m,) * n shape is built: 10^9 would take 8 GB."""
        data = {"num_vars": n, "r": 0, "eta": 0.1, "residual": 0.0, "weights": [1.0]}
        with pytest.raises(ValueError, match=f"^{n} variables; need 1 to 64$"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("r", [-1, 12, 10 ** 9])
    def test_kernel_degree_out_of_range(self, r):
        """No identity on m = 6 nodes is exact past r = 2m - 1 = 11, and no
        kernel degree is negative."""
        data = self._data(1)
        data["r"] = r
        message = "is negative" if r < 0 else "on 6 nodes per axis"
        with pytest.raises(ValueError, match=f"kernel degree {r} {message}"):
            certificate_from_dict(data)

    def test_slice_table_out_of_budget(self):
        """2 m (r + 2) slice-factor entries past POINT_BUDGET are refused on load."""
        m = 1581
        data = {"num_vars": 1, "r": 2 * m - 1, "eta": 0.1, "residual": 0.0,
                "weights": [1.0] * m}
        with pytest.raises(ValueError, match="kernel-slice table of 1581 x 2 x 3163"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("text", ["null", "5", "[1, 2]", '"rows"'])
    def test_not_an_object(self, text):
        with pytest.raises(ValueError, match="certificate must be a JSON object"):
            certificate_from_dict(json.loads(text))

    def test_expanded_terms_format(self):
        data = {"num_vars": 1, "r": 7, "eta": 0.1, "residual": 2e-16,
                "terms": [{"J": [], "squares": [{"scale": 0.29,
                                                  "coeffs": {"0": 1.0}}]}]}
        with pytest.raises(ValueError, match="run certify again"):
            certificate_from_dict(data)


class TestMirroredRows:
    """Reloads at odd and even m.  Older files stored the rows of the nodes
    t >= m // 2, the others being their mirror images; now no row is stored,
    and a reload is checked on its weights and on the squares (r, m) give."""

    @staticmethod
    def _square(n, r, q_degree=None):
        """K_r(q^2 + 0.1), q of degree r // 2 (d = r or r - 1, m odd) unless given."""
        q_degree = max(1, r // 2) if q_degree is None else q_degree
        q = random_cheb(np.random.default_rng([7, n, r]), n, q_degree)
        return apply_forward(q * q + ChebPoly.constant(n, 0.1), r)

    @pytest.mark.parametrize("n, r", [(1, 6), (1, 7), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_reload_is_bitwise(self, n, r):
        """The reloaded certificate is the in-memory one (odd m here, even m below)."""
        f = self._square(n, r)
        self._check_reload(f, r)

    @pytest.mark.parametrize("n, r", [(1, 7), (2, 5), (3, 5)])
    def test_reload_is_bitwise_at_even_m(self, n, r):
        """Odd r, f of degree d = r - 3 per variable: m = ceil((r + d + 1) / 2) = r - 1."""
        f = self._square(n, r, q_degree=(r - 3) // 2)
        cert = self._check_reload(f, r)
        assert len(cert.weights) == r - 1

    @staticmethod
    def _check_reload(f, r):
        n = f.num_vars
        cert = certify(f, 0.0, r)
        m = len(cert.weights)
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        assert "rows" not in data and len(data["weights"]) == m ** n
        again = certificate_from_dict(data)
        assert again.weights.tobytes() == cert.weights.tobytes()
        for a, b in zip(cert.squares(), again.squares()):
            assert a.tobytes() == b.tobytes()
        assert (again.num_vars, again.r, again.eta, again.residual) == \
            (cert.num_vars, cert.r, cert.eta, cert.residual)
        assert verify(again, f).residual == cert.residual
        return cert

    def test_constant_certificate(self):
        cert = certify(ChebPoly.constant(2, 3.0), 0.1, 4)
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        assert data == {"num_vars": 2, "r": 0, "eta": 0.1, "residual": 0.0,
                        "weights": [3.1]}
        again = certificate_from_dict(data)
        assert again.weights.tobytes() == cert.weights.tobytes()
        assert verify(again, ChebPoly.constant(2, 3.0)).residual == 0.0

    def test_parent_file_still_loads(self):
        """A file written when certificates stored their rows loads, its rows
        ignored, and verifies on its weights to the last bits of its residual."""
        cert = certificate_from_dict(json.loads(json.dumps(PARENT_DEMO_R7)))
        assert cert.weights.tolist() == PARENT_DEMO_R7["weights"]
        report = verify(cert, demo_f())
        assert report.valid
        assert report.residual <= 1e-15


class TestBoundCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", DEMO, "--r-sweep", "18:98:8",
                     "--out", str(out)])
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

    @pytest.mark.parametrize("sweep, message", [
        ("8:16", "sweep must look like A:B:STEP"),
        ("8:4:1", "sweep needs A <= B and STEP > 0"),
        ("8:16:0", "sweep needs A <= B and STEP > 0"),
    ])
    def test_bad_sweep_usage_error(self, tmp_path, capsys, sweep, message):
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", DEMO, "--r-sweep", sweep, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"jacksonsos: error: {message}\n"
        assert not out.exists()

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

    def test_grid_over_budget_usage_error(self, grid_budget_enforced, monkeypatch,
                                          tmp_path, capsys):
        """r = 30 needs 16^6 nodes: refused before f's 14^6 extrema grid runs."""
        def extrema(*args):
            raise AssertionError("f's extrema grid ran before the node budget check")

        monkeypatch.setattr(certificate_module, "grid_extrema", extrema)
        out = tmp_path / "rows.csv"
        code = main(["bound", "--poly", "x1*x2*x3*x4*x5*x6", "--r", "30",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "16^6 points exceeds budget" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_end_in_newline_only(self, capsys):
        assert main(["bound", "--poly", "3", "--r", "0"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "r,lambda_star,fmin_est,gap,C,threshold,bound,ok\n"
            "0,3.0,3.0,0.0,0.0,0.0,0.0,true\n")

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bound", "--poly", DEMO, "--r-sweep", "18:42:8", "--out", str(a)])
        main(["bound", "--poly", DEMO, "--r-sweep", "18:42:8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExclusiveFlags:
    """--poly / --poly-file, and bound's --r / --r-sweep, are argparse groups
    of which exactly one is required: both or neither is a usage error, and
    no output is written."""

    @pytest.mark.parametrize("args, message", [
        (["certify", "--poly", DEMO, "--poly-file", "FILE", "--eta", "0.1", "--r", "7"],
         "argument --poly-file: not allowed with argument --poly"),
        (["certify", "--eta", "0.1", "--r", "7"],
         "one of the arguments --poly --poly-file is required"),
        (["bound", "--poly", DEMO, "--r", "8", "--r-sweep", "8:16:8"],
         "argument --r-sweep: not allowed with argument --r"),
        (["bound", "--poly", DEMO], "one of the arguments --r --r-sweep is required"),
    ], ids=["both-polys", "no-poly", "both-degrees", "no-degree"])
    def test_usage_exit(self, tmp_path, capsys, args, message):
        poly, out = tmp_path / "poly.txt", tmp_path / "out"
        poly.write_text(DEMO + "\n")
        args = [str(poly) if a == "FILE" else a for a in args]
        assert main([*args, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_too_few_samples_usage_error(self, tmp_path, capsys, samples):
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--samples", samples, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "jacksonsos: error: --samples must be at least 1\n"
        assert not out.exists()


    def test_samples_over_budget_usage_error(self, tmp_path, capsys, monkeypatch):
        """POINT_BUDGET samples make POINT_BUDGET + 1 rows: refused before any
        curve is evaluated."""
        monkeypatch.setattr(cli, "apply_inverse", None)
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--samples", str(POINT_BUDGET), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"jacksonsos: error: --samples asks for {POINT_BUDGET + 1} rows, "
            f"over budget {POINT_BUDGET}\n")
        assert not out.exists()


class TestInspectKernel:
    def test_table(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["inspect-kernel", "--r", "5", "--out", str(out)])
        assert code == EXIT_OK
        rows = _rows(out)
        assert len(rows) == 6
        assert float(rows[0]["lambda"]) == 1.0
        assert float(rows[4]["lambda"]) == pytest.approx(0.1938434, abs=2e-6)

    def test_r_over_budget_usage_error(self, tmp_path, capsys, monkeypatch):
        """r = POINT_BUDGET makes POINT_BUDGET + 1 rows: refused before any
        lambda_k is computed."""
        monkeypatch.setattr(cli, "spectrum", None)
        out = tmp_path / "k.csv"
        code = main(["inspect-kernel", "--r", str(POINT_BUDGET), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"jacksonsos: error: --r asks for {POINT_BUDGET + 1} rows, "
            f"over budget {POINT_BUDGET}\n")
        assert not out.exists()


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

    def test_spectral_check_reports_verify_prop21(self, monkeypatch):
        """The check is verify_prop21(r, r) over r = 1..60: one failing
        report fails it."""
        calls = []
        prop21 = cli.verify_prop21

        def failing_at_7(r, d, grid):
            calls.append((r, d, grid))
            report = prop21(r, d, grid)
            return dataclasses.replace(report, decay_ok=False) if r == 7 else report

        monkeypatch.setattr(cli, "verify_prop21", failing_at_7)
        check = cli._check_spectral("quick")
        assert calls == [(r, r, 101) for r in range(1, 61)]
        assert check["name"] == "spectral_bounds" and check["ok"] is False

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_sos_check_covers_repeated_roots(self, monkeypatch, level):
        """(x - a)^6 and (1 - x^2)(x - a)^4 for a = -0.9, -0.6, 0.3, 0.9 are
        decomposed at both levels."""
        seen = []
        decompose = cli.lukacs_decompose

        def recording(p):
            seen.append(p)
            return decompose(p)

        monkeypatch.setattr(cli, "lukacs_decompose", recording)
        check = cli._check_sos(level, 0)
        assert check["ok"] is True
        chebfromroots = np.polynomial.chebyshev.chebfromroots
        for a in (-0.9, -0.6, 0.3, 0.9):
            for want in (chebfromroots([a] * 6), -chebfromroots([-1.0, 1.0] + [a] * 4)):
                assert any(p.degree() == 6 and np.allclose(
                    [p.coeffs.get((k,), 0.0) for k in range(7)], want, rtol=0, atol=1e-14)
                    for p in seen), (a, want)

    def test_sos_refusal_fails_the_check(self, monkeypatch):
        def refusing(p):
            raise sos1d.IllConditioned("factorization residual 2.0e-07 exceeds 1e-08")

        monkeypatch.setattr(cli, "lukacs_decompose", refusing)
        check = cli._check_sos("quick", 0)
        assert check["name"] == "sos_reconstruction" and check["ok"] is False
        assert "factorization residual 2.0e-07" in check["detail"]

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
