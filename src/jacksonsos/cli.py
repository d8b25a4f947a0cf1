"""Command-line front end: certify, bound, figure1, selftest, inspect-kernel.

Exit codes: 0 success, 2 not certifiable, 3 residual failure, 64 usage.
All output is deterministic given the flags and --seed.

``certify`` writes the certificate as JSON: num_vars, r, eta, residual and
the m^n node weights (m = ceil((r + d + 1) / 2) nodes per axis, d the
largest per-variable degree of f) flattened in C order.  The squares follow
from r and m, so they are not written; the reader ignores the ``rows`` that
older files hold.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import re
import sys

import numpy as np

from .certificate import (
    MAX_VARS,
    NotCertifiable,
    ResidualTooLarge,
    SchmudgenCertificate,
    certify,
    rate_sweep,
    verify,
)
from .chebpoly import POINT_BUDGET, ChebPoly, MonoPoly, cheb_from_monomial, chebyshev_nodes
from .jackson import _kernel_coeffs, spectrum, verify_prop21
from .kernelop import apply_forward, apply_inverse
from .sos1d import (IllConditioned, NotNonnegative, decompose_kernel_slices,
                    lukacs_decompose, split_coeffs)

EXIT_OK = 0
EXIT_NOT_CERTIFIABLE = 2
EXIT_RESIDUAL = 3
EXIT_USAGE = 64


# -- polynomial parsing --------------------------------------------------------


class PolynomialSyntaxError(ValueError):
    """Parse failure, carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^])"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PolynomialSyntaxError(
                f"unexpected character {text[pos]!r}", pos
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_polynomial(text: str, num_vars: int | None = None) -> MonoPoly:
    """Parse terms like ``1 - 2*x1^2 + 1/2 x1 x2`` into a sparse polynomial.

    Coefficients may be decimals or rationals a/b; variables are x1, x2,
    ...; '*' between factors is optional.  The variable count is inferred
    from the highest index unless ``num_vars`` overrides it.
    """
    tokens = _tokenize(text)
    i = 0
    raw: dict = {}
    max_var = 0
    first = True
    while tokens[i][0] != "end":
        kind, value, pos = tokens[i]
        sign = 1.0
        if kind == "op" and value in "+-":
            sign = -1.0 if value == "-" else 1.0
            i += 1
        elif not first:
            raise PolynomialSyntaxError("expected '+' or '-' between terms", pos)
        start = tokens[i][2]

        coeff = sign
        exps: dict = {}
        saw_factor = False
        while True:
            kind, value, pos = tokens[i]
            if kind == "num":
                factor = float(value)
                i += 1
                if tokens[i][0] == "op" and tokens[i][1] == "/":
                    i += 1
                    dkind, dvalue, dpos = tokens[i]
                    if dkind != "num":
                        raise PolynomialSyntaxError("expected denominator", dpos)
                    denom = float(dvalue)
                    if denom == 0.0:
                        raise PolynomialSyntaxError("zero denominator", dpos)
                    factor /= denom
                    i += 1
                coeff *= factor
                saw_factor = True
            elif kind == "var":
                idx = int(value[1:])
                if idx < 1:
                    raise PolynomialSyntaxError("variable indices start at x1", pos)
                exponent = 1
                i += 1
                if tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    ekind, evalue, epos = tokens[i]
                    if ekind == "op" and evalue == "-":
                        raise PolynomialSyntaxError("negative exponent", epos)
                    if ekind != "num" or not float(evalue).is_integer():
                        raise PolynomialSyntaxError(
                            "exponent must be a nonnegative integer", epos
                        )
                    exponent = int(float(evalue))
                    i += 1
                exps[idx] = exps.get(idx, 0) + exponent
                max_var = max(max_var, idx)
                saw_factor = True
            else:
                break
            if tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                nkind, _, npos = tokens[i]
                if nkind not in ("num", "var"):
                    raise PolynomialSyntaxError("expected factor after '*'", npos)
                continue
            if tokens[i][0] in ("num", "var"):
                continue
            break
        if not saw_factor:
            raise PolynomialSyntaxError("expected a term", pos)
        key = frozenset((idx, e) for idx, e in exps.items() if e)
        raw[key] = raw.get(key, 0.0) + coeff
        if not math.isfinite(raw[key]):
            raise PolynomialSyntaxError("coefficient is not finite", start)
        first = False
    if first:
        raise PolynomialSyntaxError("empty polynomial", 0)

    n = num_vars if num_vars is not None else max(max_var, 1)
    if n < max_var:
        raise PolynomialSyntaxError(
            f"polynomial uses x{max_var} but only {n} variables declared", 0
        )
    coeffs: dict = {}
    for key, c in raw.items():
        alpha = [0] * n
        for idx, e in key:
            alpha[idx - 1] = e
        coeffs[tuple(alpha)] = c
    return MonoPoly(n, coeffs)


def demo_polynomial() -> MonoPoly:
    """The built-in demo polynomial 1 - x^2 - x^3 + x^4 (nonnegative on [-1,1])."""
    return MonoPoly(1, {(0,): 1.0, (2,): -1.0, (3,): -1.0, (4,): 1.0})


# -- certificate serialization ---------------------------------------------------


def certificate_to_dict(cert: SchmudgenCertificate) -> dict:
    """JSON-ready form, with the weights flattened in C order."""
    return {
        "num_vars": cert.num_vars,
        "r": cert.r,
        "eta": cert.eta,
        "residual": cert.residual,
        "weights": cert.weights.ravel().tolist(),
    }


def _finite_array(values, what: str) -> np.ndarray:
    message = f"certificate {what} must be a flat list of finite numbers"
    try:
        out = np.asarray(values)
    except ValueError:                  # ragged nesting
        raise ValueError(message) from None
    if out.ndim != 1 or out.dtype.kind not in "iuf" or not np.all(np.isfinite(out)):
        raise ValueError(message)
    return out.astype(float, copy=False)


def _number(data: dict, key: str, kind) -> int | float:
    """data[key] if it is a ``kind`` (integral or real) other than bool, and finite."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"certificate {key} is not {what}")
    if kind is numbers.Real and not math.isfinite(value):
        raise ValueError(f"certificate {key} is not finite")
    return value


def certificate_from_dict(data: dict) -> SchmudgenCertificate:
    """Inverse of :func:`certificate_to_dict`; malformed data raises ValueError.

    A ``rows`` key, which older files hold, is ignored.
    """
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    if "terms" in data:
        raise ValueError("expanded 'terms' certificates are no longer read; "
                         "run certify again to write the factored form")
    missing = [key for key in ("num_vars", "r", "eta", "residual", "weights")
               if key not in data]
    if missing:
        raise ValueError(f"certificate lacks {', '.join(missing)}")
    n = int(_number(data, "num_vars", numbers.Integral))
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"{n} variables; need 1 to {MAX_VARS}")
    weights = _finite_array(data["weights"], "weights")
    m = round(weights.size ** (1.0 / n))
    if m < 1 or m ** n != weights.size:
        raise ValueError(f"{weights.size} weights are not m^{n} for a node count m")
    return SchmudgenCertificate(
        num_vars=n,
        r=int(_number(data, "r", numbers.Integral)),
        eta=float(_number(data, "eta", numbers.Real)),
        weights=weights.reshape((m,) * n),
        residual=float(_number(data, "residual", numbers.Real)),
    )


# -- helpers ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_poly(args) -> ChebPoly:
    """f from --poly or --poly-file, which the parser makes exactly one of."""
    text = args.poly
    if text is None:
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return cheb_from_monomial(parse_polynomial(text, args.nvars))


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str | None, header: list, rows) -> None:
    """``header`` and ``rows`` as CSV lines ending in '\\n', as :func:`_write_text`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _parse_sweep(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must look like A:B:STEP")
    a, b, step = (int(p) for p in parts)
    if step <= 0 or b < a:
        raise ValueError("sweep needs A <= B and STEP > 0")
    return list(range(a, b + 1, step))


# -- subcommands -------------------------------------------------------------------


def cmd_certify(args) -> int:
    f = _load_poly(args)
    try:
        cert = certify(f, args.eta, args.r)
    except NotCertifiable as exc:
        print(f"not certifiable: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIABLE
    except ResidualTooLarge as exc:
        print(f"residual failure: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    payload = json.dumps(certificate_to_dict(cert), indent=2)
    _write_text(args.out, payload + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    f = _load_poly(args)
    r_values = [args.r] if args.r is not None else _parse_sweep(args.r_sweep)
    _write_csv(args.out,
               ["r", "lambda_star", "fmin_est", "gap", "C", "threshold", "bound", "ok"],
               ([rep.r, repr(rep.lambda_star), repr(rep.fmin_est), repr(rep.gap),
                 repr(rep.C_used), repr(rep.threshold), repr(rep.bound),
                 str(rep.theorem_satisfied).lower()] for rep in rate_sweep(f, r_values)))
    return EXIT_OK


def cmd_figure1(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples + 1 > POINT_BUDGET:
        raise ValueError(f"--samples asks for {args.samples + 1} rows, "
                         f"over budget {POINT_BUDGET}")
    shifted = cheb_from_monomial(demo_polynomial()).shift(0.1)
    xs = np.linspace(-1.0, 1.0, args.samples + 1)
    curves = [p.eval_grid([xs]).tolist()
              for p in (shifted, apply_inverse(shifted, 5), apply_inverse(shifted, 7))]
    _write_csv(args.out, ["x", "f_plus_eta", "inv5", "inv7"],
               (list(map(repr, row)) for row in zip(xs.tolist(), *curves)))
    return EXIT_OK


def cmd_inspect_kernel(args) -> int:
    if args.r + 1 > POINT_BUDGET:
        raise ValueError(f"--r asks for {args.r + 1} rows, over budget {POINT_BUDGET}")
    _write_csv(args.out, ["k", "lambda"],
               ([k, repr(lam)] for k, lam in enumerate(spectrum(args.r).lambdas)))
    return EXIT_OK


# -- selftest ----------------------------------------------------------------------


def _check_spectral(level: str) -> dict:
    full = level == "full"
    reports = [verify_prop21(r, r, 201 if full else 101)
               for r in range(1, (200 if full else 60) + 1)]
    worst = max(0.0, *(-rep.decay_margin for rep in reports))
    kmin = min(0.0, *(rep.kernel_min for rep in reports))
    lo = min(rep.lambda_min for rep in reports)
    hi = max(rep.lambda_max for rep in reports)
    return {"name": "spectral_bounds", "ok": all(rep.ok for rep in reports),
            "detail": (f"worst decay excess {worst:.3e}, kernel min {kmin:.3e}, "
                       f"lambda in [{lo:.3e}, {hi:.3e}]")}


def _check_quadrature(level: str) -> dict:
    m_max = 10 if level == "full" else 6
    worst = 0.0
    for n in (1, 2):
        for m in range(1, m_max + 1):
            grid = [chebyshev_nodes(m)] * n
            dmax = 2 * m - 1
            kappas = ([(k,) for k in range(dmax + 1)] if n == 1 else
                      [(a, b) for a in range(dmax + 1) for b in range(0, dmax + 1, max(1, dmax // 3))])
            for kappa in kappas:
                value = float(np.mean(ChebPoly.basis(n, kappa).eval_grid(grid)))
                expected = 1.0 if all(k == 0 for k in kappa) else 0.0
                worst = max(worst, abs(value - expected))
    ok = worst <= 1e-12
    return {"name": "quadrature_exactness", "ok": ok,
            "detail": f"worst integration error {worst:.3e}"}


def _check_sos(level: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    count = 200 if level == "full" else 30
    half = 12 if level == "full" else 8
    weight = ChebPoly(1, {(0,): 0.5, (2,): -0.5})
    inputs = []
    for _ in range(count):
        du = int(rng.integers(0, half + 1))
        dv = int(rng.integers(0, half))
        u = ChebPoly(1, {(k,): rng.standard_normal() for k in range(du + 1)})
        v = ChebPoly(1, {(k,): rng.standard_normal() for k in range(dv + 1)})
        inputs.append(u * u + weight * (v * v))
    repeated = []
    for a in (-0.9, -0.6, 0.3, 0.9):
        linear = ChebPoly(1, {(0,): -a, (1,): 1.0})
        square = linear * linear
        repeated += [square * square * square, weight * (square * square)]
    pairs = []
    for p in inputs + repeated + [p.scale(2.0 ** -40) for p in repeated]:
        try:
            pairs.append(lukacs_decompose(p))
        except (IllConditioned, NotNonnegative) as exc:
            return {"name": "sos_reconstruction", "ok": False,
                    "detail": f"decomposition refused: {exc}"}
    worst = max(pair.residual for pair in pairs)
    # the units of p decide nothing: 2^-40 p splits into 2^-20 times p's u and v
    k = len(repeated)
    for one, tiny in zip(pairs[-2 * k:-k], pairs[-k:]):
        if not (np.array_equal(tiny.u, 2.0 ** -20 * one.u)
                and np.array_equal(tiny.v, 2.0 ** -20 * one.v)):
            return {"name": "sos_reconstruction", "ok": False,
                    "detail": "2^-40 p does not split into 2^-20 times p's u and v"}
    r_max = 30 if level == "full" else 10
    n_y = 50 if level == "full" else 10
    ys = chebyshev_nodes(n_y)
    for r in range(r_max + 1):
        diff = split_coeffs(*decompose_kernel_slices(r, ys))
        # K_r(., y) = sum coef_k T_k(y) T_k, each T_k(y) as a cosine
        diff[:, :r + 1] -= _kernel_coeffs(r) * np.cos(np.outer(np.arccos(ys), np.arange(r + 1)))
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = worst <= 1e-8
    return {"name": "sos_reconstruction", "ok": ok,
            "detail": f"worst residual {worst:.3e}"}


def _check_certificates(seed: int) -> dict:
    f = cheb_from_monomial(demo_polynomial())
    try:
        cert = certify(f, 0.1, 7)
    except (NotCertifiable, ResidualTooLarge) as exc:
        return {"name": "certificate_roundtrip", "ok": False,
                "detail": f"demo certification failed: {exc}"}
    report = verify(cert, f)
    round_trip = certificate_from_dict(
        json.loads(json.dumps(certificate_to_dict(cert))))
    report2 = verify(round_trip, f)
    dichotomy = False
    try:
        certify(f, 0.1, 5)
    except NotCertifiable:
        dichotomy = True
    except ResidualTooLarge:
        pass
    rng = np.random.default_rng(seed)
    q = ChebPoly(2, {(0, 0): rng.standard_normal(), (1, 0): rng.standard_normal(),
                     (0, 1): rng.standard_normal()})
    smooth = apply_forward(q * q + ChebPoly.constant(2, 0.2), 3)
    try:
        cert2 = certify(smooth, 0.0, 3)
        bivariate_ok = verify(cert2, smooth).valid
    except (NotCertifiable, ResidualTooLarge):
        bivariate_ok = False
    ok = (report.valid and report2.valid
          and abs(report2.residual - cert.residual) <= 1e-12
          and dichotomy and bivariate_ok)
    return {"name": "certificate_roundtrip", "ok": ok,
            "detail": (f"residual {report.residual:.3e}, round-trip "
                       f"{report2.residual:.3e}, dichotomy {dichotomy}, "
                       f"bivariate {bivariate_ok}")}


def cmd_selftest(args) -> int:
    checks = [
        _check_spectral(args.level),
        _check_quadrature(args.level),
        _check_sos(args.level, args.seed),
        _check_certificates(args.seed),
    ]
    summary = {
        "level": args.level,
        "seed": args.seed,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["ok"] else 1


# -- entry point --------------------------------------------------------------------


def _add_poly_flags(sub) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="polynomial text, e.g. '1 - x1^2'")
    source.add_argument("--poly-file", help="file containing the polynomial text")
    sub.add_argument("--nvars", type=int, default=None,
                     help="override the inferred variable count")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jacksonsos",
                     description="Certified positivity on the hypercube via "
                                 "Jackson-kernel smoothing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[], help="build a square certificate")
    _add_poly_flags(p)
    p.add_argument("--eta", type=float, required=True, help="constant shift >= 0")
    p.add_argument("--r", type=int, required=True, help="kernel degree")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound", help="certified lower bounds on the minimum")
    _add_poly_flags(p)
    degrees = p.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--r", type=int, help="single kernel degree")
    degrees.add_argument("--r-sweep", help="range A:B:STEP")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("figure1",
                       help="sample the demo polynomial and its unsmoothed "
                            "transforms at kernel degrees 5 and 7")
    p.add_argument("--samples", type=int, default=200,
                   help="uniform intervals on [-1,1]; emits samples+1 rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("inspect-kernel", help="dump the damping coefficients")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # a usage error (64, from _Parser.error) or --help
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
