"""Command-line front end: certify, bound, figure1, selftest, inspect-kernel.

Exit codes: 0 success, 2 not certifiable, 3 residual or kernel-slice
factorization failure, 64 usage.
All output is deterministic given the flags and --seed.

``certify`` writes the certificate as JSON: num_vars, r, eta, residual, the
m^n node weights (m = r + 1 nodes per axis) flattened in C order, and the
(u, v) rows of the nodes t >= m // 2 only.  Row t < m // 2 is the mirror of
row m - 1 - t (odd coefficients negated), so the reader rebuilds it exactly
and the writer refuses a certificate whose lower rows are not mirrors.
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
    NotCertifiable,
    ResidualTooLarge,
    SchmudgenCertificate,
    certify,
    rate_sweep,
    unfold_rows,
    verify,
)
from .chebpoly import ChebPoly, MonoPoly, cheb_from_monomial, chebyshev_nodes
from .jackson import jackson_lambda, kernel_eval_1d, spectrum
from .kernelop import apply_forward, apply_inverse
from .sos1d import (
    IllConditioned,
    LukacsPair,
    NotNonnegative,
    decompose_kernel_slices,
    lukacs_decompose,
)

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
    """JSON-ready form: weights flattened in C order, and the (u, v) rows of
    the nodes t >= m // 2 of the m per axis.

    The rows t < m // 2 are left out: each must be the exact mirror of row
    m - 1 - t (as ``certify`` makes it), or ValueError is raised.
    """
    m = len(cert.rows)
    upper = cert.rows[m // 2:]
    mirrors = unfold_rows([LukacsPair(u, v, 0.0) for u, v in upper], m)
    for t in range(m // 2):
        if any(a.tobytes() != b.tobytes() for a, b in zip(cert.rows[t], mirrors[t])):
            raise ValueError(f"certificate row {t} is not the mirror of row {m - 1 - t}; "
                             "only mirrored rows can be written")
    return {
        "num_vars": cert.num_vars,
        "r": cert.r,
        "eta": cert.eta,
        "residual": cert.residual,
        "weights": cert.weights.ravel().tolist(),
        "rows": [{"u": u.tolist(), "v": v.tolist()} for u, v in upper],
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
    """Inverse of :func:`certificate_to_dict`; malformed data raises ValueError."""
    if "terms" in data:
        raise ValueError("expanded 'terms' certificates are no longer read; "
                         "run certify again to write the factored form")
    missing = [key for key in ("num_vars", "r", "eta", "residual", "weights", "rows")
               if key not in data]
    if missing:
        raise ValueError(f"certificate lacks {', '.join(missing)}")
    if not isinstance(data["rows"], list) or not all(
            isinstance(row, dict) and {"u", "v"} <= row.keys() for row in data["rows"]):
        raise ValueError("certificate rows must be a list of rows with 'u' and 'v'")
    n = int(_number(data, "num_vars", numbers.Integral))
    upper = [LukacsPair(_finite_array(row["u"], "row coefficients"),
                        _finite_array(row["v"], "row coefficients"), 0.0)
             for row in data["rows"]]
    weights = _finite_array(data["weights"], "weights")
    m = round(weights.size ** (1.0 / n)) if n >= 1 else 0
    if m < 1 or m ** n != weights.size:
        raise ValueError(f"{weights.size} weights are not m^{n} for a node count m")
    if len(upper) != m - m // 2:
        if len(upper) == m:
            raise ValueError(f"certificate holds all {m} rows; the mirrored rows "
                             "are no longer read: run certify again to write "
                             "the rows of nodes t >= m // 2 only")
        raise ValueError(f"{len(upper)} rows for {m} nodes per axis; need the "
                         f"{m - m // 2} of nodes t >= m // 2")
    return SchmudgenCertificate(
        num_vars=n,
        r=int(_number(data, "r", numbers.Integral)),
        eta=float(_number(data, "eta", numbers.Real)),
        weights=weights.reshape((m,) * n),
        rows=unfold_rows(upper, m),
        residual=float(_number(data, "residual", numbers.Real)),
    )


# -- helpers ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_poly(args) -> ChebPoly:
    if getattr(args, "poly", None) and getattr(args, "poly_file", None):
        raise ValueError("give either --poly or --poly-file, not both")
    if getattr(args, "poly", None):
        text = args.poly
    elif getattr(args, "poly_file", None):
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ValueError("one of --poly or --poly-file is required")
    return cheb_from_monomial(parse_polynomial(text, args.nvars))


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    except (IllConditioned, NotNonnegative) as exc:
        print(f"kernel-slice factorization failed: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    payload = json.dumps(certificate_to_dict(cert), indent=2)
    _write_text(args.out, payload + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    f = _load_poly(args)
    if args.r is not None and args.r_sweep:
        raise ValueError("give either --r or --r-sweep, not both")
    if args.r is not None:
        r_values = [args.r]
    elif args.r_sweep:
        r_values = _parse_sweep(args.r_sweep)
    else:
        raise ValueError("one of --r or --r-sweep is required")
    reports = rate_sweep(f, r_values, grid=args.grid)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r", "lambda_star", "fmin_est", "gap", "C", "threshold",
                     "bound", "ok"])
    for rep in reports:
        writer.writerow([rep.r, repr(rep.lambda_star), repr(rep.fmin_est),
                         repr(rep.gap), repr(rep.C_used), repr(rep.threshold),
                         repr(rep.bound), str(rep.theorem_satisfied).lower()])
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_figure1(args) -> int:
    f = cheb_from_monomial(demo_polynomial())
    shifted = f.shift(0.1)
    inv5 = apply_inverse(shifted, 5)
    inv7 = apply_inverse(shifted, 7)
    samples = args.samples
    xs = np.linspace(-1.0, 1.0, samples + 1)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "f_plus_eta", "inv5", "inv7"])
    for x in xs:
        writer.writerow([repr(float(x)), repr(shifted.eval((x,))),
                         repr(inv5.eval((x,))), repr(inv7.eval((x,)))])
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_inspect_kernel(args) -> int:
    spec = spectrum(args.r)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "lambda"])
    for k, lam in enumerate(spec.lambdas):
        writer.writerow([k, repr(lam)])
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


# -- selftest ----------------------------------------------------------------------


def _check_spectral(level: str) -> dict:
    r_max = 200 if level == "full" else 60
    worst = 0.0
    for r in range(1, r_max + 1):
        lams = spectrum(r).lambdas
        for k in range(1, r + 1):
            lam = lams[k]
            if not 0.0 < lam <= 1.0:
                return {"name": "spectral_bounds", "ok": False,
                        "detail": f"lambda_{k}^{r} = {lam} out of range"}
            excess = (1.0 - lam) - math.pi ** 2 * k ** 2 / (r + 2) ** 2
            worst = max(worst, excess)
    grid_r = 50 if level == "full" else 25
    grid_n = 201 if level == "full" else 101
    axis = np.cos(np.linspace(0.0, math.pi, grid_n))
    kmin = 0.0
    for r in range(1, grid_r + 1):
        kmin = min(kmin, float(np.min(
            kernel_eval_1d(r, axis[:, None], axis[None, :]))))
    ok = worst <= 1e-12 and kmin >= -1e-12
    return {"name": "spectral_bounds", "ok": ok,
            "detail": f"worst decay excess {worst:.3e}, kernel min {kmin:.3e}"}


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
    worst = 0.0
    for _ in range(count):
        du = int(rng.integers(0, half + 1))
        dv = int(rng.integers(0, half))
        u = ChebPoly(1, {(k,): rng.standard_normal() for k in range(du + 1)})
        v = ChebPoly(1, {(k,): rng.standard_normal() for k in range(dv + 1)})
        weight = ChebPoly(1, {(0,): 0.5, (2,): -0.5})
        p = u * u + weight * (v * v)
        pair = lukacs_decompose(p)
        worst = max(worst, pair.residual)
    r_max = 30 if level == "full" else 10
    n_y = 50 if level == "full" else 10
    ys = chebyshev_nodes(n_y)
    for r in range(r_max + 1):
        for y, pair in zip(ys, decompose_kernel_slices(r, ys)):
            recon = pair.reconstruct()
            diff = np.zeros(max(recon.size, r + 1))    # the slice, then minus recon
            diff[0] = 1.0
            for k in range(1, r + 1):
                diff[k] = 2.0 * jackson_lambda(k, r) * math.cos(k * math.acos(y))
            diff[:recon.size] -= recon
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
    sub.add_argument("--poly", help="polynomial text, e.g. '1 - x1^2'")
    sub.add_argument("--poly-file", help="file containing the polynomial text")
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
    p.add_argument("--r", type=int, default=None, help="single kernel degree")
    p.add_argument("--r-sweep", default=None, help="range A:B:STEP")
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per axis (default set by the variable count)")
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
