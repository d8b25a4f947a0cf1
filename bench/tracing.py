"""Span tracing from outside the program, and the per-layer metrics.

The traced run replaces, for its duration, the public functions through
which one layer of ``jacksonsos`` calls another with timing wrappers (see
``boundaries``).  Each call becomes a span ``[name, start, end, parent, op,
error]`` kept in memory and written once at the end.  The program itself
is not edited, and the untimed run installs no wrapper.

Everything runs in one thread (``JC_THREADS`` unset), so a layer never waits
for another layer; busy time is the only time there is, and no wait times
are derived.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from summary import self_time

NAME, START, END, PARENT, OP, ERROR = range(6)

#: every per-layer metric with its unit; times are seconds per traced op,
#: counts are those of the first pass, which runs the whole corpus once
LAYER_UNITS = (
    ("sos1d.slice_s", "s"), ("sos1d.slices", "count"), ("sos1d.slice_fail", "count"),
    ("sos1d.slice_residual_max", "1"),
    ("certificate.reconstruct_s", "s"), ("chebpoly.mul_calls", "count"),
    ("chebpoly.mul_s", "s"),
    ("certificate.squares", "count"), ("quadrature.nodes", "count"),
    ("quadrature.nodes_clamped", "count"),
    ("certificate.assembly_s", "s"),
    ("cli.dump_s", "s"), ("cli.load_s", "s"), ("cli.bytes", "B"),
    ("chebpoly.gate_s", "s"), ("certificate.refusals", "count"),
    ("certificate.rungs", "count"), ("certificate.useful_rung_ratio", "1"),
    ("chebpoly.eval_grid_s", "s"), ("chebpoly.grid_extrema_s", "s"),
    ("certificate.bound_self_s", "s"),
    ("kernelop.apply_inverse_s", "s"), ("jackson.spectrum_s", "s"),
    ("trace_overhead_ratio", "1"),
)


def _count_certificate(tracer, rec, args, out):
    tracer.add(rec[OP], "certificates", 1)
    tracer.add(rec[OP], "squares", out.square_count())


def _count_nodes(tracer, rec, args, out):
    # certify evaluates the unsmoothed polynomial at the quadrature nodes;
    # a node whose value is not positive is dropped from the identity
    parent = rec[PARENT]
    if parent >= 0 and tracer.spans[parent][NAME] == "certificate.certify":
        tracer.add(rec[OP], "nodes", int(out.size))
        tracer.add(rec[OP], "nodes_clamped", int((out <= 0.0).sum()))


def _slice_residual(tracer, rec, args, out):
    tracer.residual_max = max(tracer.residual_max, float(out.residual))


def boundaries(pkg):
    """(span name, owner, attribute, observer) for every traced call site.

    The owner is the namespace the *calling* layer looks the name up in, so
    for example ``grid_extrema`` is traced where ``certificate`` calls it.
    """
    certificate, chebpoly, cli = pkg.certificate, pkg.chebpoly, pkg.cli
    kernelop, sos1d = pkg.kernelop, pkg.sos1d
    return [
        ("certificate.certify", certificate, "certify", _count_certificate),
        ("certificate.verify", certificate, "verify", None),
        ("certificate.kernel_lower_bound", certificate, "kernel_lower_bound", None),
        ("certificate.reconstruct", certificate.SchmudgenCertificate, "reconstruct", None),
        ("kernelop.apply_inverse", certificate, "apply_inverse", None),
        ("jackson.spectrum", kernelop, "spectrum", None),
        ("chebpoly.grid_extrema", certificate, "grid_extrema", None),
        ("chebpoly.eval_grid", chebpoly.ChebPoly, "eval_grid", _count_nodes),
        ("chebpoly.mul", chebpoly.ChebPoly, "__mul__", None),
        ("sos1d.decompose_kernel_slice", certificate, "decompose_kernel_slice", None),
        ("sos1d.lukacs_decompose", sos1d, "lukacs_decompose", _slice_residual),
        ("cli.certificate_to_dict", cli, "certificate_to_dict", None),
        ("cli.certificate_from_dict", cli, "certificate_from_dict", None),
    ]


class Tracer:
    """In-memory span recorder with install/remove of the boundary wrappers."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts: dict = defaultdict(Counter)    # op id -> exact counts
        self.residual_max = 0.0
        self._stack: list = []
        self._saved: list = []

    def add(self, op: int, key: str, value: int) -> None:
        self.counts[op][key] += value

    def _wrap(self, name, fn, observe):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self, rec, args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a traced call or around benchmark code, such as one op."""
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def install(self, pkg) -> None:
        if self._saved:
            raise RuntimeError("trace wrappers already installed")
        for name, owner, attr, observe in boundaries(pkg):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, pkg):
        self.install(pkg)
        try:
            yield self
        finally:
            self.remove()

    def write(self, path) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def aggregate(spans, ops) -> dict:
    """Inclusive time, self time, calls and errors per span name over ``ops``."""
    ops = set(ops)
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = {"incl": Counter(), "self": Counter(), "calls": Counter(),
           "errors": Counter(), "under": Counter()}
    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        name = rec[NAME]
        out["incl"][name] += rec[END] - rec[START]
        out["self"][name] += self_time(rec[START], rec[END], children.get(i, ()))
        out["calls"][name] += 1
        if rec[ERROR] is not None:
            out["errors"][(name, rec[ERROR])] += 1
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        out["under"][(name, parent)] += rec[END] - rec[START]
    return out


def pass_counts(tracer, ops) -> dict:
    """Exact counts of a set of traced ops; the same ops in two passes must agree."""
    agg = aggregate(tracer.spans, ops)
    marks = Counter()
    for op in ops:
        marks.update(tracer.counts.get(op, {}))
    return {
        "sos1d.slices": agg["calls"]["sos1d.decompose_kernel_slice"],
        "sos1d.slice_fail": sum(v for (n, _), v in agg["errors"].items()
                                if n == "sos1d.decompose_kernel_slice"),
        "chebpoly.mul_calls": agg["calls"]["chebpoly.mul"],
        "certificate.squares": marks["squares"],
        "certificate.rungs": agg["calls"]["certificate.certify"],
        "certificate.refusals": agg["errors"][("certificate.certify", "NotCertifiable")],
        "certificate.certificates": marks["certificates"],
        "quadrature.nodes": marks["nodes"],
        "quadrature.nodes_clamped": marks["nodes_clamped"],
        "cli.bytes": marks["bytes"],
    }


def layer_metrics(tracer, traced_ops, first_pass, overhead_ratio: float) -> dict:
    """Per-layer metrics: times are per traced op, counts those of ``first_pass``."""
    agg = aggregate(tracer.spans, traced_ops)
    per_op = 1.0 / max(len(traced_ops), 1)
    incl, own = agg["incl"], agg["self"]
    counts = pass_counts(tracer, first_pass)
    rungs = counts["certificate.rungs"]
    return {
        "sos1d.slice_s": incl["sos1d.decompose_kernel_slice"] * per_op,
        "sos1d.slices": counts["sos1d.slices"],
        "sos1d.slice_fail": counts["sos1d.slice_fail"],
        "sos1d.slice_residual_max": tracer.residual_max,
        "certificate.reconstruct_s": incl["certificate.reconstruct"] * per_op,
        "chebpoly.mul_calls": counts["chebpoly.mul_calls"],
        "chebpoly.mul_s": incl["chebpoly.mul"] * per_op,
        "certificate.squares": counts["certificate.squares"],
        "quadrature.nodes": counts["quadrature.nodes"],
        "quadrature.nodes_clamped": counts["quadrature.nodes_clamped"],
        "certificate.assembly_s": own["certificate.certify"] * per_op,
        "cli.dump_s": incl["bench.dump"] * per_op,
        "cli.load_s": incl["bench.load"] * per_op,
        "cli.bytes": counts["cli.bytes"],
        "chebpoly.gate_s": agg["under"][("chebpoly.grid_extrema", "certificate.certify")] * per_op,
        "certificate.refusals": counts["certificate.refusals"],
        "certificate.rungs": rungs,
        "certificate.useful_rung_ratio": (counts["certificate.certificates"] / rungs
                                          if rungs else 0.0),
        "chebpoly.eval_grid_s": incl["chebpoly.eval_grid"] * per_op,
        "chebpoly.grid_extrema_s": incl["chebpoly.grid_extrema"] * per_op,
        "certificate.bound_self_s": own["certificate.kernel_lower_bound"] * per_op,
        "kernelop.apply_inverse_s": incl["kernelop.apply_inverse"] * per_op,
        "jackson.spectrum_s": incl["jackson.spectrum"] * per_op,
        "trace_overhead_ratio": overhead_ratio,
    }


def profile(tracer, ops) -> dict:
    """Share of op time per span name: inclusive and self (self shares sum to 1)."""
    agg = aggregate(tracer.spans, ops)
    total = agg["incl"]["bench.op"]
    if total <= 0.0:
        return {}
    return {name: {"incl_share": round(agg["incl"][name] / total, 4),
                   "self_share": round(agg["self"][name] / total, 4),
                   "calls": agg["calls"][name]}
            for name in sorted(agg["incl"])}
