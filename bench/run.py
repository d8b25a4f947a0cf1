"""jacksonsos benchmark: certificates, their checking, and bound sweeps.

Run from the root of a source checkout:

    python3 bench/run.py --workload cert-multivar --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op starts when the previous one
has returned.  A run imports the package from ``src/`` of the checkout,
builds the workload's inputs from ``--seed`` and sets up (corpus and
warm-up three times, the median reported).  Then it runs the seeded corpus
in passes: the first pass runs every op, later passes the ops marked to
repeat.  It makes at least the workload's minimum number of passes, and
more while another pass fits in ``--seconds``.  Every output is checked.
Every time is scaled to a reference machine speed (``speed.py``); the
detail record holds the wall times too.  The last line of standard output
is the result, the line before it a detail record (environment, every
metric of the workload with its sample counts, failures, exact counts).

``--trace 0`` reports the end-to-end metrics and installs no wrapper.
``--trace 1`` runs every op twice in a row, plain and with the layer
wrappers of ``tracing.py`` installed (which twin goes first alternates),
checks that both give the same output, reports the per-layer metrics from
the traced twins, and writes the spans to ``.bench_out/`` in the checkout.

The exit code is 0 when the run finished, 1 when a check failed (a failed
warm-up op prints no result) and 2 when the program could not be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import summary

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
#: passes of a traced run, which runs every op twice
TRACED_MIN_PASSES = 2
#: no pass beyond the minimum starts unless it ends within this many
#: ``--seconds`` of wall time, however slow the machine is
WALL_CAP = 1.25
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_threads() -> dict:
    """One client thread in the program and one BLAS thread; returns what was given.

    The program's LAPACK calls are small (companion matrices of degree r),
    and on 2 cores two BLAS threads made them slower and their times more
    spread than one thread did.
    """
    before = {"JC_THREADS": os.environ.pop("JC_THREADS", None)}
    for var in BLAS_VARS:
        before[var] = os.environ.get(var)
        os.environ[var] = "1"
    return before


def load_program():
    """Import ``jacksonsos`` from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jacksonsos
    import jacksonsos.certificate
    import jacksonsos.chebpoly
    import jacksonsos.cli
    import jacksonsos.kernelop
    import jacksonsos.sos1d

    where = Path(jacksonsos.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"jacksonsos was imported from {where}, not from {src}")
    return jacksonsos


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src" / "jacksonsos").glob("*.py"))
                       + list(HERE.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int, before: dict) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": _nproc(),
        "JC_THREADS": "unset (1)",
        "JC_THREADS_given": before["JC_THREADS"],
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "blas_threads_given": {var: before[var] for var in BLAS_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- measuring ----------------------------------------------------------------------


class SetupFailed(Exception):
    """A warm-up op failed, so no measurement is made."""


def _setup(jx, workloads, name: str, seed: int):
    """Corpus and warm-up ``SETUP_REPS`` times; returns (ops, wall seconds of each)."""
    wall = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ops, warmup = workloads.build(jx, name, seed)
        for op in warmup:
            res = workloads.execute(jx, op)
            if not res.ok:
                raise SetupFailed(f"warm-up op failed: {res.failure}")
        wall.append(perf_counter() - t0)
    return ops, wall


class Measured:
    """What ``_measure`` saw: per pass a list of (op index, OpResult, op id)."""

    def __init__(self):
        self.passes: list = []
        self.wall: list = []          # wall seconds per pass
        self.scaled: list = []        # the same, scaled to the reference speed
        self.overhead = [0.0, 0.0]    # [traced, untraced] wall seconds of twin pairs
        self.mismatches: list = []    # op ids whose twins gave different outputs

    def results(self, ops=None, repeat_only=False, pass_no=None):
        chosen = self.passes if pass_no is None else [self.passes[pass_no]]
        return [res for p in chosen for k, res, _ in p
                if not repeat_only or ops[k].repeat]


def _measure(jx, workloads, ops, min_passes: int, seconds: float, tracer, log) -> Measured:
    """At least ``min_passes`` passes over ``ops``, more while another fits.

    The first pass runs every op, later ones the ops marked ``repeat``.
    Another pass starts while it fits in ``seconds`` of scaled time and in
    ``WALL_CAP * seconds`` of wall time.  Probes run between ops, and once
    the last op has returned every op gets the scale of the probes around
    it.  In a traced run the results are those of the untraced twins, and
    the op id names the traced twin.
    """
    m = Measured()
    timed = []
    t_start = perf_counter()
    op_id = 0
    while True:
        t_pass = perf_counter()
        results = []
        for k, op in enumerate(ops):
            if m.passes and not op.repeat:
                continue
            log.between_ops()
            t0 = perf_counter()
            if tracer is None:
                res = workloads.execute(jx, op)
            else:
                tracer.op = op_id
                # which twin runs first alternates, so neither gains from going second
                if op_id % 2:
                    res = workloads.execute(jx, op)
                with tracer.installed(jx), tracer.span("bench.op"):
                    twin = workloads.execute(jx, op, tracer)
                if not op_id % 2:
                    res = workloads.execute(jx, op)
                if twin.payload != res.payload or twin.ok != res.ok:
                    m.mismatches.append(op_id)
                if res.ok and twin.ok:
                    m.overhead[0] += twin.t_op
                    m.overhead[1] += res.t_op
            res.t_busy = perf_counter() - t0
            timed.append((res, t0))
            results.append((k, res, op_id))
            op_id += 1
        t_end = perf_counter()
        m.passes.append(results)
        m.wall.append(t_end - t_pass)
        m.scaled.append(m.wall[-1] * log.scale(t_pass, t_end))
        if len(m.passes) >= min_passes and (
                sum(m.scaled) + m.scaled[-1] > seconds
                or t_end - t_start + m.wall[-1] > WALL_CAP * seconds):
            break
    log.take()
    for res, t0 in timed:
        res.scale = log.scale(t0, t0 + res.t_busy)
    return m


def _exact(results) -> dict:
    """Counts of a list of results that must repeat exactly for a given seed."""
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.payload.encode())
        digest.update(b"\0")
    return {
        "cert_bytes": sum(len(r.payload) for r in results if r.squares),
        "certificate.squares": sum(r.squares for r in results),
        "certificate.rungs": sum(r.rungs for r in results),
        "certificate.refusals": sum(r.refusals for r in results),
        "failed": sum(1 for r in results if not r.ok),
        "output_sha256": digest.hexdigest(),
    }


def _record_counts(name: str, seed: int, trace: int, counts: dict, digest: str):
    """Compare with an earlier run of the same code and seed, then record."""
    path = OUT_DIR / "counts" / f"{name}-seed{seed}-trace{trace}-{digest[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return {k: [earlier.get(k), v] for k, v in counts.items()
                    if earlier.get(k) != v}
    path.write_text(json.dumps(counts, sort_keys=True))
    return {}


def _metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def _by_op(m: Measured, value) -> dict:
    """Op index -> (ok, value(result)) for each of its samples over the run."""
    out = {}
    for results in m.passes:
        for k, res, _ in results:
            out.setdefault(k, []).append((res.ok, value(res)))
    return out


def _op_medians(m: Measured, value) -> list:
    """Every sample's value, replaced by the median of its op's successful samples.

    A failed sample stays +inf.  Percentiles over these name an input at
    its typical time over the run, not at the luckiest or unluckiest moment.
    """
    out = []
    for samples in _by_op(m, value).values():
        ok = [v for good, v in samples if good]
        mid = statistics.median(ok) if ok else math.inf
        out += [mid if good else math.inf for good, _ in samples]
    return out


def _goodput(m: Measured, ops, scaled: bool, repeat_only: bool = True) -> float:
    """Successful ops per second the client spends on them.

    Each op counts with its median time over the run, so the figure does
    not depend on how many passes a run makes.  By default only the ops
    that every pass repeats count: an op timed once a run (the heavy
    configs of ``cert-multivar``) lasts seconds, the speed of a shared
    machine changes within it, and no probe can run during it.
    """
    by_op = _by_op(m, lambda r: r.t_busy * (r.scale if scaled else 1.0))
    by_op = {k: v for k, v in by_op.items() if ops[k].repeat or not repeat_only}
    good = sum(sum(ok for ok, _ in v) / len(v) for v in by_op.values())
    return good / sum(statistics.median(t for _, t in v) for v in by_op.values())


def end_to_end(name, ops, m: Measured, setup_s, min_samples: int) -> tuple:
    """(contract metrics, every metric of the workload with its details).

    Times are scaled to the reference speed and taken as each op's median
    over the run; ``wall`` in the details holds the same figures from wall
    times.
    """
    flat = m.results()
    good = sum(1 for r in flat if r.ok)
    result = summary.timing(_op_medians(m, lambda r: r.t_result * r.scale), min_samples)
    whole = summary.timing(_op_medians(m, lambda r: r.t_op * r.scale), min_samples)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    common = {
        "setup_s": _metric(setup_s, "s", repetitions=SETUP_REPS),
        "goodput_per_s": _metric(_goodput(m, ops, scaled=True), "1/s",
                                 every_op=_goodput(m, ops, scaled=True, repeat_only=False)),
        "fail_ratio": _metric((len(flat) - good) / len(flat), "1"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    detail = dict(common)
    if name == "bound-sweep":
        detail["bound_p50_s"] = _metric(result["p50"], "s", samples=result["samples"])
        detail["bound_tail_s"] = _metric(result["tail"], "s", **result)
        gaps = [r.gap_rel for r in m.results(pass_no=0) if r.ok]
        detail["bound_gap_rel"] = _metric(statistics.median(gaps) if gaps else math.nan, "1")
    else:
        check = summary.timing(_op_medians(m, lambda r: (r.t_op - r.t_result) * r.scale),
                               min_samples)
        detail["certify_p50_s"] = _metric(result["p50"], "s", samples=result["samples"])
        detail["certify_tail_s"] = _metric(result["tail"], "s", **result)
        detail["verify_p50_s"] = _metric(check["p50"], "s", samples=check["samples"])
        detail["verify_tail_s"] = _metric(check["tail"], "s", **check)
        detail["cert_bytes"] = _metric(_exact(m.results(pass_no=0))["cert_bytes"], "B")
    contract = {
        "setup_s": common["setup_s"],
        "result_p50_s": _metric(result["p50"], "s"),
        "result_tail_s": _metric(result["tail"], "s"),
        "op_p50_s": _metric(whole["p50"], "s"),
        "op_tail_s": _metric(whole["tail"], "s"),
        "goodput_per_s": common["goodput_per_s"],
        "peak_rss_mb": common["peak_rss_mb"],
    }
    detail["op_p50_s"] = _metric(whole["p50"], "s", samples=whole["samples"])
    detail["op_tail_s"] = _metric(whole["tail"], "s", **whole)
    wall_result = summary.timing(_op_medians(m, lambda r: r.t_result), min_samples)
    wall_op = summary.timing(_op_medians(m, lambda r: r.t_op), min_samples)
    detail["wall"] = {"result_p50_s": wall_result["p50"], "result_tail_s": wall_result["tail"],
                      "op_p50_s": wall_op["p50"], "op_tail_s": wall_op["tail"],
                      "goodput_per_s": _goodput(m, ops, scaled=False), "wall_s": sum(m.wall)}
    return {k: {"value": v["value"], "unit": v["unit"]} for k, v in contract.items()}, detail


def _groups(ops, m: Measured) -> dict:
    """Median times and sizes per op shape (for the baseline cross-check)."""
    out = {}
    for op in ops:
        out.setdefault(op.group, {"ops": 0, "result_s": [], "op_s": [], "wall_result_s": [],
                                  "wall_op_s": [], "squares": 0, "bytes": 0})
    for i, results in enumerate(m.passes):
        for k, res, _ in results:
            g = out[ops[k].group]
            if i == 0:
                g["ops"] += 1
                g["squares"] += res.squares
                g["bytes"] += len(res.payload) if res.squares else 0
            g["result_s"].append(res.t_result * res.scale)
            g["op_s"].append(res.t_op * res.scale)
            g["wall_result_s"].append(res.t_result)
            g["wall_op_s"].append(res.t_op)
    for g in out.values():
        g["samples"] = len(g["op_s"])
        for key in ("result_s", "op_s", "wall_result_s", "wall_op_s"):
            g[key] = statistics.median(g[key])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    before = _pin_threads()
    try:
        jx = load_program()
    except ImportError as exc:
        print(f"cannot load jacksonsos from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    # imported once the BLAS thread settings are in place, as they import numpy
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import_s = perf_counter() - T_START
    env = environment(args.seed, before)

    try:
        ops, setup_wall = _setup(jx, workloads, args.workload, args.seed)
    except SetupFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    setup_end = perf_counter()
    log = speed.ProbeLog()
    tracer = tracing.Tracer() if args.trace else None
    min_passes = TRACED_MIN_PASSES if args.trace else workloads.MIN_PASSES[args.workload]
    m = _measure(jx, workloads, ops, min_passes, args.seconds, tracer, log)
    # this process's import plus the median set-up, scaled by the probes of
    # the first seconds after it (set-up itself is too short to hold many)
    setup_s = (import_s + statistics.median(setup_wall)) * log.scale(T_START, setup_end)
    repeated = sum(1 for op in ops if op.repeat)
    min_samples = len(ops) + (min_passes - 1) * repeated

    contract, detail = end_to_end(args.workload, ops, m, setup_s, min_samples)
    flat = [(k, res) for results in m.passes for k, res, _ in results]
    failures = [dict(res.failure, group=ops[k].group) for k, res in flat if not res.ok]
    problems = [f"op {k} ({ops[k].group}): {res.failure}" for k, res in flat if res.incorrect]
    exact = [_exact(m.results(ops, repeat_only=True, pass_no=i)) for i in range(len(m.passes))]
    if any(e != exact[0] for e in exact):
        problems.append("exact counts differ between passes of one corpus")
    if m.mismatches:
        problems.append(f"trace wrappers changed the output of ops {m.mismatches[:10]}")

    counts = _exact(m.results(pass_no=0))
    probes = [seconds for _, seconds in log.probes]
    record = {
        "benchmark": "jacksonsos", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "loop": "closed, 1 client", "passes": len(m.passes), "min_passes": min_passes,
        "ops_first_pass": len(ops), "ops_per_later_pass": repeated,
        "pass_s": m.wall, "pass_scaled_s": m.scaled,
        "probe_s": {"nominal": speed.PROBE_NOMINAL_S, "count": len(probes),
                    "median": statistics.median(probes), "min": min(probes),
                    "max": max(probes)},
        "setup": {"import_s": import_s, "corpus_and_warmup_s": setup_wall},
        "metrics": detail, "groups": _groups(ops, m),
        "failures": failures[:50],
    }
    metrics = contract
    if tracer is not None:
        ratio = m.overhead[0] / m.overhead[1] if m.overhead[1] > 0 else math.nan
        ids = [[(k, op_id) for k, _, op_id in results] for results in m.passes]
        all_ids = [op_id for p in ids for _, op_id in p]
        first = [op_id for _, op_id in ids[0]]
        layer = tracing.layer_metrics(tracer, all_ids, first, ratio)
        traced_counts = [tracing.pass_counts(tracer, [i for k, i in p if ops[k].repeat])
                         for p in ids]
        if any(c != traced_counts[0] for c in traced_counts):
            problems.append("traced exact counts differ between passes of one corpus")
        counts.update(tracing.pass_counts(tracer, first))
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in tracing.LAYER_UNITS}
        group_of = {op_id: ops[k].group for p in ids for k, op_id in p}
        record["profile"] = tracing.profile(tracer, all_ids)
        record["profile_by_group"] = {
            group: tracing.profile(tracer, [i for i in all_ids if group_of[i] == group])
            for group in sorted(set(group_of.values()))}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    drift = _record_counts(args.workload, args.seed, args.trace, counts,
                           env["source_sha256"])
    if drift:
        problems.append(f"exact counts differ from an earlier run with this seed: {drift}")
    record["exact_counts"] = counts
    record["problems"] = problems

    print(json.dumps(record, default=str))
    print(json.dumps({"correct": not problems, "attempted": len(flat),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
