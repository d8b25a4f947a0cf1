"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

jx = run.load_program()


# -- tail rule and failures -----------------------------------------------------------


def test_tail_percentile_is_fixed_by_the_guaranteed_samples():
    assert summary.tail_percentile(100) == 90.0
    assert summary.tail_percentile(160) == 93.75
    # below twenty samples no percentile above the median qualifies
    assert summary.tail_percentile(19) == 50.0
    assert summary.tail_percentile(7) == 50.0
    values = list(range(1, 101))
    # more passes over the same inputs: same percentile, same input, more beyond
    for passes in (1, 3):
        t = summary.timing(values * passes, min_samples=100)
        assert t["tail"] == 90 and t["tail_pct"] == 90.0
        assert t["beyond_tail"] == 10 * passes
        assert t["p50"] == 50


def test_tail_is_a_sample_and_never_below_the_median():
    t = summary.timing([0.4, 0.1, 0.3, 0.2], min_samples=4)
    assert t["p50"] == 0.2 and t["tail"] == 0.2 and t["tail_pct"] == 50.0
    # samples of one op share its median: ten are still ranked beyond the tail
    t = summary.timing([1.0] * 20 + [2.0] * 4 + [3.0] * 8, min_samples=32)
    assert t["tail"] == 2.0 and t["beyond_tail"] == 10
    assert summary.nearest_rank([5.0], 99.0) == 5.0


def test_failures_enter_as_infinity():
    ok = [float(i) for i in range(1, 21)]
    # ten failures sit beyond the tail of 30 samples; an eleventh reaches it
    t = summary.timing(ok + [math.inf] * 10, min_samples=30)
    assert math.isfinite(t["tail"]) and t["beyond_tail"] == 10
    t = summary.timing(ok[:-1] + [math.inf] * 11, min_samples=30)
    assert t["tail"] == math.inf
    t = summary.timing([1.0, 2.0] + [math.inf] * 3, min_samples=5)
    assert t["p50"] == math.inf


def test_failed_op_times_are_infinite():
    f = jx.chebpoly.ChebPoly(1, {(0,): -1.0})        # negative constant: refused
    res = workloads.execute(jx, workloads.Op("cert", "t", f, 2, 0.0))
    assert not res.ok and not res.incorrect
    assert res.failure["stage"] == "certify"
    assert res.failure["type"] == "NotCertifiable"
    assert res.t_result == math.inf and res.t_op == math.inf


# -- scaling to the reference speed, passes and threads ---------------------------------


def test_ops_are_scaled_by_the_probes_around_them(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 0.001)
    monkeypatch.setattr(speed, "PROBE_REACH_S", 0.5)
    log = speed.ProbeLog()
    log.probes = [(0.0, 0.004), (1.0, 0.002), (2.0, 0.001), (10.0, 0.001), (30.0, 0.008)]
    nominal = speed.PROBE_NOMINAL_S
    # a short op: the probes within PROBE_REACH_S of it
    assert log.scale(0.9, 0.95) == nominal / 0.002
    assert log.scale(1.2, 1.6) == nominal * 2 / 0.003
    # a long op: the probes within its own length before and after it
    assert log.scale(9.0, 17.0) == nominal * 3 / 0.004
    # no probe near: the nearest one
    assert log.scale(20.0, 20.1) == nominal / 0.008
    log.between_ops()                            # long after the last probe
    assert len(log.probes) == 6


def test_first_pass_runs_every_op_later_ones_the_repeated(monkeypatch):
    monkeypatch.setattr(speed, "PROBE_GAP_S", 0.0)
    ops = _small_ops()
    ops[0].repeat = False
    log = speed.ProbeLog()
    m = run._measure(jx, workloads, ops, min_passes=3, seconds=0.0, tracer=None, log=log)
    assert [[k for k, _, _ in p] for p in m.passes] == [[0, 1, 2], [1, 2], [1, 2]]
    assert [op_id for p in m.passes for _, _, op_id in p] == list(range(7))
    assert all(res.ok and res.scale > 0.0 for res in m.results())
    assert len(m.results(ops, repeat_only=True)) == 6
    assert len(log.probes) == 1 + 7 + 1            # one before every op, one after the last
    assert all(res.t_busy >= res.t_op for res in m.results())


def test_each_sample_counts_at_its_ops_median_and_failures_stay_infinite():
    m = run.Measured()
    m.passes = [[(0, workloads.OpResult(ok=True, t_op=t), 0),
                 (1, workloads.OpResult(ok=k == 0, t_op=5.0), 1)]
                for k, t in enumerate((1.0, 3.0, 2.0))]
    values = run._op_medians(m, lambda r: r.t_op)
    assert sorted(values) == [2.0, 2.0, 2.0, 5.0, math.inf, math.inf]


def test_goodput_does_not_depend_on_the_number_of_passes():
    def result(busy, ok=True):
        return workloads.OpResult(ok=ok, t_busy=busy, scale=2.0)

    ops = _small_ops()
    ops[0].repeat = False
    m = run.Measured()
    m.passes = [[(0, result(10.0), 0), (1, result(1.0), 1), (2, result(3.0, ok=False), 2)]]
    assert run._goodput(m, ops, scaled=False, repeat_only=False) == 2 / 14.0
    assert run._goodput(m, ops, scaled=False) == 1 / 4.0
    m.passes += [[(1, result(1.0), 3), (2, result(3.0, ok=False), 4)]] * 3
    assert run._goodput(m, ops, scaled=False, repeat_only=False) == 2 / 14.0
    assert run._goodput(m, ops, scaled=True) == 1 / 8.0


def test_blas_threads_are_one_whatever_the_caller_gives(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("JC_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    given = run._pin_threads()
    assert given["OPENBLAS_NUM_THREADS"] == "4" and given["OMP_NUM_THREADS"] is None
    assert given["JC_THREADS"] == "2" and "JC_THREADS" not in os.environ
    assert all(os.environ[var] == "1" for var in run.BLAS_VARS)


# -- self time -----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert summary.self_time(0.0, 10.0, []) == 10.0
    assert summary.self_time(0.0, 10.0, [(1.0, 3.0), (4.0, 6.0)]) == 6.0
    # overlapping children count once; parts outside the span not at all
    assert summary.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert summary.self_time(0.0, 10.0, [(-2.0, 11.0)]) == 0.0


def test_aggregate_self_time_from_recorded_spans():
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0, None],
        ["certificate.certify", 1.0, 9.0, 0, 0, None],
        ["chebpoly.mul", 2.0, 4.0, 1, 0, None],
        ["chebpoly.mul", 5.0, 6.0, 1, 0, "ValueError"],
        ["bench.op", 20.0, 21.0, -1, 1, None],
    ]
    agg = tracing.aggregate(spans, [0])
    assert agg["incl"]["certificate.certify"] == 8.0
    assert agg["self"]["certificate.certify"] == 5.0
    assert agg["self"]["bench.op"] == 2.0
    assert agg["calls"]["chebpoly.mul"] == 2
    assert agg["errors"][("chebpoly.mul", "ValueError")] == 1
    assert agg["under"][("chebpoly.mul", "certificate.certify")] == 3.0
    assert agg["calls"]["bench.op"] == 1


# -- tracing never changes an output -------------------------------------------------------


def _small_ops():
    demo = workloads._to_cheb(jx, workloads.DEMO_POWER, 1)
    q = jx.chebpoly.ChebPoly(2, {(0, 0): 0.3, (1, 0): 0.5, (0, 1): -0.7})
    square = jx.kernelop.apply_forward(q * q + jx.chebpoly.ChebPoly.constant(2, 0.1), 3)
    lo, hi = workloads.dense_extrema(workloads._dense(workloads.DEMO_POWER, 1))
    return [
        workloads.Op("cert", "n2r3", square, 3, 0.0),
        workloads.Op("ladder", "demo", demo, 4, 0.1),
        workloads.Op("bound", "n1", demo, 18, ref_min=lo, ref_max=hi),
    ]


def _run_traced(tracer, ops, first_id=0):
    out = []
    for k, op in enumerate(ops):
        tracer.op = first_id + k
        with tracer.installed(jx), tracer.span("bench.op"):
            out.append(workloads.execute(jx, op, tracer))
    return out


def test_trace_wrappers_do_not_change_outputs():
    ops = _small_ops()
    originals = [(owner, attr, vars(owner)[attr])
                 for _, owner, attr, _ in tracing.boundaries(jx)]
    plain = [workloads.execute(jx, op) for op in ops]
    tracer = tracing.Tracer()
    traced = _run_traced(tracer, ops)
    again = [workloads.execute(jx, op) for op in ops]
    assert all(r.ok for r in plain + traced + again)
    for a, b, c in zip(plain, traced, again):
        assert a.payload == b.payload == c.payload
    # removing the wrappers restores every original function object
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"certificate.certify", "certificate.reconstruct", "chebpoly.mul",
            "sos1d.decompose_kernel_slice", "certificate.kernel_lower_bound",
            "chebpoly.eval_grid", "cli.certificate_to_dict", "bench.dump"} <= names


def test_wrappers_restored_after_an_error():
    tracer = tracing.Tracer()
    with pytest.raises(jx.certificate.NotCertifiable):
        with tracer.installed(jx):
            jx.certificate.certify(jx.chebpoly.ChebPoly(1, {(0,): -1.0}), 0.0, 2)
    assert vars(jx.certificate)["certify"].__module__ == "jacksonsos.certificate"
    assert tracer.spans[0][tracing.ERROR] == "NotCertifiable"


# -- exact counts repeat ---------------------------------------------------------------


def test_exact_counts_repeat_for_a_seed():
    ops = _small_ops()
    first = [workloads.execute(jx, op) for op in ops]
    second = [workloads.execute(jx, op) for op in ops]
    assert run._exact(first) == run._exact(second)
    tracer = tracing.Tracer()
    _run_traced(tracer, ops, 0)
    _run_traced(tracer, ops, len(ops))
    a = tracing.pass_counts(tracer, range(len(ops)))
    b = tracing.pass_counts(tracer, range(len(ops), 2 * len(ops)))
    assert a == b
    assert a["sos1d.slices"] > 0 and a["chebpoly.mul_calls"] > 0
    assert a["quadrature.nodes"] == 4 ** 2 + 7          # n2r3 once, demo at r = 6
    assert a["certificate.refusals"] == 2                # demo refused at r = 4, 5


def test_corpus_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a, _ = workloads.build(jx, name, 5)
        b, _ = workloads.build(jx, name, 5)
        c, _ = workloads.build(jx, name, 6)
        assert [(o.group, o.r, o.eta, o.f.coeffs) for o in a] == \
               [(o.group, o.r, o.eta, o.f.coeffs) for o in b]
        assert [o.f.coeffs for o in a] != [o.f.coeffs for o in c]
        assert sorted(o.group for o in a) == sorted(o.group for o in c)


# -- the command ---------------------------------------------------------------------------


def _command(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _command(ROOT, "--workload", "bound-sweep", "--seed", "3",
                    "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
           [(m["name"], m["unit"]) for m in spec[key]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "bound-sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
