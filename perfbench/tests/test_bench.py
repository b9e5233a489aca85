"""Tests of the benchmark itself, on a tiny problem that runs in seconds.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_compare  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_trace import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = bw.traced_run(workload, 3, bw.TINY,
                                            tmp_path_factory.mktemp(workload), run_id="t")
        return cache[workload]

    return get


def test_self_time_is_span_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1, "r", None),
        Span("a", 1.0, 4.0, 0, "r", None),   # overlaps b: together they cover [1, 6]
        Span("b", 3.0, 6.0, 0, "r", None),
        Span("a1", 2.0, 3.0, 1, "r", None),
        Span("c", 8.0, 12.0, 0, "r", None),  # runs past its parent: only [8, 10] counts
        Span("d", 7.0, 7.0, 0, "r", None),   # zero length covers nothing
    ]
    assert bench_trace.self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4, 0])


def test_layer_metrics_take_the_median_over_inner_steps():
    spans = [
        Span(bench_trace.RUN, 0.0, 1.0, -1, "r", None),
        Span(bench_trace.INNER, 0.0, 0.010, 0, "r", None),
        Span("tensor.new", 0.001, 0.003, 1, "r", 4_000_000),
        Span("tensor.new", 0.004, 0.005, 1, "r", 4_000_000),
        Span(bench_trace.INNER, 0.1, 0.120, 0, "r", None),
        Span("tensor.new", 0.101, 0.111, 4, "r", 1_000_000),
        Span(bench_trace.INNER, 0.2, 0.230, 0, "r", None),
    ]
    m = bench_trace.layer_metrics(spans)
    assert m["tensor.new.ms"][0] == pytest.approx(3.0)      # steps: 3, 10, 0 ms
    assert m["tensor.new.calls"][0] == 1                    # steps: 2, 1, 0
    assert m["tensor.new.mb"][0] == pytest.approx(1.0)      # steps: 8, 1, 0 MB
    assert m["trainer.inner_step.self_ms"][0] == pytest.approx(10.0)  # 7, 10, 30 ms
    assert m["dafa.mix.ms"] == (0.0, "ms", "none")


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_tracing_leaves_the_digest_unchanged(traced, workload):
    report = traced(workload)
    assert report.correct, report.problems
    assert len(report.digests) == 3 and len(set(report.digests)) == 1


def test_baseline_reports_no_dafa_or_dam_work(traced):
    baseline = traced("baseline").metrics
    busy = {k: v for k, (v, _) in baseline.items()
            if k.startswith(("dafa.", "dam.")) and v != 0}
    assert busy == {}
    # the same layer map does see the work where it happens
    distill = traced("distill").metrics
    assert distill["dam.decode.calls"][0] > 0 and distill["dafa.discrete.ms"][0] > 0
    search = traced("search").metrics
    assert search["dafa.mix.ms"][0] > 0 and search["optim.adam.ms"][0] > 0
    assert search["dafa.search_graph.ms"][0] > 0


def test_reports_every_metric_benchmark_json_names(traced, tmp_path):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: unit for k, (_, unit) in traced("distill").metrics.items()}
    assert got == per_layer
    timed = bw.timed_run("baseline", 3, 0.01, bw.TINY, tmp_path)
    assert timed.correct, timed.problems
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in timed.metrics.items()} == end_to_end
    assert all(v > 0 for v, _ in timed.metrics.values())


class HalfSpeed:
    """A calibrator that finds the host at half the reference speed."""

    calls = 0

    def median(self, n):
        self.calls += 1
        return 2 * bw.CAL_REF_S


def test_host_speed_correction_scales_by_the_paired_calibration(tmp_path):
    fx = bw.set_up(3, bw.TINY, tmp_path / "setup")
    cfg = bw.make_config("baseline", 3, bw.TINY, str(tmp_path / "data"))
    plain = bw.run_workload("baseline", fx, cfg)
    half = HalfSpeed()
    out = bw.run_workload("baseline", fx, cfg, half)
    assert out.digest == plain.digest and not out.problems
    assert plain.step_ref_s == [] and plain.epoch_ref_s == []
    assert half.calls == -(-len(out.step_s) // bw.CAL_EVERY)
    assert out.step_ref_s == pytest.approx([t / 2 for t in out.step_s])
    assert out.epoch_ref_s == pytest.approx([t / 2 for t in out.epoch_s])
    assert bw.to_ref(0.25, bw.CAL_REF_S) == 0.25


def test_a_digest_mismatch_fails_every_step_of_that_call():
    def outcome(d):
        return bw.Outcome(d, 1.0, [1.0], 10, [0.1], 2.3, 7, [], None)

    attempted, failed, problems = bw._account([outcome("x"), outcome("y"), outcome("x")], "x")
    assert (attempted, failed) == (21, 7)
    assert problems and "call 1" in problems[0]


def test_compare_verdicts():
    assert bench_compare.verdict([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "lower", 0.1)[0] \
        == "regression"
    assert bench_compare.verdict([10, 10.1, 9.9, 10], [10.2, 10.1, 9.9, 10], "lower", 0.1)[0] \
        == "same"
    assert bench_compare.verdict([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "higher", 0.1)[0] \
        == "improved"
    assert bench_compare.verdict([5, 10, 15, 20], [10, 10, 10, 10], "lower", 0.1)[0] \
        == "unresolved"


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "baseline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
