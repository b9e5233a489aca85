"""Compare two results files of the sokd benchmark.

For each workload and end-to-end metric it prints the median and quartiles
of both sides, the change of the median, and a verdict against the bound
that BENCHMARK.json fixes for the metric:

    regression   the median got worse by more than the bound
    improved     the median got better by more than the bound
    unresolved   one side's quartile spread is wider than the bound (unless
                 every run of the second side beats every run of the first)
    same         otherwise
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_results(path) -> dict:
    """workload -> list of metric dicts, from the untraced records."""
    out = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace") == 0:
            out[record["workload"]].append(
                {name: m["value"] for name, m in record["metrics"].items()})
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    _, m_a, _ = quartiles(before)
    _, m_b, _ = quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (m_b - m_a) / abs(m_a) if m_a else 0.0
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for q1, m, q3 in (quartiles(before), quartiles(after)))
    if spread > bound:
        all_better = all(sign * (b - a) < 0 for a in before for b in after)
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "same", worse


def compare(before_path, after_path, spec: dict) -> tuple[list[str], int]:
    before, after = load_results(before_path), load_results(after_path)
    lines = [f"{'workload':<9} {'metric':<19} {'before q1/med/q3':>28} "
             f"{'after q1/med/q3':>28} {'change':>8} {'bound':>6}  verdict"]
    regressions = 0
    for workload in sorted(set(before) | set(after)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [m[name] for m in before.get(workload, ()) if name in m]
            b = [m[name] for m in after.get(workload, ()) if name in m]
            if not a or not b:
                lines.append(f"{workload:<9} {name:<19} missing on one side")
                continue
            result, worse = verdict(a, b, metric["better"], metric["bound"])
            regressions += result == "regression"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            lines.append(f"{workload:<9} {name:<19} {fmt(a):>28} {fmt(b):>28} "
                         f"{100 * worse:+7.1f}% {metric['bound']:>6}  {result}"
                         f"  (n={len(a)}/{len(b)})")
    return lines, regressions


def main(before_path, after_path, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    lines, regressions = compare(before_path, after_path, spec)
    print("\n".join(lines))
    print(f"change: positive is worse; {regressions} regression(s)")
    return 1 if regressions else 0
