"""The sokd benchmark command.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a checkout. `--trace 0` measures the end-to-end
metrics, `--trace 1` the per-layer metrics of a separate traced run. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the full record, with the machine's
environment, is appended to `perfbench/out/results.jsonl` (or
`--results`). The exit code is 0 only when every output check passed.
See perfbench/README.md.
"""

import os
import sys

# the BLAS thread count must be in the environment before numpy loads;
# one thread keeps the conv backward steady when another process shares
# the cores
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description="sokd benchmark")
    p.add_argument("--workload", choices=("search", "distill", "baseline"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                   help="JSON-lines file the full result record is appended to")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                   help="compare two results files instead of running")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path):
    """HEAD of the checkout's .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(ROOT),
    }


def _import_bench():
    """Import the benchmark modules against the checkout's own sources."""
    if not (SRC / "sokd" / "__init__.py").is_file():
        raise ImportError(f"no sokd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sokd

    if SRC.resolve() not in Path(sokd.__file__).resolve().parents:
        raise ImportError(f"sokd was imported from {sokd.__file__}, not from {SRC}")
    import bench_workloads

    return bench_workloads


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare is not None:
        import bench_compare

        return bench_compare.main(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    try:
        bw = _import_bench()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print(f"# env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"threads {env['threads']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
          f"git {env['git_sha']}")
    # a terminated run still removes its scratch data
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
            report = bw.traced_run(args.workload, args.seed, bw.FULL, workdir,
                                   run_id=f"{args.workload}-s{args.seed}-{os.getpid()}",
                                   trace_path=trace_path)
            print(f"# chrome trace: {trace_path}")
        else:
            report = bw.timed_run(args.workload, args.seed, args.seconds, bw.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scopes = report.notes.pop("scopes", {})
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(report.notes)}")
    print(f"# output check: {'pass' if report.correct else 'FAIL'}; failed_step_ratio "
          f"{report.failed / max(1, report.attempted):.4f} ({report.failed}/{report.attempted} "
          f"steps); digest {report.digests[0][:16] if report.digests else '-'}")
    for problem in report.problems:
        print(f"#   {problem}")
    for name, (value, unit) in report.metrics.items():
        scope = f"  [{scopes[name]}]" if name in scopes else ""
        print(f"{name} = {value:.6g} {unit}{scope}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report.metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": report.correct, "attempted": report.attempted,
              "failed": report.failed, "metrics": metrics, "digests": report.digests,
              "notes": report.notes, "env": env}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": report.correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
