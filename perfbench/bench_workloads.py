"""Set-up, workloads and output checks of the sokd benchmark.

Every workload goes through the trainer's own entry points,
`trainer.run_search` and `trainer.run_distill`, as the CLI does. Timing
probes and the tracer wrap module functions from outside; nothing under
`src/` changes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sokd import autodiff, dafa, dam, data, io, models, optim, tensor, trainer
from sokd.config import RunConfig
from sokd.errors import SokdError

import bench_trace

SOKD = SimpleNamespace(tensor=tensor, autodiff=autodiff, models=models, dafa=dafa, dam=dam,
                       optim=optim, trainer=trainer, data=data, io=io)
SOKD_MODULES = tuple(vars(SOKD).values())

WORKLOADS = ("search", "distill", "baseline")

# the frozen sub-policy of the distill workload; gates open with the
# largest allowed probability so that every step does the same DAFA work
DISTILL_OPS = ("additive_gaussian_noise", "feature_mask")
DISTILL_M = 0.1

SETUP_REPEATS = 3
MIN_CALLS = 2
EVAL_PER_ROUND = 8
# host-speed calibration: a burst of CAL_BURST samples before every
# CAL_EVERY-th inner step, and before and after each evaluation and each
# set-up
CAL_BURST = 5
CAL_EVERY = 10


@dataclass(frozen=True)
class Sizes:
    """Problem size. FULL is the desk task of the acceptance suite's
    five-seed study; the teacher gets a short fixed pretraining schedule
    so that set-up can be repeated within one run."""

    classes: int = 10
    train_per_class: int = 400
    test_per_class: int = 100
    image_size: int = 16
    batch_size: int = 64
    epochs: int = 2
    teacher_images: int = 512


FULL = Sizes()
TINY = Sizes(classes=4, train_per_class=12, test_per_class=4, image_size=8, batch_size=16,
             epochs=1, teacher_images=16)


def make_config(workload: str, seed: int, sizes: Sizes, data_path: str) -> RunConfig:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = RunConfig()
    cfg.task = "search" if workload == "search" else "distill"
    cfg.seed = seed
    cfg.mode = "baseline" if workload == "baseline" else "sokd"
    cfg.data.path = data_path
    cfg.data.classes = sizes.classes
    cfg.data.train_per_class = sizes.train_per_class
    cfg.data.test_per_class = sizes.test_per_class
    cfg.data.image_size = sizes.image_size
    cfg.train.batch_size = sizes.batch_size
    cfg.train.total_epochs = sizes.epochs
    cfg.train.search_epochs = sizes.epochs if workload == "search" else 0
    cfg.validate()
    return cfg


def distill_policy() -> dafa.DiscretePolicy:
    ops = [dafa.OpChoice(kind, dafa.BETA_MAX, DISTILL_M) for kind in DISTILL_OPS]
    return dafa.DiscretePolicy(dafa.SubPolicy(ops), index=1)


@dataclass
class Fixture:
    """What set-up hands to the workloads."""

    teacher: models.Backbone
    train: data.Dataset
    test: data.Dataset
    feats: dict


def set_up(seed: int, sizes: Sizes, workdir: Path) -> Fixture:
    """The CLI walkthrough up to the first training step: generate and load
    the dataset, pretrain the teacher, save and load it back, initialise
    the training state and cache the teacher's features."""
    data_dir = workdir / "data"
    cfg = make_config("search", seed, sizes, str(data_dir))
    data.gen_synthetic_dataset(data_dir, cfg.data.classes, cfg.data.train_per_class,
                               cfg.data.test_per_class, cfg.data.image_size,
                               cfg.data.channels, seed)
    train_ds = data.load_dataset(data_dir, "train")
    test_ds = data.load_dataset(data_dir, "test")
    rng = tensor.Rng(seed)
    spec = trainer.arch_from_config(cfg.teacher, cfg.data, "teacher")
    teacher = models.build_backbone(spec, rng.child("teacher-init"))
    teacher, _ = models.pretrain_teacher(
        teacher, train_ds.subset(np.arange(sizes.teacher_images)), 1,
        cfg.train.teacher_lr, rng.child("teacher-train"), momentum=cfg.train.momentum,
        batch_size=cfg.train.batch_size)
    models.save_backbone(workdir / "teacher", teacher)
    teacher = models.load_backbone(workdir / "teacher")
    state = trainer.init_train_state(cfg, teacher, tensor.Rng(seed))
    train_part, val_part = data.split_train_val(train_ds, cfg.train.val_fraction,
                                                tensor.Rng(seed).child("split"))
    state.cache_teacher_features("train", train_part)
    state.cache_teacher_features("val", val_part)
    return Fixture(teacher, train_ds, test_ds, state.teacher_feats)


# ---------------------------------------------------------------------------
# host-speed calibration

# time of one `Calibrator()` sample on the reference host when it is lightly
# loaded (README, "Host-speed correction"); a timing t taken next to
# calibration time c is reported as t * CAL_REF_S / c, the time it would
# take at that speed
CAL_REF_S = 0.0008


class Calibrator:
    """A fixed numpy and Python kernel that does not use sokd: a small
    matmul, a strided copy with elementwise work over 1 MB, and a little
    interpreter work, about the mix of a training step. Timed right next
    to the work it calibrates, it measures how fast the shared host runs
    at that moment. Each sample runs the kernel once untimed first, and
    samples are taken in bursts whose median is used, so that what the
    work before a burst left in the caches does not count."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 576)).astype(np.float32)
        self.b = rng.standard_normal((576, 64)).astype(np.float32)
        self.x = rng.standard_normal((64, 16, 18, 18)).astype(np.float32)

    def _kernel(self) -> None:
        self.a @ self.b
        y = np.ascontiguousarray(self.x[:, :, 1:17, 1:17])
        (np.maximum(y, 0.0) * 1.5).sum()
        d = {}
        for i in range(64):
            d[i & 7] = d.get(i & 7, 0) + i

    def __call__(self) -> float:
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def median(self, n: int) -> float:
        return statistics.median(self() for _ in range(n))


def to_ref(seconds: float, cal_s: float) -> float:
    """A time taken next to calibration time `cal_s`, at reference speed."""
    return seconds * CAL_REF_S / cal_s


# ---------------------------------------------------------------------------
# one run of a workload, with timing probes and output checks

@dataclass
class Probe:
    """Timing and counting wrappers around the trainer's own calls. With a
    calibrator, a calibration burst runs before every CAL_EVERY-th inner
    step, outside its timing."""

    calibrate: Calibrator | None = None
    step_s: list = field(default_factory=list)
    bursts: list = field(default_factory=list)       # burst medians
    burst_epoch: list = field(default_factory=list)  # per burst, its epoch
    step_burst: list = field(default_factory=list)   # per inner step, the latest burst
    cal_cost: dict = field(default_factory=dict)     # epoch -> seconds spent calibrating
    epoch_starts: list = field(default_factory=list)
    eval_starts: list = field(default_factory=list)
    inner: int = 0
    outer: int = 0
    nonfinite: int = 0

    def install(self, patcher: bench_trace.Patcher) -> None:
        clock = time.perf_counter

        def inner(fn):
            def wrapped(state, batch):
                if self.calibrate is not None:
                    epoch = len(self.epoch_starts) - 1
                    if self.inner % CAL_EVERY == 0:
                        t0 = clock()
                        self.bursts.append(self.calibrate.median(CAL_BURST))
                        self.burst_epoch.append(epoch)
                        self.cal_cost[epoch] = self.cal_cost.get(epoch, 0.0) + clock() - t0
                    self.step_burst.append(len(self.bursts) - 1)
                t0 = clock()
                record = fn(state, batch)
                self.step_s.append(clock() - t0)
                self.inner += 1
                if not (math.isfinite(record["total_loss"]) and math.isfinite(record["task_loss"])):
                    self.nonfinite += 1
                return record
            return wrapped

        def outer(fn):
            def wrapped(state, batch):
                value = fn(state, batch)
                self.outer += 1
                if not math.isfinite(value):
                    self.nonfinite += 1
                return value
            return wrapped

        def marker(times):
            def make(fn):
                def wrapped(*args, **kwargs):
                    times.append(clock())
                    return fn(*args, **kwargs)
                return wrapped
            return make

        patcher.function(trainer, "inner_step", inner)
        patcher.function(trainer, "outer_step", outer)
        patcher.function(trainer, "lr_at_epoch", marker(self.epoch_starts))
        patcher.function(trainer, "classification_accuracy", marker(self.eval_starts))


@dataclass
class Outcome:
    digest: str
    wall_s: float        # the whole entry-point call
    epoch_s: list        # per epoch: its start to the next one's, or to the final
                         # evaluation, less the calibration samples taken in it
    images: int          # training images per epoch
    step_s: list
    task_loss_end: float
    planned_steps: int
    problems: list
    student: models.Backbone
    step_ref_s: list = field(default_factory=list)   # step_s at reference speed
    epoch_ref_s: list = field(default_factory=list)  # epoch_s at reference speed


def planned_steps(workload: str, cfg: RunConfig, n_train: int) -> tuple[int, int]:
    n_val = int(round(n_train * cfg.train.val_fraction))
    per_epoch = math.ceil((n_train - n_val) / cfg.train.batch_size)
    outer = math.ceil(n_val / cfg.train.batch_size) if workload == "search" else 0
    return per_epoch * cfg.train.total_epochs, outer * cfg.train.total_epochs


def digest(result, cfg: RunConfig) -> str:
    """SHA-256 of the metrics rows, area rows, policy documents and final
    weights of a run."""
    h = hashlib.sha256()
    h.update(json.dumps(result.metrics, sort_keys=True).encode())
    h.update(json.dumps(result.area_rows, sort_keys=True).encode())
    if result.policy is not None:
        h.update(dafa.policy_to_document(result.policy).encode())
    if result.discrete is not None:
        h.update(dafa.discrete_to_document(result.discrete, cfg.policy.tau0,
                                           cfg.policy.lam).encode())
    state = result.state
    weights = {f"student.{n}": w for n, w in state.student.weights.items()}
    weights["adapter.w"] = state.adapter.w
    weights.update({f"head.{n}": w for n, w in state.head.weights.items()})
    for name in sorted(weights):
        h.update(name.encode())
        h.update(weights[name].data.tobytes())
    h.update(repr(result.final_top1).encode())
    return h.hexdigest()


def run_workload(workload: str, fx: Fixture, cfg: RunConfig,
                 calibrate: Calibrator | None = None) -> Outcome:
    """One call of the workload's entry point, checked: every loss finite,
    every planned step done. With a calibrator, the step and epoch times
    are also given at reference speed: a step paired with the median of
    the latest burst before it and the bursts on either side of that one,
    an epoch with the median of its bursts."""
    probe = Probe(calibrate)
    patcher = bench_trace.Patcher([trainer])
    probe.install(patcher)
    n_inner, n_outer = planned_steps(workload, cfg, len(fx.train))
    problems = []
    t0 = time.perf_counter()
    try:
        if workload == "search":
            result = trainer.run_search(cfg, fx.teacher, fx.train, fx.test)
        else:
            state = trainer.init_train_state(cfg, fx.teacher, tensor.Rng(cfg.seed))
            state.teacher_feats = {"train": fx.feats["train"]}
            result = trainer.run_distill(cfg, fx.teacher, fx.train, fx.test,
                                         discrete=distill_policy() if cfg.mode == "sokd" else None,
                                         state=state)
    except SokdError as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        result = None
    finally:
        wall = time.perf_counter() - t0
        patcher.restore()
    if probe.nonfinite:
        problems.append(f"{probe.nonfinite} non-finite step losses")
    if (probe.inner, probe.outer) != (n_inner, n_outer):
        problems.append(f"ran {probe.inner}/{probe.outer} inner/outer steps, "
                        f"planned {n_inner}/{n_outer}")
    if result is None:
        return Outcome("", wall, [], 0, probe.step_s, float("nan"), n_inner + n_outer,
                       problems, None)
    for row in result.metrics:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"non-finite {key} in epoch {row['epoch']}")
    train_rows = [row for row in result.metrics if row["split"] == "train"]
    n_train_part = len(fx.train) - int(round(len(fx.train) * cfg.train.val_fraction))
    marks = probe.epoch_starts + probe.eval_starts[-1:]
    epoch_s = [b - a for a, b in zip(marks, marks[1:])]
    step_ref_s, epoch_ref_s = [], []
    if calibrate is not None:
        b = probe.bursts
        step_ref_s = [to_ref(t, statistics.median(b[max(0, i - 1):i + 2]))
                      for t, i in zip(probe.step_s, probe.step_burst)]
        for k in range(len(epoch_s)):
            cal = [c for c, e in zip(b, probe.burst_epoch) if e == k]
            epoch_s[k] -= probe.cal_cost.get(k, 0.0)
            epoch_ref_s.append(to_ref(epoch_s[k], statistics.median(cal)))
    return Outcome(digest(result, cfg), wall, epoch_s, n_train_part,
                   probe.step_s, train_rows[-1]["task_loss"], n_inner + n_outer, problems,
                   result.state.student, step_ref_s, epoch_ref_s)


# ---------------------------------------------------------------------------
# the two kinds of benchmark run

@dataclass
class Report:
    metrics: dict          # name -> (value, unit)
    attempted: int
    failed: int
    problems: list
    digests: list
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and len(set(self.digests)) == 1


def _account(outcomes, reference: str):
    """Steps attempted and failed; a call that fails any check fails all
    of its steps."""
    attempted = failed = 0
    problems = []
    for k, out in enumerate(outcomes):
        attempted += out.planned_steps
        bad = list(out.problems)
        if out.digest != reference:
            bad.append(f"digest {out.digest[:12]} differs from {reference[:12]}")
        if bad:
            failed += out.planned_steps
            problems.extend(f"call {k}: {p}" for p in bad)
    return attempted, failed, problems


def _p90(values) -> float:
    """Ninth decile cut (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timed_run(workload: str, seed: int, seconds: float, sizes: Sizes, workdir: Path) -> Report:
    """End-to-end metrics from SETUP_REPEATS set-ups, then rounds until
    `seconds` have passed since the first set-up began.

    A round is one whole call of the entry point and EVAL_PER_ROUND
    forward-only evaluations of the student it trained. There are at least
    MIN_CALLS rounds, so at least that many calls whose digests can be
    compared.

    Every timing is paired with calibration samples taken right next to it
    and reported at reference speed: each inner step with the bursts
    around it, each epoch with the median of its bursts, each
    evaluation with the mean of the bursts right before and after it, each
    set-up with the median of the bursts before and after it. The same figures in host time go to
    the notes."""
    calibrate = Calibrator()
    calibrate.median(CAL_BURST)  # warm-up
    setup_s, setup_ref, eval_s, eval_ref, outcomes, fx = [], [], [], [], [], None
    cfg = make_config(workload, seed, sizes, str(workdir / "data"))
    t_start = time.perf_counter()
    for k in range(SETUP_REPEATS):
        sub = workdir / f"setup{k}"
        fx = None  # one fixture in memory at a time
        cal = [calibrate() for _ in range(CAL_BURST)]
        t0 = time.perf_counter()
        fx = set_up(seed, sizes, sub)
        setup_s.append(time.perf_counter() - t0)
        cal += [calibrate() for _ in range(CAL_BURST)]
        setup_ref.append(to_ref(setup_s[-1], statistics.median(cal)))
        shutil.rmtree(sub)
        gc.collect()  # set-up leaves reference cycles behind
    while len(outcomes) < MIN_CALLS or time.perf_counter() - t_start < seconds:
        outcomes.append(run_workload(workload, fx, cfg, calibrate))
        if outcomes[-1].student is None:
            break
        cal = calibrate.median(CAL_BURST)
        for _ in range(EVAL_PER_ROUND):
            t0 = time.perf_counter()
            models.classification_accuracy(outcomes[-1].student, fx.test)
            eval_s.append(time.perf_counter() - t0)
            cal_before, cal = cal, calibrate.median(CAL_BURST)
            eval_ref.append(to_ref(eval_s[-1], (cal_before + cal) / 2))
        gc.collect()  # each call starts from the same heap, so peak_rss_mb repeats
    attempted, failed, problems = _account(outcomes, outcomes[0].digest)
    if not eval_s:
        return Report({}, attempted, max(failed, 1), problems or ["no call completed"],
                      [o.digest for o in outcomes])

    def end_to_end(setup, epochs, steps, evals):
        return {
            "setup_s": (statistics.median(setup), "s"),
            "train_images_per_s": (sum(o.images * len(o.epoch_s) for o in outcomes)
                                   / sum(epochs), "images/s"),
            "step_ms.p50": (1e3 * statistics.median(steps), "ms"),
            "step_ms.p90": (1e3 * _p90(steps), "ms"),
            "eval_images_per_s": (len(fx.test) / statistics.median(evals), "images/s"),
        }

    steps = [s for o in outcomes for s in o.step_s]
    steps_ref = [s for o in outcomes for s in o.step_ref_s]
    metrics = end_to_end(setup_ref, [s for o in outcomes for s in o.epoch_ref_s],
                         steps_ref, eval_ref)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["task_loss_end"] = (outcomes[-1].task_loss_end, "nats")
    host = end_to_end(setup_s, [s for o in outcomes for s in o.epoch_s], steps, eval_s)
    notes = {"calls": len(outcomes), "inner_steps": len(steps),
             "host_speed": statistics.median(r / s for r, s in zip(steps_ref, steps)),
             "host_time": {name: value for name, (value, _) in host.items()},
             "epoch_s": [s for o in outcomes for s in o.epoch_s],
             "setup_s_each": setup_s}
    return Report(metrics, attempted, failed, problems, [o.digest for o in outcomes], notes)


def traced_run(workload: str, seed: int, sizes: Sizes, workdir: Path, run_id: str,
               trace_path: Path | None = None) -> Report:
    """Per-layer metrics: one traced set-up, then an untraced, a traced and
    another untraced call of the entry point. All calls must leave the same
    digest; the traced call's wall time over the untraced calls' mean gives
    the tracing overhead."""
    tracer = bench_trace.Tracer(run_id)
    patcher = bench_trace.Patcher(SOKD_MODULES)
    bench_trace.install(tracer, patcher, SOKD)
    try:
        with tracer.span(bench_trace.SETUP):
            fx = set_up(seed, sizes, workdir / "setup")
    finally:
        patcher.restore()
    cfg = make_config(workload, seed, sizes, str(workdir / "data"))
    before = run_workload(workload, fx, cfg)
    bench_trace.install(tracer, patcher, SOKD)
    try:
        with tracer.span(bench_trace.RUN):
            traced = run_workload(workload, fx, cfg)
    finally:
        patcher.restore()
    after = run_workload(workload, fx, cfg)
    outcomes = [before, traced, after]
    attempted, failed, problems = _account(outcomes, before.digest)
    untraced_s = (before.wall_s + after.wall_s) / 2
    spans = tracer.spans()
    layers = bench_trace.layer_metrics(spans)
    metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced_s - 1.0, "ratio")
    if trace_path is not None:
        bench_trace.chrome_trace(spans, trace_path)
    scopes = {name: scope for name, (_, _, scope) in layers.items()}
    notes = {"spans": len(spans), "untraced_wall_s": [before.wall_s, after.wall_s],
             "traced_wall_s": traced.wall_s, "scopes": scopes}
    return Report(metrics, attempted, failed, problems, [o.digest for o in outcomes], notes)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
