"""Span tracing from outside the sokd package.

The tracer replaces functions and methods of the package's modules with
wrappers that record a span per call: name, start, end, parent span and
run id. Spans stay in memory until the run ends. Nothing under `src/`
changes; a name that a caller imported with `from .x import y` is
replaced in the caller's namespace too, because that is where the
caller looks it up.

`layer_metrics` turns the spans into the per-layer table: a layer's self
time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent run work")

INNER = "trainer.inner_step"
OUTER = "trainer.outer_step"
RUN = "bench.run"
SETUP = "bench.setup"

# autodiff ops timed forward (at node creation) and backward (through the
# node's `_backward`); conv2d is split by kernel size
AUTODIFF_OPS = ("conv3x3", "conv1x1", "bias_add", "relu", "avg_pool2d", "matmul", "reshape",
                "add", "sub", "mul", "lin", "sum_all", "mean_all", "sigmoid", "exp", "log",
                "clip", "slice_channels", "concat0", "softmax_temp", "pick", "cross_entropy",
                "straight_through")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._records: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._records.append([name, time.perf_counter(), 0.0, parent, self.run_id, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self._records[sid][2] = time.perf_counter()
        self._stack.pop()

    def add_work(self, sid: int, work) -> None:
        rec = self._records[sid]
        rec[5] = work if rec[5] is None else rec[5] + work

    def event(self, name: str, work=1) -> None:
        """A zero-length span that only carries a count."""
        sid = self.open(name)
        rec = self._records[sid]
        rec[2] = rec[1]
        rec[5] = work
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self._records]


# ---------------------------------------------------------------------------
# self time

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for sid, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(sid)
    out = []
    for sid, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children.get(sid, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# patching

class Patcher:
    """Replaces attributes and puts every original back on `restore`."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo: list[tuple] = []

    def function(self, owner, name: str, make_wrapper) -> None:
        """Wrap owner.name and rebind every module global that refers to
        the same function object."""
        orig = getattr(owner, name)
        new = make_wrapper(orig)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, new)

    def method(self, cls, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def restore(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)


def _spanned(tracer: Tracer, name: str, work=None):
    """Wrapper factory: one span per call; `work(result, args)` adds a count."""

    def make(fn):
        def wrapped(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if work is not None:
                tracer.add_work(sid, work(out, args))
            return out

        return wrapped

    return make


def _conv_gflop(out, args) -> float:
    x, w = args[0], args[1]
    k, c, kh, kw = w.shape
    n, _, oh, ow = out.shape
    return 2.0 * n * oh * ow * k * c * kh * kw / 1e9


def _mask_cells(out, args):
    cells = out[:, 0]
    return _Pair(float((cells > 0).sum()), float(cells.size))


class _Pair(tuple):
    """(numerator, denominator) that adds component-wise."""

    def __new__(cls, a, b):
        return super().__new__(cls, (a, b))

    def __add__(self, other):
        return _Pair(self[0] + other[0], self[1] + other[1])


def install(tracer: Tracer, patcher: Patcher, sokd) -> None:
    """Wrap the calls that sokd's modules make into each other.

    `sokd` is a namespace with the package modules as attributes:
    tensor, autodiff, models, dafa, dam, optim, trainer, data, io.
    """
    import numpy as np

    tc, ad, models, dafa, dam, optim, trainer, data, io = (
        sokd.tensor, sokd.autodiff, sokd.models, sokd.dafa, sokd.dam, sokd.optim,
        sokd.trainer, sokd.data, sokd.io)
    size = lambda out, args: int(np.size(out))  # noqa: E731

    functions = [
        (tc, "_conv2d_raw", "tensor.conv_raw", _conv_gflop),
        (tc, "_im2col", "tensor.im2col", lambda out, args: out[0].nbytes),
        (tc, "_col2im_add", "tensor.col2im", None),
        (models, "pretrain_teacher", "models.pretrain_teacher", None),
        (models, "classification_accuracy", "trainer.eval", None),
        (dafa, "mix_subpolicies", "dafa.mix", None),
        (dafa, "apply_discrete", "dafa.discrete", None),
        (dafa, "draw_mix_noise", "dafa.draw_noise", None),
        (dafa, "_draw_op_noise", "dafa.op_noise", None),
        (dafa, "build_search_graph", "dafa.search_graph", None),
        (dam, "_decode_arrays", "dam.decode", lambda out, args: len(out)),
        (dam, "batched_mask_weights", "dam.mask_weights", _mask_cells),
        (trainer, "inner_step", INNER, None),
        (trainer, "outer_step", OUTER, None),
        (trainer, "_slice_batch", "trainer.slice_batch", None),
        (trainer, "probe_area_rows", "trainer.probe", None),
        (data, "make_synthetic", "data.make_synthetic", None),
        (io, "save_tensor", "io.save", lambda out, args: np.asarray(
            args[1].data if isinstance(args[1], tc.Tensor) else args[1]).nbytes),
        (io, "load_tensor", "io.load", lambda out, args: np.asarray(
            out.data if isinstance(out, tc.Tensor) else out).nbytes),
        (ad, "backward", "autodiff.backward", lambda out, args: len(args[0].tape.nodes)),
    ]
    for owner, name, span_name, work in functions:
        patcher.function(owner, name, _spanned(tracer, span_name, work))

    methods = [
        (tc.Rng, "normal", "tensor.rng.normal", size),
        (tc.Rng, "permutation", "tensor.rng.permutation", size),
        (tc.Rng, "uniform", "tensor.rng.uniform", size),
        (models.Backbone, "build", "models.backbone_build", None),
        (models.Backbone, "forward_arrays", "models.backbone_forward", None),
        (models.Adapter, "apply_arrays", "models.adapter", None),
        (models.Adapter, "build", "models.adapter", None),
        (dam.DamHead, "forward_arrays", "dam.head_forward", None),
        (dam.DamHead, "build", "dam.head_build", None),
        (optim.SgdMomentum, "step", "optim.sgd", None),
        (optim.Adam, "step", "optim.adam", None),
        (trainer.TrainState, "cache_teacher_features", "trainer.teacher_cache", None),
    ]
    for cls, name, span_name, work in methods:
        patcher.method(cls, name, _spanned(tracer, span_name, work))

    def make_new(init):
        def wrapped(self, *args, **kwargs):
            sid = tracer.open("tensor.new")
            try:
                init(self, *args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.add_work(sid, self.data.nbytes)

        return wrapped

    patcher.method(tc.Tensor, "__init__", make_new)

    def make_stream(init):
        def wrapped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.event("tensor.rng.stream")

        return wrapped

    patcher.method(tc.Rng, "__init__", make_stream)

    def make_clip(fn):
        def wrapped(grads, max_norm):
            out = fn(grads, max_norm)
            tracer.event("trainer.clip", _Pair(float(out is not grads), 1.0))
            return out

        return wrapped

    patcher.function(trainer, "_clip_gradients", make_clip)

    for op in ("bias_add", "relu", "avg_pool2d", "matmul", "reshape", "add", "sub", "mul",
               "lin", "sum_all", "mean_all", "sigmoid", "exp", "log", "clip", "slice_channels",
               "concat0", "softmax_temp", "pick", "cross_entropy", "straight_through"):
        patcher.function(ad, op, _op_wrapper(tracer, lambda args, op=op: op))
    patcher.function(ad, "conv2d", _op_wrapper(
        tracer, lambda args: "conv1x1" if args[1].dims[2:] == (1, 1) else "conv3x3"))


def _op_wrapper(tracer: Tracer, op_name):
    """Forward span around the op; the returned node's `_backward` is
    wrapped so each backward call records its own span."""

    def make(fn):
        def wrapped(*args, **kwargs):
            op = op_name(args)
            sid = tracer.open(f"autodiff.{op}.fwd")
            try:
                node = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            back = node._backward
            if back is not None:
                bwd_name = f"autodiff.{op}.bwd"

                def traced_backward(up):
                    bsid = tracer.open(bwd_name)
                    try:
                        return back(up)
                    finally:
                        tracer.close(bsid)

                node._backward = traced_backward
            return node

        return wrapped

    return make


# ---------------------------------------------------------------------------
# per-layer metrics

def _metric_table():
    """name -> (unit, kind, span name or names). Kinds, per step unless noted:
    self       the layer's self time (ms)
    calls      the layer's calls
    work       the layer's summed work count (work_mb: in MB)
    ratio      summed (numerator, denominator) work as a fraction
    per_call   summed work over calls
    incl       median over calls of the span's whole duration (ms), run only
    run_ratio  (numerator, denominator) work summed over the whole run
    setup      the span's whole duration summed within one set-up (ms);
               setup_mb sums its work in MB
    """
    t = {
        "tensor.conv_raw.ms": ("ms", "self", "tensor.conv_raw"),
        "tensor.conv_raw.gflops": ("GFLOP", "work", "tensor.conv_raw"),
        "tensor.im2col.ms": ("ms", "self", "tensor.im2col"),
        "tensor.im2col.mb": ("MB", "work_mb", "tensor.im2col"),
        "tensor.col2im.ms": ("ms", "self", "tensor.col2im"),
        "tensor.rng.normal.ms": ("ms", "self", "tensor.rng.normal"),
        "tensor.rng.permutation.ms": ("ms", "self", "tensor.rng.permutation"),
        "tensor.rng.uniform.ms": ("ms", "self", "tensor.rng.uniform"),
        "tensor.rng.elements": ("count", "work", ("tensor.rng.normal", "tensor.rng.permutation",
                                                  "tensor.rng.uniform")),
        "tensor.rng.streams": ("count", "work", "tensor.rng.stream"),
        "tensor.new.calls": ("count", "calls", "tensor.new"),
        "tensor.new.ms": ("ms", "self", "tensor.new"),
        "tensor.new.mb": ("MB", "work_mb", "tensor.new"),
        "autodiff.backward.self_ms": ("ms", "self", "autodiff.backward"),
        "autodiff.tape_nodes": ("count", "work", "autodiff.backward"),
    }
    for op in AUTODIFF_OPS:
        t[f"autodiff.{op}.fwd_ms"] = ("ms", "self", f"autodiff.{op}.fwd")
        t[f"autodiff.{op}.bwd_ms"] = ("ms", "self", f"autodiff.{op}.bwd")
    t.update({
        "models.backbone_build.ms": ("ms", "self", "models.backbone_build"),
        "models.backbone_forward.ms": ("ms", "self", "models.backbone_forward"),
        "models.adapter.ms": ("ms", "self", "models.adapter"),
        "models.pretrain_teacher.ms": ("ms", "setup", "models.pretrain_teacher"),
        "dafa.mix.ms": ("ms", "self", "dafa.mix"),
        "dafa.discrete.ms": ("ms", "self", "dafa.discrete"),
        "dafa.draw_noise.ms": ("ms", "self", "dafa.draw_noise"),
        "dafa.op_noise.ms": ("ms", "self", "dafa.op_noise"),
        "dafa.op_noise.calls": ("count", "calls", "dafa.op_noise"),
        "dafa.search_graph.ms": ("ms", "self", "dafa.search_graph"),
        "dam.head_forward.ms": ("ms", "self", "dam.head_forward"),
        "dam.head_build.ms": ("ms", "self", "dam.head_build"),
        "dam.decode.ms": ("ms", "self", "dam.decode"),
        "dam.decode.calls": ("count", "calls", "dam.decode"),
        "dam.mask_weights.ms": ("ms", "self", "dam.mask_weights"),
        "dam.masked_cell_fraction": ("ratio", "ratio", "dam.mask_weights"),
        "dam.areas_per_image": ("count", "per_call", "dam.decode"),
        "optim.sgd.ms": ("ms", "self", "optim.sgd"),
        "optim.adam.ms": ("ms", "self", "optim.adam"),
        "trainer.inner_step.self_ms": ("ms", "self", INNER),
        "trainer.outer_step.ms": ("ms", "incl", OUTER),
        "trainer.slice_batch.ms": ("ms", "self", "trainer.slice_batch"),
        "trainer.eval.ms": ("ms", "incl", "trainer.eval"),
        "trainer.probe.ms": ("ms", "incl", "trainer.probe"),
        "trainer.teacher_cache.ms": ("ms", "setup", "trainer.teacher_cache"),
        "trainer.clip.fired_ratio": ("ratio", "run_ratio", "trainer.clip"),
        "data.make_synthetic.ms": ("ms", "setup", "data.make_synthetic"),
        "io.save.ms": ("ms", "setup", "io.save"),
        "io.load.ms": ("ms", "setup", "io.load"),
        "io.mb": ("MB", "setup_mb", ("io.save", "io.load")),
    })
    return t


METRICS = _metric_table()


def _nearest(spans, wanted) -> list[int]:
    """For each span, the id of its nearest ancestor-or-self whose name is
    in `wanted`, or -1. Parents always precede children."""
    out = []
    for sid, s in enumerate(spans):
        if s.name in wanted:
            out.append(sid)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans) -> dict:
    """{metric: (value, unit, scope)} from one traced set-up and run.

    Step metrics use inner steps; a layer that never works inside an inner
    step uses outer steps, and one that works in neither (epoch order,
    batch slicing) uses its own calls. Zero means the layer did no work in
    the run.
    """
    selfs = self_times(spans)
    step_of = _nearest(spans, (INNER, OUTER))
    top_of = _nearest(spans, (RUN, SETUP))
    in_run = [top >= 0 and spans[top].name == RUN for top in top_of]
    steps = {INNER: [], OUTER: []}
    for sid, s in enumerate(spans):
        if s.name in steps and in_run[sid]:
            steps[s.name].append(sid)
    # per step: name -> [self seconds, calls, work]
    per_step = defaultdict(lambda: defaultdict(lambda: [0.0, 0, None]))
    per_call = defaultdict(list)
    for sid, s in enumerate(spans):
        if not in_run[sid]:
            continue
        per_call[s.name].append(sid)
        if step_of[sid] >= 0:
            acc = per_step[step_of[sid]][s.name]
            acc[0] += selfs[sid]
            acc[1] += 1
            if s.work is not None:
                acc[2] = s.work if acc[2] is None else acc[2] + s.work

    def step_values(names, pick):
        names = (names,) if isinstance(names, str) else names
        for kind in (INNER, OUTER):
            vals = []
            for step in steps[kind]:
                accs = [per_step[step][n] for n in names if n in per_step[step]]
                vals.append(pick(accs) if accs else None)
            if any(v is not None for v in vals):
                return [0.0 if v is None else v for v in vals], kind.split(".")[1]
        calls = [sid for n in names for sid in per_call.get(n, ())]
        vals = [pick([[selfs[sid], 1, spans[sid].work]]) for sid in calls]
        return vals, ("call" if vals else "none")

    def work_sum(accs):
        total = None
        for a in accs:
            if a[2] is not None:
                total = a[2] if total is None else total + a[2]
        return total

    setups = [sid for sid, s in enumerate(spans) if s.name == SETUP]
    out = {}
    for metric, (unit, kind, names) in METRICS.items():
        if kind == "self":
            vals, scope = step_values(names, lambda accs: 1e3 * sum(a[0] for a in accs))
            value = _median(vals)
        elif kind == "calls":
            vals, scope = step_values(names, lambda accs: sum(a[1] for a in accs))
            value = _median(vals)
        elif kind in ("work", "work_mb"):
            vals, scope = step_values(names, lambda accs: float(work_sum(accs) or 0.0))
            value = _median(vals) / (1e6 if kind == "work_mb" else 1.0)
        elif kind == "ratio":
            def ratio(accs):
                w = work_sum(accs)
                return w[0] / w[1] if w and w[1] else 0.0
            vals, scope = step_values(names, ratio)
            value = _median(vals)
        elif kind == "per_call":
            vals, scope = step_values(
                names, lambda accs: float(work_sum(accs) or 0.0) / max(1, sum(a[1] for a in accs)))
            value = _median(vals)
        elif kind == "incl":
            vals = [1e3 * (spans[sid].end - spans[sid].start) for sid in per_call.get(names, ())]
            value, scope = _median(vals), ("call" if vals else "none")
        elif kind == "run_ratio":
            pairs = [spans[sid].work for sid in per_call.get(names, ())]
            fired, total = sum(p[0] for p in pairs), sum(p[1] for p in pairs)
            value, scope = (fired / total if total else 0.0), "run"
        else:  # setup, setup_mb
            wanted = (names,) if isinstance(names, str) else names
            per_setup = defaultdict(float)
            for sid, s in enumerate(spans):
                if s.name in wanted and top_of[sid] >= 0 and spans[top_of[sid]].name == SETUP:
                    per_setup[top_of[sid]] += (float(s.work or 0.0) / 1e6 if kind == "setup_mb"
                                               else 1e3 * (s.end - s.start))
            value = _median([per_setup[sid] for sid in setups])
            scope = "setup"
        out[metric] = (float(value), unit, scope)
    return out


def chrome_trace(spans, path) -> None:
    """Write complete ("X") trace events that Perfetto and chrome://tracing open."""
    if not spans:
        return
    t0 = min(s.start for s in spans)
    events = [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
               "ts": round((s.start - t0) * 1e6, 3), "dur": round((s.end - s.start) * 1e6, 3),
               "args": {"span": sid, "parent": s.parent, "run": s.run}}
              for sid, s in enumerate(spans)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
