"""The bi-level distillation loop.

Inner steps update the student, the channel adapter, and the area-head
on the training split while the augmentation policy stays frozen; outer
steps update only the policy parameters against the consistency loss on
the validation split. After the search phase the argmax sub-policy is
frozen and ordinary distillation finishes the run.

The teacher is frozen throughout, so its features over each split are
computed once and cached; no teacher weight ever enters an optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .dafa import (
    AugPolicy,
    DiscretePolicy,
    OpChoice,
    SubPolicy,
    apply_discrete,
    build_search_graph,
    discretize,
    draw_mix_noise,
    mix_subpolicies,
)
from .dam import DamHead, batched_mask_weights, build_dam_head, decode_batch
from .data import Dataset, split_train_val
from .errors import ConfigError, NonFiniteError, ShapeError
from .models import (
    Adapter,
    ArchSpec,
    Backbone,
    build_backbone,
    classification_accuracy,
)
from .oracle import ks_critical_value, ks_two_sample
from .optim import Adam, SgdMomentum
from .tensor import Rng, Tensor


def arch_from_config(arch_cfg, data_cfg, name: str) -> ArchSpec:
    spec = ArchSpec(name, (data_cfg.channels, data_cfg.image_size, data_cfg.image_size),
                    tuple(arch_cfg.stages), data_cfg.classes, arch_cfg.feature_tap)
    spec.validate()
    return spec


def policy_from_config(policy_cfg) -> AugPolicy:
    subs = [SubPolicy([OpChoice(k, policy_cfg.init_beta, policy_cfg.init_m) for k in kinds])
            for kinds in policy_cfg.subpolicies]
    k_max = max(len(s.ops) for s in subs)
    policy = AugPolicy(np.zeros(len(subs), dtype=np.float64), subs,
                       policy_cfg.tau0, policy_cfg.lam, k_max)
    policy.validate()
    return policy


@dataclass
class TrainState:
    teacher: Backbone
    student: Backbone
    adapter: Adapter
    head: DamHead
    policy: AugPolicy
    cfg: RunConfig
    rng: Rng
    inner_opt: SgdMomentum
    outer_opt: Adam
    discrete: Optional[DiscretePolicy] = None
    lr: float = 0.0
    inner_count: int = 0
    outer_count: int = 0
    teacher_feats: dict = field(default_factory=dict)

    def cache_teacher_features(self, name: str, dataset: Dataset,
                               batch: int = 256) -> None:
        chunks = []
        for start in range(0, len(dataset), batch):
            feats, _ = self.teacher.forward_arrays(dataset.images.data[start:start + batch])
            chunks.append(feats)
        self.teacher_feats[name] = np.concatenate(chunks, axis=0)


def init_train_state(cfg: RunConfig, teacher: Backbone, rng: Rng) -> TrainState:
    student_spec = arch_from_config(cfg.student, cfg.data, "student")
    student = build_backbone(student_spec, rng.child("student-init"))
    s_ch = student_spec.feature_shape()[0]
    t_ch = teacher.spec.feature_shape()[0]
    adapter = Adapter.init_random(s_ch, t_ch, rng.child("adapter-init"))
    head = build_dam_head(t_ch, cfg.dam.mid_channels, rng.child("head-init"))
    return TrainState(
        teacher=teacher,
        student=student,
        adapter=adapter,
        head=head,
        policy=policy_from_config(cfg.policy),
        cfg=cfg,
        rng=rng,
        inner_opt=SgdMomentum(cfg.train.momentum),
        outer_opt=Adam(),
    )


def lr_at_epoch(cfg: RunConfig, epoch: int) -> float:
    total = cfg.train.total_epochs
    decays = sum(1 for p in (2 / 3, 5 / 6) if epoch >= int(p * total))
    return cfg.train.inner_lr * (0.1 ** decays)


def _check_finite_loss(value: float, context: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite {context}")


def _clip_gradients(grads: dict, max_norm: float) -> dict:
    """Global-norm clipping; a transient loss spike (the exp-activated size
    branch early in training) must not launch the momentum buffers."""
    if max_norm <= 0:
        return grads
    total = math.sqrt(sum(float((g.data.astype(np.float64) ** 2).sum())
                          for g in grads.values()))
    if total <= max_norm:
        return grads
    factor = np.float32(max_norm / total)
    return {name: Tensor(g.data * factor, copy=False) for name, g in grads.items()}


def _augmented_teacher_feature(state: TrainState, f_t: np.ndarray) -> np.ndarray:
    """Policy application for an inner step; the policy is a frozen input
    here, so this stays off the tape entirely."""
    if state.cfg.mode == "baseline":
        return f_t
    if state.discrete is not None:
        stream = state.rng.child("distill-aug").child(state.inner_count)
        return apply_discrete(state.discrete, Tensor(f_t), stream).data
    stream = state.rng.child("search-aug").child(state.inner_count)
    return mix_subpolicies(state.policy, Tensor(f_t), stream,
                           mode=state.cfg.policy.mixture).data


def inner_step(state: TrainState, batch) -> dict:
    """One SGD step on the student-side objective; returns the loss record."""
    x, y, f_t = batch
    if x.shape[0] == 0:
        raise ShapeError("empty batch")
    f_t_aug = _augmented_teacher_feature(state, f_t)

    tape = ad.Tape()
    x_node = tape.constant(Tensor(x))
    feat_s, logits, student_nodes = state.student.build(tape, x_node, trainable=True)
    task = ad.cross_entropy(logits, y)
    aligned, adapter_nodes = state.adapter.build(tape, feat_s, trainable=True)
    record = {"task_loss": float(task.data[0]),
              "hits": int((np.argmax(logits.data, axis=1) == y).sum()),
              "count": int(x.shape[0])}
    param_nodes = {}
    for name, node in student_nodes.items():
        param_nodes[f"student.{name}"] = node
    for name, node in adapter_nodes.items():
        param_nodes[name] = node

    if state.cfg.mode == "baseline":
        diff = ad.sub(tape.constant(Tensor(f_t_aug)), aligned)
        l_feat = ad.mean_all(ad.mul(diff, diff))
        total = ad.add(task, ad.lin(l_feat, state.cfg.loss.alpha_w, 0.0))
        record.update(ld_loss=None, lda_loss=None, feat_loss=float(l_feat.data[0]))
    else:
        teacher_branches = state.head.forward_arrays(f_t_aug)
        student_branches, head_nodes = state.head.build(tape, aligned, trainable=True)
        for name, node in head_nodes.items():
            param_nodes[f"head.{name}"] = node
        l_d = None
        for branch_name, t_branch in zip(("heatmap", "size", "offset"), teacher_branches):
            d = ad.sub(student_branches[branch_name], tape.constant(Tensor(t_branch)))
            term = ad.mean_all(ad.mul(d, d))
            l_d = term if l_d is None else ad.add(l_d, term)
        if state.cfg.dam.decode_path == "student":
            heat, size, offset = (student_branches[b].data for b in ("heatmap", "size", "offset"))
        else:
            heat, size, offset = teacher_branches
        areas = decode_batch(heat, size, offset, state.cfg.dam.n_areas)
        mask_w = batched_mask_weights(areas, aligned.dims[1:]) / np.float32(x.shape[0])
        d = ad.sub(aligned, tape.constant(Tensor(f_t_aug)))
        l_da = ad.sum_all(ad.mul(ad.mul(d, d), tape.constant(Tensor(mask_w))))
        total = ad.add(task, ad.add(ad.lin(l_d, state.cfg.loss.alpha_w, 0.0),
                                    ad.lin(l_da, state.cfg.loss.beta_w, 0.0)))
        record.update(ld_loss=float(l_d.data[0]), lda_loss=float(l_da.data[0]))

    record["total_loss"] = float(total.data[0])
    _check_finite_loss(record["total_loss"], "training loss")
    grads = ad.backward(total)
    tape.release()
    named_weights = {f"student.{n}": w for n, w in state.student.weights.items()}
    named_weights["adapter.w"] = state.adapter.w
    if state.cfg.mode != "baseline":
        named_weights.update({f"head.{n}": w for n, w in state.head.weights.items()})
    named_grads = {name: grads[node] for name, node in param_nodes.items()}
    named_grads = _clip_gradients(named_grads, state.cfg.train.grad_clip)
    updated = state.inner_opt.step(named_weights, named_grads, state.lr)
    state.student.weights = {n[len("student."):]: w for n, w in updated.items()
                             if n.startswith("student.")}
    state.adapter = Adapter(updated["adapter.w"])
    if state.cfg.mode != "baseline":
        state.head.weights = {n[len("head."):]: w for n, w in updated.items()
                              if n.startswith("head.")}
    state.inner_count += 1
    return record


def outer_step(state: TrainState, val_batch) -> float:
    """One policy-only step on the consistency loss; network weights are
    constants here."""
    x, y, f_t = val_batch
    if x.shape[0] == 0:
        raise ShapeError("empty validation batch")
    feat_s, _ = state.student.forward_arrays(x)
    aligned = state.adapter.apply_arrays(feat_s)

    noise = draw_mix_noise(state.policy, f_t.shape,
                           state.rng.child("outer-aug").child(state.outer_count))
    tape = ad.Tape()
    aug_node, params = build_search_graph(tape, state.policy, Tensor(f_t), noise,
                                          mixture=state.cfg.policy.mixture)
    diff = ad.sub(aug_node, tape.constant(Tensor(aligned)))
    loss = ad.lin(ad.mean_all(ad.mul(diff, diff)), 0.5, 0.0)
    aug_value = float(loss.data[0])
    _check_finite_loss(aug_value, "consistency loss")
    grads = ad.backward(loss)
    tape.release()

    weights, named_grads, slots = {}, {}, {}
    for key, node in params.items():
        if key == "alpha":
            name = "alpha"
        else:
            kind, i, j = key
            if kind == "m" and state.cfg.policy.freeze_magnitudes:
                continue
            name = f"{kind}.{i}.{j}"
        weights[name] = node.tensor
        named_grads[name] = grads[node]
        slots[name] = key
    updated = state.outer_opt.step(weights, named_grads, state.cfg.train.outer_lr)
    for name, tensor in updated.items():
        key = slots[name]
        if key == "alpha":
            state.policy.alpha = tensor.data.astype(np.float64)
        else:
            kind, i, j = key
            op = state.policy.subpolicies[i].ops[j]
            if kind == "beta":
                op.beta = float(tensor.data[0])
            else:
                op.m = float(tensor.data[0])
    state.policy.clamp()
    state.outer_count += 1
    return aug_value


def _epoch_batches(n: int, batch_size: int, rng: Rng):
    perm = rng.permutation(n)
    return [perm[s:s + batch_size] for s in range(0, n, batch_size)]


def _slice_batch(dataset: Dataset, feats: np.ndarray, idx) -> tuple:
    return dataset.images.data[idx], dataset.labels[idx], feats[idx]


@dataclass
class RunResult:
    metrics: list
    state: TrainState
    policy: Optional[AugPolicy] = None
    discrete: Optional[DiscretePolicy] = None
    area_rows: list = field(default_factory=list)
    final_top1: float = 0.0


def _metrics_row(epoch, split, task=None, ld=None, lda=None, aug=None, top1=None) -> dict:
    return {"epoch": epoch, "split": split, "task_loss": task, "ld_loss": ld,
            "lda_loss": lda, "aug_loss": aug, "top1": top1}


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _train_epoch_rows(epoch: int, records: list) -> dict:
    hits = sum(r["hits"] for r in records)
    count = sum(r["count"] for r in records)
    return _metrics_row(epoch, "train",
                        task=_mean([r["task_loss"] for r in records]),
                        ld=_mean([r.get("ld_loss") for r in records]),
                        lda=_mean([r.get("lda_loss") for r in records]),
                        top1=hits / count)


def probe_area_rows(state: TrainState, dataset: Dataset, epoch: int) -> list:
    """Decoded areas for the first probe images, one row per area."""
    n = min(state.cfg.dam.probe_images, len(dataset))
    images = dataset.images.data[:n]
    feats, _ = state.teacher.forward_arrays(images)
    if state.cfg.dam.decode_path == "student":
        s_feats, _ = state.student.forward_arrays(images)
        source = state.adapter.apply_arrays(s_feats)
    else:
        source = feats
    heat, size, offset = state.head.forward_arrays(source)
    rows = []
    for i, areas in enumerate(decode_batch(heat, size, offset, state.cfg.dam.n_areas)):
        for rank, a in enumerate(areas):
            rows.append({"epoch": epoch, "image_index": i, "area_rank": rank,
                         "center_x": a.center_x, "center_y": a.center_y,
                         "width": a.width, "height": a.height, "score": a.score})
    return rows


def run_search(cfg: RunConfig, teacher: Backbone, train_ds: Dataset,
               test_ds: Optional[Dataset] = None,
               state: Optional[TrainState] = None) -> RunResult:
    """The search phase: alternating inner/outer steps for search_epochs."""
    if cfg.mode != "sokd":
        raise ConfigError("search runs require mode sokd")
    if len(train_ds) == 0:
        raise ShapeError("empty training dataset")
    rng = Rng(cfg.seed)
    train_part, val_part = split_train_val(train_ds, cfg.train.val_fraction, rng.child("split"))
    if state is None:
        state = init_train_state(cfg, teacher, rng)
    state.cache_teacher_features("train", train_part)
    state.cache_teacher_features("val", val_part)
    metrics = []
    for epoch in range(cfg.train.search_epochs):
        state.policy.tau = max(cfg.policy.tau0 * cfg.policy.tau_anneal ** epoch,
                               cfg.policy.tau_floor)
        state.lr = lr_at_epoch(cfg, epoch)
        batches = _epoch_batches(len(train_part), cfg.train.batch_size,
                                 rng.child("order").child(epoch))
        val_batches = _epoch_batches(len(val_part), cfg.train.batch_size,
                                     rng.child("val-order").child(epoch))
        records, aug_values = [], []
        # one outer step per validation batch, spread evenly between the
        # inner steps of the epoch
        for k, idx in enumerate(batches):
            records.append(inner_step(state, _slice_batch(train_part, state.teacher_feats["train"], idx)))
            lo = k * len(val_batches) // len(batches)
            hi = (k + 1) * len(val_batches) // len(batches)
            for val_idx in val_batches[lo:hi]:
                aug_values.append(outer_step(state, _slice_batch(val_part, state.teacher_feats["val"], val_idx)))
        metrics.append(_train_epoch_rows(epoch, records))
        metrics.append(_metrics_row(epoch, "val", aug=_mean(aug_values),
                                    top1=classification_accuracy(state.student, val_part)))
        if test_ds is not None:
            metrics.append(_metrics_row(epoch, "test", top1=classification_accuracy(state.student, test_ds)))
    discrete = discretize(state.policy)
    final = classification_accuracy(state.student, test_ds) if test_ds is not None else 0.0
    return RunResult(metrics, state, policy=state.policy, discrete=discrete, final_top1=final)


def run_distill(cfg: RunConfig, teacher: Backbone, train_ds: Dataset,
                test_ds: Optional[Dataset] = None,
                discrete: Optional[DiscretePolicy] = None,
                state: Optional[TrainState] = None) -> RunResult:
    """The distillation phase: remaining epochs under a frozen policy
    (sokd) or the plain feature-imitation objective (baseline)."""
    if len(train_ds) == 0:
        raise ShapeError("empty training dataset")
    rng = Rng(cfg.seed)
    train_part, val_part = split_train_val(train_ds, cfg.train.val_fraction, rng.child("split"))
    if state is None:
        state = init_train_state(cfg, teacher, rng)
        state.cache_teacher_features("train", train_part)
    if cfg.mode == "sokd":
        if discrete is None:
            raise ConfigError("sokd distillation needs a discrete policy from a search run")
        state.discrete = discrete
        start_epoch = cfg.train.search_epochs
    else:
        start_epoch = 0
    metrics, area_rows = [], []
    for epoch in range(start_epoch, cfg.train.total_epochs):
        state.lr = lr_at_epoch(cfg, epoch)
        batches = _epoch_batches(len(train_part), cfg.train.batch_size,
                                 rng.child("order").child(epoch))
        records = [inner_step(state, _slice_batch(train_part, state.teacher_feats["train"], idx))
                   for idx in batches]
        metrics.append(_train_epoch_rows(epoch, records))
        if test_ds is not None:
            metrics.append(_metrics_row(epoch, "test", top1=classification_accuracy(state.student, test_ds)))
        if cfg.mode == "sokd":
            area_rows.extend(probe_area_rows(state, train_part, epoch))
    final = classification_accuracy(state.student, test_ds) if test_ds is not None else \
        classification_accuracy(state.student, train_part)
    return RunResult(metrics, state, discrete=discrete, area_rows=area_rows, final_top1=final)


def run_full(cfg: RunConfig, teacher: Backbone, train_ds: Dataset,
             test_ds: Optional[Dataset] = None) -> RunResult:
    """Search (sokd only) followed by distillation, one continuous student."""
    if cfg.mode == "sokd":
        search = run_search(cfg, teacher, train_ds, test_ds)
        distill = run_distill(cfg, teacher, train_ds, test_ds,
                              discrete=search.discrete, state=search.state)
        return RunResult(search.metrics + distill.metrics, distill.state,
                         policy=search.policy, discrete=search.discrete,
                         area_rows=distill.area_rows, final_top1=distill.final_top1)
    return run_distill(cfg, teacher, train_ds, test_ds)


def evaluate(model: Backbone, dataset: Dataset) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    if len(dataset) == 0:
        raise ShapeError("cannot evaluate on an empty dataset")
    return classification_accuracy(model, dataset)


def ks_preservation_report(teacher: Backbone, dataset: Dataset, policy: AugPolicy,
                           rng: Rng, n_images: int = 4) -> tuple[float, float]:
    """Two-sample KS statistic between teacher feature elements before and
    after per-image policy application, plus the 5% critical value."""
    n = min(n_images, len(dataset))
    feats, _ = teacher.forward_arrays(dataset.images.data[:n])
    post = np.concatenate([
        mix_subpolicies(policy, Tensor(feats[i]), rng.child("ks").child(i), mode="hard").data.ravel()
        for i in range(n)])
    pre = feats.ravel()
    return ks_two_sample(pre, post), ks_critical_value(pre.size, post.size)
