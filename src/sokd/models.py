"""Teacher and student conv backbones at desk scale, plus the 1x1
channel-projection adapters that align student features with teacher
features.

The distilled feature is the pre-activation output of the tapped conv
stage. Tapping before the nonlinearity keeps the feature distribution
continuous (no mass piled at zero), which the distribution-preservation
checks rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import tensor as tc
from .data import Dataset
from .errors import ConfigError, DataError, ShapeError
from .io import load_weights, save_weights
from .optim import SgdMomentum
from .tensor import Rng, Tensor


@dataclass(frozen=True)
class ArchSpec:
    """Stage tokens are "conv:K" (3x3, stride 1, same padding) or "pool"
    (2x2 average). feature_tap indexes the stage whose pre-activation
    output is the distilled feature."""

    name: str
    in_shape: tuple[int, int, int]
    stages: tuple[str, ...]
    num_classes: int
    feature_tap: int

    def validate(self) -> None:
        if not self.stages:
            raise ConfigError(f"{self.name}: empty stage list")
        if not (0 <= self.feature_tap < len(self.stages)):
            raise ConfigError(f"{self.name}: feature_tap {self.feature_tap} out of range")
        if not self.stages[self.feature_tap].startswith("conv:"):
            raise ConfigError(f"{self.name}: feature_tap must point at a conv stage")
        for token in self.stages:
            if token == "pool":
                continue
            if token.startswith("conv:") and token[5:].isdigit() and int(token[5:]) > 0:
                continue
            raise ConfigError(f"{self.name}: bad stage token {token!r}")
        if self.num_classes < 2:
            raise ConfigError(f"{self.name}: need at least two classes")

    def feature_shape(self) -> tuple[int, int, int]:
        c, h, w = self.in_shape
        shape = (c, h, w)
        tapped = None
        for i, token in enumerate(self.stages):
            if token == "pool":
                shape = (shape[0], shape[1] // 2, shape[2] // 2)
            else:
                shape = (int(token[5:]), shape[1], shape[2])
            if i == self.feature_tap:
                tapped = shape
        return tapped


TEACHER_DEFAULT = ArchSpec("teacher-default", (3, 16, 16),
                           ("conv:16", "conv:32", "pool", "conv:32"), 10, feature_tap=3)
STUDENT_DEFAULT = ArchSpec("student-default", (3, 16, 16),
                           ("conv:8", "pool", "conv:16"), 10, feature_tap=2)


def _uniform_init(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor((rng.uniform(shape) * 2.0 - 1.0) * bound)


class Backbone:
    """A stack of conv/pool stages with a dense classification head."""

    def __init__(self, spec: ArchSpec, weights: dict[str, Tensor]):
        self.spec = spec
        self.weights = weights

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights.values())

    def copy(self) -> "Backbone":
        return Backbone(self.spec, dict(self.weights))

    def forward_arrays(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Plain numpy forward: (feature, logits) for an NCHW batch."""
        h = x
        feature = None
        for i, token in enumerate(self.spec.stages):
            if token == "pool":
                h = tc._pool_raw(h)
            else:
                w = self.weights[f"stage{i}.w"].data
                b = self.weights[f"stage{i}.b"].data
                z = tc._conv2d_raw(h, w, "same") + b.reshape(1, -1, 1, 1)
                if i == self.spec.feature_tap:
                    feature = z
                h = np.maximum(z, np.float32(0))
        flat = h.reshape(h.shape[0], -1)
        logits = flat @ self.weights["head.w"].data + self.weights["head.b"].data
        return feature, logits

    def build(self, tape: ad.Tape, x: ad.Node,
              trainable: bool) -> tuple[ad.Node, ad.Node, dict[str, ad.Node]]:
        """Record the forward pass on a tape; returns (feature, logits, weight nodes)."""
        enter = tape.param if trainable else tape.constant
        nodes = {name: enter(w) for name, w in self.weights.items()}
        h = x
        feature = None
        for i, token in enumerate(self.spec.stages):
            if token == "pool":
                h = ad.avg_pool2d(h)
            else:
                z = ad.bias_add(ad.conv2d(h, nodes[f"stage{i}.w"], "same"), nodes[f"stage{i}.b"])
                if i == self.spec.feature_tap:
                    feature = z
                h = ad.relu(z)
        flat = ad.reshape(h, (h.dims[0], h.dims[1] * h.dims[2] * h.dims[3]))
        logits = ad.bias_add(ad.matmul(flat, nodes["head.w"]), nodes["head.b"])
        return feature, logits, nodes


def build_backbone(spec: ArchSpec, rng: Rng) -> Backbone:
    """Scaled-uniform fan-in initialization, deterministic per (spec, stream)."""
    spec.validate()
    weights: dict[str, Tensor] = {}
    c, h, w = spec.in_shape
    for i, token in enumerate(spec.stages):
        if token == "pool":
            h, w = h // 2, w // 2
            continue
        out_c = int(token[5:])
        name = f"stage{i}"
        weights[f"{name}.w"] = _uniform_init(rng.child(f"{name}.w"), (out_c, c, 3, 3), c * 9)
        weights[f"{name}.b"] = Tensor.zeros((out_c,))
        c = out_c
    flat = c * h * w
    weights["head.w"] = _uniform_init(rng.child("head.w"), (flat, spec.num_classes), flat)
    weights["head.b"] = Tensor.zeros((spec.num_classes,))
    return Backbone(spec, weights)


class Adapter:
    """1x1 convolution projecting student channels onto teacher channels."""

    def __init__(self, w: Tensor):
        if len(w.dims) != 4 or w.dims[2:] != (1, 1):
            raise ShapeError(f"adapter weights must be (out,in,1,1), got {w.dims}")
        self.w = w

    @property
    def in_channels(self) -> int:
        return self.w.dims[1]

    @property
    def out_channels(self) -> int:
        return self.w.dims[0]

    @classmethod
    def init_random(cls, in_channels: int, out_channels: int, rng: Rng) -> "Adapter":
        return cls(_uniform_init(rng, (out_channels, in_channels, 1, 1), in_channels))

    @classmethod
    def init_identity(cls, channels: int) -> "Adapter":
        w = np.zeros((channels, channels, 1, 1), dtype=np.float32)
        w[np.arange(channels), np.arange(channels), 0, 0] = 1.0
        return cls(Tensor(w, copy=False))

    def apply_arrays(self, f: np.ndarray) -> np.ndarray:
        return tc._conv2d_raw(f, self.w.data, "same")

    def build(self, tape: ad.Tape, f: ad.Node,
              trainable: bool) -> tuple[ad.Node, dict[str, ad.Node]]:
        node = tape.param(self.w) if trainable else tape.constant(self.w)
        return ad.conv2d(f, node, "same"), {"adapter.w": node}


def adapt(adapter: Adapter, f_s: Tensor) -> Tensor:
    """Project a student feature map into the teacher's channel space."""
    if len(f_s.dims) == 3:
        return tc.conv2d(f_s, adapter.w, "same")
    if len(f_s.dims) == 4:
        return Tensor(adapter.apply_arrays(f_s.data), copy=False)
    raise ShapeError(f"adapt expects a 3-d or 4-d feature, got {f_s.dims}")


def save_backbone(dir_path, backbone: Backbone) -> None:
    base = Path(dir_path)
    base.mkdir(parents=True, exist_ok=True)
    arch = {
        "name": backbone.spec.name,
        "in_shape": list(backbone.spec.in_shape),
        "stages": list(backbone.spec.stages),
        "num_classes": backbone.spec.num_classes,
        "feature_tap": backbone.spec.feature_tap,
    }
    (base / "arch.json").write_text(json.dumps(arch, indent=2) + "\n", encoding="utf-8")
    save_weights(base / "weights", backbone.weights)


def load_backbone(dir_path) -> Backbone:
    base = Path(dir_path)
    arch_path = base / "arch.json"
    if not arch_path.exists():
        raise DataError(f"no arch.json under {dir_path}")
    arch = json.loads(arch_path.read_text(encoding="utf-8"))
    spec = ArchSpec(arch["name"], tuple(arch["in_shape"]), tuple(arch["stages"]),
                    arch["num_classes"], arch["feature_tap"])
    spec.validate()
    return Backbone(spec, load_weights(base / "weights"))


def classification_accuracy(backbone: Backbone, dataset: Dataset,
                            batch_size: int = 256) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    hits = 0
    n = len(dataset)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        _, logits = backbone.forward_arrays(dataset.images.data[start:stop])
        hits += int((np.argmax(logits, axis=1) == dataset.labels[start:stop]).sum())
    return hits / n


def pretrain_teacher(backbone: Backbone, dataset: Dataset, epochs: int, lr: float,
                     rng: Rng, momentum: float = 0.9, batch_size: int = 64,
                     eval_dataset: Optional[Dataset] = None,
                     lr_decay_points: tuple[float, ...] = (2 / 3, 5 / 6)) -> tuple[Backbone, float]:
    """Cross-entropy SGD training; returns the trained backbone and its accuracy."""
    if len(dataset) == 0:
        raise ShapeError("cannot pretrain on an empty dataset")
    model = backbone.copy()
    opt = SgdMomentum(momentum)
    n = len(dataset)
    for epoch in range(epochs):
        decay = sum(1 for p in lr_decay_points if epoch >= int(p * epochs))
        epoch_lr = lr * (0.1 ** decay)
        perm = rng.child("order").child(epoch).permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            tape = ad.Tape()
            x = tape.constant(Tensor(dataset.images.data[idx]))
            _, logits, nodes = model.build(tape, x, trainable=True)
            loss = ad.cross_entropy(logits, dataset.labels[idx])
            grads = ad.backward(loss)
            tape.release()
            named = {name: grads[node] for name, node in nodes.items()}
            model.weights = opt.step(model.weights, named, epoch_lr)
    acc = classification_accuracy(model, eval_dataset if eval_dataset is not None else dataset)
    return model, acc
