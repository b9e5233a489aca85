"""Distinctive-area detection: a three-branch head (heatmap / size /
offset), peak decoding into boxes, binary masks, and the masked
distillation loss restricted to those boxes.

One head instance serves both the teacher path and the student path;
parameter sharing is what makes the two paths' predictions comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as tc
from .errors import ShapeError
from .tensor import Rng, Tensor

BRANCHES = ("heatmap", "size", "offset")
_BRANCH_CHANNELS = {"heatmap": 1, "size": 2, "offset": 2}

# keeps the exponential size activation inside a trainable range
_SIZE_PREACT_LIMIT = 4.0


@dataclass
class DistinctiveArea:
    """A decoded box on the feature grid, in cell-center coordinates."""

    center_x: float
    center_y: float
    width: float
    height: float
    score: float

    def clipped_box(self, h: int, w: int) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1) intersected with the grid extent."""
        raw = np.array([self.center_x, self.center_y, self.width, self.height])
        return tuple(float(v) for v in _clip_boxes(raw, h, w))


def _clip_boxes(raw: np.ndarray, h: int, w: int) -> tuple:
    """float64 (..., 4) boxes (center_x, center_y, width, height) as the
    arrays (x0, x1, y0, y1) of their intersections with the grid extent."""
    cx, cy, bw, bh = np.moveaxis(raw, -1, 0)
    return (np.maximum(cx - bw / 2.0, 0.0), np.minimum(cx + bw / 2.0, float(w)),
            np.maximum(cy - bh / 2.0, 0.0), np.minimum(cy + bh / 2.0, float(h)))


def _box_masks(box: tuple, h: int, w: int) -> np.ndarray:
    """Boolean (..., H, W) masks of clipped boxes: cell (r, c) belongs iff
    its center (c + 0.5, r + 0.5) lies inside the box. Boxes are half-open,
    so zero-area boxes select nothing."""
    x0, x1, y0, y1 = (np.asarray(edge)[..., None] for edge in box)
    rows, cols = np.arange(h) + 0.5, np.arange(w) + 0.5
    inside_rows = (rows >= y0) & (rows < y1)
    inside_cols = (cols >= x0) & (cols < x1)
    return inside_rows[..., :, None] & inside_cols[..., None, :]


class DamHead:
    """Three branches, each a 3x3 conv, relu, then a 1x1 conv."""

    def __init__(self, in_channels: int, mid_channels: int, weights: dict[str, Tensor]):
        self.in_channels = in_channels
        self.mid_channels = mid_channels
        self.weights = weights

    def copy(self) -> "DamHead":
        return DamHead(self.in_channels, self.mid_channels, dict(self.weights))

    def forward_arrays(self, feat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(heatmap, size, offset) activations for an NCHW feature batch.

        The three branches share one fused convolution per layer (their
        kernels are stacked along the output-channel axis), which is
        arithmetically identical to evaluating them separately."""
        w3 = np.concatenate([self.weights[f"{b}.conv3.w"].data for b in BRANCHES], axis=0)
        b3 = np.concatenate([self.weights[f"{b}.conv3.b"].data for b in BRANCHES], axis=0)
        mid = tc._conv2d_raw(feat, w3, "same") + b3.reshape(1, -1, 1, 1)
        np.maximum(mid, np.float32(0), out=mid)
        outs = []
        for i, branch in enumerate(BRANCHES):
            chunk = mid[:, i * self.mid_channels:(i + 1) * self.mid_channels]
            z = tc._conv2d_raw(chunk, self.weights[f"{branch}.conv1.w"].data, "same")
            z = z + self.weights[f"{branch}.conv1.b"].data.reshape(1, -1, 1, 1)
            if branch == "size":
                outs.append(np.exp(np.clip(z, -_SIZE_PREACT_LIMIT, _SIZE_PREACT_LIMIT)))
            else:
                outs.append(tc._sigmoid_raw(z))
        return tuple(outs)

    def build(self, tape: ad.Tape, feat: ad.Node,
              trainable: bool) -> tuple[dict[str, ad.Node], dict[str, ad.Node]]:
        """Record the head on a tape; returns (branch outputs, weight nodes)."""
        enter = tape.param if trainable else tape.constant
        nodes = {name: enter(w) for name, w in self.weights.items()}
        w3 = ad.concat0([nodes[f"{b}.conv3.w"] for b in BRANCHES])
        b3 = ad.concat0([nodes[f"{b}.conv3.b"] for b in BRANCHES])
        mid = ad.relu(ad.bias_add(ad.conv2d(feat, w3, "same"), b3))
        outs: dict[str, ad.Node] = {}
        for i, branch in enumerate(BRANCHES):
            chunk = ad.slice_channels(mid, i * self.mid_channels, (i + 1) * self.mid_channels)
            z = ad.bias_add(ad.conv2d(chunk, nodes[f"{branch}.conv1.w"], "same"),
                            nodes[f"{branch}.conv1.b"])
            if branch == "size":
                outs[branch] = ad.exp(ad.clip(z, -_SIZE_PREACT_LIMIT, _SIZE_PREACT_LIMIT))
            else:
                outs[branch] = ad.sigmoid(z)
        return outs, nodes


def build_dam_head(in_channels: int, mid_channels: int, rng: Rng) -> DamHead:
    # gain < 1 keeps the exp-activated size branch near 1.0 at init even for
    # large-scale input features
    gain = 0.3
    weights: dict[str, Tensor] = {}
    for branch in BRANCHES:
        out_ch = _BRANCH_CHANNELS[branch]
        b3 = gain / np.sqrt(in_channels * 9)
        b1 = gain / np.sqrt(mid_channels)
        w3 = (rng.child(f"{branch}.conv3").uniform((mid_channels, in_channels, 3, 3)) * 2 - 1) * b3
        w1 = (rng.child(f"{branch}.conv1").uniform((out_ch, mid_channels, 1, 1)) * 2 - 1) * b1
        weights[f"{branch}.conv3.w"] = Tensor(w3)
        weights[f"{branch}.conv3.b"] = Tensor.zeros((mid_channels,))
        weights[f"{branch}.conv1.w"] = Tensor(w1)
        weights[f"{branch}.conv1.b"] = Tensor.zeros((out_ch,))
    return DamHead(in_channels, mid_channels, weights)


def zero_dam_head(in_channels: int, mid_channels: int) -> DamHead:
    head = build_dam_head(in_channels, mid_channels, Rng(0))
    head.weights = {name: Tensor.zeros(w.dims) for name, w in head.weights.items()}
    return head


def dam_forward(head: DamHead, feat: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Branch activations for one feature map (CHW) or a batch (NCHW)."""
    single = len(feat.dims) == 3
    arr = feat.data[None] if single else feat.data
    if arr.ndim != 4:
        raise ShapeError(f"dam_forward expects CHW or NCHW, got {feat.dims}")
    if arr.shape[1] != head.in_channels:
        raise ShapeError(f"feature has {arr.shape[1]} channels, head expects {head.in_channels}")
    heat, size, offset = head.forward_arrays(arr)
    if single:
        heat, size, offset = heat[0], size[0], offset[0]
    return Tensor(heat, copy=False), Tensor(size, copy=False), Tensor(offset, copy=False)


def dam_align_loss(student_branches, teacher_branches) -> float:
    """Sum over branches of the mean squared difference between paths."""
    total = 0.0
    if len(student_branches) != len(teacher_branches):
        raise ShapeError("branch tuples differ in length")
    for s, t in zip(student_branches, teacher_branches):
        if s.dims != t.dims:
            raise ShapeError(f"branch shape mismatch: {s.dims} vs {t.dims}")
        diff = s.data.astype(np.float64) - t.data.astype(np.float64)
        total += float(np.mean(diff * diff))
    return total


def decode_batch(heat: np.ndarray, size: np.ndarray, offset: np.ndarray,
                 n: int) -> list[list[DistinctiveArea]]:
    """Top-n peaks of each image decoded into boxes; heat is (N,1,H,W),
    size and offset are (N,2,H,W).

    A peak is a cell >= all 8 neighbours (missing border neighbours are
    ignored). Peaks rank by score descending, then raster order, which is
    stable under candidate permutation. A peak whose clipped box is empty
    is skipped, so an image may get fewer than n areas."""
    count, _, h, w = heat.shape
    hm = heat[:, 0]
    padded = np.full((count, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = hm
    peaks = np.ones(hm.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                peaks &= hm >= padded[:, 1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
    img, rows, cols = np.nonzero(peaks)
    order = np.lexsort((rows * w + cols, -hm[img, rows, cols], img))
    img, rows, cols = img[order], rows[order], cols[order]
    # (center_x, center_y, width, height) per candidate
    raw = np.concatenate([offset, size], axis=1)[img, :, rows, cols].astype(np.float64)
    raw[:, 0] += cols
    raw[:, 1] += rows
    x0, x1, y0, y1 = _clip_boxes(raw, h, w)
    kept = np.flatnonzero((x1 > x0) & (y1 > y0))
    # candidates stay grouped by image, so a candidate's rank within its
    # image is its distance from the image's first candidate
    rank = np.arange(kept.size) - np.searchsorted(img[kept], img[kept])
    chosen = kept[rank < n]
    areas: list[list[DistinctiveArea]] = [[] for _ in range(count)]
    for i, (cx, cy, bw, bh), score in zip(img[chosen].tolist(), raw[chosen].tolist(),
                                          hm[img[chosen], rows[chosen], cols[chosen]].tolist()):
        areas[i].append(DistinctiveArea(cx, cy, bw, bh, score))
    return areas


def _decode_arrays(heat: np.ndarray, size: np.ndarray, offset: np.ndarray,
                   n: int) -> list[DistinctiveArea]:
    """decode_batch for one image: heat (1,H,W), size and offset (2,H,W)."""
    return decode_batch(heat[None], size[None], offset[None], n)[0]


def decode_areas(heatmap: Tensor, size: Tensor, offset: Tensor, n: int) -> list[DistinctiveArea]:
    """Top-n heatmap peaks decoded into boxes (may return fewer than n)."""
    if n < 1:
        raise ShapeError("decode_areas needs n >= 1")
    if heatmap.dims[0] != 1 or size.dims[0] != 2 or offset.dims[0] != 2:
        raise ShapeError("expected 1/2/2 channel heatmap/size/offset")
    return _decode_arrays(heatmap.data, size.data, offset.data, n)


def area_mask(area: DistinctiveArea, dims: tuple[int, int]) -> Tensor:
    """Binary HxW mask of the cells whose centers lie inside the clipped box."""
    h, w = dims
    mask = _box_masks(area.clipped_box(h, w), h, w)
    return Tensor(mask.astype(np.float32), copy=False)


def masked_distill_loss(f_s_aligned: Tensor, f_t_aug: Tensor, areas) -> float:
    """Sum over areas of the masked mean squared feature difference."""
    if f_s_aligned.dims != f_t_aug.dims:
        raise ShapeError(f"feature shape mismatch: {f_s_aligned.dims} vs {f_t_aug.dims}")
    diff = f_s_aligned.data.astype(np.float64) - f_t_aug.data.astype(np.float64)
    return float((batched_mask_weights([areas], f_s_aligned.dims)[0] * diff * diff).sum())


def batched_mask_weights(areas_per_image, dims: tuple[int, int, int]) -> np.ndarray:
    """Per-image area masks folded into one weight tensor W such that
    sum(W * diff^2) equals the summed masked means; batch averaging is the
    caller's concern."""
    c, h, w = dims
    count = len(areas_per_image)
    depth = max((len(areas) for areas in areas_per_image), default=0)
    # a missing area has zero size, so its mask is empty
    raw = np.zeros((count, depth, 4))
    for i, areas in enumerate(areas_per_image):
        raw[i, :len(areas)] = np.reshape([(a.center_x, a.center_y, a.width, a.height)
                                          for a in areas], (-1, 4))
    masks = _box_masks(_clip_boxes(raw, h, w), h, w)
    weights = np.float32(1) / (np.maximum(masks.sum(axis=(2, 3)), 1) * c).astype(np.float32)
    # added in area-rank order, so the float32 sums are those of adding one
    # area at a time; an empty mask adds exact zeros
    acc = np.zeros((count, h, w), dtype=np.float32)
    for k in range(depth):
        acc += np.where(masks[:, k], weights[:, k, None, None], np.float32(0))
    return np.repeat(acc[:, None], c, axis=1)
