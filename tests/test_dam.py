import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sokd import autodiff as ad
from sokd.dam import (
    DistinctiveArea,
    _decode_arrays,
    area_mask,
    batched_mask_weights,
    build_dam_head,
    dam_align_loss,
    dam_forward,
    decode_areas,
    decode_batch,
    masked_distill_loss,
    zero_dam_head,
)
from sokd.errors import ShapeError
from sokd.tensor import Rng, Tensor


def feat(seed=0, dims=(32, 8, 8)):
    return Tensor(Rng(seed).normal(dims).astype(np.float32))


class TestDamForward:
    def test_zero_head_activations(self):
        head = zero_dam_head(32, 16)
        heat, size, offset = dam_forward(head, feat(1))
        np.testing.assert_array_equal(heat.data, np.full((1, 8, 8), 0.5))
        np.testing.assert_array_equal(size.data, np.ones((2, 8, 8)))
        np.testing.assert_array_equal(offset.data, np.full((2, 8, 8), 0.5))

    def test_shared_head_identical_outputs(self):
        head = build_dam_head(32, 16, Rng(2))
        f = feat(3)
        a = dam_forward(head, f)
        b = dam_forward(head, f)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)

    def test_shapes(self):
        head = build_dam_head(32, 16, Rng(4))
        heat, size, offset = dam_forward(head, feat(5))
        assert heat.dims == (1, 8, 8)
        assert size.dims == (2, 8, 8)
        assert offset.dims == (2, 8, 8)

    def test_output_ranges(self):
        head = build_dam_head(32, 16, Rng(6))
        heat, size, offset = dam_forward(head, Tensor(Rng(7).normal((32, 8, 8)) * 3))
        assert np.all(heat.data > 0) and np.all(heat.data < 1)
        assert np.all(size.data > 0)
        assert np.all(offset.data > 0) and np.all(offset.data < 1)

    def test_channel_mismatch(self):
        head = build_dam_head(32, 16, Rng(8))
        with pytest.raises(ShapeError):
            dam_forward(head, feat(9, dims=(16, 8, 8)))

    def test_tape_forward_matches_arrays(self):
        head = build_dam_head(32, 16, Rng(10))
        f = Rng(11).normal((2, 32, 8, 8)).astype(np.float32)
        heat, size, offset = head.forward_arrays(f)
        tape = ad.Tape()
        outs, _ = head.build(tape, tape.constant(Tensor(f)), trainable=False)
        np.testing.assert_array_equal(outs["heatmap"].data, heat)
        np.testing.assert_array_equal(outs["size"].data, size)
        np.testing.assert_array_equal(outs["offset"].data, offset)


class TestAlignLoss:
    def test_identical_zero(self):
        head = build_dam_head(32, 16, Rng(1))
        branches = dam_forward(head, feat(2))
        assert dam_align_loss(branches, branches) == 0.0

    def test_unit_heatmap_gap(self):
        a = (Tensor.zeros((1, 4, 4)), Tensor.zeros((2, 4, 4)), Tensor.zeros((2, 4, 4)))
        b = (Tensor(np.ones((1, 4, 4), dtype=np.float32)), Tensor.zeros((2, 4, 4)),
             Tensor.zeros((2, 4, 4)))
        assert dam_align_loss(a, b) == 1.0

    def test_symmetry(self):
        head = build_dam_head(32, 16, Rng(3))
        x = dam_forward(head, feat(4))
        y = dam_forward(head, feat(5))
        assert dam_align_loss(x, y) == dam_align_loss(y, x)


class TestDecodeAreas:
    def _single_peak(self):
        heat = np.zeros((1, 8, 8), dtype=np.float32)
        heat[0, 3, 4] = 0.9
        size = np.zeros((2, 8, 8), dtype=np.float32)
        size[0, 3, 4] = 4.0
        size[1, 3, 4] = 2.0
        offset = np.full((2, 8, 8), 0.0, dtype=np.float32)
        offset[:, 3, 4] = 0.5
        return Tensor(heat), Tensor(size), Tensor(offset)

    def test_single_peak_decode(self):
        heat, size, offset = self._single_peak()
        areas = decode_areas(heat, size, offset, n=1)
        assert len(areas) == 1
        a = areas[0]
        assert (a.center_x, a.center_y) == (4.5, 3.5)
        assert (a.width, a.height) == (4.0, 2.0)
        assert a.score == pytest.approx(0.9)
        assert a.clipped_box(8, 8) == (2.5, 6.5, 2.5, 4.5)

    def test_two_peaks_ordered_by_score(self):
        heat = np.zeros((1, 8, 8), dtype=np.float32)
        heat[0, 1, 1] = 0.8
        heat[0, 6, 6] = 0.9
        size = np.ones((2, 8, 8), dtype=np.float32)
        offset = np.full((2, 8, 8), 0.5, dtype=np.float32)
        areas = decode_areas(Tensor(heat), Tensor(size), Tensor(offset), n=2)
        assert [a.score for a in areas] == pytest.approx([0.9, 0.8])

    def test_flat_heatmap_raster_tie_rule(self):
        heat = np.full((1, 5, 5), 0.5, dtype=np.float32)
        size = np.ones((2, 5, 5), dtype=np.float32)
        offset = np.full((2, 5, 5), 0.5, dtype=np.float32)
        areas = decode_areas(Tensor(heat), Tensor(size), Tensor(offset), n=1)
        assert len(areas) == 1
        assert (areas[0].center_x, areas[0].center_y) == (0.5, 0.5)

    def test_interior_peak_only(self):
        heat = np.zeros((1, 6, 6), dtype=np.float32)
        heat[0, 2, 2] = 0.7
        heat[0, 2, 3] = 0.6  # neighbour of the peak, not itself a peak
        size = np.ones((2, 6, 6), dtype=np.float32)
        offset = np.full((2, 6, 6), 0.5, dtype=np.float32)
        areas = decode_areas(Tensor(heat), Tensor(size), Tensor(offset), n=10)
        coords = {(a.center_x, a.center_y) for a in areas}
        assert (2.5, 2.5) in coords
        assert (3.5, 2.5) not in coords

    def test_n_validatation(self):
        heat, size, offset = self._single_peak()
        with pytest.raises(ShapeError):
            decode_areas(heat, size, offset, n=0)


class TestAreaMask:
    def test_full_grid_all_ones(self):
        area = DistinctiveArea(4.0, 4.0, 8.0, 8.0, 1.0)
        np.testing.assert_array_equal(area_mask(area, (8, 8)).data, np.ones((8, 8)))

    def test_zero_area_all_zeros(self):
        area = DistinctiveArea(2.5, 2.5, 0.0, 0.0, 0.5)
        np.testing.assert_array_equal(area_mask(area, (8, 8)).data, np.zeros((8, 8)))

    def test_half_outside_clips(self):
        area = DistinctiveArea(0.0, 4.0, 4.0, 2.0, 0.5)  # left half off-grid
        mask = area_mask(area, (8, 8)).data
        expected = np.zeros((8, 8), dtype=np.float32)
        expected[3:5, 0:2] = 1.0
        np.testing.assert_array_equal(mask, expected)

    def test_decode_example_mask(self):
        area = DistinctiveArea(4.5, 3.5, 4.0, 2.0, 0.9)
        mask = area_mask(area, (8, 8)).data
        expected = np.zeros((8, 8), dtype=np.float32)
        expected[2:4, 2:6] = 1.0
        np.testing.assert_array_equal(mask, expected)


class TestMaskedDistillLoss:
    def test_identical_features_zero(self):
        f = feat(1, dims=(4, 8, 8))
        areas = [DistinctiveArea(4.0, 4.0, 4.0, 4.0, 0.9)]
        assert masked_distill_loss(f, f, areas) == 0.0

    def test_full_grid_equals_plain_mse(self):
        a = feat(2, dims=(4, 8, 8))
        b = feat(3, dims=(4, 8, 8))
        areas = [DistinctiveArea(4.0, 4.0, 8.0, 8.0, 1.0)]
        masked = masked_distill_loss(a, b, areas)
        plain = float(np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2))
        assert abs(masked - plain) < 1e-6

    def test_duplicate_area_doubles(self):
        a = feat(4, dims=(4, 8, 8))
        b = feat(5, dims=(4, 8, 8))
        area = DistinctiveArea(3.0, 3.0, 3.0, 3.0, 0.8)
        one = masked_distill_loss(a, b, [area])
        two = masked_distill_loss(a, b, [area, area])
        assert abs(two - 2 * one) < 1e-9

    def test_empty_area_list_zero(self):
        assert masked_distill_loss(feat(6), feat(7), []) == 0.0

    def test_empty_mask_contributes_zero(self):
        a, b = feat(8, dims=(2, 8, 8)), feat(9, dims=(2, 8, 8))
        zero_area = DistinctiveArea(2.5, 2.5, 0.0, 0.0, 0.5)
        real_area = DistinctiveArea(4.0, 4.0, 2.0, 2.0, 0.9)
        assert masked_distill_loss(a, b, [real_area, zero_area]) == \
            masked_distill_loss(a, b, [real_area])

    def test_mask_growth_monotone_for_constant_difference(self):
        c, h, w = 2, 8, 8
        a = Tensor(np.zeros((c, h, w), dtype=np.float32))
        b = Tensor(np.ones((c, h, w), dtype=np.float32))
        small = DistinctiveArea(4.0, 4.0, 2.0, 2.0, 0.9)
        large = DistinctiveArea(4.0, 4.0, 6.0, 6.0, 0.9)
        # constant squared difference: masked mean is invariant, sum over a
        # growing area list is monotone
        assert masked_distill_loss(a, b, [small, large]) >= masked_distill_loss(a, b, [small])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_distill_loss(feat(1, dims=(2, 4, 4)), feat(2, dims=(2, 8, 8)), [])


class TestBatchedMaskWeights:
    def test_matches_per_image_loss(self):
        rng = Rng(11)
        a = rng.normal((3, 4, 8, 8)).astype(np.float32)
        b = rng.normal((3, 4, 8, 8)).astype(np.float32)
        areas = [
            [DistinctiveArea(4.0, 4.0, 4.0, 4.0, 0.9)],
            [DistinctiveArea(2.0, 2.0, 2.0, 3.0, 0.8),
             DistinctiveArea(6.0, 6.0, 3.0, 2.0, 0.7)],
            [],
        ]
        weights = batched_mask_weights(areas, (4, 8, 8))
        batched = float((weights * (a - b) ** 2).sum())
        per_image = sum(
            masked_distill_loss(Tensor(a[i]), Tensor(b[i]), areas[i]) for i in range(3))
        assert abs(batched - per_image) < 1e-4


def _reference_decode(hm, size, offset, n):
    """Per-image decode, one candidate at a time: (cx, cy, w, h, score) rows."""
    h, w = hm.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = hm
    peaks = np.ones((h, w), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                peaks &= hm >= padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
    rows, cols = np.nonzero(peaks)
    order = np.lexsort((rows * w + cols, -hm[rows, cols]))
    areas = []
    for idx in order:
        if len(areas) == n:
            break
        r, c = int(rows[idx]), int(cols[idx])
        cx, cy = c + float(offset[0, r, c]), r + float(offset[1, r, c])
        bw, bh = float(size[0, r, c]), float(size[1, r, c])
        x0, x1 = max(cx - bw / 2.0, 0.0), min(cx + bw / 2.0, float(w))
        y0, y1 = max(cy - bh / 2.0, 0.0), min(cy + bh / 2.0, float(h))
        if x1 <= x0 or y1 <= y0:
            continue
        areas.append((cx, cy, bw, bh, float(hm[r, c])))
    return areas


def _reference_weights(areas_per_image, c, h, w):
    """Per-image, per-area float32 accumulation of the mask weights."""
    out = np.zeros((len(areas_per_image), c, h, w), dtype=np.float32)
    rows, cols = np.arange(h) + 0.5, np.arange(w) + 0.5
    for i, areas in enumerate(areas_per_image):
        acc = np.zeros((h, w), dtype=np.float32)
        for cx, cy, bw, bh, _ in areas:
            x0, x1 = max(cx - bw / 2.0, 0.0), min(cx + bw / 2.0, float(w))
            y0, y1 = max(cy - bh / 2.0, 0.0), min(cy + bh / 2.0, float(h))
            mask = (((rows >= y0) & (rows < y1))[:, None]
                    & ((cols >= x0) & (cols < x1))[None, :]).astype(np.float32)
            count = float(mask.sum())
            if count == 0:
                continue
            acc += mask / np.float32(count * c)
        out[i] = acc[None]
    return out


def _as_rows(areas):
    return [(a.center_x, a.center_y, a.width, a.height, a.score) for a in areas]


@st.composite
def dam_outputs(draw):
    """Head outputs with plateaus and ties (few distinct heat values), boxes
    that are empty, partly off the grid or cover it, and 1x1 grids."""
    n_img = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    heat = draw(hnp.arrays(np.float32, (n_img, 1, h, w),
                           elements=st.one_of(st.sampled_from([0.1, 0.25, 0.5, 0.9]),
                                              st.floats(0.0, 1.0, width=32))))
    size = draw(hnp.arrays(np.float32, (n_img, 2, h, w),
                           elements=st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.0, 40.0])))
    offset = draw(hnp.arrays(np.float32, (n_img, 2, h, w),
                             elements=st.sampled_from([-3.0, 0.0, 0.25, 0.5, 0.999, 5.0])))
    return heat, size, offset


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestBatchedDecodeProperties:
    @_PROPERTY
    @given(dam_outputs(), st.integers(1, 40), st.integers(1, 3))
    def test_batch_equals_per_image_reference(self, outputs, n, c):
        heat, size, offset = outputs
        decoded = decode_batch(heat, size, offset, n)
        expected = [_reference_decode(heat[i, 0], size[i], offset[i], n)
                    for i in range(heat.shape[0])]
        got = [_as_rows(areas) for areas in decoded]
        assert np.array(sum(got, []), dtype=np.float64).tobytes() == \
            np.array(sum(expected, []), dtype=np.float64).tobytes()
        assert [len(r) for r in got] == [len(r) for r in expected]
        for i in range(heat.shape[0]):
            assert _as_rows(_decode_arrays(heat[i], size[i], offset[i], n)) == expected[i]
        h, w = heat.shape[2:]
        weights = batched_mask_weights(decoded, (c, h, w))
        assert weights.dtype == np.float32
        assert weights.tobytes() == _reference_weights(expected, c, h, w).tobytes()

    @_PROPERTY
    @given(st.lists(st.lists(st.tuples(*[st.sampled_from([-2.0, 0.0, 0.5, 1.5, 3.0, 9.0])] * 4),
                             max_size=4), min_size=1, max_size=4),
           st.integers(1, 5), st.integers(1, 5))
    def test_mask_weights_match_reference_for_any_areas(self, boxes, h, w):
        areas = [[DistinctiveArea(*box, 0.5) for box in image] for image in boxes]
        rows = [[box + (0.5,) for box in image] for image in boxes]
        assert batched_mask_weights(areas, (2, h, w)).tobytes() == \
            _reference_weights(rows, 2, h, w).tobytes()
