"""Fast pins on the float64 random streams the acceptance teacher depends on.

The synthetic data and the backbone init feed a teacher whose training
outcome turns on last-bit rounding, so any change to these streams must be
deliberate. These hashes catch one in seconds rather than through the full
acceptance run. A numpy upgrade that changes the bits of `sin` or of the
Philox normal sampler trips them too; re-pin only after checking the
acceptance teacher.
"""

import hashlib

import numpy as np

from sokd.data import make_synthetic
from sokd.models import TEACHER_DEFAULT, build_backbone
from sokd.tensor import Rng


def _digest(named_arrays) -> str:
    h = hashlib.sha256()
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_synthetic_dataset_pinned():
    ds = make_synthetic(4, 6, 16, 3, Rng(0).child("train"))
    digest = _digest([("images", ds.images.data), ("labels", ds.labels)])
    assert digest == "dd4336e8b0708e91656d43d08a82ba65aa62657453f356d1f166d32ff5659161"


def test_teacher_init_pinned():
    net = build_backbone(TEACHER_DEFAULT, Rng(0).child("teacher"))
    digest = _digest(sorted((k, w.data) for k, w in net.weights.items()))
    assert digest == "4f3de7255e78aa32f8f255db9149849e0738e2da75c1acd569b6724c7f63e81b"
