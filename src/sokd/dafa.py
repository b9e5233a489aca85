"""Differentiable feature-augmentation policies.

A policy holds P sub-policies, each an ordered list of gated,
magnitude-parameterized operations on a feature map. Three relaxations
make the whole thing trainable by gradient descent:

  * sub-policy choice: Gumbel-perturbed temperature softmax over the
    selection logits (soft mixture, or straight-through one-hot);
  * per-operation gates: sigmoid-of-logistic-noise relaxation of the
    Bernoulli apply/skip decision;
  * magnitudes: a straight-through estimator whose backward sums the
    upstream gradient over all positions, regardless of the operation's
    true sensitivity.

All randomness is drawn up front into a noise record, so the pure
numeric path and the recorded-graph path see identical draws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import CustomBackward, Node, Tape
from .errors import ConfigError, DataError, ShapeError
from .tensor import Rng, Tensor, gumbel_from_uniform

AUG_OP_KINDS = (
    "identity",
    "additive_gaussian_noise",
    "feature_mask",
    "channel_scale",
    "uniform_scale",
    "channel_shuffle",
)

# gate-probability bounds, expressed in the float32 domain the parameters
# live in; keeping beta away from {0, 1} keeps the relaxation gradients finite
BETA_MIN = float(np.float32(1e-3))
BETA_MAX = float(np.float32(1.0 - 1e-3))


@dataclass
class OpChoice:
    kind: str
    beta: float = 0.5
    m: float = 0.1

    def __post_init__(self):
        # parameters live in the float32 domain; normalizing here makes
        # zero-step updates exact no-ops
        self.beta = float(np.float32(self.beta))
        self.m = float(np.float32(self.m))


@dataclass
class SubPolicy:
    ops: list[OpChoice]


@dataclass
class AugPolicy:
    """Search state: selection logits, per-op gate probabilities and
    magnitudes, plus the two relaxation temperatures."""

    alpha: np.ndarray
    subpolicies: list[SubPolicy]
    tau: float = 1.0
    lam: float = 0.5
    k_max: int = 2

    def validate(self) -> None:
        p = len(self.subpolicies)
        if p < 1:
            raise ConfigError("policy needs at least one sub-policy")
        if self.alpha.shape != (p,):
            raise ConfigError(f"alpha length {self.alpha.shape} != {p} sub-policies")
        if not np.all(np.isfinite(self.alpha)):
            raise ConfigError("non-finite sub-policy logits")
        if self.tau <= 0 or self.lam <= 0:
            raise ConfigError("temperatures must be positive")
        for sub in self.subpolicies:
            if not 1 <= len(sub.ops) <= self.k_max:
                raise ConfigError(f"sub-policy length {len(sub.ops)} outside [1, {self.k_max}]")
            for op in sub.ops:
                if op.kind not in AUG_OP_KINDS:
                    raise ConfigError(f"unknown operation kind {op.kind!r}")
                if not BETA_MIN <= op.beta <= BETA_MAX:
                    raise ConfigError(f"beta {op.beta} outside [{BETA_MIN}, {BETA_MAX}]")
                if not 0.0 <= op.m <= 1.0:
                    raise ConfigError(f"magnitude {op.m} outside [0, 1]")

    def clamp(self) -> None:
        for sub in self.subpolicies:
            for op in sub.ops:
                op.beta = float(min(max(op.beta, BETA_MIN), BETA_MAX))
                op.m = float(min(max(op.m, 0.0), 1.0))


@dataclass
class DiscretePolicy:
    """Search result: the argmax sub-policy, applied with hard gates."""

    sub: SubPolicy
    index: int


DEFAULT_SUBPOLICY_KINDS = (
    ("identity", "additive_gaussian_noise"),
    ("additive_gaussian_noise", "feature_mask"),
    ("channel_scale", "channel_shuffle"),
    ("uniform_scale", "feature_mask"),
)


def default_policy(kinds=DEFAULT_SUBPOLICY_KINDS, beta: float = 0.5, m: float = 0.1,
                   tau: float = 1.0, lam: float = 0.5) -> AugPolicy:
    subs = [SubPolicy([OpChoice(k, beta, m) for k in ks]) for ks in kinds]
    k_max = max(len(s.ops) for s in subs)
    policy = AugPolicy(np.zeros(len(subs), dtype=np.float64), subs, tau, lam, k_max)
    policy.validate()
    return policy


# ---------------------------------------------------------------------------
# operation forward/backward and noise draws

def _channel_axis(ndim: int) -> int:
    if ndim == 3:
        return 0
    if ndim == 4:
        return 1
    raise ShapeError(f"feature maps must be 3-d or 4-d, got {ndim}-d")


def _draw_op_noise(kind: str, shape: tuple[int, ...], m: float, rng: Rng) -> dict:
    if kind == "additive_gaussian_noise":
        return {"eps": rng.normal(shape, np.float32)}
    if kind == "feature_mask":
        numel = int(np.prod(shape))
        count = int(round(m * numel))
        mask = np.ones(numel, dtype=np.float32)
        mask[rng.permutation(numel, count)] = 0.0
        return {"mask": mask.reshape(shape)}
    if kind == "channel_shuffle":
        c = shape[_channel_axis(len(shape))]
        count = int(round(m * c))
        perm = np.arange(c)
        if count >= 2:
            subset = np.sort(rng.permutation(c)[:count])
            perm[subset] = subset[rng.permutation(count)]
        return {"perm": perm}
    return {}


def _op_forward(kind: str, x: np.ndarray, m: float, noise: dict) -> np.ndarray:
    if kind == "identity":
        return x
    if kind == "additive_gaussian_noise":
        if m == 0.0:
            return x
        sd = np.float32(x.std(dtype=np.float64))
        return x + np.float32(m) * sd * noise["eps"]
    if kind == "feature_mask":
        return x * noise["mask"]
    if kind in ("channel_scale", "uniform_scale"):
        # both apply the gain (1+m); they remain distinct search-space entries
        return x * np.float32(1.0 + m)
    if kind == "channel_shuffle":
        perm = noise["perm"]
        return x[perm] if x.ndim == 3 else x[:, perm]
    raise ShapeError(f"unknown operation kind {kind!r}")


def _op_input_grad(kind: str, up: np.ndarray, m: float, noise: dict) -> np.ndarray:
    if kind in ("identity", "additive_gaussian_noise"):
        # the noise scale is treated as a frozen statistic of the input
        return up
    if kind == "feature_mask":
        return up * noise["mask"]
    if kind in ("channel_scale", "uniform_scale"):
        return up * np.float32(1.0 + m)
    if kind == "channel_shuffle":
        inv = np.argsort(noise["perm"])
        return up[inv] if up.ndim == 3 else up[:, inv]
    raise ShapeError(f"unknown operation kind {kind!r}")


def magnitude_grad(upstream) -> float:
    """Straight-through magnitude gradient: the plain sum of the upstream
    gradient over every position, in 32-bit arithmetic."""
    arr = upstream.data if isinstance(upstream, Tensor) else np.asarray(upstream)
    return float(np.float32(np.sum(arr, dtype=np.float64)))


def apply_op(kind: str, f: Tensor, m: float, rng: Rng) -> Tensor:
    """Apply one operation at magnitude m (noise drawn from rng)."""
    if kind not in AUG_OP_KINDS:
        raise ShapeError(f"unknown operation kind {kind!r}")
    if not 0.0 <= m <= 1.0:
        raise ShapeError(f"magnitude {m} outside [0, 1]")
    noise = _draw_op_noise(kind, f.dims, m, rng)
    return Tensor(_op_forward(kind, f.data, m, noise))


def _relaxed_gate(beta: float, u: float, lam: float) -> float:
    z = (math.log(beta / (1.0 - beta)) + math.log(u / (1.0 - u))) / lam
    return 1.0 / (1.0 + math.exp(-z))


def apply_subpolicy(sub: SubPolicy, f: Tensor, lam: float, rng: Rng,
                    mode: str = "hard") -> Tensor:
    """Sequential gated composition of the sub-policy's operations.

    relaxed mode blends each op's output with its input using the
    sigmoid-of-logistic-noise gate; hard mode draws the gate as a plain
    Bernoulli(beta) and either applies the op or leaves the value alone.
    """
    if mode not in ("relaxed", "hard"):
        raise ShapeError(f"unknown sub-policy mode {mode!r}")
    x = f.data
    for j, op in enumerate(sub.ops):
        op_rng = rng.child("op").child(j)
        if op.kind == "identity":
            continue
        u = float(op_rng.uniform())
        noise = _draw_op_noise(op.kind, x.shape, op.m, op_rng)
        if mode == "hard":
            if u < op.beta:
                x = _op_forward(op.kind, x, op.m, noise)
        else:
            b = np.float32(_relaxed_gate(op.beta, u, lam))
            x = b * _op_forward(op.kind, x, op.m, noise) + (np.float32(1.0) - b) * x
    return Tensor(x)


def mix_subpolicies(policy: AugPolicy, f: Tensor, rng: Rng, mode: str = "soft") -> Tensor:
    """Mixture over sub-policies under Gumbel-perturbed selection weights.

    soft: full weighted sum with relaxed gates inside each sub-policy.
    hard: the argmax sub-policy alone, with hard Bernoulli gates inside.
    """
    policy.validate()
    if mode not in ("soft", "hard"):
        raise ShapeError(f"unknown mixture mode {mode!r}")
    g = gumbel_from_uniform(rng.child("gumbel").uniform(len(policy.subpolicies)))
    scores = policy.alpha + g
    if mode == "hard":
        k = int(np.argmax(scores))
        return apply_subpolicy(policy.subpolicies[k], f, policy.lam,
                               rng.child("sub").child(k), mode="hard")
    z = scores / policy.tau
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    out = np.zeros(f.dims, dtype=np.float32)
    for i, sub in enumerate(policy.subpolicies):
        s_out = apply_subpolicy(sub, f, policy.lam, rng.child("sub").child(i), mode="relaxed")
        out += np.float32(w[i]) * s_out.data
    return Tensor(out, copy=False)


def consistency_loss(f_t_aug: Tensor, f_s_aligned: Tensor) -> float:
    """Half the mean squared difference between the augmented teacher
    feature and the aligned student feature."""
    if f_t_aug.dims != f_s_aligned.dims:
        raise ShapeError(f"consistency loss shape mismatch: {f_t_aug.dims} vs {f_s_aligned.dims}")
    diff = f_t_aug.data.astype(np.float64) - f_s_aligned.data.astype(np.float64)
    return 0.5 * float(np.mean(diff * diff))


def discretize(policy: AugPolicy) -> DiscretePolicy:
    """Keep the sub-policy of maximal selection logit (ties: lowest index)."""
    policy.validate()
    index = int(np.argmax(policy.alpha))
    chosen = policy.subpolicies[index]
    return DiscretePolicy(SubPolicy([OpChoice(o.kind, o.beta, o.m) for o in chosen.ops]), index)


def apply_discrete(dp: DiscretePolicy, f: Tensor, rng: Rng) -> Tensor:
    return apply_subpolicy(dp.sub, f, lam=1.0, rng=rng, mode="hard")


# ---------------------------------------------------------------------------
# noise records shared by the numeric and graph paths

@dataclass
class MixNoise:
    gumbel: np.ndarray
    gates: list[list[float]]         # per sub-policy, per op: logistic uniform
    op_noise: list[list[dict]]       # per sub-policy, per op: draw record


def draw_mix_noise(policy: AugPolicy, dims: tuple[int, ...], rng: Rng) -> MixNoise:
    """Draw every random quantity one mixture application needs, using the
    same stream labels as the numeric path."""
    g = gumbel_from_uniform(rng.child("gumbel").uniform(len(policy.subpolicies)))
    gates, noises = [], []
    for i, sub in enumerate(policy.subpolicies):
        sub_rng = rng.child("sub").child(i)
        us, ns = [], []
        for j, op in enumerate(sub.ops):
            op_rng = sub_rng.child("op").child(j)
            if op.kind == "identity":
                us.append(0.5)
                ns.append({})
                continue
            us.append(float(op_rng.uniform()))
            ns.append(_draw_op_noise(op.kind, dims, op.m, op_rng))
        gates.append(us)
        noises.append(ns)
    return MixNoise(g, gates, noises)


def _op_node(tape: Tape, kind: str, x: Node, m_node: Node, noise: dict) -> Node:
    """Graph node for one operation: true linear backward for the feature,
    straight-through sum for the magnitude."""

    def forward(x_arr, m_arr):
        return _op_forward(kind, x_arr, float(m_arr[0]), noise)

    def backward(up, x_arr, m_arr):
        g_x = _op_input_grad(kind, up, float(m_arr[0]), noise)
        g_m = np.array([magnitude_grad(up)], dtype=np.float32)
        return (g_x, g_m)

    return ad.straight_through(CustomBackward(forward, backward), x, m_node)


def build_search_graph(tape: Tape, policy: AugPolicy, f_t: Tensor,
                       noise: MixNoise, mixture: str = "soft") -> tuple[Node, dict]:
    """Record the relaxed mixture as a differentiable graph.

    Returns the augmented-feature node and the policy parameter nodes,
    keyed "alpha", ("beta", i, j), ("m", i, j).
    """
    policy.validate()
    params: dict = {}
    alpha_node = tape.param(Tensor(policy.alpha))
    params["alpha"] = alpha_node
    f_node = tape.constant(f_t)
    sub_outs = []
    for i, sub in enumerate(policy.subpolicies):
        x = f_node
        for j, op in enumerate(sub.ops):
            if op.kind == "identity":
                continue
            m_node = tape.param(Tensor([op.m]))
            params[("m", i, j)] = m_node
            beta_node = tape.param(Tensor([op.beta]))
            params[("beta", i, j)] = beta_node
            op_out = _op_node(tape, op.kind, x, m_node, noise.op_noise[i][j])
            # gate b = sigmoid((logit(beta) + logit(u)) / lambda)
            u = noise.gates[i][j]
            c = math.log(u / (1.0 - u))
            logit_beta = ad.sub(ad.log(beta_node), ad.log(ad.lin(beta_node, -1.0, 1.0)))
            b = ad.sigmoid(ad.lin(logit_beta, 1.0 / policy.lam, c / policy.lam))
            x = ad.add(ad.mul(b, op_out), ad.mul(ad.lin(b, -1.0, 1.0), x))
        sub_outs.append(x)
    scores = ad.add(alpha_node, tape.constant(Tensor(noise.gumbel)))
    w = ad.softmax_temp(scores, policy.tau)
    if mixture == "hard":
        k_hard = int(np.argmax(policy.alpha + noise.gumbel))

        def forward(w_arr, *sub_arrs):
            return sub_arrs[k_hard].copy()

        def backward(up, w_arr, *sub_arrs):
            g_w = np.array([float(np.sum(up.astype(np.float64) * s)) for s in sub_arrs],
                           dtype=np.float32)
            return (g_w, *[up * np.float32(w_arr[s]) for s in range(len(sub_arrs))])

        mixed = ad.straight_through(CustomBackward(forward, backward), w, *sub_outs)
    elif mixture == "soft":
        mixed = None
        for i, s_out in enumerate(sub_outs):
            term = ad.mul(ad.pick(w, i), s_out)
            mixed = term if mixed is None else ad.add(mixed, term)
    else:
        raise ShapeError(f"unknown mixture mode {mixture!r}")
    return mixed, params


# ---------------------------------------------------------------------------
# serialization: UTF-8 JSON document with fixed field order

def policy_to_document(policy: AugPolicy) -> str:
    doc = {
        "alpha": [float(a) for a in policy.alpha],
        "tau": float(policy.tau),
        "lambda": float(policy.lam),
        "subpolicies": [
            {"ops": [{"kind": op.kind, "beta": float(op.beta), "m": float(op.m)}
                     for op in sub.ops]}
            for sub in policy.subpolicies
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def policy_from_document(text: str) -> AugPolicy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"policy document is not valid JSON: {exc}") from exc
    expected = {"alpha", "tau", "lambda", "subpolicies"}
    if not isinstance(doc, dict) or set(doc) != expected:
        raise DataError(f"policy document must have exactly the fields {sorted(expected)}")
    subs = []
    for entry in doc["subpolicies"]:
        if set(entry) != {"ops"}:
            raise DataError("sub-policy entries carry exactly an 'ops' list")
        ops = []
        for op in entry["ops"]:
            if set(op) != {"kind", "beta", "m"}:
                raise DataError("op entries carry exactly kind/beta/m")
            ops.append(OpChoice(op["kind"], float(op["beta"]), float(op["m"])))
        subs.append(SubPolicy(ops))
    k_max = max((len(s.ops) for s in subs), default=1)
    policy = AugPolicy(np.asarray(doc["alpha"], dtype=np.float64), subs,
                       float(doc["tau"]), float(doc["lambda"]), k_max)
    try:
        policy.validate()
    except ConfigError as exc:
        raise DataError(f"policy document fails validation: {exc}") from exc
    return policy


def discrete_to_document(dp: DiscretePolicy, tau: float, lam: float) -> str:
    """A discrete policy serializes as a single-sub-policy document."""
    policy = AugPolicy(np.zeros(1, dtype=np.float64), [dp.sub], tau, lam,
                       k_max=max(1, len(dp.sub.ops)))
    return policy_to_document(policy)
