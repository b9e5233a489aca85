"""Run configuration: a JSON document with a documented default for every
field and hard rejection of unknown keys, so a typo can never silently
skew a paired comparison.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

TASKS = ("gen-data", "train-teacher", "search", "distill", "eval",
         "grad-check", "policy-oracle", "report")
MODES = ("baseline", "sokd")
MIXTURES = ("soft", "hard")
DECODE_PATHS = ("student", "teacher")

DEFAULT_SUBPOLICIES = [
    ["identity", "additive_gaussian_noise"],
    ["additive_gaussian_noise", "feature_mask"],
    ["channel_scale", "channel_shuffle"],
    ["uniform_scale", "feature_mask"],
]


@dataclass
class DataConfig:
    path: str = "data/synthetic"
    classes: int = 10
    train_per_class: int = 400
    test_per_class: int = 100
    image_size: int = 16
    channels: int = 3


@dataclass
class ArchConfig:
    stages: list = field(default_factory=list)
    feature_tap: int = 0


@dataclass
class LossConfig:
    alpha_w: float = 1.0  # weight of the head-alignment loss
    beta_w: float = 1.0   # weight of the masked distillation loss


@dataclass
class PolicyConfig:
    subpolicies: list = field(default_factory=lambda: [list(s) for s in DEFAULT_SUBPOLICIES])
    tau0: float = 1.0
    tau_anneal: float = 0.9
    tau_floor: float = 0.2
    lam: float = 0.5
    init_beta: float = 0.5
    init_m: float = 0.1
    mixture: str = "soft"
    freeze_magnitudes: bool = False


@dataclass
class TrainConfig:
    total_epochs: int = 60
    search_epochs: int = 20
    batch_size: int = 64
    inner_lr: float = 0.05
    outer_lr: float = 0.005
    momentum: float = 0.9
    grad_clip: float = 5.0  # global-norm bound on inner-step gradients; 0 disables
    val_fraction: float = 0.2
    teacher_epochs: int = 20
    teacher_lr: float = 0.05
    teacher_checkpoint: str = ""
    student_checkpoint: str = ""
    policy_path: str = ""


@dataclass
class DamConfig:
    n_areas: int = 4
    mid_channels: int = 16
    decode_path: str = "student"
    probe_images: int = 8


_TEACHER_STAGES = ["conv:16", "conv:32", "pool", "conv:32"]
_STUDENT_STAGES = ["conv:8", "pool", "conv:16"]


@dataclass
class RunConfig:
    task: str = "distill"
    seed: int = 0
    out_dir: str = "runs/run"
    mode: str = "sokd"
    data: DataConfig = field(default_factory=DataConfig)
    teacher: ArchConfig = field(default_factory=lambda: ArchConfig(list(_TEACHER_STAGES), 3))
    student: ArchConfig = field(default_factory=lambda: ArchConfig(list(_STUDENT_STAGES), 2))
    loss: LossConfig = field(default_factory=LossConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dam: DamConfig = field(default_factory=DamConfig)

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.policy.mixture not in MIXTURES:
            raise ConfigError(f"unknown mixture {self.policy.mixture!r}")
        if self.dam.decode_path not in DECODE_PATHS:
            raise ConfigError(f"unknown decode path {self.dam.decode_path!r}")
        if not 0 <= self.train.search_epochs <= self.train.total_epochs:
            raise ConfigError("search_epochs must lie within [0, total_epochs]")
        if self.train.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 0.0 < self.train.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        for name in ("tau0", "tau_anneal", "tau_floor", "lam"):
            if getattr(self.policy, name) <= 0:
                raise ConfigError(f"policy.{name} must be positive")
        if self.loss.alpha_w < 0 or self.loss.beta_w < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.dam.n_areas < 1:
            raise ConfigError("dam.n_areas must be at least 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


_SECTIONS = {
    "data": DataConfig,
    "teacher": ArchConfig,
    "student": ArchConfig,
    "loss": LossConfig,
    "policy": PolicyConfig,
    "train": TrainConfig,
    "dam": DamConfig,
}


def _fill_section(obj, section: str, values: dict):
    known = set(vars(obj))
    for key, value in values.items():
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key}")
        current = getattr(obj, key)
        if isinstance(current, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{section}.{key} must be a boolean")
        elif isinstance(current, int) and not isinstance(value, bool):
            if not isinstance(value, (int, float)) or int(value) != value:
                raise ConfigError(f"{section}.{key} must be an integer")
            value = int(value)
        elif isinstance(current, float):
            if not isinstance(value, (int, float)):
                raise ConfigError(f"{section}.{key} must be a number")
            value = float(value)
        elif isinstance(current, str):
            if not isinstance(value, str):
                raise ConfigError(f"{section}.{key} must be a string")
        elif isinstance(current, list):
            if not isinstance(value, list):
                raise ConfigError(f"{section}.{key} must be a list")
        setattr(obj, key, value)
    return obj


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    cfg = RunConfig()
    for key, value in doc.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be an object")
            _fill_section(getattr(cfg, key), key, value)
        elif key in ("task", "seed", "out_dir", "mode"):
            _fill_section(cfg, "<root>", {key: value})
        else:
            raise ConfigError(f"unknown key {key}")
    cfg.validate()
    return cfg


def load_config(path=None, overrides=(), **fields) -> RunConfig:
    """The config in the JSON file at path (defaults when None), then the
    --set overrides, then the given root fields."""
    doc = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: configuration document must be a JSON object")
    apply_overrides(doc, overrides)
    doc.update(fields)
    return config_from_dict(doc)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply --set key.path=value pairs onto a raw config dict."""
    schema = RunConfig()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        default = schema
        for part in parts:
            default = getattr(default, part, None)
        try:
            # a str field keeps the raw text, so data.path=123 stays a path
            value = raw if isinstance(default, str) else json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"override {dotted!r} descends into a non-object")
        target[parts[-1]] = value
    return doc


def round_trip(cfg: RunConfig) -> RunConfig:
    """parse(serialize(cfg)); used to assert config round-trip stability."""
    return config_from_dict(json.loads(cfg.to_json()))
