"""Command-line surface: dataset generation, teacher pretraining, policy
search, distillation, evaluation, gradient and policy oracles, and run
reporting. Every command reads one JSON config (all fields defaulted),
applies --set overrides, and writes its artifacts under --out.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .dafa import (
    AugPolicy,
    OpChoice,
    SubPolicy,
    discrete_to_document,
    discretize,
    policy_from_document,
    policy_to_document,
)
from .data import Dataset, gen_synthetic_dataset, load_dataset
from .errors import ConfigError, DataError, NonFiniteError, SokdError
from .gradcheck import run_gradient_suite
from .io import load_weights, save_weights
from .models import Backbone, build_backbone, load_backbone, pretrain_teacher, save_backbone
from .dam import DamHead
from .oracle import FeatureSnapshot, PolicyGrid, enumerate_policies
from .tensor import Rng, Tensor
from .trainer import (
    TrainState,
    arch_from_config,
    evaluate,
    init_train_state,
    ks_preservation_report,
    run_distill,
    run_search,
)

METRICS_COLUMNS = ("epoch", "split", "task_loss", "ld_loss", "lda_loss", "aug_loss", "top1")
AREA_COLUMNS = ("epoch", "image_index", "area_rank", "center_x", "center_y",
                "width", "height", "score")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_csv(path, rows) -> None:
    _write_csv(path, METRICS_COLUMNS, rows)


def _prepare_run_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json(), encoding="utf-8")
    return out


def _load_teacher(cfg: RunConfig) -> Backbone:
    path = cfg.train.teacher_checkpoint
    if not path:
        raise ConfigError("train.teacher_checkpoint is required for this task")
    if not Path(path).exists():
        raise DataError(f"teacher checkpoint {path} does not exist")
    return load_backbone(path)


def _load_policy(path) -> AugPolicy:
    if not Path(path).is_file():
        raise DataError(f"policy document {path} does not exist")
    return policy_from_document(Path(path).read_text(encoding="utf-8"))


def _load_splits(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    return load_dataset(cfg.data.path, "train"), load_dataset(cfg.data.path, "test")


def _save_state(dir_path, state: TrainState) -> None:
    base = Path(dir_path)
    save_backbone(base / "student", state.student)
    save_weights(base / "adapter", {"adapter.w": state.adapter.w})
    save_weights(base / "head", state.head.weights)
    meta = {"head_in_channels": state.head.in_channels,
            "head_mid_channels": state.head.mid_channels}
    (base / "state.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _load_state(dir_path, cfg: RunConfig, teacher: Backbone) -> TrainState:
    from .models import Adapter

    base = Path(dir_path)
    meta_path = base / "state.json"
    if not meta_path.exists():
        raise DataError(f"no state.json under {dir_path}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    state = init_train_state(cfg, teacher, Rng(cfg.seed))
    state.student = load_backbone(base / "student")
    state.adapter = Adapter(load_weights(base / "adapter")["adapter.w"])
    state.head = DamHead(meta["head_in_channels"], meta["head_mid_channels"],
                         load_weights(base / "head"))
    return state


def cmd_gen_data(cfg: RunConfig) -> int:
    meta = gen_synthetic_dataset(cfg.data.path, cfg.data.classes, cfg.data.train_per_class,
                                 cfg.data.test_per_class, cfg.data.image_size,
                                 cfg.data.channels, cfg.seed)
    print(f"wrote {meta['class_count']}-class dataset to {cfg.data.path}")
    return 0


def cmd_train_teacher(cfg: RunConfig) -> int:
    out = _prepare_run_dir(cfg)
    train_ds, test_ds = _load_splits(cfg)
    spec = arch_from_config(cfg.teacher, cfg.data, "teacher")
    rng = Rng(cfg.seed)
    teacher = build_backbone(spec, rng.child("teacher-init"))
    teacher, test_top1 = pretrain_teacher(
        teacher, train_ds, cfg.train.teacher_epochs, cfg.train.teacher_lr,
        rng.child("teacher-train"), momentum=cfg.train.momentum,
        batch_size=cfg.train.batch_size, eval_dataset=test_ds)
    save_backbone(out / "checkpoints" / "teacher", teacher)
    rows = [{"epoch": cfg.train.teacher_epochs - 1, "split": "test", "top1": test_top1}]
    write_metrics_csv(out / "metrics.csv", rows)
    print(f"teacher test top-1: {test_top1:.4f}")
    return 0


def _write_ks(out: Path, cfg: RunConfig, teacher: Backbone, train_ds: Dataset,
              policy: AugPolicy) -> None:
    stat, crit = ks_preservation_report(teacher, train_ds, policy,
                                        Rng(cfg.seed).child("ks-report"))
    rows = [{"statistic": stat, "critical_5pct": crit,
             "below_critical": int(stat < crit)}]
    _write_csv(out / "ks.csv", ("statistic", "critical_5pct", "below_critical"), rows)


def cmd_search(cfg: RunConfig) -> int:
    out = _prepare_run_dir(cfg)
    train_ds, test_ds = _load_splits(cfg)
    teacher = _load_teacher(cfg)
    result = run_search(cfg, teacher, train_ds, test_ds)
    write_metrics_csv(out / "metrics.csv", result.metrics)
    (out / "policy.json").write_text(policy_to_document(result.policy), encoding="utf-8")
    (out / "policy_discrete.json").write_text(
        discrete_to_document(result.discrete, result.policy.tau, result.policy.lam),
        encoding="utf-8")
    _save_state(out / "checkpoints" / "state", result.state)
    _write_ks(out, cfg, teacher, train_ds, result.policy)
    print(f"search done: chose sub-policy {result.discrete.index}; "
          f"student test top-1 {result.final_top1:.4f}")
    return 0


def cmd_distill(cfg: RunConfig) -> int:
    out = _prepare_run_dir(cfg)
    train_ds, test_ds = _load_splits(cfg)
    teacher = _load_teacher(cfg)
    discrete = None
    if cfg.mode == "sokd":
        if not cfg.train.policy_path:
            raise ConfigError("sokd distillation needs train.policy_path "
                              "(a policy document from a search run)")
        policy = _load_policy(cfg.train.policy_path)
        discrete = discretize(policy)
    state = None
    if cfg.train.student_checkpoint:
        state = _load_state(cfg.train.student_checkpoint, cfg, teacher)
        from .data import split_train_val
        train_part, _ = split_train_val(train_ds, cfg.train.val_fraction,
                                        Rng(cfg.seed).child("split"))
        state.cache_teacher_features("train", train_part)
    result = run_distill(cfg, teacher, train_ds, test_ds, discrete=discrete, state=state)
    write_metrics_csv(out / "metrics.csv", result.metrics)
    if result.area_rows:
        _write_csv(out / "areas.csv", AREA_COLUMNS, result.area_rows)
    _save_state(out / "checkpoints" / "state", result.state)
    print(f"distill done ({cfg.mode}): student test top-1 {result.final_top1:.4f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.train.student_checkpoint:
        raise ConfigError("eval needs train.student_checkpoint")
    _, test_ds = _load_splits(cfg)
    ckpt = Path(cfg.train.student_checkpoint)
    model = load_backbone(ckpt / "student" if (ckpt / "student").exists() else ckpt)
    top1 = evaluate(model, test_ds)
    out = _prepare_run_dir(cfg)
    (out / "eval.json").write_text(json.dumps({"test_top1": top1}, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"test top-1: {top1:.4f}")
    return 0


def cmd_grad_check(cfg: RunConfig) -> int:
    out = _prepare_run_dir(cfg)
    rows = run_gradient_suite()
    csv_rows = [{"graph": r.graph, "template": r.template, "param": r.param,
                 "rel_err": r.rel_err, "passed": int(r.passed)} for r in rows]
    _write_csv(out / "grad_check.csv", ("graph", "template", "param", "rel_err", "passed"),
               csv_rows)
    failures = [r for r in rows if not r.passed]
    print(f"gradient check: {len(rows) - len(failures)}/{len(rows)} comparisons passed")
    if failures:
        for r in failures:
            print(f"  FAIL graph {r.graph} {r.template} {r.param} rel_err={r.rel_err:.3e}")
        raise NonFiniteError("gradient check failed")
    return 0


def cmd_policy_oracle(cfg: RunConfig) -> int:
    out = _prepare_run_dir(cfg)
    train_ds, _ = _load_splits(cfg)
    teacher = _load_teacher(cfg)
    rng = Rng(cfg.seed)
    if cfg.train.student_checkpoint:
        state = _load_state(cfg.train.student_checkpoint, cfg, teacher)
    else:
        state = init_train_state(cfg, teacher, rng)
    n = min(cfg.train.batch_size, len(train_ds))
    images = train_ds.images.data[:n]
    f_t, _ = teacher.forward_arrays(images)
    f_s, _ = state.student.forward_arrays(images)
    snapshot = FeatureSnapshot(Tensor(f_t), Tensor(state.adapter.apply_arrays(f_s)))
    grid = PolicyGrid([SubPolicy([OpChoice(k, cfg.policy.init_beta, cfg.policy.init_m)
                                  for k in kinds])
                       for kinds in cfg.policy.subpolicies])
    ranked = enumerate_policies(grid, snapshot, rng.child("policy-oracle"))
    rows = [{"rank": i, "ops": "+".join(op.kind for op in cand.ops),
             "beta": cand.ops[0].beta, "m": cand.ops[0].m, "loss": loss}
            for i, (cand, loss) in enumerate(ranked)]
    _write_csv(out / "policy_oracle.csv", ("rank", "ops", "beta", "m", "loss"), rows)
    chosen_rank = None
    if cfg.train.policy_path:
        policy = _load_policy(cfg.train.policy_path)
        chosen = discretize(policy)
        key = "+".join(op.kind for op in chosen.sub.ops)
        for i, row in enumerate(rows):
            if row["ops"] == key:
                chosen_rank = i
                break
        print(f"searched policy ranks {chosen_rank} of {len(rows)} in the brute-force ordering")
    print(f"policy oracle wrote {len(rows)} candidates")
    return 0


def _read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise DataError(f"{path} is empty: no header row")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _number(path: Path, key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DataError(f"{path}: {key} value {value!r} is not a number") from None


def _collect_runs(root: Path) -> list[dict]:
    runs = []
    for metrics_path in sorted(root.rglob("metrics.csv")):
        run_dir = metrics_path.parent
        info = {"dir": str(run_dir.relative_to(root)) or ".", "mode": None, "seed": None}
        cfg_path = run_dir / "config.json"
        if cfg_path.exists():
            try:
                doc = json.loads(cfg_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise DataError(f"{cfg_path}: not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise DataError(f"{cfg_path}: not a JSON object")
            info["mode"] = doc.get("mode")
            info["seed"] = doc.get("seed")
            info["task"] = doc.get("task")
        rows = _read_csv_rows(metrics_path)
        top1s = [_number(metrics_path, "top1", r["top1"]) for r in rows
                 if r.get("split") == "test" and r.get("top1")]
        info["final_top1"] = top1s[-1] if top1s else None
        info["best_top1"] = max(top1s, default=None)
        dp = run_dir / "policy_discrete.json"
        if dp.exists():
            policy = policy_from_document(dp.read_text(encoding="utf-8"))
            info["policy"] = [{"kind": op.kind, "beta": op.beta, "m": op.m}
                              for op in policy.subpolicies[0].ops]
        ks_path = run_dir / "ks.csv"
        if ks_path.exists():
            ks_row = (_read_csv_rows(ks_path) or [{}])[0]
            for key in ("statistic", "critical_5pct"):
                info[f"ks_{key}"] = _number(ks_path, key, ks_row.get(key))
        runs.append(info)
    return runs


def _mode_stats(runs: list[dict], mode: str) -> dict:
    finals = [r["final_top1"] for r in runs if r["mode"] == mode and r["final_top1"] is not None]
    bests = [r["best_top1"] for r in runs if r["mode"] == mode and r["best_top1"] is not None]
    if not finals:
        return {}
    out = {"n": len(finals), "final_mean": float(np.mean(finals)),
           "best_mean": float(np.mean(bests))}
    if len(finals) > 1:
        out["final_std"] = float(np.std(finals, ddof=1))
        out["best_std"] = float(np.std(bests, ddof=1))
    return out


def cmd_report(cfg: RunConfig) -> int:
    root = Path(cfg.out_dir)
    if not root.exists():
        raise DataError(f"report target {root} does not exist")
    runs = _collect_runs(root)
    if not runs:
        raise DataError(f"no metrics.csv found under {root}")
    by_mode_seed = {(r["mode"], r["seed"]): r for r in runs
                    if r["mode"] in ("baseline", "sokd") and r["seed"] is not None}
    seeds = sorted({s for (_, s) in by_mode_seed})
    rows = []
    deltas = []
    for seed in seeds:
        base = by_mode_seed.get(("baseline", seed))
        sokd = by_mode_seed.get(("sokd", seed))
        row = {"seed": seed,
               "baseline_final": base["final_top1"] if base else None,
               "sokd_final": sokd["final_top1"] if sokd else None,
               "baseline_best": base["best_top1"] if base else None,
               "sokd_best": sokd["best_top1"] if sokd else None}
        if base and sokd and base["final_top1"] is not None and sokd["final_top1"] is not None:
            row["delta_final"] = sokd["final_top1"] - base["final_top1"]
            deltas.append(row["delta_final"])
        rows.append(row)
    summary = {
        "runs": runs,
        "baseline": _mode_stats(runs, "baseline"),
        "sokd": _mode_stats(runs, "sokd"),
    }
    if deltas:
        summary["delta_final_mean"] = float(np.mean(deltas))
        if len(deltas) > 1:
            summary["delta_final_std"] = float(np.std(deltas, ddof=1))
    if rows:
        agg = {"seed": "mean"}
        for col in ("baseline_final", "sokd_final", "baseline_best", "sokd_best", "delta_final"):
            vals = [r.get(col) for r in rows if r.get(col) is not None]
            agg[col] = float(np.mean(vals)) if vals else None
        rows.append(agg)
        _write_csv(root / "report.csv",
                   ("seed", "baseline_final", "sokd_final", "delta_final",
                    "baseline_best", "sokd_best"), rows)
    (root / "report.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(json.dumps({k: v for k, v in summary.items() if k != "runs"}, indent=2,
                     sort_keys=True))
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-teacher": cmd_train_teacher,
    "search": cmd_search,
    "distill": cmd_distill,
    "eval": cmd_eval,
    "grad-check": cmd_grad_check,
    "policy-oracle": cmd_policy_oracle,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sokd",
        description="Desk-scale student-oriented knowledge distillation lab")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _COMMANDS:
        p = sub.add_parser(task)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one config field (dotted path)")
    return parser


def _resolve_config(args) -> RunConfig:
    fields = {"task": args.task}
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.out is not None:
        fields["out_dir"] = args.out
    return load_config(args.config or None, args.overrides, **fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.task](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except SokdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
