import json
from pathlib import Path

import pytest

from sokd.cli import METRICS_COLUMNS, main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    common = [
        f"--set=data.path={data}",
        "--set=data.classes=3",
        "--set=data.train_per_class=30",
        "--set=data.test_per_class=10",
        "--set=train.batch_size=8",
        "--set=train.total_epochs=3",
        "--set=train.search_epochs=1",
        "--set=train.teacher_epochs=2",
        "--set=dam.probe_images=2",
    ]
    assert run_cli("gen-data", "--seed", "1", *common) == 0
    teacher_out = str(root / "teacher")
    assert run_cli("train-teacher", "--seed", "1", "--out", teacher_out, *common) == 0
    teacher_ckpt = f"{teacher_out}/checkpoints/teacher"
    search_out = str(root / "seed1" / "sokd-search")
    assert run_cli("search", "--seed", "1", "--out", search_out,
                   f"--set=train.teacher_checkpoint={teacher_ckpt}", *common) == 0
    distill_out = str(root / "seed1" / "sokd")
    assert run_cli("distill", "--seed", "1", "--out", distill_out,
                   f"--set=train.teacher_checkpoint={teacher_ckpt}",
                   f"--set=train.policy_path={search_out}/policy.json",
                   f"--set=train.student_checkpoint={search_out}/checkpoints/state",
                   *common) == 0
    baseline_out = str(root / "seed1" / "baseline")
    assert run_cli("distill", "--seed", "1", "--out", baseline_out, "--set=mode=baseline",
                   f"--set=train.teacher_checkpoint={teacher_ckpt}", *common) == 0
    return {"root": root, "data": data, "common": common, "teacher_ckpt": teacher_ckpt,
            "search_out": Path(search_out), "distill_out": Path(distill_out),
            "baseline_out": Path(baseline_out)}


class TestPipelineArtifacts:
    def test_dataset_files(self, workspace):
        data = Path(workspace["data"])
        for name in ("train_images.sokt", "train_labels.sokt", "test_images.sokt",
                     "test_labels.sokt", "dataset.json"):
            assert (data / name).exists()

    def test_search_run_dir_contents(self, workspace):
        out = workspace["search_out"]
        for name in ("config.json", "metrics.csv", "policy.json",
                     "policy_discrete.json", "ks.csv"):
            assert (out / name).exists(), name
        assert (out / "checkpoints" / "state" / "student" / "arch.json").exists()

    def test_metrics_column_order(self, workspace):
        header = (workspace["search_out"] / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(METRICS_COLUMNS)

    def test_config_snapshot_round_trips(self, workspace):
        doc = json.loads((workspace["search_out"] / "config.json").read_text())
        assert doc["task"] == "search"
        assert doc["seed"] == 1

    def test_distill_artifacts(self, workspace):
        out = workspace["distill_out"]
        assert (out / "metrics.csv").exists()
        assert (out / "areas.csv").exists()
        header = (out / "areas.csv").read_text().splitlines()[0]
        assert header == "epoch,image_index,area_rank,center_x,center_y,width,height,score"

    def test_baseline_has_no_area_log(self, workspace):
        assert not (workspace["baseline_out"] / "areas.csv").exists()

    def test_eval_command(self, workspace):
        out = str(workspace["root"] / "eval")
        code = run_cli("eval", "--seed", "1", "--out", out,
                       f"--set=train.student_checkpoint={workspace['distill_out']}/checkpoints/state",
                       *workspace["common"])
        assert code == 0
        doc = json.loads((Path(out) / "eval.json").read_text())
        assert 0.0 <= doc["test_top1"] <= 1.0

    def test_report_aggregates_modes(self, workspace):
        root = str(workspace["root"] / "seed1")
        assert run_cli("report", "--out", root) == 0
        report = json.loads((Path(root) / "report.json").read_text())
        assert "delta_final_mean" in report
        csv_lines = (Path(root) / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("seed,baseline_final,sokd_final,delta_final")
        assert len(csv_lines) >= 3  # one seed row plus the aggregate row

    def test_report_idempotent(self, workspace):
        root = str(workspace["root"] / "seed1")
        assert run_cli("report", "--out", root) == 0
        first = (Path(root) / "report.json").read_bytes()
        assert run_cli("report", "--out", root) == 0
        assert (Path(root) / "report.json").read_bytes() == first


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path):
        assert run_cli("gen-data", "--set=data.classses=3",
                       f"--set=data.path={tmp_path}/d") == 2

    def test_bad_config_file_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("gen-data", "--config", str(bad)) == 2

    def test_non_object_config_file_is_2(self, tmp_path):
        listed = tmp_path / "list.json"
        listed.write_text("[1]")
        assert run_cli("gen-data", "--config", str(listed)) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert run_cli("gen-data", "--config", str(tmp_path / "none.json")) == 2

    def test_missing_dataset_is_3(self, tmp_path):
        assert run_cli("train-teacher", "--out", str(tmp_path / "o"),
                       f"--set=data.path={tmp_path}/nope") == 3

    def test_missing_teacher_checkpoint_is_config_error(self, workspace, tmp_path):
        code = run_cli("search", "--out", str(tmp_path / "o"), *workspace["common"])
        assert code == 2

    def test_nonexistent_teacher_checkpoint_is_3(self, workspace, tmp_path):
        code = run_cli("search", "--out", str(tmp_path / "o"),
                       f"--set=train.teacher_checkpoint={tmp_path}/ghost",
                       *workspace["common"])
        assert code == 3

    def test_report_on_empty_dir_is_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("report", "--out", str(empty)) == 3

    @pytest.mark.parametrize("case", ["empty-metrics", "bad-top1", "bad-config"])
    def test_report_on_malformed_run_is_3(self, tmp_path, capsys, case):
        run = tmp_path / "r" / "run"
        run.mkdir(parents=True)
        metrics = "epoch,split,top1\n0,test,0.5\n"
        (run / "config.json").write_text('{"mode": "sokd", "seed": 0}')
        if case == "empty-metrics":
            metrics = ""
        elif case == "bad-top1":
            metrics += "1,test,oops\n"
        else:
            (run / "config.json").write_text("{not json")
        (run / "metrics.csv").write_text(metrics)
        assert run_cli("report", "--out", str(tmp_path / "r")) == 3
        bad_file = "config.json" if case == "bad-config" else "metrics.csv"
        assert bad_file in capsys.readouterr().err

    def test_missing_policy_file_is_3(self, workspace, tmp_path):
        code = run_cli("distill", "--out", str(tmp_path / "o"),
                       f"--set=train.teacher_checkpoint={workspace['teacher_ckpt']}",
                       f"--set=train.policy_path={tmp_path}/ghost.json",
                       *workspace["common"])
        assert code == 3

    def test_policy_oracle_missing_policy_file_is_3(self, workspace, tmp_path):
        code = run_cli("policy-oracle", "--out", str(tmp_path / "o"),
                       f"--set=train.teacher_checkpoint={workspace['teacher_ckpt']}",
                       f"--set=train.policy_path={tmp_path}/ghost.json",
                       '--set=policy.subpolicies=[["identity"]]',
                       *workspace["common"])
        assert code == 3

    @pytest.mark.parametrize("missing", ["train_images.sokt", "train_labels.sokt"])
    def test_missing_split_file_is_3(self, tmp_path, missing, capsys):
        data = tmp_path / "d"
        sizes = ["--set=data.classes=2", "--set=data.train_per_class=2",
                 "--set=data.test_per_class=1"]
        assert run_cli("gen-data", f"--set=data.path={data}", *sizes) == 0
        (data / missing).unlink()
        capsys.readouterr()
        assert run_cli("train-teacher", "--out", str(tmp_path / "o"),
                       f"--set=data.path={data}", *sizes) == 3
        assert missing in capsys.readouterr().err

    def test_sokd_distill_without_policy_is_2(self, workspace, tmp_path):
        code = run_cli("distill", "--out", str(tmp_path / "o"),
                       f"--set=train.teacher_checkpoint={workspace['teacher_ckpt']}",
                       *workspace["common"])
        assert code == 2


class TestGradCheckCommand:
    def test_writes_report_and_passes(self, tmp_path):
        out = tmp_path / "gc"
        assert run_cli("grad-check", "--out", str(out)) == 0
        lines = (out / "grad_check.csv").read_text().splitlines()
        assert lines[0] == "graph,template,param,rel_err,passed"
        assert all(line.endswith(",1") for line in lines[1:])


class TestPolicyOracleCommand:
    def test_ranking_written(self, workspace, tmp_path):
        out = tmp_path / "po"
        code = run_cli("policy-oracle", "--seed", "1", "--out", str(out),
                       f"--set=train.teacher_checkpoint={workspace['teacher_ckpt']}",
                       '--set=policy.subpolicies=[["identity"],["feature_mask"],["uniform_scale"]]',
                       *workspace["common"])
        assert code == 0
        lines = (out / "policy_oracle.csv").read_text().splitlines()
        assert lines[0] == "rank,ops,beta,m,loss"
        assert len(lines) == 4
