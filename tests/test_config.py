import json

import pytest

from sokd.config import apply_overrides, config_from_dict, load_config, round_trip
from sokd.errors import ConfigError


class TestConfigParsing:
    def test_defaults_validate(self):
        cfg = config_from_dict({})
        assert cfg.mode == "sokd"
        assert cfg.train.total_epochs == 60
        assert cfg.train.search_epochs == 20
        assert cfg.train.batch_size == 64
        assert cfg.train.inner_lr == 0.05
        assert cfg.loss.alpha_w == 1.0 and cfg.loss.beta_w == 1.0

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"trian": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"batchsize": 32}})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"batch_size": "many"}})
        with pytest.raises(ConfigError):
            config_from_dict({"policy": {"freeze_magnitudes": 1}})

    def test_bad_enum_values(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mode": "turbo"})
        with pytest.raises(ConfigError):
            config_from_dict({"policy": {"mixture": "medium"}})
        with pytest.raises(ConfigError):
            config_from_dict({"dam": {"decode_path": "sideways"}})

    def test_search_epochs_bounded(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"total_epochs": 10, "search_epochs": 11}})

    def test_round_trip_identity(self):
        cfg = config_from_dict({"seed": 5, "train": {"batch_size": 32},
                                "policy": {"tau0": 0.7}})
        again = round_trip(cfg)
        assert again.to_json() == cfg.to_json()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "mode": "baseline"}))
        cfg = load_config(path)
        assert cfg.seed == 3 and cfg.mode == "baseline"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOverrides:
    def test_dotted_paths(self):
        doc = apply_overrides({}, ["train.batch_size=16", "seed=9", "mode=baseline"])
        cfg = config_from_dict(doc)
        assert cfg.train.batch_size == 16 and cfg.seed == 9 and cfg.mode == "baseline"

    def test_json_values(self):
        doc = apply_overrides({}, ['policy.subpolicies=[["identity"]]',
                                   "policy.freeze_magnitudes=true"])
        cfg = config_from_dict(doc)
        assert cfg.policy.subpolicies == [["identity"]]
        assert cfg.policy.freeze_magnitudes is True

    def test_string_field_keeps_raw_text(self):
        doc = apply_overrides({}, ["data.path=123", "out_dir=1e3", "train.policy_path=true",
                                   "dam.decode_path=teacher"])
        cfg = config_from_dict(doc)
        assert cfg.data.path == "123" and cfg.out_dir == "1e3"
        assert cfg.train.policy_path == "true" and cfg.dam.decode_path == "teacher"

    def test_non_string_fields_still_parse_json(self):
        doc = apply_overrides({}, ["data.classes=7", "loss.alpha_w=0.5",
                                   "policy.freeze_magnitudes=false", "teacher.stages=[\"conv:4\"]"])
        cfg = config_from_dict(doc)
        assert cfg.data.classes == 7 and cfg.loss.alpha_w == 0.5
        assert cfg.policy.freeze_magnitudes is False and cfg.teacher.stages == ["conv:4"]

    def test_number_for_numeric_field_type_checked(self):
        doc = apply_overrides({}, ["train.batch_size=abc"])
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    def test_typo_caught_at_parse(self):
        doc = apply_overrides({}, ["train.learning=0.1"])
        with pytest.raises(ConfigError):
            config_from_dict(doc)
