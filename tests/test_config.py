"""Config loading: validation, key paths in errors, hashing."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from canids.config import (
    ConfigError,
    DetectorConfig,
    ExperimentConfig,
    SuiteConfig,
    load_config,
    load_config_dict,
)

from mutations import OTHER_JSON, json_paths, replaced


def _full_doc() -> dict:
    return {
        "seed": 7,
        "schema": {
            "message_id": "0x101",
            "signal_count": 2,
            "nominal_period_ms": 15.0,
            "signal_names": ["speed", "rpm"],
        },
        "signals": [
            {"kind": "sine", "lo": -1.0, "hi": 1.0, "amplitude": 0.8,
             "period_s": 0.5},
            {"kind": "random-walk", "lo": 0.0, "hi": 10.0, "step_std": 0.1},
        ],
        "generation": {"train_duration_s": 30.0, "test_duration_s": 20.0},
        "attacks": {"suite": "default", "target_signal": 0,
                    "constant_offset": 0.25},
        "predictor": {"subsequence_length": 8, "embed_dim": 8,
                      "hidden_dim": 8, "batch_size": 64,
                      "learning_rate": 0.001, "max_epochs": 5,
                      "patience": 2, "train_ratio": 0.8},
        "detector": {"nu": 0.05},
        "baselines": {"bollinger_window": 20},
    }


class TestLoadDict:
    def test_full_document(self):
        cfg = load_config_dict(_full_doc())
        assert cfg.seed == 7
        assert cfg.schema.message_id == 0x101
        assert cfg.schema.signal_count == 2
        assert cfg.schema.signal_names == ("speed", "rpm")
        assert len(cfg.signals) == 2
        assert cfg.signals[0].kind == "sine"
        assert cfg.generation.test_duration_s == 20.0
        assert cfg.suite is not None and cfg.attack_list is None
        assert cfg.suite.constant_offset == 0.25
        assert cfg.hyper.subsequence_length == 8
        assert cfg.train_ratio == 0.8
        assert cfg.detector.nu == 0.05
        assert cfg.baselines.bollinger_window == 20

    def test_defaults_fill_optional_sections(self):
        doc = {
            "seed": 1,
            "schema": {"message_id": 257, "signal_count": 1,
                       "nominal_period_ms": 10},
            "signals": [{"kind": "sine", "lo": 0.0, "hi": 1.0,
                         "amplitude": 0.5, "period_s": 1.0}],
        }
        cfg = load_config_dict(doc)
        assert cfg.generation.train_duration_s == 90.0
        assert cfg.suite == SuiteConfig()
        assert cfg.detector == DetectorConfig()
        assert cfg.train_ratio == 0.8
        assert cfg.hyper.subsequence_length == 32

    def test_integer_message_id(self):
        doc = _full_doc()
        doc["schema"]["message_id"] = 257
        assert load_config_dict(doc).schema.message_id == 257

    def test_explicit_attack_list(self):
        doc = _full_doc()
        doc["attacks"] = {"list": [
            {"kind": "Constant", "t_start": 5.0, "t_end": 6.0,
             "target_signal": 0, "value": 0.9},
        ]}
        cfg = load_config_dict(doc)
        assert cfg.suite is None
        assert len(cfg.attack_list) == 1
        assert cfg.attack_list[0].kind == "Constant"

    def test_unknown_top_level_key(self):
        doc = _full_doc()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            load_config_dict(doc)

    def test_unknown_nested_key_names_the_path(self):
        doc = _full_doc()
        doc["detector"]["slack"] = 1
        with pytest.raises(ConfigError, match="detector.*slack"):
            load_config_dict(doc)

    def test_missing_seed(self):
        doc = _full_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            load_config_dict(doc)

    def test_type_error_names_key(self):
        doc = _full_doc()
        doc["seed"] = "7"
        with pytest.raises(ConfigError, match="seed.*expected int"):
            load_config_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_names_key(self, value):
        # Python's json reads NaN and Infinity literals
        doc = _full_doc()
        doc["generation"]["train_duration_s"] = value
        with pytest.raises(ConfigError, match=(
                r"^generation\.train_duration_s: -?(nan|inf) is not a "
                r"finite number$")):
            load_config_dict(doc)

    def test_bool_is_not_a_number(self):
        doc = _full_doc()
        doc["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            load_config_dict(doc)

    def test_bad_hex_message_id(self):
        doc = _full_doc()
        doc["schema"]["message_id"] = "0xZZ"
        with pytest.raises(ConfigError, match="message_id"):
            load_config_dict(doc)

    def test_signal_error_names_index(self):
        doc = _full_doc()
        doc["signals"][1] = {"kind": "random-walk", "lo": 0.0, "hi": 10.0,
                             "step_std": 0.1, "bogus": 1}
        with pytest.raises(ConfigError, match=r"signals\[1\]"):
            load_config_dict(doc)

    def test_signal_count_vs_names_mismatch(self):
        doc = _full_doc()
        doc["schema"]["signal_count"] = 3
        with pytest.raises(ConfigError, match="signal names"):
            load_config_dict(doc)

    def test_signal_count_vs_generators_mismatch(self):
        doc = _full_doc()
        doc["schema"]["signal_count"] = 3
        del doc["schema"]["signal_names"]
        with pytest.raises(ConfigError, match="signal_count"):
            load_config_dict(doc)

    def test_suite_and_list_are_exclusive(self):
        doc = _full_doc()
        doc["attacks"] = {"suite": "default",
                          "list": [{"kind": "Dropping", "t_start": 1.0,
                                    "t_end": 2.0}]}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config_dict(doc)

    def test_unknown_suite_name(self):
        doc = _full_doc()
        doc["attacks"] = {"suite": "aggressive"}
        with pytest.raises(ConfigError, match="suite"):
            load_config_dict(doc)

    def test_attack_list_error_names_index(self):
        doc = _full_doc()
        doc["attacks"] = {"list": [
            {"kind": "Constant", "t_start": 5.0, "t_end": 6.0,
             "target_signal": 0, "value": 0.9},
            {"kind": "Constant", "t_start": 9.0, "t_end": 8.0,
             "target_signal": 0, "value": 0.9},
        ]}
        with pytest.raises(ConfigError, match=r"attacks.list\[1\]"):
            load_config_dict(doc)

    def test_target_signal_outside_schema(self):
        doc = _full_doc()
        doc["attacks"] = {"suite": "default", "target_signal": 5}
        with pytest.raises(ConfigError, match="target_signal"):
            load_config_dict(doc)

    def test_bad_variant(self):
        # the variant is chosen per fit-detector run, not in the config
        doc = _full_doc()
        doc["detector"]["variant"] = "Median"
        with pytest.raises(ConfigError,
                           match=r"detector: unknown keys \['variant'\]"):
            load_config_dict(doc)

    def test_bad_train_ratio(self):
        doc = _full_doc()
        doc["predictor"]["train_ratio"] = 1.0
        with pytest.raises(ConfigError, match="train_ratio"):
            load_config_dict(doc)

    def test_controller_section_is_an_unknown_key(self):
        # the gateway's tolerance and substitution are command-line flags
        doc = _full_doc()
        doc["controller"] = {"tolerance_fraction": 0.2,
                             "substitution": "prediction"}
        with pytest.raises(ConfigError,
                           match=r"config: unknown keys \['controller'\]"):
            load_config_dict(doc)


class TestLoadFile:
    def test_happy_path_records_hash(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(_full_doc()))
        cfg = load_config(p)
        assert len(cfg.config_hash) == 16
        # the hash is over the bytes, so reformatting changes it
        p2 = tmp_path / "exp2.json"
        p2.write_text(json.dumps(_full_doc(), indent=2))
        assert load_config(p2).config_hash != cfg.config_hash

    def test_identical_bytes_same_hash(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        text = json.dumps(_full_doc())
        a.write_text(text)
        b.write_text(text)
        assert load_config(a).config_hash == load_config(b).config_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_json_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "seed": 1,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(p)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "latin.json"
        p.write_bytes(b'{"seed": \xff}')
        with pytest.raises(ConfigError, match=(
                f"^{p}: not UTF-8 text \\(invalid start byte at byte 9\\)$")):
            load_config(p)

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(p)


def test_experiment_config_is_frozen():
    cfg = load_config_dict(_full_doc())
    with pytest.raises(AttributeError):
        cfg.seed = 9
    assert isinstance(cfg, ExperimentConfig)


# Every value is type-checked. A valid config with one value (a whole
# section, a list, an entry or a leaf) replaced by a value of another JSON
# type fails as a ConfigError and as nothing else. The base documents set
# every key once and no optional key that null would leave valid.


def _every_key_doc() -> dict:
    doc = _full_doc()
    doc["signals"][0].update(noise_std=0.01, phase=0.3)
    doc["predictor"]["loss_mode"] = "all"
    doc["detector"].update(percentile=99.0, tol=1e-3, max_iter=1000,
                           max_train_points=100)
    doc["baselines"].update(bollinger_band_width=2.0, lof_k=5,
                            lof_threshold=1.5)
    doc["attacks"].update(continuous_increment=0.002, continuous_offset=0.3,
                          multiplier=10, payload_mode="random")
    return doc


def _attack_list_doc() -> dict:
    doc = _every_key_doc()
    doc["attacks"] = {"list": [
        {"kind": "Constant", "t_start": 1.0, "t_end": 2.0,
         "target_signal": 0, "value": 0.9},
        {"kind": "Continuous", "t_start": 3.0, "t_end": 4.0,
         "target_signal": 1, "increment": 0.01, "target": 9.0},
        {"kind": "Replay", "t_start": 6.0, "t_end": 7.0,
         "source_start": 0.5},
        {"kind": "Dropping", "t_start": 8.0, "t_end": 9.0},
        {"kind": "DDoS", "t_start": 10.0, "t_end": 11.0, "multiplier": 10,
         "payload_mode": "random"},
    ]}
    return doc


_BASES = (_every_key_doc(), _attack_list_doc())
_SITES = [(b, path) for b, doc in enumerate(_BASES)
          for path in json_paths(doc)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(site=hs.sampled_from(_SITES), value=OTHER_JSON)
def test_value_of_another_type_is_a_config_error(site, value):
    base, path = site
    load_config_dict(_BASES[base])
    doc = replaced(_BASES[base], path, value)
    assume(doc is not None)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "exp.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(p)
