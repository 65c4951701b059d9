"""Experiment configuration: a single JSON file drives every pipeline stage.

Schema (every key validated, unknown keys rejected; dotted paths below name
nested objects). Every value is type-checked: an integer field takes only an
integer (not a float or a bool), a float field an integer or a float, a
boolean only true or false, and null only where the field is optional. A
wrong type fails like any other invalid value, with the key path in the
message (exit code 1 from the command line).

    seed                  integer, base seed; stage seeds derive from it
    schema.message_id     int or hex string         (e.g. "0x101")
    schema.signal_count   int >= 1
    schema.nominal_period_ms  float > 0
    schema.signal_names   optional list of names
    signals               list of signal generator specs (see tracegen)
    generation.train_duration_s / test_duration_s    floats > 0
    attacks               {"suite": "default", ...knobs} or
                          {"list": [attack spec dicts with absolute times]}
    predictor.*           PredictorHyper fields + train_ratio
    detector.*            nu, gamma (null = 1/d), percentile, tol,
                          max_iter, max_train_points
    baselines.*           bollinger_window, bollinger_band_width,
                          lof_k, lof_threshold
    controller.*          tolerance_fraction, substitution

Validation failures raise ConfigError naming the offending key path; JSON
syntax errors keep the decoder's line/column position.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .controller import OnlineConfig
from .predictor import PredictorHyper
from .tracegen import PAYLOAD_MODES, AttackSpec, SignalGenSpec
from .traces import MessageSchema, from_json, json_value


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    train_duration_s: float = 90.0
    test_duration_s: float = 60.0

    def __post_init__(self) -> None:
        if self.train_duration_s <= 0 or self.test_duration_s <= 0:
            raise ConfigError("generation durations must be positive")


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for the default five-attack suite; fractions are of the
    observed raw range of the target signal."""

    target_signal: int = 0
    constant_offset: float = 0.25
    continuous_increment: float = 0.002
    continuous_offset: float = 0.3
    multiplier: int = 10
    payload_mode: str = "repeat-last"

    def __post_init__(self) -> None:
        if self.target_signal < 0:
            raise ConfigError("attacks.target_signal must be >= 0")
        if self.continuous_increment <= 0:
            raise ConfigError("attacks.continuous_increment must be positive")
        if self.multiplier < 2:
            raise ConfigError("attacks.multiplier must be >= 2")
        if self.payload_mode not in PAYLOAD_MODES:
            raise ConfigError(
                f"attacks.payload_mode must be one of {PAYLOAD_MODES}")


@dataclass(frozen=True)
class DetectorConfig:
    nu: float = 0.01
    gamma: float | None = None
    percentile: float = 99.9
    tol: float = 1e-3
    max_iter: int = 10_000_000
    max_train_points: int = 2000

    def __post_init__(self) -> None:
        if not 0 < self.nu <= 1:
            raise ConfigError("detector.nu must lie in (0, 1]")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError("detector.gamma must be positive or null")
        if not 50 < self.percentile <= 100:
            raise ConfigError("detector.percentile must lie in (50, 100]")
        if self.tol <= 0 or self.max_iter < 1 or self.max_train_points < 2:
            raise ConfigError("detector.tol/max_iter/max_train_points invalid")


@dataclass(frozen=True)
class BaselineConfig:
    bollinger_window: int = 20
    bollinger_band_width: float = 2.0
    lof_k: int = 20
    lof_threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.bollinger_window < 2:
            raise ConfigError("baselines.bollinger_window must be >= 2")
        if self.bollinger_band_width <= 0:
            raise ConfigError("baselines.bollinger_band_width must be positive")
        if self.lof_k < 1:
            raise ConfigError("baselines.lof_k must be >= 1")
        if self.lof_threshold <= 1:
            raise ConfigError("baselines.lof_threshold must exceed 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    schema: MessageSchema
    signals: tuple[SignalGenSpec, ...]
    generation: GenerationConfig
    suite: SuiteConfig | None  # default-suite mode
    attack_list: tuple[AttackSpec, ...] | None  # explicit mode
    hyper: PredictorHyper
    train_ratio: float
    detector: DetectorConfig
    baselines: BaselineConfig
    controller: OnlineConfig
    config_hash: str = ""
    source_path: str = ""

    def __post_init__(self) -> None:
        if len(self.signals) != self.schema.signal_count:
            raise ConfigError(
                f"signals lists {len(self.signals)} generators but "
                f"schema.signal_count is {self.schema.signal_count}")
        if not 0 < self.train_ratio < 1:
            raise ConfigError("predictor.train_ratio must lie in (0, 1)")
        if (self.suite is None) == (self.attack_list is None):
            raise ConfigError(
                "attacks must specify exactly one of 'suite' or 'list'")
        if self.suite is not None \
                and self.suite.target_signal >= self.schema.signal_count:
            raise ConfigError(
                "attacks.target_signal outside the schema's signal range")


def _expect_keys(d: dict, path: str, allowed: set[str]) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{path}: unknown keys {sorted(extra)}")


def _parse_schema(d) -> MessageSchema:
    mid = d.get("message_id") if type(d) is dict else None
    if isinstance(mid, str):
        try:
            d = {**d, "message_id": int(mid, 0)}
        except ValueError:
            raise ConfigError(
                f"schema.message_id: not a valid integer: {mid!r}") from None
    return from_json(MessageSchema, d, "schema")


def load_config_dict(doc: dict, config_hash: str = "",
                     source_path: str = "") -> ExperimentConfig:
    """Build and check the config from a parsed JSON document; any invalid
    key or value raises ConfigError naming its key path."""
    try:
        return _parse(doc, config_hash, source_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse(doc, config_hash: str, source_path: str) -> ExperimentConfig:
    if type(doc) is not dict:
        raise ConfigError("top level must be a JSON object")
    _expect_keys(doc, "config", {
        "seed", "schema", "signals", "generation", "attacks", "predictor",
        "detector", "baselines", "controller"})
    for key in ("seed", "schema", "signals"):
        if key not in doc:
            raise ConfigError(f"{key}: required key missing")
    signals = json_value(doc["signals"], tuple[SignalGenSpec, ...], "signals")
    if not signals:
        raise ConfigError("signals: required non-empty list")

    attacks = doc.get("attacks", {"suite": "default"})
    if type(attacks) is not dict:
        raise ConfigError("attacks: expected an object")
    suite = None
    attack_list = None
    if "list" in attacks:
        _expect_keys(attacks, "attacks", {"list"})
        attack_list = json_value(attacks["list"], tuple[AttackSpec, ...],
                                 "attacks.list")
    else:
        if attacks.get("suite", "default") != "default":
            raise ConfigError(
                f"attacks.suite: only 'default' is defined, "
                f"got {attacks.get('suite')!r}")
        knobs = {k: v for k, v in attacks.items() if k != "suite"}
        suite = from_json(SuiteConfig, knobs, "attacks")

    predictor = doc.get("predictor", {})
    if type(predictor) is not dict:
        raise ConfigError("predictor: expected an object")
    hyper_doc = {k: v for k, v in predictor.items() if k != "train_ratio"}
    return ExperimentConfig(
        seed=json_value(doc["seed"], int, "seed"),
        schema=_parse_schema(doc["schema"]),
        signals=signals,
        generation=from_json(GenerationConfig, doc.get("generation", {}),
                             "generation"),
        suite=suite, attack_list=attack_list,
        hyper=from_json(PredictorHyper, hyper_doc, "predictor"),
        train_ratio=json_value(predictor.get("train_ratio", 0.8), float,
                               "predictor.train_ratio"),
        detector=from_json(DetectorConfig, doc.get("detector", {}),
                           "detector"),
        baselines=from_json(BaselineConfig, doc.get("baselines", {}),
                            "baselines"),
        controller=from_json(OnlineConfig, doc.get("controller", {}),
                             "controller"),
        config_hash=config_hash, source_path=source_path)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; nothing is written on failure."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return load_config_dict(doc, config_hash=digest, source_path=str(path))
