"""The benchmark's two workloads and the checks on their outputs.

Every workload runs the same three phases on inputs generated from the
seed, interleaved until the measured time is up so that every metric is
sampled across the whole run; each step runs the phase that has had the
least time so far, so each gets about a third of the run:

    G (gateway)  one `controller.run_online` pass, closed loop, one caller
    O (offline)  `canids detect`, `canids eval`, `canids eval --trace --config`
    T (train)    `canids train` then `canids fit-detector --variant Diff`

Set-up trains the small predictor of the acceptance "ordering" scenario
(k=3, L=8, embed=hidden=16) and fits its Diff detector, through the CLI,
and generates the attacked gateway stream. The gateway workload scores
that stream offline too and retrains the small model in T. The offline
workload is the analyst's: O scores a long capture attacked with the
default five-attack suite, and T trains the default 161,603-parameter
architecture on a clean trace.

The offline stages run through `cli.main(argv)` in process; the gateway
runs through `controller.run_online` fed by a frame iterator, because
per-frame latency is visible nowhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import canids.cli
import canids.controller
import canids.detector
import canids.predictor
import canids.traces

from spans import percentile, samples_beyond, tail_percentile

PERIOD_MS = 15.0
RATE_TOLERANCE = 0.2  # the CLI's and OnlineConfig's default
SETUP_REPEATS = 3
# a run ends at the first phase boundary after the measured time is up at
# which every phase has this many samples
MIN_PHASE_SAMPLES = 3

# the acceptance suite's ordering scenario: periods of 47, 43 and 61 frames
SIGNALS = [
    {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
     "period_s": 0.705, "noise_std": 0.02},
    {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
     "noise_std": 0.01},
    {"kind": "sine", "lo": -2.5, "hi": 2.5, "amplitude": 2.0,
     "period_s": 0.915, "noise_std": 0.02},
]
# at 6 epochs, or on twice the data, some seeds' models drop far more clean
# frames than others (11 to 41 false anomaly drops over ten seeds at 6
# epochs, 14 to 20 at 4), so the false-drop share swung with the seed
SMALL_EPOCHS = 4
DEFAULT_EPOCHS = 2
# in a 30 s stream, a half-second 10x flood (about 300 extra frames the rate
# gate drops) and a two-second constant spoof on the ramp signal; most frames
# reach the model
STREAM_ATTACKS = [
    {"kind": "DDoS", "t_start": 10.0, "t_end": 10.5, "multiplier": 10,
     "payload_mode": "repeat-last"},
    {"kind": "Constant", "t_start": 14.0, "t_end": 16.0, "target_signal": 1,
     "value": 6.25},
]

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("gateway_frames_per_s", "frames/s", "higher"),
    ("gateway_latency_p50_ms", "ms", "lower"),
    ("gateway_latency_p90_ms", "ms", "lower"),
    ("gateway_false_drop_share", "ratio", "lower"),
    ("detect_frames_per_s", "records/s", "higher"),
    ("eval_s", "s", "lower"),
    ("eval_baselines_s", "s", "lower"),
    ("detect_f1", "ratio", "higher"),
    ("train_epoch_s", "s/epoch", "lower"),
    ("fit_detector_s", "s", "lower"),
    ("val_mse", "MSE", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END}


def _config(seed: int, *, train_s: float, test_s: float, attacks: dict,
            predictor: dict, detector: dict) -> dict:
    return {
        "seed": seed,
        "schema": {"message_id": "0x101", "signal_count": 3,
                   "nominal_period_ms": PERIOD_MS},
        "signals": SIGNALS,
        "generation": {"train_duration_s": train_s, "test_duration_s": test_s},
        "attacks": attacks,
        "predictor": predictor,
        "detector": detector,
    }


def configs(seed: int) -> dict[str, dict]:
    small = {"subsequence_length": 8, "embed_dim": 16, "hidden_dim": 16,
             "batch_size": 128, "learning_rate": 1e-3,
             "max_epochs": SMALL_EPOCHS, "patience": SMALL_EPOCHS - 1,
             "loss_mode": "all"}
    # DetectorConfig's default nu of 0.01; with the acceptance suite's 0.05
    # the gateway's false drops come in long runs whose count swings with
    # the seed's model far more than any code change would move it
    small_det = {"nu": 0.01, "max_train_points": 800}
    return {
        # 3,000 training records; a 2,000-record stream plus the flood
        "small": _config(seed, train_s=45.0, test_s=30.0,
                         attacks={"list": STREAM_ATTACKS},
                         predictor=small, detector=small_det),
        # 4,000 clean records; the default suite's tenth-of-span 10x flood
        # brings the capture to about 7,600
        "capture": _config(seed, train_s=45.0, test_s=60.0,
                           attacks={"suite": "default", "target_signal": 1},
                           predictor=small, detector=small_det),
        # PredictorHyper defaults (L=32, embed 128, hidden 64, batch 256,
        # lr 1e-4) on 1,000 records: three full batches of training windows
        # an epoch; patience never cuts the epochs short
        "default": _config(seed, train_s=15.0, test_s=30.0,
                           attacks={"suite": "default"},
                           predictor={"max_epochs": DEFAULT_EPOCHS,
                                      "patience": DEFAULT_EPOCHS - 1},
                           detector={"max_train_points": 400}),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    capture: str  # what O scores: "stream" or "capture"
    model: str  # the architecture T trains: "small" or "default"
    why: str


PHASES = ("G", "O", "T")

WORKLOADS = {
    "gateway": Workload(
        "gateway", "stream", "small",
        "batch-1 nn/predictor calls per frame behind the rate gate, plus "
        "controller and single-point detector scoring, on the small model"),
    "offline": Workload(
        "offline", "capture", "default",
        "the analyst's train, fit, detect and eval: BLAS-bound training of "
        "the default model, CSV I/O, ROC, LOF and EWMA over a long capture"),
}


class OperationFailed(RuntimeError):
    pass


@dataclass
class Ledger:
    """Operations attempted and failed, output checks, artifact digests."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def digest(self, key: str, value: str) -> None:
        """Record an artifact digest; a repeat of the same artifact at the
        same seed must reproduce it."""
        old = self.digests.setdefault(key, value)
        if old != value:
            self.check(f"deterministic {key}", False,
                       f"{old[:12]} then {value[:12]}")

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(ledger: Ledger, *argv: str) -> float:
    """Run one `canids` command in process; returns its wall time."""
    ledger.attempted += 1
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = canids.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    if rc != 0:
        ledger.failed += 1
        raise OperationFailed(
            f"canids {' '.join(argv)} exited {rc}: {out.getvalue().strip()}")
    return wall


def model_header(path: Path) -> dict:
    """The JSON header of a canids model container, read without the
    program: magic, uint32 version, uint64 header length, header."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20: 20 + length])["meta"]


def median(values) -> float:
    return float(statistics.median(values))


# --------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    wall: float
    model: object
    detector: object
    scaling: object
    frames: list
    labels: list
    paths: dict[str, Path]


def run_setup(work: Path, seed: int, workload: Workload,
              ledger: Ledger, rep: int) -> Setup:
    d = work / f"setup{rep}"
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    t0 = time.perf_counter()
    p = {}
    for name, doc in configs(seed).items():
        p[f"{name}_config"] = d / f"{name}.json"
        p[f"{name}_config"].write_text(json.dumps(doc, indent=1) + "\n")
    config_files = set(p.values())
    small = str(p["small_config"])
    p.update(train=d / "train.csv", stream_clean=d / "stream-clean.csv",
             stream=d / "stream.csv",
             stream_manifest=d / "stream.manifest.json",
             model=d / "small.model", detector=d / "small.det")
    cli(ledger, "gen", "--config", small, "--role", "train",
        "--out", str(p["train"]))
    cli(ledger, "gen", "--config", small, "--role", "test",
        "--out", str(p["stream_clean"]))
    cli(ledger, "inject", "--trace", str(p["stream_clean"]), "--config", small,
        "--out", str(p["stream"]))
    cli(ledger, "train", "--trace", str(p["train"]), "--config", small,
        "--model-out", str(p["model"]))
    cli(ledger, "fit-detector", "--trace", str(p["train"]), "--model",
        str(p["model"]), "--variant", "Diff", "--out", str(p["detector"]),
        "--config", small)
    if workload.capture == "capture":
        p.update(capture_clean=d / "capture-clean.csv",
                 capture=d / "capture.csv",
                 capture_manifest=d / "capture.manifest.json")
        cli(ledger, "gen", "--config", str(p["capture_config"]), "--role",
            "test", "--out", str(p["capture_clean"]))
        cli(ledger, "inject", "--trace", str(p["capture_clean"]), "--config",
            str(p["capture_config"]), "--out", str(p["capture"]))
    if workload.model == "default":
        p["big_train"] = d / "train-default.csv"
        cli(ledger, "gen", "--config", str(p["default_config"]), "--role",
            "train", "--out", str(p["big_train"]))
    model, _ = canids.predictor.load_model_file(p["model"])
    scaling = canids.traces.load_scaling(str(p["model"]) + ".scaling.csv")
    detector, _ = canids.detector.load_detector(p["detector"])
    schema = canids.traces.MessageSchema(
        message_id=0x101, signal_count=3, nominal_period_ms=PERIOD_MS)
    stream = canids.traces.load_trace(p["stream"], schema)
    frames = [(float(t), stream.signals[i])
              for i, t in enumerate(stream.timestamps)]
    wall = time.perf_counter() - t0
    for path in sorted(set(d.iterdir()) - config_files):
        ledger.digest(f"setup/{path.name}", sha256_file(path))
    return Setup(wall=wall, model=model, detector=detector, scaling=scaling,
                 frames=frames, labels=[int(v) for v in stream.labels],
                 paths=p)


# --------------------------------------------------------------------------
# phases


@dataclass
class Samples:
    gateway_fps: list[float] = field(default_factory=list)
    # latency of every scored frame of every pass, pooled over the run
    latency_ms: list[float] = field(default_factory=list)
    latency_p50_ms: list[float] = field(default_factory=list)  # per pass
    scored_frames: list[int] = field(default_factory=list)
    false_drop_share: list[float] = field(default_factory=list)
    detect_fps: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_baselines_s: list[float] = field(default_factory=list)
    detect_f1: list[float] = field(default_factory=list)
    train_epoch_s: list[float] = field(default_factory=list)
    fit_detector_s: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)


def gateway_pass(setup: Setup, ledger: Ledger, samples: Samples,
                 tracer) -> None:
    """One closed-loop pass: frame i+1 is handed over only when
    run_online asks for it, so each frame's latency is its service time."""
    marks: list[float] = []

    def feed():
        for frame in setup.frames:
            marks.append(time.perf_counter())
            yield frame

    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        out = canids.controller.run_online(
            feed(), setup.model, setup.detector, "Diff", setup.scaling,
            PERIOD_MS, canids.controller.OnlineConfig())
    except Exception as exc:
        ledger.failed += 1
        raise OperationFailed(f"run_online raised {exc!r}") from exc
    end = time.perf_counter()
    marks.append(end)
    n = len(setup.frames)
    samples.gateway_fps.append(n / (end - t0))
    with _paused(tracer):
        ledger.check("gateway: one disposition per frame",
                     [d.index for d in out] == list(range(n)),
                     f"{len(out)} dispositions for {n} frames")
        fast, _ = canids.controller.rate_flags(
            [f[0] for f in setup.frames], PERIOD_MS, RATE_TOLERANCE)
        rate_drops = sum(d.disposition == "DroppedRateViolation" for d in out)
        ledger.check("gateway: rate drops equal rate_flags too-fast",
                     rate_drops == int(fast.sum()),
                     f"{rate_drops} vs {int(fast.sum())}")
        lat = [(marks[i + 1] - marks[i]) * 1e3
               for i, d in enumerate(out) if d.score is not None]
        samples.latency_ms.extend(lat)
        samples.latency_p50_ms.append(percentile(sorted(lat), 50.0))
        samples.scored_frames.append(len(lat))
        clean = [lab == 0 for lab in setup.labels]
        false_drops = sum(c and d.disposition != "Delivered"
                          for c, d in zip(clean, out))
        samples.false_drop_share.append(false_drops / sum(clean))
        text = "\n".join(f"{d.index},{d.timestamp!r},{d.disposition},"
                         f"{d.score!r},{d.rate_flag},{d.warmup}" for d in out)
        ledger.digest("gateway/dispositions",
                      hashlib.sha256(text.encode()).hexdigest())


def offline_cycle(setup: Setup, workload: Workload, work: Path,
                  ledger: Ledger, samples: Samples, tracer) -> None:
    p = setup.paths
    trace = p[workload.capture]
    manifest = p[f"{workload.capture}_manifest"]
    config = p["capture_config" if workload.capture == "capture"
               else "small_config"]
    d = work / "offline"
    if d.exists():
        shutil.rmtree(d)
    d.mkdir()
    detections = d / "detections.csv"
    detect_wall = cli(ledger, "detect", "--trace", str(trace), "--model",
                      str(p["model"]), "--detector", str(p["detector"]),
                      "--out", str(detections))
    eval_wall = cli(ledger, "eval", "--detections", str(detections),
                    "--truth", str(manifest), "--out", str(d / "eval"))
    baselines_wall = cli(ledger, "eval", "--detections", str(detections),
                         "--truth", str(manifest), "--out",
                         str(d / "eval-baselines"), "--trace", str(trace),
                         "--config", str(config))
    with _paused(tracer):
        records = _data_rows(trace)
        rows = _data_rows(detections)
        ledger.check("offline: one detection row per record",
                     len(rows) == len(records) and all(
                         len(r) == 7 for r in rows),
                     f"{len(rows)} rows for {len(records)} records")
        f1 = _report_value(d / "eval" / "report-Diff.csv", "f1", "Overall")
        ledger.check("offline: detect_f1 in [0, 1]", 0.0 <= f1 <= 1.0,
                     f"{f1}")
        for sub in ("eval", "eval-baselines"):
            for path in sorted((d / sub).iterdir()):
                ledger.digest(f"offline/{sub}/{path.name}", sha256_file(path))
        ledger.digest("offline/detections.csv", sha256_file(detections))
    samples.detect_fps.append(len(records) / detect_wall)
    samples.eval_s.append(eval_wall)
    samples.eval_baselines_s.append(baselines_wall)
    samples.detect_f1.append(f1)


def train_cycle(setup: Setup, workload: Workload, work: Path,
                ledger: Ledger, samples: Samples, tracer) -> None:
    p = setup.paths
    d = work / "train"
    if d.exists():
        shutil.rmtree(d)
    d.mkdir()
    model = d / f"{workload.model}.model"
    det = d / f"{workload.model}.det"
    trace = str(p["big_train" if workload.model == "default" else "train"])
    config = str(p[f"{workload.model}_config"])
    train_wall = cli(ledger, "train", "--trace", trace, "--config", config,
                     "--model-out", str(model))
    fit_wall = cli(ledger, "fit-detector", "--trace", trace, "--model",
                   str(model), "--variant", "Diff", "--out", str(det),
                   "--config", config)
    with _paused(tracer):
        training = model_header(model)["training"]
        epochs = int(training["epochs"])
        val = float(training["best_val_loss"])
        converged = model_header(det).get("converged")
        ledger.check("train: at least one epoch", epochs >= 1, f"{epochs}")
        ledger.check("train: val_mse finite", math.isfinite(val), f"{val}")
        ledger.check("train: detector converged", converged is True,
                     f"{converged}")
        for path in (model, det):
            ledger.digest(f"train/{path.name}", sha256_file(path))
    samples.train_epoch_s.append(train_wall / epochs)
    samples.fit_detector_s.append(fit_wall)
    samples.val_mse.append(val)


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the header line, skipping '#' comment lines."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _report_value(path: Path, metric: str, kind: str) -> float:
    for row in _data_rows(path):
        if row[0] == metric and row[1] == kind:
            return float(row[2])
    raise OperationFailed(f"{path}: no {metric} row for {kind}")


# --------------------------------------------------------------------------
# one measured run


@dataclass
class Measurement:
    metrics: dict[str, float]
    notes: dict[str, object]


def measure(workload: Workload, seed: int, seconds: float, work: Path,
            ledger: Ledger, tracer=None) -> Measurement:
    """Set up SETUP_REPEATS times, then run the phases, each step the one
    with the least time so far, until `seconds` have passed and every
    phase has MIN_PHASE_SAMPLES samples. Each timing is the median over
    the run."""
    samples = Samples()
    setups = [run_setup(work, seed, workload, ledger, rep)
              for rep in range(SETUP_REPEATS)]
    setup = setups[-1]
    phases = {
        "G": lambda: gateway_pass(setup, ledger, samples, tracer),
        "O": lambda: offline_cycle(setup, workload, work, ledger, samples,
                                   tracer),
        "T": lambda: train_cycle(setup, workload, work, ledger, samples,
                                 tracer),
    }
    runs = dict.fromkeys(PHASES, 0)
    spent = dict.fromkeys(PHASES, 0.0)
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds
           or min(runs.values()) < MIN_PHASE_SAMPLES):
        key = min(PHASES, key=spent.get)
        start = time.perf_counter()
        phases[key]()
        spent[key] += time.perf_counter() - start
        runs[key] += 1
    measured = time.perf_counter() - t0

    lat = sorted(samples.latency_ms)
    ledger.check("gateway: p99 has at least ten samples beyond it",
                 samples_beyond(len(lat), 99.0) >= 10,
                 f"{len(lat)} scored frames")
    tail = tail_percentile(len(lat))
    tail_text = f"p{tail:g} {percentile(lat, tail):.4f} ms" if tail else "none"
    metrics = {
        "setup_s": median(s.wall for s in setups),
        "gateway_frames_per_s": median(samples.gateway_fps),
        "gateway_latency_p50_ms": percentile(lat, 50.0),
        "gateway_latency_p90_ms": percentile(lat, 90.0),
        "gateway_false_drop_share": median(samples.false_drop_share),
        "detect_frames_per_s": median(samples.detect_fps),
        "eval_s": median(samples.eval_s),
        "eval_baselines_s": median(samples.eval_baselines_s),
        "detect_f1": median(samples.detect_f1),
        "train_epoch_s": median(samples.train_epoch_s),
        "fit_detector_s": median(samples.fit_detector_s),
        "val_mse": median(samples.val_mse),
    }
    values = {k: v for k, v in vars(samples).items() if k != "latency_ms"}
    notes = {
        "measured_s": measured,
        "samples": {
            "setup_s": len(setups),
            "gateway_passes": runs["G"],
            "gateway_scored_frames": len(lat),
            "gateway_latency_p95_ms": percentile(lat, 95.0),
            "gateway_latency_p99_ms": percentile(lat, 99.0),
            "gateway_latency_tail": tail_text,
            "offline_cycles": runs["O"],
            "train_cycles": runs["T"],
        },
        "values": values,
        "setup_walls": [s.wall for s in setups],
    }
    return Measurement(metrics=metrics, notes=notes)
