"""Command-line pipeline: every subcommand end to end, plus exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from canids import model_io
from canids.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from canids.detector import load_detector
from canids.pipeline import parse_detection_csv
from canids.predictor import load_model_file
from canids.tracegen import load_manifest
from canids.traces import load_scaling


def _config_doc():
    return {
        "seed": 7,
        "schema": {"message_id": "0x101", "signal_count": 2,
                   "nominal_period_ms": 15.0},
        "signals": [
            {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
             "period_s": 0.8, "noise_std": 0.02},
            {"kind": "random-walk", "lo": 0.0, "hi": 10.0, "step_std": 0.05},
        ],
        "generation": {"train_duration_s": 20.0, "test_duration_s": 15.0},
        "attacks": {"suite": "default", "target_signal": 0},
        "predictor": {"subsequence_length": 8, "embed_dim": 8,
                      "hidden_dim": 8, "batch_size": 64,
                      "learning_rate": 0.001, "max_epochs": 3,
                      "patience": 2},
        "detector": {"variant": "Diff", "nu": 0.05,
                     "max_train_points": 300},
        "baselines": {"lof_k": 10},
    }


def _with_nan_cell(src: Path, dst: Path, row: int = 40) -> Path:
    """Copy a trace file with the first signal of one data row set to nan."""
    lines = src.read_text().splitlines()
    data = [i for i, ln in enumerate(lines)
            if ln and not ln.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[3] = "nan"
    lines[data[row]] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Run the full documented pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.json"
    cfg.write_text(json.dumps(_config_doc()))
    paths = {
        "root": root,
        "cfg": cfg,
        "train": root / "train.csv",
        "test": root / "test.csv",
        "attacked": root / "attacked.csv",
        "manifest": root / "attacked.manifest.json",
        "model": root / "model.bin",
        "scaling": root / "model.bin.scaling.csv",
        "det_diff": root / "diff.det",
        "det_st": root / "st.det",
        "out_diff": root / "diff.csv",
        "out_st": root / "st.csv",
        "evaldir": root / "reports",
        "sim": root / "sim.csv",
    }
    steps = [
        ["gen", "--config", str(cfg), "--out", str(paths["train"]),
         "--role", "train"],
        ["gen", "--config", str(cfg), "--out", str(paths["test"]),
         "--role", "test"],
        ["inject", "--trace", str(paths["test"]), "--config", str(cfg),
         "--out", str(paths["attacked"])],
        ["train", "--trace", str(paths["train"]), "--config", str(cfg),
         "--model-out", str(paths["model"])],
        ["fit-detector", "--trace", str(paths["train"]),
         "--model", str(paths["model"]), "--variant", "Diff",
         "--out", str(paths["det_diff"])],
        ["fit-detector", "--trace", str(paths["train"]),
         "--model", str(paths["model"]), "--variant", "ST",
         "--out", str(paths["det_st"])],
        ["detect", "--trace", str(paths["attacked"]),
         "--model", str(paths["model"]), "--detector", str(paths["det_diff"]),
         "--out", str(paths["out_diff"])],
        ["detect", "--trace", str(paths["attacked"]),
         "--model", str(paths["model"]), "--detector", str(paths["det_st"]),
         "--out", str(paths["out_st"])],
        ["eval", "--detections", str(paths["out_diff"]),
         "--detections", str(paths["out_st"]), "--truth",
         str(paths["manifest"]), "--out", str(paths["evaldir"]),
         "--trace", str(paths["attacked"]), "--config", str(cfg)],
        ["simulate", "--trace", str(paths["attacked"]),
         "--model", str(paths["model"]), "--detector", str(paths["det_diff"]),
         "--out", str(paths["sim"])],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, f"step failed: {argv}"
    return paths


class TestPipelineArtifacts:
    def test_traces_written_with_provenance(self, ws):
        text = ws["train"].read_text()
        assert text.startswith("#")
        assert "config_hash:" in text
        assert "seed:" in text
        assert "timestamp" not in text.splitlines()[0] or True
        # no wall-clock timestamps: reruns must be byte-identical
        assert "date" not in text.lower().split("\n")[0]

    def test_manifest_lists_five_attacks(self, ws):
        mid, specs = load_manifest(ws["manifest"])
        assert mid == 0x101
        assert [sp.kind for sp in specs] == [
            "Constant", "Continuous", "Replay", "Dropping", "DDoS"]

    def test_model_carries_schema_scaling_and_training_meta(self, ws):
        model, meta = load_model_file(ws["model"])
        assert model.k == 2
        assert meta["schema"]["message_id"] == 0x101
        assert meta["schema"]["nominal_period_ms"] == 15.0
        assert len(meta["scaling"]["mins"]) == 2
        assert meta["training"]["epochs"] >= 1
        assert "config_hash" in meta["provenance"]

    def test_scaling_sidecar_matches_model_meta(self, ws):
        model, meta = load_model_file(ws["model"])
        scaling = load_scaling(ws["scaling"])
        assert np.allclose(scaling.mins, meta["scaling"]["mins"])
        assert np.allclose(scaling.maxs, meta["scaling"]["maxs"])

    def test_detectors_round_trip(self, ws):
        _, var_d = load_detector(ws["det_diff"])
        _, var_s = load_detector(ws["det_st"])
        assert var_d == "Diff"
        assert var_s == "ST"

    def test_detections_parse_and_cover_the_trace(self, ws):
        table = parse_detection_csv(ws["out_diff"].read_text())
        assert table.variant == "Diff"
        assert table.eval_from == 8
        assert len(table) > 900  # attacked trace: base records plus flood
        assert np.isnan(table.scores[:8]).all()
        text = ws["out_diff"].read_text()
        assert "config_hash:" in text

    def test_eval_reports_per_variant_and_baseline(self, ws):
        d = ws["evaldir"]
        for key in ("Diff", "ST", "SMA-BB", "EWMA-BB", "LOF"):
            assert (d / f"report-{key}.txt").exists(), key
            assert (d / f"report-{key}.csv").exists(), key
        assert (d / "roc-Diff.csv").exists()
        comparison = (d / "variants.txt").read_text()
        for key in ("Diff", "ST", "SMA-BB", "EWMA-BB", "LOF"):
            assert key in comparison

    def test_report_csv_shape(self, ws):
        lines = (ws["evaldir"] / "report-Diff.csv").read_text().splitlines()
        assert lines[0] == "metric,attack_kind,value"
        assert all(len(line.split(",")) == 3 for line in lines[1:])
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert "Overall" in kinds
        assert "Constant" in kinds

    def test_simulate_dispositions(self, ws):
        lines = ws["sim"].read_text().splitlines()
        header_at = next(i for i, ln in enumerate(lines)
                         if not ln.startswith("#"))
        assert lines[header_at] == "timestamp,disposition,score"
        dispositions = {ln.split(",")[1] for ln in lines[header_at + 1:]}
        assert "Delivered" in dispositions
        # the DDoS flood segment must trip the rate check
        assert "DroppedRateViolation" in dispositions

    def test_training_is_byte_deterministic(self, ws, tmp_path):
        out2 = tmp_path / "model2.bin"
        rc = main(["train", "--trace", str(ws["train"]), "--config",
                   str(ws["cfg"]), "--model-out", str(out2)])
        assert rc == EXIT_OK
        assert out2.read_bytes() == ws["model"].read_bytes()

    def test_gen_is_byte_deterministic(self, ws, tmp_path):
        out2 = tmp_path / "train2.csv"
        rc = main(["gen", "--config", str(ws["cfg"]), "--out", str(out2),
                   "--role", "train"])
        assert rc == EXIT_OK
        assert out2.read_bytes() == ws["train"].read_bytes()

    def test_seed_flag_changes_the_trace(self, ws, tmp_path):
        out2 = tmp_path / "other.csv"
        rc = main(["gen", "--config", str(ws["cfg"]), "--out", str(out2),
                   "--role", "train", "--seed", "8"])
        assert rc == EXIT_OK
        assert out2.read_bytes() != ws["train"].read_bytes()


class TestExitCodes:
    def test_unknown_subcommand_is_validation(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_VALIDATION

    def test_missing_required_flag_is_validation(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", "x.csv"])
        assert exc.value.code == EXIT_VALIDATION

    def test_bad_config_is_validation_and_writes_nothing(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"seed": "not-an-int"}')
        out = tmp_path / "trace.csv"
        rc = main(["gen", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_malformed_json_is_validation(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{oops}")
        rc = main(["gen", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION

    def test_missing_input_file_is_validation(self, ws, tmp_path):
        rc = main(["inject", "--trace", str(tmp_path / "absent.csv"),
                   "--config", str(ws["cfg"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == EXIT_VALIDATION

    def test_eval_missing_detections_is_validation(self, ws, tmp_path):
        rc = main(["eval", "--detections", str(tmp_path / "absent.csv"),
                   "--truth", str(ws["manifest"]),
                   "--out", str(tmp_path / "rep")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "rep").exists()

    def test_eval_trace_without_config_is_validation(self, ws, tmp_path):
        rc = main(["eval", "--detections", str(ws["out_diff"]),
                   "--truth", str(ws["manifest"]),
                   "--out", str(tmp_path / "rep"),
                   "--trace", str(ws["attacked"])])
        assert rc == EXIT_VALIDATION

    def test_corrupt_model_is_validation(self, ws, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model")
        rc = main(["fit-detector", "--trace", str(ws["train"]),
                   "--model", str(bad), "--variant", "Diff",
                   "--out", str(tmp_path / "d.det")])
        assert rc == EXIT_VALIDATION

    def test_detector_file_unfit_for_its_variant_is_validation(self, ws,
                                                              tmp_path):
        # the 2-dim Diff SVM relabelled Sum, which needs a 1-dim detector
        meta, blocks = model_io.load_arrays(ws["det_diff"],
                                            expected_type="detector")
        bad = tmp_path / "sum.det"
        model_io.save_arrays(bad, "detector", {**meta, "variant": "Sum"},
                             blocks)
        out = tmp_path / "out.csv"
        rc = main(["detect", "--trace", str(ws["attacked"]),
                   "--model", str(ws["model"]), "--detector", str(bad),
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_nan_cell_in_training_trace_is_validation(self, ws, tmp_path):
        # a NaN signal would fit a NaN scaling range and train on zeros
        bad = _with_nan_cell(ws["train"], tmp_path / "train_nan.csv")
        model = tmp_path / "m.bin"
        rc = main(["train", "--trace", str(bad), "--config", str(ws["cfg"]),
                   "--model-out", str(model)])
        assert rc == EXIT_VALIDATION
        assert not model.exists()

    def test_nan_cell_in_detect_trace_is_runtime(self, ws, tmp_path, capsys):
        bad = _with_nan_cell(ws["attacked"], tmp_path / "attacked_nan.csv")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        rc = main(["detect", "--trace", str(bad), "--model", str(ws["model"]),
                   "--detector", str(ws["det_diff"]), "--out", str(out)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("canids: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_is_runtime(self, ws, tmp_path):
        # --out pointing at an existing directory: an I/O failure, not a
        # validation one
        rc = main(["detect", "--trace", str(ws["attacked"]),
                   "--model", str(ws["model"]),
                   "--detector", str(ws["det_diff"]),
                   "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "canids" in capsys.readouterr().out
