"""Command-line front end: gen, inject, train, fit-detector, detect,
eval, simulate.

Each command validates its inputs before writing anything, and `train`
and `inject`, which write two files, leave both or neither. Exit codes:
0 success, 1 validation failure (bad config, bad flags, missing or
malformed input files), 2 runtime failure (training divergence, a
non-finite value met in scoring, I/O errors mid-write).

Traces, models, detection tables and disposition logs carry a provenance
header: tool version, config hash and seed (`detect` and `simulate` copy
both from the model). Headers omit wall-clock time, so reruns with
identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from . import detector as det
from . import metrics as mx
from . import pipeline as pl
from . import predictor as pr
from .config import ConfigError, DetectorConfig, ExperimentConfig, load_config
from .controller import (DEFAULT_TOLERANCE, OnlineConfig, dispositions_csv,
                         run_online)
from .tracegen import load_manifest, save_manifest
from .traces import (
    MessageSchema,
    ScalingParams,
    from_json,
    json_value,
    load_trace,
    read_text,
    save_scaling,
    table_text,
    write_text,
    write_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


@dataclass(frozen=True)
class _Provenance:
    """A model file's provenance block, as `train` writes it."""

    tool: str
    config_hash: str
    seed: int


def _provenance(src: ExperimentConfig | _Provenance, **extra) -> dict:
    """An output file's provenance: this tool, the config hash and seed of
    the config or model file it derives from, then `extra`."""
    return {"tool": f"canids {__version__}", "config_hash": src.config_hash,
            "seed": src.seed, **extra}


def _load_model(path) -> tuple[pr.PredictorModel, MessageSchema,
                               ScalingParams, _Provenance]:
    """A model file written by `train`: the predictor and its checked
    schema, scaling and provenance blocks."""
    model, meta = pr.load_model_file(path)
    schema = from_json(MessageSchema, meta.get("schema"), f"{path}: schema",
                       complete=True)
    d = meta.get("scaling")
    if type(d) is not dict:
        raise ValueError(
            f"{path}: model file carries no scaling block; "
            "was it written by the train command?")
    where = f"{path}: scaling"
    mins, maxs = (json_value(d.get(key), tuple[float, ...], f"{where}.{key}")
                  for key in ("mins", "maxs"))
    try:
        scaling = ScalingParams(signal_names=tuple(schema.signal_names),
                                mins=mins, maxs=maxs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    prov = from_json(_Provenance, meta.get("provenance"),
                     f"{path}: provenance", complete=True)
    return model, schema, scaling, prov


def _write_all(*outputs: tuple[str, Callable[[str], None]]) -> None:
    """Call write(path) for each (path, write) in turn. When one fails,
    remove the files written before it, and its own file unless that
    existed before, so a command leaves all of its outputs or none."""
    done: list[str] = []
    for path, write in outputs:
        existed = Path(path).exists()
        try:
            write(path)
        except BaseException:
            for made in done if existed else [*done, path]:
                Path(made).unlink(missing_ok=True)
            raise
        done.append(path)


# --------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    trace = pl.gen_trace(cfg, args.role)
    write_trace(trace, args.out,
                provenance=_provenance(cfg, role=args.role))
    print(f"wrote {len(trace)} records to {args.out}")
    return EXIT_OK


def cmd_inject(args) -> int:
    cfg = _load_cfg(args)
    trace = load_trace(args.trace, cfg.schema)
    attacked, specs = pl.inject(cfg, trace)
    manifest = args.manifest or str(Path(args.out).with_suffix("")) \
        + ".manifest.json"
    _write_all(
        (args.out, lambda path: write_trace(attacked, path,
                                            provenance=_provenance(cfg))),
        (manifest, lambda path: save_manifest(
            specs, path, cfg.schema.message_id,
            extra={"config_hash": cfg.config_hash, "seed": cfg.seed})))
    n_attacked = int(attacked.labels.sum())
    print(f"wrote {len(attacked)} records ({n_attacked} labeled attack) "
          f"to {args.out}")
    print(f"wrote attack manifest to {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    trace = load_trace(args.trace, cfg.schema)
    model, scaling, history = pl.train_predictor(cfg, trace)
    extra = {
        "schema": dataclasses.asdict(cfg.schema),
        "scaling": {"mins": list(scaling.mins), "maxs": list(scaling.maxs)},
        "provenance": _provenance(cfg),
        "training": {
            "epochs": len(history.val_loss),
            "best_epoch": history.best_epoch,
            "best_val_loss": history.val_loss[history.best_epoch],
            "stop_reason": history.stop_reason,
        },
    }
    scaling_out = args.scaling_out or str(Path(args.model_out)) + ".scaling.csv"
    _write_all(
        (args.model_out,
         lambda path: pr.save_model(model, path, extra_meta=extra)),
        (scaling_out, lambda path: save_scaling(scaling, path)))
    print(f"trained {len(history.val_loss)} epochs "
          f"(best epoch {history.best_epoch}, "
          f"val MSE {history.val_loss[history.best_epoch]:.6g}, "
          f"stopped on {history.stop_reason})")
    print(pr.parameter_count_note(model))
    print(f"wrote model to {args.model_out}")
    print(f"wrote scaling sidecar to {scaling_out}")
    return EXIT_OK


def cmd_fit_detector(args) -> int:
    model, schema, scaling, _ = _load_model(args.model)
    if args.config:
        detcfg = load_config(args.config).detector
    else:
        detcfg = DetectorConfig()
    trace = load_trace(args.trace, schema)
    d = pl.fit_detector(model, scaling, trace, args.variant, detcfg)
    det.save_detector(d, args.variant, args.out)
    # one window per record after the first L
    n_windows = len(trace) - model.hyper.subsequence_length
    if isinstance(d, det.StaticThreshold):
        print(f"fitted static threshold {d.threshold:.6g} "
              f"on {n_windows} deviations")
    else:
        print(f"fitted one-class SVM on {d.n_train} of {n_windows} "
              f"deviations: {len(d.support_vectors)} support "
              f"vectors, rho {d.rho:.6g}, converged {d.converged}")
    print(f"wrote detector to {args.out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    model, schema, scaling, src = _load_model(args.model)
    detector, variant = det.load_detector(args.detector)
    trace = load_trace(args.trace, schema)
    table = pl.detect_with(model, scaling, detector, variant, trace,
                           tolerance_fraction=args.tolerance)
    write_text(args.out, pl.detection_csv(table, _provenance(src)))
    flagged = int(table.final_flag.sum())
    print(f"scored {len(table)} records with variant {variant}: "
          f"{flagged} flagged")
    print(f"wrote detections to {args.out}")
    return EXIT_OK


def _unique_key(name: str, taken: set[str]) -> str:
    key = name
    n = 2
    while key in taken:
        key = f"{name}#{n}"
        n += 1
    return key


def cmd_eval(args) -> int:
    mid, specs = load_manifest(args.truth)
    out_dir = Path(args.out)
    reports: dict[str, mx.AttackReport] = {}
    tables: dict[str, pl.DetectionTable] = {}
    for path in args.detections:
        table = pl.parse_detection_csv(read_text(path), path=str(path))
        if table.message_id != mid:
            raise ValueError(
                f"{path}: detections are for message {table.message_id:#x}, "
                f"manifest covers {mid:#x}")
        key = _unique_key(table.variant, set(tables))
        tables[key] = table
        reports[key] = pl.evaluate(table, specs)

    if args.trace:
        if not args.config:
            raise ValueError("--trace (baseline scoring) requires --config")
        cfg = _load_cfg(args)
        attacked = load_trace(args.trace, cfg.schema)
        eval_from = next(iter(tables.values())).eval_from
        for name, rep in pl.baseline_reports(cfg, attacked, specs,
                                             eval_from=eval_from).items():
            reports[_unique_key(name, set(reports))] = rep

    out_dir.mkdir(parents=True, exist_ok=True)
    for key, rep in reports.items():
        write_text(out_dir / f"report-{key}.txt", mx.report_text(rep, key))
        columns = list(zip(*mx.report_rows(rep, key)))
        write_text(out_dir / f"report-{key}.csv",
                   table_text("metric,attack_kind,value", columns))
        if rep.roc_points:
            write_text(out_dir / f"roc-{key}.csv", mx.roc_csv(rep.roc_points))
    comparison = mx.variant_table(reports)
    write_text(out_dir / "variants.txt", comparison + "\n")
    print(comparison)
    print(f"wrote {len(reports)} report(s) to {out_dir}/")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, schema, scaling, src = _load_model(args.model)
    detector, variant = det.load_detector(args.detector)
    trace = load_trace(args.trace, schema)
    config = OnlineConfig(tolerance_fraction=args.tolerance,
                          substitution=args.substitution)
    dispositions = run_online(zip(trace.timestamps, trace.signals), model,
                              detector, variant, scaling,
                              schema.nominal_period_ms, config)
    write_text(args.out,
               dispositions_csv(dispositions, _provenance(src, variant=variant)))
    counts: dict[str, int] = {}
    for d in dispositions:
        counts[d.disposition] = counts.get(d.disposition, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"processed {len(dispositions)} frames ({summary})")
    print(f"wrote dispositions to {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="canids",
                description="CAN-bus anomaly detection pipeline")
    p.add_argument("--version", action="version",
                   version=f"canids {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a clean synthetic trace")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    g.add_argument("--role", choices=("train", "test"), default="train",
                   help="which configured duration to generate")
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("inject", help="inject the attack suite into a trace")
    i.add_argument("--trace", required=True)
    i.add_argument("--config", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--seed", type=int, default=None)
    i.add_argument("--manifest", default=None,
                   help="attack manifest path (default: derived from --out)")
    i.set_defaults(func=cmd_inject)

    t = sub.add_parser("train", help="train the predictor on a clean trace")
    t.add_argument("--trace", required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--model-out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--scaling-out", default=None,
                   help="scaling sidecar path (default: <model-out>.scaling.csv)")
    t.set_defaults(func=cmd_train)

    f = sub.add_parser("fit-detector",
                       help="fit a deviation detector using a trained model")
    f.add_argument("--trace", required=True,
                   help="clean trace to compute training deviations from")
    f.add_argument("--model", required=True)
    f.add_argument("--variant", required=True, choices=det.VARIANTS)
    f.add_argument("--out", required=True)
    f.add_argument("--config", default=None,
                   help="optional config supplying detector parameters")
    f.set_defaults(func=cmd_fit_detector)

    d = sub.add_parser("detect", help="score a trace offline")
    d.add_argument("--trace", required=True)
    d.add_argument("--model", required=True)
    d.add_argument("--detector", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="rate-check tolerance fraction")
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("eval", help="evaluate detections against a manifest")
    e.add_argument("--detections", required=True, action="append",
                   help="detection CSV; repeat to compare variants")
    e.add_argument("--truth", required=True, help="attack manifest")
    e.add_argument("--out", required=True, help="report output directory")
    e.add_argument("--trace", default=None,
                   help="attacked trace; adds baseline detector rows")
    e.add_argument("--config", default=None,
                   help="config with baseline parameters (with --trace)")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("simulate",
                       help="replay a trace through the online controller")
    s.add_argument("--trace", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--detector", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    s.add_argument("--substitution", choices=("prediction", "freeze"),
                   default="prediction")
    s.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"canids: config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"canids: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"canids: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except pr.TrainingDiverged as exc:
        print(f"canids: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ArithmeticError as exc:
        print(f"canids: numeric error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, RuntimeError) as exc:
        print(f"canids: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
