"""canids benchmark: one workload per run, inputs generated from a seed.

    python3 bench/run.py --workload gateway --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else. `--workload all` runs both workloads
one after another. With `--trace 0` the last line of standard
output is a JSON object with every end-to-end metric; with `--trace 1`
the run measures the workload untraced and then traced, each for half of
`--seconds`, and reports every per-layer metric plus the tracing overhead
(traced minus untraced) of each end-to-end metric. Scratch files, spans
and a record of each run (environment, samples, checks, artifact
digests) go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MAX_SPINNERS = 3
# a busy loop that ends when its parent goes away or after the longest a
# run may take, whichever comes first
SPIN = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
parent, deadline = int(sys.argv[2]), time.monotonic() + 180
while os.getppid() == parent and time.monotonic() < deadline:
    for _ in range(100_000):
        pass
"""


def _one_blas_thread() -> None:
    """Before numpy loads. The load is one caller in one process; a second
    BLAS thread does not speed up these small matrices, and on a shared
    machine it makes timings swing with whatever else is running."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    if not (SRC / "canids" / "__init__.py").is_file():
        sys.exit(f"bench: no canids sources under {SRC}; run from the root "
                 "of a canids checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import canids  # noqa: F401

    if Path(canids.__file__).resolve().parent != (SRC / "canids").resolve():
        sys.exit(f"bench: imported canids from {canids.__file__}, "
                 f"not from {SRC}")


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@contextlib.contextmanager
def busy_siblings():
    """Pin the load to one CPU and keep up to MAX_SPINNERS of the others
    busy with a spinning process each, stopped and waited for on exit.

    On a small VM the vCPUs can be hyperthreads of one host core. Left
    idle, the other one is lent to whatever else the host runs, so the
    measured thread switches, every second or so, between a core of its
    own and a shared one, up to 1.7x slower. Spinning the other CPUs
    fixes it in the shared state for the whole run. Yields the measured
    CPU and the number of spinners."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    spinners = [subprocess.Popen([sys.executable, "-c", SPIN, str(cpu),
                                  str(os.getpid())])
                for cpu in cpus[1:1 + MAX_SPINNERS]]
    try:
        yield cpus[0], len(spinners)
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()
        os.sched_setaffinity(0, cpus)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": (_blas_runtime_threads()
                         or os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    import layers
    import workloads as wl
    from spans import Tracer, patched

    workload = wl.WORKLOADS[name]
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    work = WORK / run_id
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ledger = wl.Ledger()
    record: dict = {"run_id": run_id, "environment": env,
                    "workload": name, "why": workload.why}
    try:
        if not trace:
            m = wl.measure(workload, seed, seconds, work, ledger)
            metrics = {k: (v, wl.UNITS[k]) for k, v in m.metrics.items()}
            record["notes"] = m.notes
        else:
            plain = wl.measure(workload, seed, seconds / 2, work / "plain",
                               ledger)
            untraced_digests = dict(ledger.digests)
            ledger.digests.clear()
            tracer = Tracer()
            tracer.begin_run(run_id)
            with patched(layers.TARGETS, tracer, "canids") as patches, \
                    tracer.recording():
                traced = wl.measure(workload, seed, seconds / 2,
                                    work / "traced", ledger, tracer)
            ledger.check("tracing leaves every artifact unchanged",
                         ledger.digests == untraced_digests,
                         f"{len(ledger.digests)} artifacts compared")
            record["absent_targets"] = patches.absent
            record["notes"] = {"untraced": plain.notes,
                               "traced": traced.notes}
            values = layers.layer_values(tracer.layer_totals(),
                                         tracer.counts)
            units = {m["name"]: m["unit"]
                     for m in layers.per_layer_metrics()}
            metrics = {k: (v, units[k]) for k, v in values.items()}
            for k, v in traced.metrics.items():
                metrics[f"overhead.{k}"] = (v - plain.metrics[k], wl.UNITS[k])
            record["overhead_base"] = plain.metrics
            tracer.write(WORK / f"spans-{run_id}.json")
    except wl.OperationFailed as exc:
        ledger.check("every operation succeeded", False, str(exc))
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["checks"] = ledger.checks
    record["digests"] = ledger.digests
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    record["result"] = result
    (WORK / f"result-{run_id}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    _print_report(record)
    return result


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['run_id']}: {record['why']}")
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    notes = record.get("notes", {})
    for label, n in (notes.items() if "untraced" in notes
                     else [("", notes)]):
        if n:
            print(f"   samples{' ' + label if label else ''}: "
                  + ", ".join(f"{k}={v}" for k, v in n["samples"].items()))
    for name, ok, detail in record["checks"]:
        if not ok:
            print(f"   CHECK FAILED: {name} ({detail})")
    for k, m in record["result"]["metrics"].items():
        print(f"   {k:<52} {m['value']:>14.6g} {m['unit']}")
    if record.get("absent_targets"):
        print("   absent trace targets: "
              + ", ".join(record["absent_targets"]))
    r = record["result"]
    print(f"   correct={r['correct']} attempted={r['attempted']} "
          f"failed={r['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gateway", "offline", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _one_blas_thread()
    _import_program()
    env = environment(args.seed)
    WORK.mkdir(exist_ok=True)
    names = (["gateway", "offline"] if args.workload == "all"
             else [args.workload])
    with busy_siblings() as (cpu, spinners):
        env.update(measured_cpu=cpu, spinning_cpus=spinners)
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace), env) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
