"""Benchmark of rcfvis: streamed frames/s and training iterations/s.

    python3 benchmarks/run.py                      # every workload, untraced and traced
    python3 benchmarks/run.py --workload stream_small --seed 3 --seconds 30 --trace 0
    python3 benchmarks/run.py --write-reference    # refresh benchmarks/reference.json

Run from the root of a checkout; the program is imported from its `src/`.
A single-workload run prints every metric with its unit, a JSON report (the
environment, the checks and the values behind each metric) and, as its last
line, the result object.  `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones from a separate traced pass.  The exit code
is 1 when any output check fails.  Everything runs in this one process on a
single thread; BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 600


def import_program() -> None:
    """Import rcfvis from this checkout's sources, and from nowhere else."""
    if not (SRC / "rcfvis" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {SRC / 'rcfvis'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rcfvis

    if Path(rcfvis.__file__).resolve().parent != SRC / "rcfvis":
        raise SystemExit(f"benchmark: rcfvis was imported from {rcfvis.__file__}, not {SRC}")


@contextmanager
def scratch():
    """A work directory inside the checkout, removed afterwards."""
    work = WORK / str(os.getpid())
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()


def result_line(out, traced: bool) -> dict:
    """The last stdout line: exactly correct, attempted, failed and metrics."""
    import workloads  # importable once import_program() has run

    units = workloads.LAYER_UNITS if traced else workloads.E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        value = out.metrics.get(name)
        if value is None:  # a failed run still names every metric
            out.check("all_metrics_measured", False)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}


def run_one(args) -> int:
    import workloads

    with scratch() as work:
        out = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work, ROOT)
    line = result_line(out, bool(args.trace))
    aliases = workloads.ALIASES[workloads.WORKLOADS[args.workload].kind]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    absent = out.report.get("absent", [])
    for name, m in line["metrics"].items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        value = "absent" if name in absent else f"{m['value']:.6g} {m['unit']}"
        print(f"{name}{alias} = {value}")
    for name, ok in out.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"report": out.report}, sort_keys=True))
    print(json.dumps(line))
    return 0 if out.correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            status = status or child.returncode
            lines = child.stdout.strip().splitlines()
            if child.returncode or not lines:
                merged["correct"] = False
                continue
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return status


def write_reference() -> int:
    import workloads

    with scratch() as work:
        ref = {name: workloads.reference_summary(name, work) for name in workloads.WORKLOADS}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    import workloads

    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
