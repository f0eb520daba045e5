"""One workload process: set up, run rounds of `cli.execute` calls, check outputs.

Started by run.py, one at a time, with BLAS/OpenMP pinned to one thread and
`src/` on the path.  Set-up ends when the generated configs are validated;
the monotonic clock reading at that moment goes into the result so the
launcher can measure set-up from the moment it started this process.

A round runs every scenario of the workload once.  Rounds repeat until about
--budget seconds are spent; at least one round runs unless the budget is
0, which only sets up (used to sample set-up time).  The result, a JSON file, holds each round's wall time of its
`cli.execute` calls and the failures; with --trace 1 also the per-layer
metrics of the spans recorded around the package's layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from kinctrl import cli

import spans
import workloads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    configs = workloads.write_configs(args.workload, args.scratch / "configs")
    ready = time.monotonic()

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    round_s: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    started = time.perf_counter()
    # start another round while it is expected to end within half a round of the budget
    while args.budget > 0 and (not round_s or (time.perf_counter() - started) * (1 + 0.5 / len(round_s)) <= args.budget):
        round_dir = args.scratch / f"round{len(round_s)}"
        run_s = 0.0
        outputs: dict[str, Path] = {}
        problems: dict[str, list[str]] = {}
        for path, cfg in configs:
            out = round_dir / path.stem
            seed = args.seed if workloads.is_stochastic(cfg) else None
            t0 = time.perf_counter()
            try:
                cli.execute(path, out, seed=seed)
            except Exception as exc:  # noqa: BLE001 - a raising scenario counts as failed
                run_s += time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                problems[path.stem] = [f"raised {type(exc).__name__}: {exc}"]
                continue
            run_s += time.perf_counter() - t0
            outputs[path.stem] = out
            problems[path.stem] = workloads.check_scenario(path, cfg, out)
        for name, extra in workloads.check_round(outputs).items():
            problems[name] += extra
        for name, found in problems.items():
            attempted += 1
            if found:
                failed += 1
                failures.append(f"round {len(round_s)} {name}: {'; '.join(found)}")
        round_s.append(run_s)
        shutil.rmtree(round_dir)
    tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready_monotonic": ready,
        "round_s": round_s,
        "updates_per_round": sum(workloads.updates(cfg) for _, cfg in configs),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        result["layers"], result["shares"] = tracer.summary(len(round_s), sum(round_s))
        tracer.dump(args.result.with_suffix(".spans.json"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
