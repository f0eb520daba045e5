"""kinctrl benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kinctrl checkout.  Each workload runs in its own
worker process (perfbench/worker.py), one process at a time, with BLAS and
OpenMP pinned to one thread and `src/` on PYTHONPATH.  Scenario outputs go
to a temporary directory under `.perfbench/` that is removed afterwards.

--trace 0 runs three workers of --seconds/3 each, every one preceded by
three workers that only set up, and reports the end-to-end metrics: set-up
time (median of all twelve), the median round's wall time
of `cli.execute` calls, state updates per second of that round, peak RSS and
the share of scenarios that passed their checks.

--trace 1 runs one untraced and one traced worker of --seconds/2 each and
reports the per-layer metrics of the traced one; its spans are kept in
`.perfbench/spans-<workload>.json`.

`--workload all` runs every workload in turn and prints one table.  The last
line of standard output is always one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("epidemic_kinetic", "particle_dense", "particle_sparse", "reference_solutions")
UNTRACED_WORKERS = 3
# set-up-only workers started before each measuring worker; set-up time is
# the median over all twelve, spread across the run
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170.0   # every worker of one workload must end within this

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("updates_per_s", "updates/s"),
    ("peak_rss_mib", "MiB"),
    ("passed_frac", "fraction"),
]

_ONE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ, **_ONE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(workload: str, seed: int, budget: float, trace: int, scratch: Path, deadline: float) -> dict:
    """Start one worker, wait for it, and return its result with its set-up time."""
    result = scratch / f"result-{trace}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
        "--trace", str(trace), "--scratch", str(scratch / "work"), "--result", str(result),
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerError(f"{workload} worker exited with code {code}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready_monotonic"] - launched
    shutil.rmtree(scratch / "work", ignore_errors=True)
    return out


def _value(x: float, unit: str) -> dict:
    return {"value": x, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[dict]]:
    """Run the workload's workers; return the report and every worker's result."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        if trace:
            runs = [_run_worker(workload, seed, seconds / 2, t, scratch, deadline) for t in (0, 1)]
            shutil.move(scratch / "result-1.spans.json", WORK_DIR / f"spans-{workload}.json")
        else:
            runs = []
            for _ in range(UNTRACED_WORKERS):
                runs += [_run_worker(workload, seed, 0.0, 0, scratch, deadline) for _ in range(SETUP_PROBES)]
                runs.append(_run_worker(workload, seed, seconds / UNTRACED_WORKERS, 0, scratch, deadline))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    measured = [r for r in runs if r["round_s"]]
    if trace:
        plain_s, traced_s = (statistics.median(r["round_s"]) for r in runs)
        layers = dict(runs[1]["layers"], **{"trace.overhead_frac": (traced_s - plain_s) / plain_s})
        metrics = {name: _value(layers[name], unit) for name, unit in LAYER_METRICS}
    else:
        run_s = statistics.median(s for r in measured for s in r["round_s"])
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "run_s": run_s,
            "updates_per_s": measured[0]["updates_per_round"] / run_s,
            "peak_rss_mib": statistics.median(r["maxrss_mib"] for r in measured),
            "passed_frac": 1.0 - failed / attempted,
        }
        metrics = {name: _value(values[name], unit) for name, unit in END_TO_END}
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, runs


def _describe(workload: str, seed: int, report: dict, runs: list[dict]) -> str:
    info = {
        "workload": workload,
        "seed": seed,
        "env": runs[0]["env"],
        "round_s": [r["round_s"] for r in runs if r["round_s"]],
        "setup_s": [r["setup_s"] for r in runs],
        "failed_frac": report["failed"] / report["attempted"],
        "failures": [f for r in runs for f in r["failures"]][:20],
    }
    shares = [r["shares"] for r in runs if "shares" in r]
    if shares:
        info["self_share_of_run"] = {k: round(v, 4) for k, v in shares[0].items() if v}
    return json.dumps(info)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (ROOT / "src" / "kinctrl" / "__init__.py").is_file():
        print(f"error: no kinctrl sources under {ROOT / 'src'}; run from a kinctrl checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report, runs = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(_describe(name, args.seed, report, runs))
        for metric, v in report["metrics"].items():
            print(f"  {name:20s} {metric:44s} {v['value']:.6g} {v['unit']}")
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in report["metrics"].items()})
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # spans files kept from a traced run
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
