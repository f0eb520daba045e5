"""Record the reference outputs that the deterministic workloads are checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every deterministic scenario of every workload once and copies its
trajectory, fp density snapshots or sweep table into perfbench/reference/.
Run it only when a change of results is intended, and say why in the
change's notes; the benchmark compares later runs against these files.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from kinctrl import cli

import workloads


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            for path, cfg in workloads.write_configs(name, tmp / name / "configs"):
                if workloads.is_stochastic(cfg):
                    continue
                out = cli.execute(path, tmp / name / path.stem)
                keep = [out / cli.TRAJECTORY_FILE, out / "sweep.csv"]
                if cfg["kind"] == "fp_equilibrium":
                    keep += out.glob("density_t*.csv")
                dest = workloads.REFERENCE_DIR / path.stem
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for f in keep:
                    if f.exists():
                        shutil.copy(f, dest / f.name)
                print(f"recorded {dest.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
