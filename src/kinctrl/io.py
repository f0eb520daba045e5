"""Deterministic output artifacts: CSV tables and the run manifest.

Floats are written with repr (shortest round-trip decimal) and string cells as
they are, so re-running a scenario with the same seed reproduces files byte
for byte.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np

TRAJECTORY_FILE = "trajectory.csv"
MANIFEST_FILE = "manifest.json"

OUT_DIR_ENV = "KINCTRL_OUT_DIR"

# write_csv converts this many rows at a time, so a long file never holds
# all its cells as Python objects at once
CSV_BLOCK_ROWS = 1024


def fmt(value: float | str) -> str:
    return value if isinstance(value, str) else repr(float(value))


def density_filename(t: float) -> str:
    return f"density_t{fmt(t)}.csv"


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns have mismatched lengths {lengths}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, lengths.pop(), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            writer.writerows(zip(*(_cells(c[block]) for c in columns)))


def _cells(column) -> list:
    """The column's cells as fmt writes them.

    A numeric column becomes Python floats in one conversion; csv writes a
    float with repr, so the bytes are those of fmt.  Any other column is
    formatted value by value.
    """
    if isinstance(column, np.ndarray):
        numeric = column.dtype.kind in "biuf"
    else:
        numeric = not any(isinstance(v, str) for v in column)
    return np.asarray(column, dtype=float).tolist() if numeric else [fmt(v) for v in column]


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.fromiter(_row_values(reader, len(header)), dtype=float)
    return {name: data[i :: len(header)] for i, name in enumerate(header)}


def _row_values(reader, width: int):
    """The values of every row in order, checking each row's width.

    Streaming them into one array keeps a 25 000-row density file from
    becoming 25 000 Python lists of floats first.
    """
    for row in reader:
        if len(row) != width:
            raise ValueError(f"line {reader.line_num}: {len(row)} fields, expected {width}")
        yield from map(float, row)


def write_manifest(path: Path, manifest: dict) -> None:
    """Write manifest as strict JSON; a NaN or infinite value raises ValueError
    before the file is touched."""
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def resolve_out_dir(cli_out: str | None, config_out: str | None, config_stem: str) -> Path:
    """Output directory precedence: CLI flag, config field, env root, ./runs."""
    if cli_out:
        return Path(cli_out)
    if config_out:
        return Path(config_out)
    root = os.environ.get(OUT_DIR_ENV)
    base = Path(root) if root else Path("runs")
    return base / config_stem
