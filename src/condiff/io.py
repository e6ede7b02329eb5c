"""Artifact writers with stable, diff-friendly formatting.

Floats go out with 17 significant digits so they round-trip exactly;
identical runs therefore produce byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    """Write rows one line at a time, so an iterable of rows is never held."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError("row width does not match the header")
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
