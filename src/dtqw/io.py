"""Deterministic file output helpers: atomic writes, CSV and JSON emitters.

All emitters produce byte-identical files for identical inputs (no
timestamps, stable key order), so runs can be diffed and cached.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os


def atomic_write_text(path, text: str) -> None:
    """Write via a temporary file and rename, so failed runs leave no partial file."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header: list[str], rows) -> None:
    """RFC-4180-style CSV with a header row and '.' decimal separator.

    Cells are plain Python int, float or str: the writer gives repr(x) for a
    float, which round-trips ("nan" for NaN).  numpy scalars would repr
    verbosely, so the table builders convert them first.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path, obj) -> None:
    """UTF-8 JSON with sorted keys."""
    atomic_write_text(path, json_text(obj))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def json_complex(z: complex) -> list[float]:
    """JSON encoding of a complex number as [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def write_sidecar(path, config: dict, version: str) -> None:
    """Reproducibility sidecar: tool version plus the full config echo."""
    write_json(os.fspath(path) + ".meta.json",
               {"tool": "dtqw", "version": version, "config": config})
