"""Deterministic file output helpers: atomic writes, CSV and JSON emitters.

All emitters produce byte-identical files for identical inputs (no
timestamps, stable key order), so runs can be diffed and cached.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os


@contextlib.contextmanager
def _atomic_file(path):
    """A text file written at ``path + ".tmp"`` and renamed to ``path`` once
    complete; if anything fails after the open, the temporary file is removed
    and the error re-raised, so a failed run leaves neither file."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """RFC-4180-style CSV with a header row and '.' decimal separator.

    Cells are plain Python int, float or str: the writer gives repr(x) for a
    float, which round-trips ("nan" for NaN).  numpy scalars would repr
    verbosely, so the table builders convert them first.  Rows stream to
    the file; the whole text is never held in memory.
    """
    with _atomic_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """UTF-8 JSON with sorted keys."""
    text = json_text(obj)  # a value json cannot encode fails before any file is made
    with _atomic_file(path) as fh:
        fh.write(text)


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
