"""Deterministic file output helpers: atomic writes, CSV and JSON emitters.

All emitters produce byte-identical files for identical inputs (no
timestamps, stable key order), so runs can be diffed and cached.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re

import numpy as np

# Rows formatted and written at a time: the CSV text of one block is held in
# memory, never that of the whole table.
BLOCK_ROWS = 2048

# Rows encoded as JSON at a time: json.dumps holds every small piece of the
# text until it joins them, about 1 KB a row of a state table.
JSON_ROWS = 256

# A cell holding one of these is quoted, as csv's QUOTE_MINIMAL does.
_SPECIAL = re.compile(r'[,"\r\n]')


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


class Table:
    """A table held by column: its column names ``header``, kept exactly as
    given (duplicate, empty or any other text), over equal-length 1-d numpy
    arrays of float64, int, str or object (plain Python cells, such as the
    sweep's winding column of ints and ""), read as ``columns``.

    A numpy str array drops trailing NUL characters, so a text column whose
    cells may end in NUL must be an object array.  ``len`` is the number of
    rows.  ``write_csv`` and ``write_json_table`` read the columns a block of
    rows at a time (``blocks``).
    """

    def __init__(self, header: list[str], *columns: np.ndarray):
        self.header = list(header)
        self.columns = tuple(np.asarray(c) for c in columns)
        if len(self.columns) != len(self.header):
            raise ValueError(f"table of {len(self.columns)} columns under a header of "
                             f"{len(self.header)}")
        shapes = {c.shape for c in self.columns}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"table columns of shapes {sorted(shapes)}, not one length")

    def __len__(self) -> int:
        return self.columns[0].shape[0]

    def blocks(self):
        """The columns sliced into blocks of ``BLOCK_ROWS`` rows, one slice
        per distinct column (the sweep's two gap columns are one array)."""
        for lo in range(0, len(self), BLOCK_ROWS):
            views = {id(c): c[lo:lo + BLOCK_ROWS] for c in self.columns}
            yield [views[id(c)] for c in self.columns]


def _cells(column: np.ndarray) -> list[str]:
    """The CSV text of each cell of one column block.

    A float64 column gives repr of each float ("nan", "inf" included).  In
    one that is mostly zeros, an exact zero is written "0.0" or "-0.0" by its
    sign bit, as repr writes it, and repr is called only on the others.  Any
    other column is written as ``str`` of each of its plain Python cells
    (int, float or str), and a text holding a comma, quote, CR or LF is
    quoted, its quotes doubled.
    """
    if column.dtype == np.float64:
        nonzero = np.flatnonzero(column)
        if 2 * nonzero.size >= column.size:
            return list(map(repr, column.tolist()))
        text = ["0.0"] * column.size
        for i in np.flatnonzero(np.signbit(column)).tolist():
            text[i] = "-0.0"
        for i, t in zip(nonzero.tolist(), map(repr, column[nonzero].tolist())):
            text[i] = t
        return text
    text = list(map(str, column.tolist()))
    if _SPECIAL.search("".join(text)):
        text = ['"' + t.replace('"', '""') + '"' if _SPECIAL.search(t) else t for t in text]
    return text


def _block_text(columns) -> str:
    """CSV text of a block of rows given by column, CRLF after each row; a
    column given twice is formatted once."""
    texts = {key: _cells(c) for key, c in {id(c): c for c in columns}.items()}
    cells = [texts[id(c)] for c in columns]
    if len(cells) == 1:  # csv quotes a row that is a single empty field
        cells = [['""' if t == "" else t for t in cells[0]]]
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_csv(path, rows: Table) -> None:
    """RFC-4180-style CSV with a header row, '.' decimal separator and CRLF
    line ends, byte for byte what ``csv.writer`` writes for the table's rows.

    The ``Table`` is formatted by column (see ``_cells``), ``BLOCK_ROWS``
    rows at a time, and each block is joined once and written, so the text
    of the whole table is never held.
    """
    with _atomic_file(path) as fh:
        fh.write(_block_text([np.array([name], dtype=object) for name in rows.header]))
        for block in rows.blocks():
            fh.write(_block_text(block))


def write_json_table(path, rows: Table) -> None:
    """The table as ``json_text`` of a list of one dict per row, keyed by its
    header, with every non-finite float cell None (JSON has no NaN).

    ``rows`` is a ``Table``; each cell is its plain Python value, so an int
    of an object column stays a JSON number.  The dicts of one block of
    ``BLOCK_ROWS`` rows are held at a time, and encoded ``JSON_ROWS`` at a
    time, never the whole table's.
    """
    with _atomic_file(path) as fh:
        sep = "[\n"
        for block in rows.blocks():
            cells = (c.tolist() for c in block)
            objects = [{key: None if isinstance(x, float) and not math.isfinite(x) else x
                        for key, x in zip(rows.header, row)} for row in zip(*cells)]
            for lo in range(0, len(objects), JSON_ROWS):
                # the text inside json_text's "[\n" and "\n]\n"
                fh.write(sep + json_text(objects[lo:lo + JSON_ROWS])[2:-3])
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


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
