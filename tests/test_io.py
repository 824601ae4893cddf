"""The table writers against their oracles, their failures, and their memory
bound.

``csv.writer`` is the oracle of ``io.write_csv``, and ``io.json_text`` of the
list of row dicts, non-finite cells None, that of ``io.write_json_table``:
each writer must write the oracle's bytes for the rows of a column ``Table``,
whether its columns are typed numpy arrays or object arrays of the same plain
Python cells, one kind or mixed."""

import csv
import io as _stdio
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw import io
from dtqw.lattice import WalkerState, state_table

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# the zeros, the non-finite values, the subnormal and normal extremes, the
# exponents where repr switches notation, then any float
floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, 1e-320, 1e16,
                     9999999999999998.0, 1e-4, 1e-5]),
    st.floats())
ints = st.integers(-2**63, 2**63 - 1)
texts = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\té')), max_size=6)
KINDS = {"float": floats, "int": ints, "str": texts}
DTYPES = {"float": np.float64, "int": np.int64, "str": str}


def _oracle(header, rows) -> bytes:
    buf = _stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _rows(table) -> list[tuple]:
    """A column table's rows, as tuples of plain Python scalars."""
    return list(zip(*(c.tolist() for c in table.columns)))


def _objects(header, columns) -> io.Table:
    """A table of object columns holding the given plain Python cells."""
    return io.Table(header, *(np.array(c, dtype=object) for c in columns))


def _written(path, rows) -> bytes:
    io.write_csv(path, rows)
    return path.read_bytes()


@st.composite
def column_tables(draw):
    """(header, column kinds, columns as lists of plain Python cells)."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 12))
    header = draw(st.lists(texts, min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(KINDS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    return header, kinds, columns


@PROPERTY_SETTINGS
@given(column_tables(), st.integers(1, 5))
def test_column_tables_write_what_csv_writer_writes(tmp_path_factory, table, block):
    header, kinds, columns = table
    rows = list(zip(*columns))
    want = _oracle(header, rows)
    path = tmp_path_factory.mktemp("t") / "t.csv"
    arrays = [np.array(c, dtype=DTYPES[k]) for k, c in zip(kinds, columns)]
    with mock.patch.object(io, "BLOCK_ROWS", block):  # row counts across the block size
        assert _written(path, io.Table(header, *arrays)) == want
        assert _written(path, _objects(header, columns)) == want


@PROPERTY_SETTINGS
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(texts, min_size=width, max_size=width),
    st.lists(st.lists(st.one_of(floats, ints, texts), min_size=width, max_size=width),
             max_size=12))),
    st.integers(1, 5))
def test_mixed_rows_write_what_csv_writer_writes(tmp_path_factory, table, block):
    header, rows = table
    columns = [[row[j] for row in rows] for j in range(len(header))]
    path = tmp_path_factory.mktemp("t") / "t.csv"
    with mock.patch.object(io, "BLOCK_ROWS", block):
        assert _written(path, _objects(header, columns)) == _oracle(header, rows)


def _json_oracle(header, rows) -> bytes:
    objects = [{key: None if isinstance(x, float) and not math.isfinite(x) else x
                for key, x in zip(header, row)} for row in rows]
    return io.json_text(objects).encode("utf-8")


def _written_json(path, rows) -> bytes:
    io.write_json_table(path, rows)
    return path.read_bytes()


@PROPERTY_SETTINGS
@given(column_tables(), st.integers(1, 5), st.integers(1, 5))
def test_json_tables_write_what_json_dumps_writes(tmp_path_factory, table, block, encoded):
    header, kinds, columns = table
    rows = list(zip(*columns))
    want = _json_oracle(header, rows)
    json.loads(want)  # valid JSON: no NaN, no Infinity
    path = tmp_path_factory.mktemp("t") / "t.json"
    arrays = [np.array(c, dtype=DTYPES[k]) for k, c in zip(kinds, columns)]
    with mock.patch.object(io, "BLOCK_ROWS", block), mock.patch.object(io, "JSON_ROWS", encoded):
        assert _written_json(path, io.Table(header, *arrays)) == want
        assert _written_json(path, _objects(header, columns)) == want


def test_an_empty_json_table_is_an_empty_list(tmp_path):
    assert _written_json(tmp_path / "t.json", io.Table(["x"], np.arange(0))) == b"[]\n"
    assert _written_json(tmp_path / "t.json", _objects(["x", "y"], [[], []])) == b"[]\n"


def test_header_names_are_written_as_given(tmp_path):
    # a numpy str array would drop the trailing NUL
    header = ["h\x00", "", 'a "b"']
    table = io.Table(header, np.arange(2), np.arange(2.0), np.array(["x", "y"]))
    assert table.header == header
    assert _written(tmp_path / "t.csv", table) == _oracle(header, _rows(table))
    assert _written_json(tmp_path / "t.json", table) == _json_oracle(header, _rows(table))


@pytest.mark.parametrize("extra", [-2, 0, 2, io.BLOCK_ROWS + 2])
def test_state_tables_around_the_block_size(tmp_path, extra):
    rng = np.random.default_rng(19)
    n = io.BLOCK_ROWS + extra
    amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    amps[rng.random((n, 2)) < 0.3] *= 1e-310  # subnormal, zero and -0.0 cells
    amps[rng.random((n, 2)) < 0.2] *= -0.0
    table = state_table(WalkerState(amps))
    assert len(table) == n
    assert _written(tmp_path / "t.csv", table) == _oracle(table.header, _rows(table))


def test_table_rows_are_plain_python_scalars():
    table = io.Table(["i", "f", "s"], np.arange(3), np.array([0.5, -0.0, math.nan]),
                     np.array(["a", "b,", ""]))
    assert len(table) == 3
    rows = _rows(table)
    assert rows[1] == (1, -0.0, "b,") and rows[-1][2] == ""
    assert [tuple(type(x) for x in row) for row in rows] == [(int, float, str)] * 3
    with pytest.raises(ValueError, match="not one length"):
        io.Table(["x", "y"], np.arange(3), np.arange(4.0))


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell failed")


def test_a_column_table_failing_mid_write_leaves_no_file(tmp_path):
    # the failing cell is in the second block, after the first was written
    cells = np.full(io.BLOCK_ROWS + 3, 1.5, dtype=object)
    cells[-1] = _Unprintable()
    with pytest.raises(RuntimeError, match="cell failed"):
        io.write_csv(tmp_path / "t.csv", io.Table(["x", "y"], np.arange(cells.size), cells))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows, message", [
    ((np.arange(2.0),), "table of 1 columns under a header of 2"),
    ([np.array(c, dtype=object) for c in ([1, 3], [2.0, "a"], ["b", 4])],
     "table of 3 columns under a header of 2"),
])
def test_a_table_that_does_not_fit_its_header_leaves_no_file(rows, message):
    # refused where the table is built: a writer takes only a built table, so
    # a mismatch never reaches a file
    with pytest.raises(ValueError, match=message):
        io.Table(["x", "y"], *rows)


def test_writing_a_large_state_table_holds_one_block(tmp_path):
    # 10^5 sites: row lists of the whole table would take about 30 MB
    n = 100_000
    rng = np.random.default_rng(5)
    s = WalkerState(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    io.write_csv(tmp_path / "warm.csv", state_table(WalkerState(s.amps[:4])))
    tracemalloc.start()
    try:
        io.write_csv(tmp_path / "t.csv", state_table(s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two new columns (sites, probabilities) of 0.8 MB each, plus one block
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
