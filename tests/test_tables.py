"""Byte-level checks of the shared CSV table writer against ``csv.writer``,
the writer every table used before and whose bytes the outputs keep."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.tables import BLOCK_ROWS, write_table

EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-310,
    1e308,
    -1e308,
    1.7976931348623157e308,
    float("nan"),
    float("inf"),
    float("-inf"),
]
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
# Rows shaped like the tables': an int, an int that may be absent (written
# empty), a float and a flag.
ROWS = st.lists(
    st.tuples(st.integers(-(2**70), 2**70), st.none() | st.integers(0, 99), FLOATS, st.booleans()),
    max_size=30,
)


def csv_writer_bytes(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["k", "row", "value", "ok"])
    for k, row, value, ok in rows:
        writer.writerow([k, "" if row is None else row, f"{value:.17g}", int(ok)])
    return buf.getvalue().encode()


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_matches_csv_writer_byte_for_byte(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    table_rows = ((k, "" if row is None else row, value, ok) for k, row, value, ok in rows)
    assert write_table(path, "k,row,value,ok", "%d,%s,%.17g,%d", table_rows) == path
    assert path.read_bytes() == csv_writer_bytes(rows)


def edge_rows(count):
    """``count`` rows of the same shape as ``ROWS``' that cycle through
    ``EDGE_FLOATS`` and absent fields, from a generator."""
    for j in range(count):
        row = None if j % 3 == 0 else j % 100
        yield j - 2**62, row, EDGE_FLOATS[j % len(EDGE_FLOATS)], j % 2 == 0


@pytest.mark.parametrize(
    "count", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
)
def test_block_edges_match_per_row_format_and_csv_writer(tmp_path, count):
    # Rows are formatted a block at a time; across every block edge the
    # bytes equal one ``%`` per row and csv.writer's.
    fmt = "%d,%s,%.17g,%d"

    def table_rows():
        for k, row, value, ok in edge_rows(count):
            yield k, "" if row is None else row, value, ok

    write_table(tmp_path / "t.csv", "k,row,value,ok", fmt, table_rows())
    per_row = "".join(fmt % row + "\r\n" for row in table_rows())
    got = (tmp_path / "t.csv").read_bytes()
    assert got == ("k,row,value,ok\r\n" + per_row).encode()
    assert got == csv_writer_bytes(list(edge_rows(count)))
    assert got.count(b"\r\n") == count + 1
