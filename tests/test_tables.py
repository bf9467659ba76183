"""Byte-level checks of the shared CSV table writer against ``csv.writer``,
the writer every table used before and whose bytes the outputs keep."""

from __future__ import annotations

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.tables import write_table

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
