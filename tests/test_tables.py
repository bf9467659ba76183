"""Byte-level checks of the shared CSV table writer against ``csv.writer``,
the writer every table used before and whose bytes the outputs keep, of
the frame-line builder's ``%.17g`` against Python's, value by value, and of
the column-line builder against one ``%`` per row."""

from __future__ import annotations

import csv
import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slicekit import Params, tables
from slicekit.ddf_sim import LeaderFollowerConfig, demo_world, run_leader_follower
from slicekit.tables import (
    FRAME_ROWS,
    column_lines,
    frame_lines,
    write_positions_csv,
    write_table,
)

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
    # A path comes back from the writer; an open file, here in memory, does not.
    path = tmp_path_factory.mktemp("table") / "t.csv"
    buf = io.StringIO(newline="")
    for out, returned in ((path, path), (buf, None)):
        table_rows = ((k, "" if row is None else row, value, ok) for k, row, value, ok in rows)
        assert write_table(out, "k,row,value,ok", "%d,%s,%.17g,%d", table_rows) == returned
    assert path.read_bytes() == csv_writer_bytes(rows)
    assert buf.getvalue().encode() == csv_writer_bytes(rows)


def edge_rows(count):
    """``count`` rows of the same shape as ``ROWS``' that cycle through
    ``EDGE_FLOATS`` and absent fields, from a generator."""
    for j in range(count):
        row = None if j % 3 == 0 else j % 100
        yield j - 2**62, row, EDGE_FLOATS[j % len(EDGE_FLOATS)], j % 2 == 0


@pytest.mark.parametrize(
    "count", [0, 1, FRAME_ROWS - 1, FRAME_ROWS, FRAME_ROWS + 1, 2 * FRAME_ROWS + 3]
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


def g17_cells(values):
    """The float cells ``frame_lines`` writes for ``values``, one per frame
    of one entry, beside Python's ``'%.17g'`` of each."""
    values = np.asarray(values, dtype=float).ravel()
    lines = frame_lines(0, values.reshape(-1, 1, 1)).split("\r\n")
    assert lines.pop() == ""
    return [line.split(",")[2] for line in lines], ["%.17g" % v for v in values.tolist()]


def around(value, steps=3):
    """``value`` and the ``steps`` floats on each side of it."""
    bits = np.array([value]).view(np.int64) + np.arange(-steps, steps + 1)
    return bits.view(float)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 40), elements=FLOATS))
def test_g17_matches_python_on_any_floats(values):
    got, want = g17_cells(values)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 40), elements=st.floats(1e-4, 1e17)))
def test_g17_matches_python_across_the_fast_range(values):
    got, want = g17_cells(np.concatenate([values, -values]))
    assert got == want


@pytest.mark.parametrize("j", range(-5, 19))
def test_g17_next_to_powers_of_ten(j):
    # log10 may miss the exponent by one here, and rounding to 17 digits
    # may carry into a new one.
    values = around(float(f"1e{j}"))
    got, want = g17_cells(np.concatenate([values, -values]))
    assert got == want


@pytest.mark.parametrize("p", range(2, 22))
def test_g17_halfway_ties_round_to_even(p):
    # An odd o / 2**p has p decimals, the last a 5; in [10**(17-p),
    # 10**(18-p)) that is 18 significant digits, halfway between two of 17.
    lo, hi = 10**17 // 5**p + 1, min(10**18 // 5**p, 2**53)
    odd = np.random.default_rng(p).integers(lo // 2, hi // 2, 50) * 2 + 1
    values = odd / 2.0**p
    digits = [Decimal(v).as_tuple().digits for v in values.tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    got, want = g17_cells(np.concatenate([values, -values]))
    assert got == want


@pytest.mark.parametrize("value", [2.0**53, 1e16, 1e17, 1e-4])
def test_g17_at_the_range_edges(value):
    values = around(value, 40)
    got, want = g17_cells(np.concatenate([values, -values]))
    assert got == want


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_g17_mends_an_exponent_estimate_one_off(monkeypatch, shift):
    # A log10 off by half a decade misses the exponent by one, low or high,
    # on about half the values, exact powers of ten among them.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    exponents = np.random.default_rng(3).uniform(-4, 17, 500)
    values = np.concatenate([around(float(f"1e{j}")) for j in range(-4, 17)] + [10.0**exponents])
    got, want = g17_cells(values)
    assert got == want


def test_python_formats_only_values_outside_the_fast_range(monkeypatch):
    # 1e-4 <= |v| < 1e17 takes NumPy's digits; Python formats the rest.
    asked = []

    def python_g17(values):
        asked.extend(values.tolist())
        return real(values)

    real = tables._python_g17
    monkeypatch.setattr(tables, "_python_g17", python_g17)
    below, above = np.nextafter(1e-4, 0), np.nextafter(1e17, 0)
    values = [below, 1e-4, -1e-4, 1.0, above, -above, 1e17, -1e17, 0.0, np.inf]
    got, want = g17_cells(values)
    assert got == want
    assert asked == [below, 1e17, -1e17, 0.0, np.inf]


def positions_of_a_run(nodes):
    """The positions of a demo-world run of ``nodes`` nodes, 40 steps."""
    world = demo_world(n=nodes - 1, seed=nodes)
    config = LeaderFollowerConfig(world=world, params=Params(0.05, 0.7, 0.1), horizon=40)
    return run_leader_follower(config).positions


def scattered_positions(nodes):
    """Three frames of ``nodes`` nodes at scales from 1e-6 to 1e19, a -0.0
    and a nan among them."""
    rng = np.random.default_rng(nodes)
    positions = rng.normal(size=(3, nodes, 2)) * 10.0 ** rng.integers(-6, 20, (3, nodes, 2))
    positions[0, 0] = [-0.0, np.nan]
    return positions


@pytest.mark.parametrize(
    "positions",
    [scattered_positions(1), scattered_positions(12), positions_of_a_run(12)],
    ids=["1-node", "12-node", "12-node-run"],
)
@pytest.mark.parametrize("k0", [0, 9, 2**63 - 2, 2**64 - 3])
def test_positions_lines_match_one_format_per_row(tmp_path, k0, positions):
    # Frame indices run past 2**63 - 1, some to 2**64 - 1, and node indices
    # to two digits.  A frame index past 2**64 - 1 is refused.
    if k0 + len(positions) > 2**64:
        with pytest.raises(OverflowError):
            write_positions_csv(positions, tmp_path / "positions.csv", k0)
        return
    write_positions_csv(positions, tmp_path / "positions.csv", k0)
    want = "k,node,x,y\r\n" + "".join(
        "%d,%d,%.17g,%.17g\r\n" % (k0 + k, i, x, y)
        for k, frame in enumerate(positions.tolist())
        for i, (x, y) in enumerate(frame)
    )
    # Line by line, so that a failure names its first wrong line quickly.
    assert (tmp_path / "positions.csv").read_bytes().split(b"\n") == want.encode().split(b"\n")


def per_row_lines(fmt, columns, end):
    """``fmt % row + end`` for each row of ``columns``, one line each."""
    return [fmt % row + end for row in zip(*columns)]


def column_text_lines(fmt, columns, end):
    """The lines ``column_lines`` builds, one each, after checking that it
    yields only whole lines, ``FRAME_ROWS`` at most per chunk."""
    chunks = list(column_lines(fmt, columns, end))
    assert all(chunk.endswith(end) for chunk in chunks)
    assert all(chunk.count(end) <= FRAME_ROWS for chunk in chunks)
    return "".join(chunks).splitlines(keepends=True)


@pytest.mark.parametrize("count", [0, 1, FRAME_ROWS - 1, FRAME_ROWS, FRAME_ROWS + 1])
@pytest.mark.parametrize("end", ["\r\n", "\n"])
def test_column_lines_match_one_format_per_row_across_chunk_edges(count, end):
    # An index, an int64 column whose width changes from row to row, and two
    # float columns at scales from 1e-30 to 1e30 with the fallback values
    # among them.
    rng = np.random.default_rng(count)
    ints = rng.integers(-(10**6), 10**6, count) * 10 ** rng.integers(0, 12, count)
    floats = rng.normal(size=(2, count)) * 10.0 ** rng.integers(-30, 30, (2, count))
    floats[0, : len(EDGE_FLOATS)] = EDGE_FLOATS[:count]
    columns = (np.arange(count), ints, floats[0], floats[1])
    fmt = "%d,%d,%.17g,%.17g"
    reference = per_row_lines(fmt, [c.tolist() for c in columns], end)
    assert column_text_lines(fmt, columns, end) == reference
    assert len(reference) == count


def test_column_lines_of_python_sequences():
    # Tuples of Python numbers; a %.17g field takes an int as the float it
    # equals.
    rows = ((1, 7, 3, 2.5), (2, 0, 10**17, 1), (3, 12, -4, 1e-7))
    columns = list(zip(*rows))
    fmt = "%d,%d,%d,%.17g"
    assert column_text_lines(fmt, columns, "\n") == per_row_lines(fmt, columns, "\n")


WIDTH_EDGES = sorted(
    {sign * (10**j + d) for j in range(19) for d in (-1, 0, 1) for sign in (1, -1)}
    | {0, -(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2}
)


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_int_widths_change_inside_one_table(order):
    # Every digit count from 1 to 19, on both sides of zero and of each
    # power of ten, and both ends of int64, in one column.
    values = list(WIDTH_EDGES)
    if order == "shuffled":
        np.random.default_rng(0).shuffle(values)
    for column in (values, np.array(values, dtype=np.int64)):
        assert column_text_lines("%d", [column], "\n") == per_row_lines("%d", [values], "\n")


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from(WIDTH_EDGES), max_size=40))
def test_every_int64_prints_as_percent_d(values):
    assert column_text_lines("%d", [values], "\r\n") == per_row_lines("%d", [values], "\r\n")


@pytest.mark.parametrize(
    "column",
    [
        [0, 2**63],
        [-(2**63) - 1, 5],
        [2**64],
        np.array([1, 2**63], dtype=np.uint64),
        np.array([2**64 - 1], dtype=np.uint64),
    ],
    ids=["2**63", "-2**63-1", "2**64", "uint64-2**63", "uint64-max"],
)
def test_an_int_beyond_int64_raises(column):
    with pytest.raises(OverflowError):
        list(column_lines("%d,%.17g", [column, [1.0] * len(column)], "\n"))


def test_other_unsigned_ints_print_as_their_values():
    column = np.array([0, 7, 2**63 - 1], dtype=np.uint64)
    assert column_text_lines("%d", [column], "\n") == ["0\n", "7\n", "9223372036854775807\n"]


@pytest.mark.parametrize("value", EDGE_FLOATS)
def test_float_fallback_values_print_as_python_does(value):
    # nan, the infinities, both zeros, the subnormals and the extremes leave
    # the fast range and take Python's own text, next to a fast-range value.
    columns = ([value, 0.5, value], [1, -2, 3], [-value, value, 0.25])
    fmt = "%.17g,%d,%.17g"
    assert column_text_lines(fmt, columns, "\r\n") == per_row_lines(fmt, columns, "\r\n")


@pytest.mark.parametrize("fmt", ["%s", "%d,%.16g", "%d,%d,%d", "%d"])
def test_column_lines_refuses_a_format_it_does_not_build(fmt):
    with pytest.raises(ValueError):
        list(column_lines(fmt, [[1], [2.0]], "\n"))
