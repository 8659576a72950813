"""Float tables as CSV: one header row, then every value as repr(float).

A table is an ordered mapping of column names to equal-length columns; the
header is its names.  repr round-trips every double, so a table read back
with read_columns is bit-identical to the arrays written, and identical
arrays give identical bytes.  Lines end in CRLF, the csv module's default.
"""

from __future__ import annotations

import numpy as np

#: Rows formatted and written per call to write(); this bounds the memory a
#: large table's text takes.
CHUNK_ROWS = 4096


def write_columns(path, columns) -> None:
    """Write a mapping of names to equal-length columns of floats, the
    header in the mapping's order."""
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ValueError("need one or more 1-D columns, all of one length")
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\r\n")
        for start in range(0, arrays[0].size, CHUNK_ROWS):
            rows = np.column_stack([a[start:start + CHUNK_ROWS] for a in arrays])
            f.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist()))


class Columns(dict):
    """A table read back, its columns keyed by the file's header; a name
    the header lacks is a ValueError that names the file and the column."""

    def __init__(self, path, names, data):
        super().__init__(zip(names, data))
        self.path = path

    def __missing__(self, name):
        raise ValueError(f"{self.path} has no column {name!r}")


def read_columns(path) -> Columns:
    """The columns of a table under one header row, each a 1-D array; a
    table without data rows, or whose header does not name each of its
    columns once, is a ValueError that names the file."""
    with open(path) as f:
        names = f.readline().rstrip("\r\n").split(",")
        if not f.readline().strip():
            raise ValueError(f"{path} has no data rows")
    # From a path, not the open file, np.loadtxt reads in blocks, not lines.
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    if len(set(names)) != len(names) or len(names) != len(data):
        raise ValueError(f"{path}'s header does not name each of its {len(data)} columns once")
    return Columns(path, names, data)
