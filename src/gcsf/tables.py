"""Float tables as CSV: one header row, then every value as repr(float).

repr round-trips every double, so a table read back with read_columns is
bit-identical to the arrays written, and identical arrays give identical
bytes.  Lines end in CRLF, the csv module's default.
"""

from __future__ import annotations

import numpy as np

#: Rows formatted and written per call to write(); this bounds the memory a
#: large table's text takes.
CHUNK_ROWS = 4096


def write_columns(path, header, *columns) -> None:
    """Write equal-length columns of floats under the given header names."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    shapes = {c.shape for c in columns}
    if len(columns) != len(header) or len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ValueError("need one 1-D column per header name, all of one length")
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, columns[0].size, CHUNK_ROWS):
            rows = np.column_stack([c[start:start + CHUNK_ROWS] for c in columns])
            f.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist()))


def read_columns(path) -> np.ndarray:
    """The columns of a table under one header row, as the rows of a 2-D
    array; a table without data rows is a ValueError that names the file."""
    with open(path) as f:
        f.readline()
        if not f.readline().strip():
            raise ValueError(f"{path} has no data rows")
    # From a path, not the open file, np.loadtxt reads in blocks, not lines.
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
