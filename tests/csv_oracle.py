"""The row-at-a-time CSV writer, kept as the reference the block writer in
``sikorski.cli._write_csv`` is compared against.

``write_csv`` hands each row to ``csv.writer`` as a list of cells, after
formatting every float cell with ``%.17g`` one cell at a time.
"""

import csv
from typing import Iterable, Sequence

_FLOAT = "%.17g"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header, then the rows.  A float cell is
    written with 17 significant digits; every other cell, None (an empty
    cell) included, the way `csv.writer` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_FLOAT % c if isinstance(c, float) else c for c in row] for row in rows)
