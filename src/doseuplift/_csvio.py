"""Read and write the package's CSV files.

Readers see ``(line, cells)`` rows without blank rows; writers end every
line in ``\\r\\n``. Bytes that do not read as the file's format raise
``CsvFormatError`` naming ``path:line``; content that the owning type
refuses raises that type's error, named by ``naming``.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path

Row = tuple[int, list[str]]  # (file line, cells)


class CsvFormatError(ValueError):
    """Raised when a CSV file cannot be read as its format; names ``path:line``."""


def read_rows(path: str | Path) -> list[Row]:
    """``(line, cells)`` for every non-blank row, lines counted from 1.

    A row is blank when no cell has a non-whitespace character.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]


def read_table(path: str | Path, header_ok) -> tuple[Row, list[Row]]:
    """The header row and the data rows of a file whose first row is a header
    that ``header_ok(cells)`` accepts, followed by at least one data row with
    as many cells. A first column headed ``entity`` holds the ids 0..n-1 in order.
    """
    rows = read_rows(path)
    if rows and not header_ok(rows[0][1]):
        raise CsvFormatError(f"{path}:{rows[0][0]}: unexpected header")
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: no data rows")
    header = rows[0][1]
    for i, (line, cells) in enumerate(rows[1:]):
        if len(cells) != len(header):
            raise CsvFormatError(f"{path}:{line}: {len(cells)} cells, expected {len(header)}")
        if header[0] == "entity" and cells[0] != str(i):
            raise CsvFormatError(f"{path}:{line}: entity id {cells[0]!r}, expected {i}")
    return rows[0], rows[1:]


def parse_cell(
    path: str | Path, line: int, col: int, cell: str, parse=float, what: str = "a number"
):
    """``parse(cell)``; a ``ValueError`` fails as ``path:line, column col``."""
    try:
        return parse(cell)
    except ValueError:
        raise CsvFormatError(
            f"{path}:{line}, column {col}: cannot parse {cell.strip()!r} as {what}"
        ) from None


def parse_numbers(path: str | Path, line: int, cells: list[str], first_col: int = 1) -> list[float]:
    """The cells as floats, columns counted from ``first_col``."""
    return [parse_cell(path, line, col, cell) for col, cell in enumerate(cells, start=first_col)]


@contextmanager
def naming(path: str | Path):
    """Put ``path`` in front of the message of a ``ValueError`` raised inside
    the block, keeping the error's type."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """Write the header, then every row, through one ``csv.writer``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
