"""Dataset ingestion: one numeric column out of a delimited text file.

Delimiter detection prefers semicolon, then tab, then comma; files that use
decimal commas delimit with semicolons in practice, so a comma never plays
both roles. A field with exactly one comma and no dot is read as a decimal
comma. The first row is a header iff its selected field is not numeric;
headers are not counted as dropped rows.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, FileError, NoNumericColumn, count


@dataclass(frozen=True)
class Dataset:
    """Positive values from one column, with full drop accounting.

    raw_rows counts every non-blank line; it always reconciles as
    kept + dropped_non_numeric + dropped_non_positive + (1 if had_header).
    """

    name: str
    path: str
    column: int
    values: np.ndarray
    raw_rows: int
    had_header: bool
    dropped_non_numeric: int
    dropped_non_positive: int

    @property
    def kept(self):
        return int(self.values.size)

    @property
    def dropped(self):
        return self.dropped_non_numeric + self.dropped_non_positive

    def __post_init__(self):
        accounted = (self.kept + self.dropped + int(self.had_header))
        if accounted != self.raw_rows:
            raise AssertionError(
                f"row accounting broken: {accounted} != {self.raw_rows}")


def _detect_delimiter(lines):
    for cand in (";", "\t", ","):
        if any(cand in line for line in lines):
            return cand
    return None


def _parse_number(field):
    """float or None; accepts a decimal comma when it is unambiguous."""
    text = field.strip().strip('"').strip("'").strip()
    if not text:
        return None
    try:
        v = float(text)
    except ValueError:
        if text.count(",") == 1 and "." not in text:
            try:
                v = float(text.replace(",", "."))
            except ValueError:
                return None
        else:
            return None
    return v if math.isfinite(v) else None


def ingest_csv(path, column=1, name=None):
    """Read the 1-based column of a delimited file into a Dataset.

    Zeros, negatives, and unparseable fields are dropped and counted;
    a file yielding no numeric field at all raises NoNumericColumn, and
    one yielding numbers but nothing positive raises EmptyDataset.
    """
    column = count("column", column, 1)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not utf-8 text: {exc}") from None

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyDataset(f"{path} contains no data rows")
    delim = _detect_delimiter(lines)

    def field_of(line):
        parts = line.split(delim) if delim else [line]
        return parts[column - 1] if column <= len(parts) else None

    values = []
    non_numeric = 0
    non_positive = 0
    saw_numeric = False
    had_header = False
    for i, line in enumerate(lines):
        raw = field_of(line)
        v = None if raw is None else _parse_number(raw)
        if v is None:
            if i == 0:
                had_header = True
            else:
                non_numeric += 1
            continue
        saw_numeric = True
        if v > 0.0:
            values.append(v)
        else:
            non_positive += 1

    if not saw_numeric:
        raise NoNumericColumn(
            f"column {column} of {path} never parses as a number")
    if not values:
        raise EmptyDataset(f"{path} has no positive values in "
                           f"column {column}")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(name=name, path=str(path), column=column,
                   values=np.asarray(values, dtype=np.float64),
                   raw_rows=len(lines), had_header=had_header,
                   dropped_non_numeric=non_numeric,
                   dropped_non_positive=non_positive)
