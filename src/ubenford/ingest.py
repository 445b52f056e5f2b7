"""Dataset ingestion: one numeric column out of a delimited text file.

Rows are the file's non-blank lines. The delimiter is the first of
semicolon, tab and comma that appears in them; files that use decimal
commas delimit with semicolons in practice, so a comma never plays both
roles. The first row is a header iff its selected field is not a number;
headers are not counted as dropped rows.

The field grammar, stated once:

- The selected field is the row's `column`-th piece when split at the
  delimiter; a row with fewer pieces is non-numeric.
- Its text t is the field stripped of whitespace, then of double
  quotes, then of single quotes, then of whitespace again.
- Its number is float(t.replace(",", ".")) when that is finite; a field
  float refuses, and inf or nan, make the row non-numeric.

The comma replace is the decimal-comma rule: "float(t), else, when t
has exactly one comma and no dot, float of t with the comma made a dot".
The one call equals that rule for every t:

- float() never accepts a comma. So where t has none the two forms are
  the same call, and where it has one float(t) fails and only the
  retry can succeed.
- float() never accepts two dots. So where t has a comma and also a dot
  or a second comma, the replace leaves two dots and float fails, as
  the rule refuses t.
- The case left, one comma and no dot, is the rule's retry itself.

Quotes pair. A quoted field that holds the delimiter is cut in pieces by
the split, and no piece may be read as a number. So in a row that holds
a quote character, a field among its first `column` whose quotes do not
pair makes the row non-numeric (the header, if it is the first row). A
field's quotes pair when, after the whitespace strip, it starts with a
quote character iff it ends with the same one.
"""

import math
import os
from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains

import numpy as np

from .errors import EmptyDataset, FileError, InvalidParameter, \
    NoNumericColumn, count


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


_QUOTES = frozenset("\"'")


def _numbers(fields):
    """The grammar's float of each field, NaN where float refuses it."""
    texts = map(str.strip, fields)
    texts = map(str.strip, texts, repeat('"'))
    texts = map(str.strip, texts, repeat("'"))
    texts = map(str.strip, texts)
    floats = map(float, map(str.replace, texts, repeat(","), repeat(".")))
    out = []
    while True:
        # list.extend keeps what it took before a refusal and map goes on
        # after one, so Python runs once per refused field, not per field
        try:
            out.extend(floats)
        except ValueError:
            out.append(math.nan)
        else:
            return np.array(out, dtype=np.float64)


def _quotes_unpaired(line, delim, column):
    """Whether the quotes of one of the line's first `column` fields do
    not pair: its first and last characters differ and one of them is a
    quote."""
    for field in map(str.strip, line.split(delim, column)[:column]):
        first, last = field[:1], field[-1:]
        if first != last and (first in _QUOTES or last in _QUOTES):
            return True
    return False


def ingest_csv(path, column=1):
    """Read the 1-based column of a delimited file into a Dataset named
    after the file's stem.

    Zeros, negatives, and unparseable fields are dropped and counted;
    a file yielding no numeric field at all raises NoNumericColumn, and
    one yielding numbers but nothing positive raises EmptyDataset.
    """
    column = count("column", column, 1)
    # a str or a path-like object naming text: open takes more (a file
    # descriptor, bytes), none of which names a dataset
    try:
        path = os.fspath(path)
    except TypeError:
        pass  # not path-like at all: refused below
    if not isinstance(path, str):
        raise InvalidParameter(
            f"path must be text or a path-like object, got {path!r}")
    if "\0" in path:
        raise FileError(f"cannot read {path!r}: the path holds a NUL")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not utf-8 text: {exc}") from None

    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise EmptyDataset(f"{path} contains no data rows")
    joined = "\n".join(lines)
    # no line holds a newline, so without a delimiter a row splits into
    # one piece, the whole line
    delim = next((d for d in (";", "\t", ",") if d in joined), "\n")
    # a missing field reads "nan": a refusal, without the cost of one
    v = _numbers([p[column - 1] if len(p) >= column else "nan"
                  for p in map(str.split, lines, repeat(delim),
                               repeat(column))])
    # only the rows that hold a quote character pay for the pair check
    quoted = set()
    for quote in _QUOTES:
        if quote in joined:
            quoted.update(compress(range(len(lines)),
                                   map(contains, lines, repeat(quote))))
    v[[i for i in quoted
       if _quotes_unpaired(lines[i], delim, column)]] = math.nan
    numbers = v[np.isfinite(v)]
    values = numbers[numbers > 0.0]
    if not numbers.size:
        raise NoNumericColumn(
            f"column {column} of {path} never parses as a number")
    if not values.size:
        raise EmptyDataset(f"{path} has no positive values in "
                           f"column {column}")
    had_header = not math.isfinite(v[0])
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(name=name, path=path, column=column, values=values,
                   raw_rows=len(lines), had_header=had_header,
                   dropped_non_numeric=len(lines) - numbers.size - had_header,
                   dropped_non_positive=numbers.size - values.size)
