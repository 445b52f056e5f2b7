"""Column extraction, delimiter and locale rules, drop accounting."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import ingest_rows
from ubenford.errors import (EmptyDataset, FileError, InvalidParameter,
                             NoNumericColumn)
from ubenford.ingest import Dataset, ingest_csv


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestBasics:
    def test_spec_example(self, tmp_path):
        # header + filter rules: 'a' is a header, -2 and 0 are dropped
        ds = ingest_csv(write(tmp_path, "a\n1.5\n-2\n0\n"))
        np.testing.assert_array_equal(ds.values, [1.5])
        assert ds.dropped == 2
        assert ds.had_header
        assert ds.raw_rows == 4

    def test_no_header_when_numeric(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "3\n1\n2\n"))
        np.testing.assert_array_equal(ds.values, [3.0, 1.0, 2.0])
        assert not ds.had_header
        assert ds.dropped == 0

    def test_accounting_reconciles(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "v\n1\nx\n-1\n2\n\n\n3\n"))
        assert ds.kept == 3
        assert ds.dropped_non_numeric == 1
        assert ds.dropped_non_positive == 1
        assert ds.raw_rows == ds.kept + ds.dropped + 1

    def test_name_defaults_to_stem(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "1\n", name="areas.csv"))
        assert ds.name == "areas"

    def test_order_preserved(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "5\n3\n9\n1\n"))
        np.testing.assert_array_equal(ds.values, [5.0, 3.0, 9.0, 1.0])


class TestDelimiters:
    def test_semicolon_preferred_over_comma(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "x;y\n1,5;2\n2,5;4\n"), column=1)
        np.testing.assert_array_equal(ds.values, [1.5, 2.5])

    def test_spec_locale_example(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "1,5;x\n"))
        np.testing.assert_array_equal(ds.values, [1.5])

    def test_tab(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "a\tb\n1\t2\n3\t4\n"), column=2)
        np.testing.assert_array_equal(ds.values, [2.0, 4.0])

    def test_comma(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "a,b\n1,2\n3,4\n"), column=2)
        np.testing.assert_array_equal(ds.values, [2.0, 4.0])

    def test_single_column_no_delimiter(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "1.5\n2.5\n"))
        np.testing.assert_array_equal(ds.values, [1.5, 2.5])

    def test_comma_is_delimiter_not_decimal_when_alone(self, tmp_path):
        # a comma-only file is comma-delimited by the preference order
        ds = ingest_csv(write(tmp_path, "1,5\n2,7\n"), column=2)
        np.testing.assert_array_equal(ds.values, [5.0, 7.0])

    def test_quoted_fields(self, tmp_path):
        ds = ingest_csv(write(tmp_path, '"name";"v"\n"a";"3.5"\n'), column=2)
        np.testing.assert_array_equal(ds.values, [3.5])


class TestQuotePairs:
    # a quoted field holding the delimiter is cut by the split; no piece
    # of it is read as a number

    def test_quoted_delimiter_drops_the_row(self, tmp_path):
        ds = ingest_csv(write(tmp_path, 'id,value\n1,"1,234"\n2,"2,5"\n'
                                        '3,4.5\n'), column=2)
        np.testing.assert_array_equal(ds.values, [4.5])
        assert ds.had_header and ds.dropped_non_numeric == 2

    def test_either_quote_and_any_delimiter(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "id;v\n1;\"1;234\"\n2;'3;5'\n3;7\n"),
                        column=2)
        np.testing.assert_array_equal(ds.values, [7.0])
        assert ds.dropped_non_numeric == 2

    def test_a_cut_before_the_column_shifts_no_field_in(self, tmp_path):
        # the row has three fields, so it has no fourth to read
        ds = ingest_csv(write(tmp_path, 'a,b,c,d\n1,"a,b",5\n1,2,3,4\n'),
                        column=4)
        np.testing.assert_array_equal(ds.values, [4.0])
        assert ds.had_header and ds.dropped_non_numeric == 1

    def test_cut_first_row_is_the_header(self, tmp_path):
        ds = ingest_csv(write(tmp_path, '"x,2",3\n4,5\n'), column=2)
        np.testing.assert_array_equal(ds.values, [5.0])
        assert ds.had_header and ds.dropped == 0

    def test_paired_and_later_quotes_are_read(self, tmp_path):
        text = '1,"2.5",x\n2, \'3\' ,x\n3,4,"a,b"\n4,"\'5\'",x\n'
        ds = ingest_csv(write(tmp_path, text), column=2)
        np.testing.assert_array_equal(ds.values, [2.5, 3.0, 4.0, 5.0])
        assert ds.dropped == 0


# fields over the grammar's cases: decimal commas, both quote kinds,
# paired and cut, non-finite and non-ASCII numbers, underscores, padding
_NUMBER = st.one_of(
    st.floats(width=32).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1e999", "-0", "0", "1_000", "1__0", "١٢٣", "１２",
                     "٣,٥", "inf", "-inf", "nan", "1.2.3", "1,5.0",
                     "1,2,3", ",5", "5,", "abc", "", "--", "0x10"]),
)
_FIELD = st.tuples(
    st.sampled_from(["", " ", "\t", "\xa0", "  "]),
    st.sampled_from(["", '"', "'", "\"'", "'\""]),
    _NUMBER, st.booleans(),
    st.sampled_from(["", '"', "'", "'\"", "\"'"]),
    st.sampled_from(["", " ", "\xa0"]),
).map(lambda t: t[0] + t[1] + (t[2].replace(".", ",") if t[3] else t[2])
      + t[4] + t[5])
_BLANK = st.sampled_from(["", "  ", "\t", "\xa0", " \t "])


@st.composite
def _files(draw):
    delim = draw(st.sampled_from([";", "\t", ",", ""]))
    rows = draw(st.lists(st.one_of(
        st.lists(_FIELD, max_size=5).map(delim.join), _BLANK),
        min_size=1, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(rows), max_size=len(rows)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(r + e for r, e in zip(rows, ends))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_files(), column=st.integers(1, 4))
def test_ingest_matches_the_row_by_row_rule(tmp_path, text, column):
    path = tmp_path / "h.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as fh:
        want = ingest_rows(fh.read(), column)
    if isinstance(want, type):
        with pytest.raises(want):
            ingest_csv(path, column=column)
        return
    ds = ingest_csv(path, column=column)
    assert (ds.values.tobytes(), ds.raw_rows, ds.had_header,
            ds.dropped_non_numeric, ds.dropped_non_positive) \
        == (want[0].tobytes(), *want[1:])


class TestColumns:
    def test_second_column(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "id;v\n1;10\n2;20\n"), column=2)
        np.testing.assert_array_equal(ds.values, [10.0, 20.0])

    def test_missing_fields_drop(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "1;2\n3\n4;5\n"), column=2)
        np.testing.assert_array_equal(ds.values, [2.0, 5.0])
        assert ds.dropped_non_numeric == 1

    def test_bad_column_selector(self, tmp_path):
        with pytest.raises(InvalidParameter):
            ingest_csv(write(tmp_path, "1\n"), column=0)
        # a column is an integer: text and 2.0 are refused
        for column in ("2", 2.0):
            with pytest.raises(InvalidParameter,
                               match=f"column .* got {column!r}"):
                ingest_csv(write(tmp_path, "1;2\n"), column=column)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError):
            ingest_csv(tmp_path / "nope.csv")

    def test_blank_file(self, tmp_path):
        with pytest.raises(EmptyDataset):
            ingest_csv(write(tmp_path, "\n \n"))

    def test_never_numeric(self, tmp_path):
        with pytest.raises(NoNumericColumn):
            ingest_csv(write(tmp_path, "a\nb\nc\n"))
        with pytest.raises(NoNumericColumn):
            ingest_csv(write(tmp_path, "1;x\n2;y\n"), column=2)

    def test_numeric_but_never_positive(self, tmp_path):
        with pytest.raises(EmptyDataset):
            ingest_csv(write(tmp_path, "v\n0\n-3\n-0.5\n"))

    def test_non_finite_dropped_as_non_numeric(self, tmp_path):
        ds = ingest_csv(write(tmp_path, "1\ninf\nnan\n2\n"))
        np.testing.assert_array_equal(ds.values, [1.0, 2.0])
        assert ds.dropped_non_numeric == 2

    def test_accounting_assertion_guard(self):
        with pytest.raises(AssertionError):
            Dataset(name="x", path="x", column=1,
                    values=np.asarray([1.0]), raw_rows=5, had_header=False,
                    dropped_non_numeric=0, dropped_non_positive=0)
