"""Column extraction, delimiter and locale rules, drop accounting."""

import numpy as np
import pytest

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
        ds = ingest_csv(write(tmp_path, "1\n"), name="given")
        assert ds.name == "given"

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
