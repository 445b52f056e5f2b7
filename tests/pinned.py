"""Byte-exact comparison of a whole output with a pinned fixture in
tests/fixtures.

pytest's own diff of two long texts can run for minutes, so a mismatch
reports the first line that differs instead.
"""

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def first_difference(got, want):
    """(number, got line, want line) of the first line, counted from 1,
    where two texts (str or bytes) differ, line ends included; a text
    that has ended reads None. None when the texts are equal."""
    lines = zip(got.splitlines(keepends=True) + [None],
                want.splitlines(keepends=True) + [None])
    return next(((i, a, b) for i, (a, b) in enumerate(lines, 1) if a != b),
                None)


def assert_pinned(text, name):
    """text, encoded as UTF-8, is the fixture `name` byte for byte."""
    got, want = text.encode(), (FIXTURES / name).read_bytes()
    same = got == want  # a bare bool, so pytest does not diff the texts
    assert same, first_difference(got, want)
