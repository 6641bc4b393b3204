"""Tables that construct read back as themselves, and tables that would not
are refused at construction."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spindimer import DataError, SweepTable, emit, read_table_csv, read_table_json

# Each of these reads back from CSV as another table without an error: a
# repeated name read back the last column's values under every copy, a
# header starting with "#" was taken for metadata (and the first row for
# the header), and a blank header line was skipped.
REPEATED_NAMES = [("b", "a", "b"), ("x", "x")]
MISREAD_HEADERS = [("#T",), ("#",), ("# a", "b"), (" ",), ("",), ("\t",)]


@pytest.mark.parametrize("names", REPEATED_NAMES, ids=["b-a-b", "x-x"])
def test_table_refuses_repeated_column_names(names):
    with pytest.raises(ValueError, match="distinct"):
        SweepTable(names, np.ones((1, len(names))), {}, {})


@pytest.mark.parametrize(
    "names", MISREAD_HEADERS, ids=["hash-T", "hash", "hash-a-b", "space", "empty", "tab"]
)
def test_table_refuses_a_header_the_csv_reader_misreads(names):
    with pytest.raises(ValueError, match="CSV header"):
        SweepTable(names, np.ones((2, len(names))), {}, {})


def test_table_refuses_an_annotation_header_the_csv_reader_misreads():
    with pytest.raises(ValueError, match="CSV header"):
        SweepTable((), np.empty((2, 0)), {"#note": ("p", "q")}, {})


def test_header_may_hold_a_hash_or_blank_names_after_the_start(tmp_path):
    table = SweepTable((" #T", " ", "#"), np.ones((1, 3)), {}, {})
    emit(table, "csv", tmp_path / "t.csv", timestamp="T0")
    assert read_table_csv(tmp_path / "t.csv").column_names == table.column_names


def test_csv_reader_refuses_a_repeated_column_name(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text("b,a,b\n1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="distinct"):
        read_table_csv(path)


def test_csv_reader_refuses_a_repeated_annotation_name(tmp_path):
    # Read into a dict, the second `n` would replace the first.
    path = tmp_path / "repeated.csv"
    path.write_text("a,n,n\n1.0,p,q\n", encoding="utf-8")
    with pytest.raises(DataError, match="repeated annotation name 'n'"):
        read_table_csv(path)
    # A numeric column and an annotation may share a name.
    path.write_text("n,n\n1.0,p\n", encoding="utf-8")
    table = read_table_csv(path)
    assert table.column_names == ("n",)
    assert table.annotations == {"n": ("p",)}


@pytest.mark.parametrize(
    "names, values",
    [(("a",), np.ones(3)), (("a", "b"), np.ones((2, 3))), (("a",), np.ones((1, 1, 1)))],
    ids=["1-d", "three-values-two-names", "3-d"],
)
def test_table_refuses_values_that_are_not_rows_by_names(names, values):
    with pytest.raises(ValueError, match="values must be rows x named columns"):
        SweepTable(names, values, {}, {})


@pytest.mark.parametrize("metadata", [{"g": 2.0}, {1: "one"}, {"note": None}])
def test_table_refuses_metadata_that_is_not_strings(metadata):
    with pytest.raises(ValueError, match="metadata keys and values must be strings"):
        SweepTable(("a",), np.ones((1, 1)), {}, metadata)


def test_csv_reader_skips_blank_lines_inside_the_table(tmp_path):
    table = SweepTable(("T", "C"), np.array([[1.0, 0.5], [2.0, 0.25]]),
                       {"note": ("p", "q")}, {"g": "2.0"})
    path = tmp_path / "blank.csv"
    emit(table, "csv", path, timestamp="T0")
    lines = path.read_text(encoding="utf-8").splitlines()
    spaced = "\n  \n".join(lines[:-1]) + "\n\n" + lines[-1] + "\n\t\n"
    path.write_text(spaced, encoding="utf-8")
    back = read_table_csv(path)
    assert back.column_names == table.column_names
    assert np.array_equal(back.values, table.values)
    assert back.annotations == table.annotations
    assert back.metadata == {"g": "2.0", "timestamp": "T0"}


@pytest.mark.parametrize("text", ["", "# g = 2.0\n\n", "\n  \n"])
def test_csv_reader_refuses_a_file_without_a_header(tmp_path, text):
    path = tmp_path / "headless.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as info:
        read_table_csv(path)
    assert str(info.value) == f"malformed header: {path} has no header line"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_into_a_missing_directory_names_the_path(tmp_path, fmt):
    path = tmp_path / "missing" / f"table.{fmt}"
    with pytest.raises(OSError) as info:
        emit(SweepTable(("a",), np.ones((1, 1)), {}, {}), fmt, path)
    assert str(info.value).startswith(f"cannot write {path}: ")
    assert not path.parent.exists()


# A file name that is not UTF-8 decodes to a lone surrogate, which neither
# format can write.
UNDECODABLE = os.fsdecode(b"a\xffb")


def test_table_refuses_strings_that_do_not_encode_as_utf8():
    cases = [
        ((UNDECODABLE,), {}, {}),
        (("x",), {UNDECODABLE: ("p",)}, {}),
        (("x",), {"note": (UNDECODABLE,)}, {}),
        (("x",), {}, {UNDECODABLE: "v"}),
        (("x",), {}, {"sample_id": UNDECODABLE}),
    ]
    for names, annotations, metadata in cases:
        with pytest.raises(ValueError, match=r"encode as UTF-8: '\\udcff' does not"):
            SweepTable(names, np.ones((1, 1)), annotations, metadata)


# Neither a comma nor any boundary that str.splitlines breaks at.
_CSV_SAFE = st.text(
    st.characters(
        exclude_categories=("Cs",),
        exclude_characters=",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    max_size=5,
)


def _reads_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@st.composite
def constructible_tables(draw):
    """Tables that `SweepTable` accepts, without the three that CSV cannot
    carry until the format records which columns are annotations."""
    n = draw(st.integers(0, 5))
    # Left out: a table with no numeric column. Both readers raise "values
    # must be rows x named columns" on it.
    names = draw(st.lists(_CSV_SAFE, min_size=1, max_size=4, unique=True))
    flagged = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [
        draw(st.lists(st.floats() if f else finite, min_size=len(names),
                      max_size=len(names)))
        for f in flagged
    ]
    annotations: dict[str, tuple[str, ...]] = {}
    # Left out: a table with zero rows that has annotations. CSV reads every
    # column of it back as numeric.
    if n:
        if any(flagged):
            annotations["flag"] = tuple(
                draw(_CSV_SAFE.filter(bool)) if f else "" for f in flagged
            )
        for name in draw(st.lists(_CSV_SAFE, max_size=2, unique=True)):
            annotations.setdefault(
                name, tuple(draw(st.lists(_CSV_SAFE, min_size=n, max_size=n)))
            )
    # Left out: an annotation column in which every cell reads as a float.
    # CSV reads it back as numeric.
    assume(not any(all(map(_reads_as_float, c)) for c in annotations.values()))
    metadata = draw(st.dictionaries(
        _CSV_SAFE.filter(lambda key: " = " not in key + " ="), _CSV_SAFE, max_size=3
    ))
    values = np.array(rows, dtype=float).reshape(n, len(names))
    try:
        return SweepTable(tuple(names), values, annotations, metadata)
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(constructible_tables())
def test_every_constructible_table_round_trips_in_both_formats(table):
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, reader in (("csv", read_table_csv), ("json", read_table_json)):
            path = Path(tmp) / f"table.{fmt}"
            emit(table, fmt, path, timestamp="T0")
            back = reader(path)
            # JSON writes every non-finite cell as null, which reads back
            # as NaN.
            expected = table.values
            if fmt == "json":
                expected = np.where(np.isfinite(expected), expected, np.nan)
            assert back.column_names == table.column_names
            assert np.array_equal(back.values, expected, equal_nan=True)
            # -0.0 keeps its sign; a NaN's sign is not kept.
            numbers = ~np.isnan(expected)
            assert np.array_equal(
                np.signbit(back.values[numbers]), np.signbit(expected[numbers])
            )
            assert list(back.annotations.items()) == list(table.annotations.items())
            assert back.metadata == {**table.metadata, "timestamp": "T0"}
