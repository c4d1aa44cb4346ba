import codecs
import csv
import io
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfeat import data as datamod
from kgfeat.data import (DataError, Kind, SchemaConfig, Task, _build_column, check,
                         kfold_indices, load_csv)

from conftest import cells_of, fold_pairs, make_planted_dataset


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def test_kind_inference(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["num", "cat", "flag", "when", "y"],
        [
            ["1.5", "red", "yes", "2021-03-01", "0.1"],
            ["2", "blue", "no", "2021-03-02", "0.2"],
            ["-3e2", "red", "yes", "2021-03-03", "0.3"],
        ],
    )
    d = load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))
    assert d.column("num").kind == Kind.NUMERIC
    assert d.column("cat").kind == Kind.CATEGORICAL
    assert d.column("flag").kind == Kind.BOOLEAN
    assert d.column("when").kind == Kind.DATE
    assert d.n_rows == 3


def test_boolean_values_and_date_days(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["flag", "when", "y"],
        [["true", "1970-01-01", "1"], ["0", "1970-01-11", "2"]],
    )
    d = load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))
    assert d.column("flag").values.tolist() == [1.0, 0.0]
    # days since the 1970-01-01 epoch
    assert d.column("when").values.tolist() == [0.0, 10.0]


def test_missing_cells_flagged(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["a", "y"],
        [["1", "0"], ["", "1"], ["3", "0"]],
    )
    d = load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))
    col = d.column("a")
    assert np.isnan(col.values).tolist() == [False, True, False]
    path = write_csv(tmp_path / "c.csv", ["a", "y"], [["x", "0"], ["", "1"], ["z", "0"]])
    col = load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION)).column("a")
    assert col.kind == Kind.CATEGORICAL and col.levels == ("x", "z")
    np.testing.assert_array_equal(col.values, [0.0, np.nan, 1.0])


def test_kind_override_forces_categorical(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["code", "y"], [["1", "0"], ["2", "1"]])
    schema = SchemaConfig(target_name="y", task=Task.REGRESSION,
                          column_kind_overrides={"code": Kind.CATEGORICAL})
    d = load_csv(path, schema)
    assert d.column("code").kind == Kind.CATEGORICAL
    assert cells_of(d.column("code")) == ["1", "2"]


def test_override_unparseable_cell_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "y"], [["red", "0"]])
    schema = SchemaConfig(target_name="y", task=Task.REGRESSION,
                          column_kind_overrides={"a": Kind.NUMERIC})
    with pytest.raises(DataError):
        load_csv(path, schema)


def test_missing_target_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a"], [["1"]])
    with pytest.raises(DataError):
        load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))


def test_no_rows_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "y"], [])
    with pytest.raises(DataError):
        load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))


def test_task_target_kind_mismatch_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "y"], [["1", "2.5"], ["2", "3.5"]])
    with pytest.raises(DataError):
        load_csv(path, SchemaConfig(target_name="y", task=Task.CLASSIFICATION))


def test_duplicate_header_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "a", "y"], [["1", "2", "0"]])
    with pytest.raises(DataError):
        load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))


def test_kfold_partition_and_sizes():
    folds = fold_pairs(kfold_indices(23, 5, seed=7), 5)
    all_valid = np.concatenate([v for _, v in folds])
    assert sorted(all_valid.tolist()) == list(range(23))
    sizes = [len(v) for _, v in folds]
    assert max(sizes) - min(sizes) <= 1
    for train, valid in folds:
        assert set(train.tolist()) & set(valid.tolist()) == set()
        assert len(train) + len(valid) == 23


def test_kfold_deterministic():
    a = fold_pairs(kfold_indices(50, 4, seed=3), 4)
    b = fold_pairs(kfold_indices(50, 4, seed=3), 4)
    for (ta, va), (tb, vb) in zip(a, b):
        assert ta.tolist() == tb.tolist() and va.tolist() == vb.tolist()


def test_kfold_stratified_class_balance():
    labels = np.array([0] * 30 + [1] * 12)
    folds = fold_pairs(kfold_indices(42, 3, seed=0, labels=labels), 3)
    for cls, total in ((0, 30), (1, 12)):
        counts = [int(np.sum(labels[v] == cls)) for _, v in folds]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == total


def test_kfold_invalid_k():
    with pytest.raises(DataError):
        kfold_indices(10, 1, seed=0)
    with pytest.raises(DataError):
        kfold_indices(3, 4, seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 80), k=st.integers(2, 4), seed=st.integers(0, 1000),
       stratified=st.booleans())
def test_kfold_indices_are_each_rows_fold_number(n, k, seed, stratified):
    labels = np.arange(n) % 3 if stratified else None
    fold = kfold_indices(n, k, seed, labels=labels)
    assert fold.dtype == np.int64 and fold.shape == (n,)
    assert set(fold.tolist()) == set(range(k))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 80), k=st.integers(2, 4), seed=st.integers(0, 1000))
def test_kfold_partition_property(n, k, seed):
    folds = fold_pairs(kfold_indices(n, k, seed), k)
    assert len(folds) == k
    valid = np.concatenate([v for _, v in folds])
    assert sorted(valid.tolist()) == list(range(n))
    sizes = [len(v) for _, v in folds]
    assert max(sizes) - min(sizes) <= 1


def test_non_finite_numeric_cells_flagged_missing(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["a", "y"],
        [["1", "0"], ["inf", "1"], ["-inf", "0"], ["nan", "1"], ["3", "0"]],
    )
    d = load_csv(path, SchemaConfig(target_name="y", task=Task.REGRESSION))
    col = d.column("a")
    assert col.kind == Kind.NUMERIC
    assert np.isnan(col.values).tolist() == [False, True, True, True, False]


# Oracle: column typing as two passes, kind inference then a parse per kind.
_ORACLE_TRUE = {"true", "1", "yes"}
_ORACLE_FALSE = {"false", "0", "no"}


def _oracle_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _oracle_date(text):
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def oracle_kind(cells):
    present = [c for c in cells if c != ""]
    if not present:
        return Kind.CATEGORICAL
    if all(_oracle_float(c) is not None for c in present):
        return Kind.NUMERIC
    if all(_oracle_date(c) is not None for c in present):
        return Kind.DATE
    lowered = {c.lower() for c in present}
    if len(lowered) <= 2 and lowered <= (_ORACLE_TRUE | _ORACLE_FALSE):
        return Kind.BOOLEAN
    return Kind.CATEGORICAL


def oracle_column(name, cells, kind):
    """The column's kind, its values (the cells of a categorical one) and
    its missing cells."""
    missing = np.array([c == "" for c in cells], dtype=bool)
    values = np.full(len(cells), np.nan)
    if kind == Kind.NUMERIC:
        for i, c in enumerate(cells):
            if not missing[i]:
                if _oracle_float(c) is None:
                    raise DataError(f"column {name!r}: cell {c!r} is not numeric")
                values[i] = _oracle_float(c)
        missing = ~np.isfinite(values)
        values[missing] = np.nan
    elif kind == Kind.DATE:
        for i, c in enumerate(cells):
            if not missing[i]:
                if _oracle_date(c) is None:
                    raise DataError(f"column {name!r}: cell {c!r} is not an ISO date")
                values[i] = (_oracle_date(c) - date(1970, 1, 1)).days
    elif kind == Kind.BOOLEAN:
        for i, c in enumerate(cells):
            if not missing[i]:
                if c.lower() not in _ORACLE_TRUE | _ORACLE_FALSE:
                    raise DataError(f"column {name!r}: cell {c!r} is not boolean")
                values[i] = 1.0 if c.lower() in _ORACLE_TRUE else 0.0
    else:
        values = list(cells)
    return kind, values, missing


NUMBER_CELLS = ["0", "1", "-0", "2.5", "1e3", "-3E-2", "1_000", "20210301",
                "inf", "-inf", "nan", "NaN", "1e400"]
DATE_CELLS = ["1970-01-01", "2021-03-01", "2020-02-29", "1969-12-31", "2021-W09-1"]
BOOL_CELLS = ["true", "True", "FALSE", "yes", "No", "YES", "0", "1"]
JUNK_CELLS = ["red", "2021-13-01", "1.2.3", "yes!", "tru", "ø", "1,5"]


@st.composite
def typed_cells(draw):
    family = draw(st.sampled_from([NUMBER_CELLS, DATE_CELLS, BOOL_CELLS,
                                   NUMBER_CELLS + DATE_CELLS, BOOL_CELLS + NUMBER_CELLS]))
    pool = family + [""] + (JUNK_CELLS if draw(st.booleans()) else [])
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@settings(max_examples=400, deadline=None)
@given(cells=typed_cells(), override=st.one_of(st.none(), st.sampled_from(list(Kind))))
def test_column_typing_matches_inference_then_parse(cells, override):
    try:
        kind, want, want_missing = oracle_column("c", cells, override or oracle_kind(cells))
    except DataError as err:
        with pytest.raises(DataError) as got:
            _build_column("c", cells, override)
        assert str(got.value) == str(err)
        return
    got = _build_column("c", cells, override)
    assert got.kind == kind
    assert np.isnan(got.values).tolist() == want_missing.tolist()
    if kind == Kind.CATEGORICAL:
        assert cells_of(got) == want
    else:
        np.testing.assert_array_equal(got.values, want)  # NaN equals NaN


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(NUMBER_CELLS + BOOL_CELLS + ["", " 2 ", "x"]),
                              max_size=5), min_size=1, max_size=12))
def test_load_csv_reads_ragged_rows_as_the_row_loop(tmp_path_factory, rows):
    # short rows read "" in the columns they lack, extra cells are ignored,
    # and each cell is stripped, as a loop over the rows reads them
    header = ["a", "b", "c", "y"]
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", header, rows)
    d = load_csv(path, SchemaConfig(target_name="y", task=Task.CLASSIFICATION,
                                    column_kind_overrides={"y": Kind.CATEGORICAL}))
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))[1:]
    for j, name in enumerate(header):
        cells = [r[j].strip() if j < len(r) else "" for r in read]
        kind, want, want_missing = oracle_column(name, cells, Kind.CATEGORICAL if name == "y"
                                                 else oracle_kind(cells))
        got = d.column(name)
        assert got.kind == kind
        assert np.isnan(got.values).tolist() == want_missing.tolist()
        if kind == Kind.CATEGORICAL:
            assert cells_of(got) == want
        else:
            assert got.values.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(cells=typed_cells(), override=st.one_of(st.none(), st.sampled_from(list(Kind))),
       data=st.data())
def test_loaded_column_is_float_with_nan_exactly_at_its_missing_cells(tmp_path_factory, cells,
                                                                      override, data):
    # every kind holds float64 values, NaN exactly where a cell is empty once
    # stripped or, numeric, reads inf or nan; a categorical's codes read back
    # each present cell through its sorted distinct cells
    pads = st.sampled_from(["", " ", "  ", "\t "])
    padded = [data.draw(pads) + c + data.draw(pads) for c in cells]
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ["c", "y"],
                     [[c, "0"] for c in padded])
    schema = SchemaConfig(target_name="y", task=Task.REGRESSION,
                          column_kind_overrides={"c": override} if override else {})
    kind = override or oracle_kind(cells)
    try:
        col = load_csv(path, schema).column("c")
    except DataError:
        assert override is not None  # a forced kind some cell does not parse as
        return
    assert col.kind == kind and col.values.dtype == np.float64
    missing = [not c or (kind == Kind.NUMERIC and not np.isfinite(float(c))) for c in cells]
    assert np.isnan(col.values).tolist() == missing
    if kind == Kind.CATEGORICAL:
        assert col.levels == tuple(sorted(set(filter(None, cells))))
        assert cells_of(col) == cells


def load_column_by_column(path, schema):
    """load_csv with the one-pass numeric path turned off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(datamod, "_numeric_columns", lambda *args: None)
        return load_csv(path, schema)


def loaded(load, path, schema):
    """What `load` reads from a CSV file: its row count and each column's
    name, kind, value bytes, levels and expression, or its DataError message."""
    try:
        d = load(path, schema)
    except DataError as exc:
        return str(exc)
    return d.n_rows, [(c.name, c.kind, c.values.tobytes(), c.levels, c.expr) for c in d.columns]


N, C = Kind.NUMERIC, Kind.CATEGORICAL
LONG_FIELD = "x" * (csv.field_size_limit() + 1)
LONG_NUMBER = "0" * csv.field_size_limit() + "1"  # numpy reads it as 1.0


@pytest.mark.parametrize("text, task, overrides, want", [
    pytest.param("a,y\n1,2\n3,4\n5,\n", Task.REGRESSION, {}, [N, N],
                 id="an empty cell in the last row"),
    pytest.param("a,y\n1,2\n3,4\n5,6,7\n", Task.REGRESSION, {}, [N, N],
                 id="a long last row"),
    pytest.param("a,y\n", Task.REGRESSION, {}, "{path}: no data rows", id="header only"),
    pytest.param("a,a,y\n1,2,3\n", Task.REGRESSION, {},
                 "{path}: duplicate column names in header", id="duplicate header names"),
    pytest.param("a,y\n1,2\n3,4\n", Task.CLASSIFICATION, {},
                 "classification target must be Categorical or Boolean",
                 id="a classification schema"),
    pytest.param("a,b,y\n1,2,3\n4,5,6\n", Task.REGRESSION, {"a": N}, [N, N, N],
                 id="a numeric override"),
    pytest.param("a,b,y\n1,2,3\n4,5,6\n", Task.REGRESSION, {"a": C}, [C, N, N],
                 id="a categorical override"),
    pytest.param(f"a,y\n1,2\n3,4\n{LONG_FIELD},5\n", Task.REGRESSION, {},
                 f"{{path}}: line 4: field larger than field limit ({csv.field_size_limit()})",
                 id="a field past the limit"),
    pytest.param(f"a,y\n1,2\n3,4\n{LONG_NUMBER},5\n", Task.REGRESSION, {},
                 f"{{path}}: line 4: field larger than field limit ({csv.field_size_limit()})",
                 id="a number past the limit"),
    pytest.param('"a\nb",y\n1,2\n3,4\n', Task.REGRESSION, {}, [N, N],
                 id="a header with a quoted line break"),
    pytest.param("a,y\n1,2\n\n3,4\n", Task.REGRESSION, {}, [N, N], id="a blank line"),
    pytest.param('a,y\n1,2\n"3\n",4\n', Task.REGRESSION, {}, [N, N],
                 id="a quoted line break in a cell"),
])
def test_numeric_path_edges_read_as_the_per_column_path(tmp_path, text, task, overrides, want):
    path = tmp_path / "t.csv"
    path.write_text(text)
    schema = SchemaConfig(target_name="y", task=task, column_kind_overrides=overrides)
    got = loaded(load_csv, str(path), schema)
    assert got == loaded(load_column_by_column, str(path), schema)
    if isinstance(want, str):
        assert got == want.format(path=path)
    else:
        assert [kind for _, kind, *_ in got[1]] == want


def test_a_header_over_two_lines_is_read_column_by_column(tmp_path):
    # numpy skips the header's first line only, and its second, `"1",5`,
    # reads as a row of two numbers
    path = tmp_path / "t.csv"
    path.write_text('"a\n"1",5\n2,3\n4,6\n')
    schema = SchemaConfig(target_name="5", task=Task.REGRESSION)
    got = loaded(load_csv, str(path), schema)
    assert got == loaded(load_column_by_column, str(path), schema)
    assert got[0] == 2 and [name for name, *_ in got[1]] == ['a\n1"', "5"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(["1", ",", '"', "\r", "\n", "\r\n"])).map("".join),
       limit=st.integers(2, 8))
def test_line_count_counts_the_lines_csv_reader_sees(text, limit):
    # blocks are no longer than the field size limit, so a small limit puts
    # block boundaries inside lines and between the \r and \n of a line end
    lines = io.StringIO(text, newline="").readlines()
    longest = max((len(line.rstrip("\r\n")) for line in lines), default=0)
    before = csv.field_size_limit(limit)
    try:
        got = datamod._line_count(io.StringIO(text, newline=""))
    finally:
        csv.field_size_limit(before)
    assert got == (len(lines) if longest <= limit - 2 else None)


_LATIN1_CELL = "x\xe9".encode("latin-1")  # "xé", not UTF-8


@pytest.mark.parametrize("raw, line, position", [
    pytest.param("caf\xe9,y\n1,2\n3,4\n".encode("latin-1"), 1, 3, id="a Latin-1 header"),
    pytest.param(b"a,y\n1,2\n" + _LATIN1_CELL + b",4\n", 3, 1, id="a Latin-1 cell"),
    pytest.param(b"a,y\n" + b"1,2\n" * 5000 + _LATIN1_CELL + b",4\n", 5002, 1,
                 id="a Latin-1 cell past the first block the reader decodes"),
])
def test_a_csv_that_is_not_utf8_is_a_data_error_naming_the_line(tmp_path, raw, line, position):
    # the decode error was an internal error (exit 2) that named no file
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    want = (f"{path}: line {line}: 'utf-8' codec can't decode byte 0xe9 in position "
            f"{position}: invalid continuation byte")
    with pytest.raises(DataError) as raised:
        load_csv(str(path), SchemaConfig(target_name="y", task=Task.REGRESSION))
    assert str(raised.value) == want
    if line == 1:
        with pytest.raises(DataError) as raised:
            datamod.read_header(str(path))
        assert str(raised.value) == want


@pytest.mark.parametrize("body, kinds", [
    pytest.param("1,2\n3,4\n5,6\n", [Kind.NUMERIC, Kind.NUMERIC], id="read in one pass"),
    pytest.param("1,u\n3,v\n5,u\n", [Kind.NUMERIC, Kind.CATEGORICAL],
                 id="read column by column"),
])
def test_a_byte_order_mark_is_no_part_of_the_first_column_name(tmp_path, body, kinds):
    # the first column was read as "\ufeffy", so target 'y' was not found
    path = tmp_path / "t.csv"
    path.write_bytes(codecs.BOM_UTF8 + f"y,a\n{body}".encode())
    d = load_csv(str(path), SchemaConfig(target_name="y", task=Task.REGRESSION))
    assert [(c.name, c.kind) for c in d.columns] == list(zip(["y", "a"], kinds))
    assert d.target_column.values.tolist() == [1.0, 3.0, 5.0]
    assert datamod.read_header(str(path)) == ["y", "a"]


def test_read_json_skips_a_byte_order_mark_and_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(codecs.BOM_UTF8 + b'{"target_name": "y", "task": "regression"}')
    assert SchemaConfig.from_json(str(path)).target_name == "y"
    path.write_bytes(b'{"target_name":\n "caf' + "\xe9".encode("latin-1") + b'"}')
    with pytest.raises(DataError) as raised:
        datamod.read_json(str(path), dict)
    assert str(raised.value) == (f"{path}: line 2: 'utf-8' codec can't decode byte 0xe9 in "
                                 "position 5: invalid continuation byte")


def test_planted_table_is_read_in_one_pass(tmp_path, monkeypatch):
    def per_column(*args):
        raise AssertionError("read column by column")

    monkeypatch.setattr(datamod, "_build_column", per_column)
    d, _, _ = make_planted_dataset(tmp_path)
    assert d.n_rows == 200 and {c.kind for c in d.columns} == {Kind.NUMERIC}


@st.composite
def numeric_tables(draw):
    """CSV text of a table of NUMBER_CELLS at the header's width, padded and
    sometimes quoted, with one line end (\\r\\n, \\n or \\r), maybe none
    after the last row, and sometimes a byte-order mark; some draws add one
    flaw at any row: an empty cell, a short, long, blank or whitespace-only
    row, a cell that is not a number, a number in Arabic-Indic digits, or a
    quoted cell holding a line break. Each is a place where numpy's reader
    and csv.reader with float() part: float() reads `1_000` and Arabic-Indic
    digits and numpy does not, numpy skips a blank line, and a quoted line
    break joins two lines into one row."""
    width = draw(st.integers(1, 4))
    header = [f"x{j}" for j in range(width - 1)] + ["y"]
    pad = st.sampled_from(["", " ", "\t ", "  "])

    def cell(text):
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    rows = [[cell(draw(st.sampled_from(NUMBER_CELLS))) for _ in range(width)]
            for _ in range(draw(st.integers(1, 6)))]
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    flaw = draw(st.sampled_from(["empty", "short", "long", "blank", "spaces", "junk",
                                 "digits", "line break"])
                if draw(st.booleans()) else st.none())
    if flaw == "empty":
        rows[i][j] = cell("")
    elif flaw == "short":
        rows[i] = rows[i][:j]
    elif flaw == "long":
        rows[i].append(cell(draw(st.sampled_from(NUMBER_CELLS + [""]))))
    elif flaw == "blank":
        rows.insert(i, [])
    elif flaw == "spaces":
        rows.insert(i, [draw(st.sampled_from([" ", "\t", " \t "]))])
    elif flaw == "junk":
        rows[i][j] = cell(draw(st.sampled_from(JUNK_CELLS + DATE_CELLS + BOOL_CELLS)))
    elif flaw == "digits":
        rows[i][j] = cell(draw(st.sampled_from(["\u0661\u0662", "-\u0663.\u0665"])))
    elif flaw == "line break":
        rows[i][j] = '"' + draw(st.sampled_from(["1\n", "\n2", "3\r", "4\r\n", "5\n6"])) + '"'
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    text = "".join(",".join(r) + end for r in [header] + rows)
    if draw(st.booleans()):
        text = text.removesuffix(end)
    return header, ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=300, deadline=None)
@given(table=numeric_tables(), task=st.sampled_from(list(Task)),
       kind=st.one_of(st.none(), st.just(Kind.NUMERIC),
                      st.sampled_from([Kind.CATEGORICAL, Kind.BOOLEAN, Kind.DATE])),
       data=st.data())
def test_load_csv_reads_as_the_per_column_path(tmp_path_factory, table, task, kind, data):
    header, text = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    overrides = {data.draw(st.sampled_from(header)): kind} if kind else {}
    schema = SchemaConfig(target_name="y", task=task, column_kind_overrides=overrides)
    assert loaded(load_csv, str(path), schema) == loaded(load_column_by_column, str(path), schema)


def dealt_folds(n, k, seed, labels=None):
    """Oracle: the row-by-row dealing loop kfold_indices replaced."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    if labels is None:
        order = rng.permutation(n)
        for pos, idx in enumerate(order):
            folds[pos % k].append(int(idx))
    else:
        labels = np.asarray(labels)
        pos = 0
        for lab in sorted(set(labels.tolist()), key=str):
            idx = np.flatnonzero(labels == lab)
            idx = idx[rng.permutation(len(idx))]
            for i in idx:
                folds[pos % k].append(int(i))
                pos += 1
    out = []
    all_idx = set(range(n))
    for f in folds:
        valid = np.array(sorted(f), dtype=np.int64)
        train = np.array(sorted(all_idx - set(f)), dtype=np.int64)
        out.append((train, valid))
    return out


def test_kfold_matches_the_dealing_loop():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, n + 1))
        seed = int(rng.integers(0, 10_000))
        labels = None
        if rng.random() < 0.5:
            labels = rng.integers(0, int(rng.integers(1, 5)), n).astype(float)
        got = fold_pairs(kfold_indices(n, k, seed, labels=labels), k)
        want = dealt_folds(n, k, seed, labels=labels)
        assert len(got) == len(want)
        for (gt, gv), (wt, wv) in zip(got, want):
            assert gt.tolist() == wt.tolist() and gv.tolist() == wv.tolist()


@pytest.mark.parametrize("doc, shape, message", [
    ({"a": True}, {"a": int}, "f.json: a is not an integer"),
    ({"a": 1}, {"a": float}, None),
    ({"a": 1.5}, {"a": (int, None)}, "f.json: a is not an integer"),
    ({}, {"a": (int, None)}, None),
    ({"a": None}, {"a": (int, None)}, None),
    ({"a": None}, {"a": object}, None),
    ({}, {"a": object}, "f.json: the document has no 'a' field"),
    ({"a b": {"c": [1, "x"]}}, {str: {"c": [float]}}, 'f.json: ["a b"].c[1] is not a number'),
    ([{"k": [1]}], [{"k": ([str], None)}], "f.json: [0].k[0] is not a string"),
    ({"k": {"x": 1}}, {"k": ([str], {str: int})}, None),
    ({"k": {"x": "1"}}, {"k": ([str], {str: int})}, "f.json: k.x is not an integer"),
    ({"k": 2}, {"k": ([str], {str: int})}, "f.json: k is not a JSON array"),
    (3, [object], "f.json: the document is not a JSON array"),
])
def test_check_names_the_file_and_path_of_the_first_value_off_its_shape(doc, shape, message):
    if message is None:
        check(doc, shape, "f.json")
    else:
        with pytest.raises(DataError) as raised:
            check(doc, shape, "f.json")
        assert str(raised.value) == message
