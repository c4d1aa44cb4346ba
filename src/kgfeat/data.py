"""Tabular dataset loading, column-kind inference, and cross-validation splits."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from itertools import islice
from typing import Optional

import numpy as np

EPOCH = date(1970, 1, 1)

_BOOL_TOKENS = {"true": 1.0, "1": 1.0, "yes": 1.0, "false": 0.0, "0": 0.0, "no": 0.0}


class Kind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"
    DATE = "date"


class Task(str, Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


class DataError(ValueError):
    """Raised for malformed input files or invalid split requests."""


# Each JSON type of a shape: the Python types it admits (a number is an int or
# a float, an integer an int, and neither is a bool), and its name.
_JSON_TYPES = {str: ((str,), "a string"), bool: ((bool,), "a boolean"),
               int: ((int,), "an integer"), float: ((int, float), "a number"),
               dict: ((dict,), "a JSON object"), list: ((list,), "a JSON array"),
               type(None): ((type(None),), "null")}


def json_path(keys) -> str:
    """The JSON path along `keys` from a document's root, `the document`."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" if k.isidentifier()
                   else f"[{json.dumps(k)}]" for k in keys)
    return path.removeprefix(".") or "the document"


def check(doc, shape, where: str, error=DataError, path=()):
    """Raise `error` naming `where` (the file) and the JSON path of the first
    value in `doc` that does not have `shape`, e.g. `kg.json: units[3].dims.mass
    is not a number`; `path` holds the keys that lead to `doc` in the file. A
    shape is a JSON type (str, bool, int, float for any number, dict, list, or
    object for any value); a tuple of shapes of distinct JSON types, any one of
    them, where None lets a value be null and a field absent; a dict of field
    -> shape; {str: shape}, for an object of such values; or [shape], for an
    array of such entries. The path is built only when the check fails."""

    def walk(value, shape, at):
        alternatives = shape if type(shape) is tuple else (shape,)
        for s in alternatives:  # the one of the value's JSON type
            if s is object or type(value) in _JSON_TYPES[s if type(s) is type else type(s)][0]:
                break
        else:  # named as the first alternative
            s = alternatives[0]
            raise error(f"{where}: {json_path(at)} is not "
                        f"{_JSON_TYPES[s if type(s) is type else type(s)][1]}")
        if type(s) is dict and str not in s:
            for k, f in s.items():
                if k in value:
                    walk(value[k], f, (*at, k))
                elif not (type(f) is tuple and None in f):
                    raise error(f"{where}: {json_path(at)} has no {k!r} field")
        elif type(s) is list or type(s) is dict:  # one shape for every entry
            entry = s[0] if type(s) is list else s[str]
            for k, v in enumerate(value) if type(s) is list else value.items():
                walk(v, entry, (*at, k))

    walk(doc, shape, path)


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    """The error for a file that is not UTF-8 text: `path: line N: ...` for
    its first line that does not decode (no UTF-8 sequence holds a newline
    byte, so the file's lines decode one at a time as the whole does)."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"{path}: line {number}: {bad}"
    return f"{path}: {exc}"


def read_json(path: str, shape, error=DataError):
    """The JSON document in a UTF-8 file (a byte-order mark is skipped),
    checked to have `shape` (see check)."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(_not_utf8(path, exc)) from None
    check(doc, shape, path, error)
    return doc


@dataclass(frozen=True)
class RawRef:
    name: str


@dataclass
class Feature:
    """A feature: an expression and its values, a float64 array with NaN at
    a missing cell of every kind; `name` renders the expression.

    Boolean values are 0/1 and Date values days since 1970-01-01. A
    Categorical's values are codes into `levels`, its distinct present cells
    in sorted order. A dataset column is the raw feature `RawRef(name)`.
    """

    expr: object
    values: np.ndarray
    kind: Kind
    name: str
    levels: tuple = ()


@dataclass
class Dataset:
    columns: list
    target: str
    task: Task
    n_rows: int

    def column(self, name: str) -> Feature:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"dataset has no column {name!r}")

    @property
    def target_column(self) -> Feature:
        return self.column(self.target)

    @property
    def feature_columns(self) -> list:
        return [c for c in self.columns if c.name != self.target]


@dataclass
class SchemaConfig:
    target_name: str
    task: Task
    column_kind_overrides: dict = field(default_factory=dict)
    concept_map_path: Optional[str] = None

    @classmethod
    def from_json(cls, path: str) -> "SchemaConfig":
        """Parse a schema file; a document of the wrong shape (_SCHEMA_SHAPE)
        or an unknown task or column kind is a DataError naming the file and
        the JSON path or value."""
        doc = read_json(path, _SCHEMA_SHAPE)
        try:
            return cls(
                target_name=doc["target_name"],
                task=Task(doc["task"]),
                column_kind_overrides={k: Kind(v) for k, v in
                                       (doc.get("column_kind_overrides") or {}).items()},
                concept_map_path=doc.get("concept_map_path"),
            )
        except ValueError as exc:  # an unknown task or kind: "'x' is not a valid Task"
            raise DataError(f"{path}: {exc}") from None


_SCHEMA_SHAPE = {"target_name": str, "task": str, "column_kind_overrides": ({str: str}, None),
                 "concept_map_path": (str, None)}


def _parse_date(text: str) -> int:
    return (date.fromisoformat(text) - EPOCH).days


# kind -> (cell parser, what a cell that fails to parse "is not"); a parser
# raises ValueError or KeyError. Inference tries the kinds in this order.
_PARSERS = {
    Kind.NUMERIC: (float, "numeric"),
    Kind.DATE: (_parse_date, "an ISO date"),
    Kind.BOOLEAN: (lambda text: _BOOL_TOKENS[text.lower()], "boolean"),
}


def _parse(kind: Kind, present: list):
    """(values, None) when every present cell parses as `kind`, else
    (None, the first cell that does not)."""
    parse = _PARSERS[kind][0]
    try:
        return np.fromiter(map(parse, present), float, len(present)), None
    except (ValueError, KeyError):
        for cell in present:
            try:
                parse(cell)
            except (ValueError, KeyError):
                return None, cell
        raise


def _build_column(name: str, cells: list, kind: Optional[Kind]) -> Feature:
    """A typed column from stripped cells; empty cells are missing.

    With no `kind`, the column takes the first of Numeric, Date and Boolean
    (at most two distinct tokens) that every present cell parses as, else
    Categorical; an all-empty column is Categorical.
    """
    present = list(filter(None, cells))
    parsed, levels = None, ()
    if kind is None:
        kind = Kind.CATEGORICAL
        for k in _PARSERS if present else ():
            parsed, _ = _parse(k, present)
            if parsed is not None and (k != Kind.BOOLEAN
                                       or len({c.lower() for c in present}) <= 2):
                kind = k
                break
    elif kind != Kind.CATEGORICAL:
        parsed, bad = _parse(kind, present)
        if parsed is None:
            raise DataError(f"column {name!r}: cell {bad!r} is not {_PARSERS[kind][1]}")
    if kind == Kind.CATEGORICAL:
        levels = tuple(sorted(set(present)))
        code = {level: float(i) for i, level in enumerate(levels)}
        parsed = np.fromiter(map(code.__getitem__, present), float, len(present))
    values = np.full(len(cells), np.nan)
    values[np.fromiter(map(bool, cells), bool, len(cells))] = parsed
    if kind == Kind.NUMERIC:
        # a cell reading inf or nan is missing, the rule transform outputs follow
        values[~np.isfinite(values)] = np.nan
    return Feature(RawRef(name), values, kind, name, levels)


def _records(fh, path: str):
    """The records of a CSV file open for reading; a malformed record (one
    with a field past `csv.field_size_limit()`, say) or text that is not
    UTF-8 is a DataError naming the file and the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(_not_utf8(path, exc)) from None


def _header(records, path: str) -> list:
    header = next(records, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    return header


def read_header(path: str) -> list:
    """The column names in a CSV file's first record."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _header(_records(fh, path), path)


def _numeric_columns(fh, header: list, first: list) -> Optional[list]:
    """Numeric columns read by numpy's C parser from the CSV file `fh`,
    whose header and first row csv.reader has read; None, to read the file
    column by column, unless the header is one line and the first row holds
    a float in each of the header's columns. The columns equal
    `_build_column`'s, as each case where numpy and csv.reader with float()
    part returns None too: a cell numpy rejects (`1_000`, Arabic-Indic
    digits, an empty one), text that is not UTF-8, a row of another width, a
    blank line numpy skips or a quoted line break (the matrix then has fewer
    rows than the file has lines after the header), and a line near csv's
    field size limit."""
    width = len(header)
    if len(first) != width or any("\n" in h or "\r" in h for h in header):
        return None
    limit, lines = csv.field_size_limit() - 2, 0

    def counted():  # the lines, as csv.reader ends them, counted in `lines`
        nonlocal lines
        for lines, line in enumerate(fh, 1):
            if len(line.rstrip("\r\n")) > limit:
                raise ValueError("a line near csv's field size limit")
            yield line

    try:
        for cell in first:
            float(cell)
        fh.seek(0)
        matrix = np.loadtxt(counted(), delimiter=",", quotechar='"', comments=None,
                            skiprows=1, ndmin=2)
    except ValueError:  # UnicodeDecodeError too
        return None
    if matrix.shape != (lines - 1, width):
        return None
    matrix[~np.isfinite(matrix)] = np.nan
    return [Feature(RawRef(name), matrix[:, j].copy(), Kind.NUMERIC, name)
            for j, name in enumerate(header)]


def load_csv(path: str, schema: SchemaConfig) -> Dataset:
    """Load an RFC-4180 CSV into a typed Dataset.

    Column kinds come from schema overrides when given, otherwise from
    inference: all-numeric -> Numeric, all-ISO-date -> Date, at most two
    distinct boolean tokens -> Boolean, anything else -> Categorical.
    Empty cells are missing, and blank lines are skipped, as csv.DictReader
    skips them. A table of numbers at the header's width, with no override
    but `numeric`, is read into one float matrix by numpy's C parser (see
    _numeric_columns); any other is read column by column, with the same
    result.
    """
    overrides = schema.column_kind_overrides
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(fh, path)
        header = _header(records, path)
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        first = next(filter(None, records), None)  # csv.reader reads a blank line as []
        if first is None:
            raise DataError(f"{path}: no data rows")
        if schema.target_name not in header:
            raise DataError(f"{path}: target column {schema.target_name!r} not found")
        for name in overrides:
            if name not in header:
                raise DataError(f"override references unknown column {name!r}")
        columns = None
        if set(overrides.values()) <= {Kind.NUMERIC}:
            columns = _numeric_columns(fh, header, first)
        if columns is None:
            fh.seek(0)
            rows = list(filter(None, islice(_records(fh, path), 1, None)))
            # a short row reads "" in the columns it lacks
            width = len(header)
            rows = [r if len(r) >= width else r + [""] * (width - len(r)) for r in rows]
            columns = [_build_column(name, list(map(str.strip, cells)), overrides.get(name))
                       for name, cells in zip(header, zip(*rows))]

    d = Dataset(columns=columns, target=schema.target_name, task=schema.task,
                n_rows=len(columns[0].values))
    tcol = d.target_column
    if schema.task == Task.CLASSIFICATION and tcol.kind not in (Kind.CATEGORICAL, Kind.BOOLEAN):
        raise DataError("classification target must be Categorical or Boolean")
    if schema.task == Task.REGRESSION and tcol.kind != Kind.NUMERIC:
        raise DataError("regression target must be Numeric")
    return d


def kfold_indices(n: int, k: int, seed: int, labels=None) -> np.ndarray:
    """Each row's fold number in range(k), one int64 array of length n,
    dealt deterministically; `labels` switches to stratified dealing.

    Fold sizes differ by at most one; with labels, each class is dealt
    round-robin so per-fold class counts stay within one of each other.
    """
    if k < 2 or k > n:
        raise DataError(f"k={k} invalid for n={n}")
    rng = np.random.default_rng(seed)
    if labels is None:
        dealt = rng.permutation(n)
    else:
        labels = np.asarray(labels)
        dealt = np.concatenate([rng.permutation(np.flatnonzero(labels == lab))
                                for lab in sorted(set(labels.tolist()), key=str)])
    fold = np.empty(n, dtype=np.int64)
    fold[dealt] = np.arange(n) % k
    return fold

