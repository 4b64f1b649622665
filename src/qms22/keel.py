"""KEEL ``.dat`` ingestion: header parsing, 5-fold discovery, one-hot
encoding, max-abs feature scaling, and training-fold outlier removal.

The format is the KEEL repository's: ``@relation`` / ``@attribute`` /
``@inputs`` / ``@outputs`` header directives followed by ``@data`` and
comma-separated rows. Fold files are named ``<name>-5-<k>tra.dat`` and
``<name>-5-<k>tst.dat`` for k = 1..5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "KeelParseError",
    "Attribute",
    "RawDataset",
    "FoldPair",
    "Preprocessor",
    "parse_keel",
    "parse_keel_text",
    "discover_folds",
    "find_datasets",
    "fold_paths",
    "read_shape",
    "strip_outliers_from_train",
]

_POSITIVE = "positive"
_NEGATIVE = "negative"


class KeelParseError(ValueError):
    """Malformed .dat content; message carries the source and line number."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source, self.line_no, self.message = source, line_no, message

    def __reduce__(self):
        # rebuilt from its fields, so it crosses a process pool intact
        return type(self), (self.source, self.line_no, self.message)


@dataclass(frozen=True)
class Attribute:
    """One declared column: kind is 'real', 'integer', or 'categorical'
    (with its domain values in declaration order)."""

    name: str
    kind: str
    domain: tuple[str, ...] | None = None

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("real", "integer")

    @property
    def width(self) -> int:
        """Encoded columns: one if numeric, else one per declared value."""
        return 1 if self.is_numeric else len(self.domain)


@dataclass(frozen=True)
class RawDataset:
    """Parsed file: declarations plus rows of validated string tokens."""

    relation: str
    attributes: tuple[Attribute, ...]
    input_names: tuple[str, ...]
    output_name: str
    rows: tuple[tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def input_attributes(self) -> tuple[Attribute, ...]:
        by_name = {a.name: a for a in self.attributes}
        return tuple(by_name[name] for name in self.input_names)

    @property
    def encoded_width(self) -> int:
        """Columns after one-hot encoding, as `Preprocessor.width`."""
        return sum(a.width for a in self.input_attributes)

    @property
    def output_index(self) -> int:
        return next(i for i, a in enumerate(self.attributes)
                    if a.name == self.output_name)

    def declarations(self):
        """Attribute/input/output declarations, for compatibility checks."""
        return (self.attributes, self.input_names, self.output_name)


@dataclass(frozen=True)
class FoldPair:
    train: RawDataset
    test: RawDataset
    fold_index: int

    def __post_init__(self):
        if self.train.declarations() != self.test.declarations():
            raise ValueError(f"fold {self.fold_index}: train and test "
                             f"declare different attributes")


def _parse_attribute(rest: str, source: str, line_no: int) -> Attribute:
    rest = rest.strip()
    if "{" in rest:
        name, _, tail = rest.partition("{")
        tail = tail.strip()
        if not tail.endswith("}"):
            raise KeelParseError(source, line_no, "unterminated categorical domain")
        values = tuple(v.strip() for v in tail[:-1].split(","))
        if not all(values):
            raise KeelParseError(source, line_no, "empty categorical value")
        if len(set(values)) != len(values):
            raise KeelParseError(source, line_no,
                                 "categorical domain repeats a value")
        name = name.strip()
        if not name:
            raise KeelParseError(source, line_no, "attribute needs a name")
        return Attribute(name, "categorical", values)
    # numeric forms: "name real [lo, hi]", "name integer[lo,hi]", "name real"
    tokens = rest.replace("[", " [").split(None, 2)
    if len(tokens) < 2:
        raise KeelParseError(source, line_no,
                             f"attribute needs a type: {rest!r}")
    name, kind = tokens[0], tokens[1].lower()
    if kind.startswith("real"):
        return Attribute(name, "real")
    if kind.startswith("integer"):
        return Attribute(name, "integer")
    raise KeelParseError(source, line_no, f"unknown attribute type {tokens[1]!r}")


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def parse_keel_text(text: str, source: str = "<string>") -> RawDataset:
    """Parse .dat content. Every malformed construct raises KeelParseError
    with the offending line number; missing values ('?') and non-finite
    numbers ('nan', 'inf', '1e400', ...) are rejected.
    """
    relation = ""
    attributes: list[Attribute] = []
    attribute_lines: list[int] = []
    input_names: tuple[str, ...] | None = None
    inputs_line = 0
    output_names: tuple[str, ...] | None = None
    rows: list[tuple[str, ...]] = []
    in_data = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not in_data:
            if not line.startswith("@"):
                raise KeelParseError(source, line_no,
                                     f"expected a directive, got {line!r}")
            parts = line.split(None, 1)
            directive = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if directive == "@relation":
                relation = rest.strip()
            elif directive == "@attribute":
                attributes.append(_parse_attribute(rest, source, line_no))
                attribute_lines.append(line_no)
            elif directive == "@inputs":
                input_names = _name_list(rest)
                inputs_line = line_no
            elif directive == "@outputs":
                output_names = _name_list(rest)
            elif directive == "@data":
                in_data = True
            else:
                raise KeelParseError(source, line_no,
                                     f"unknown directive {directive!r}")
            continue
        # data section
        tokens = tuple(t.strip() for t in line.split(","))
        if len(tokens) != len(attributes):
            raise KeelParseError(source, line_no,
                                 f"row has {len(tokens)} values, "
                                 f"expected {len(attributes)}")
        for attr, tok in zip(attributes, tokens):
            if tok == "?":
                raise KeelParseError(source, line_no,
                                     f"missing value in attribute {attr.name!r}")
            if attr.is_numeric:
                try:
                    value = float(tok)
                except ValueError:
                    raise KeelParseError(
                        source, line_no,
                        f"non-numeric value {tok!r} for attribute "
                        f"{attr.name!r}") from None
                if not math.isfinite(value):
                    raise KeelParseError(
                        source, line_no,
                        f"non-finite value {tok!r} for attribute "
                        f"{attr.name!r}")
            elif tok not in attr.domain:
                raise KeelParseError(
                    source, line_no,
                    f"value {tok!r} not in the declared domain of "
                    f"{attr.name!r}")
        rows.append(tokens)

    if not in_data:
        raise KeelParseError(source, max(1, text.count("\n") + 1),
                             "missing @data section")
    if not attributes:
        raise KeelParseError(source, 1, "no attributes declared")
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise KeelParseError(source, 1, "duplicate attribute names")
    # KEEL fold files always declare @inputs/@outputs; tolerate their
    # absence with the conventional all-but-last / last split
    if output_names is None:
        output_names = (names[-1],)
    if len(output_names) != 1:
        raise KeelParseError(source, 1,
                             f"expected exactly one output attribute, "
                             f"got {len(output_names)}")
    output_name = output_names[0]
    if input_names is None:
        input_names = tuple(n for n in names if n != output_name)
    for name in (*input_names, output_name):
        if name not in names:
            raise KeelParseError(source, 1,
                                 f"undeclared attribute {name!r} referenced")
    if output_name in input_names:
        raise KeelParseError(source, inputs_line,
                             f"@inputs names the output attribute "
                             f"{output_name!r}")
    if len(set(input_names)) != len(input_names):
        raise KeelParseError(source, inputs_line,
                             "@inputs names an attribute twice")
    out_at = names.index(output_name)
    out_attr = attributes[out_at]
    if out_attr.kind != "categorical" or len(out_attr.domain) != 2:
        raise KeelParseError(source, attribute_lines[out_at],
                             f"output attribute {output_name!r} must be "
                             f"categorical with exactly two values")
    if {v.lower() for v in out_attr.domain} != {_POSITIVE, _NEGATIVE}:
        raise KeelParseError(source, attribute_lines[out_at],
                             f"output attribute {output_name!r} must declare "
                             f"the values {_POSITIVE!r} and {_NEGATIVE!r}, "
                             f"got {out_attr.domain}")
    return RawDataset(relation=relation, attributes=tuple(attributes),
                      input_names=tuple(input_names), output_name=output_name,
                      rows=tuple(rows))


def _read_text(path: Path) -> str:
    # UTF-8 whatever the locale, decoded in one piece so that a bad
    # byte's offset, and so its line, is the file's; newlines are
    # translated as text-mode reading does
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeelParseError(str(path), data.count(b"\n", 0, exc.start) + 1,
                             f"byte {data[exc.start]:#04x} is not UTF-8 "
                             f"({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_keel(path) -> RawDataset:
    """Parse a UTF-8 .dat file from disk."""
    path = Path(path)
    return parse_keel_text(_read_text(path), source=str(path))


def read_shape(path) -> tuple[int, int]:
    """(rows, encoded width) of a .dat file. The file is read and its
    header parsed as by `parse_keel`; the rows after ``@data`` are
    counted, not validated.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    data_at = next((i for i, line in enumerate(lines)
                    if line.lower().split(None, 1)[:1] == ["@data"]),
                   len(lines))
    header = parse_keel_text("\n".join(lines[: data_at + 1]),
                             source=str(path))
    rows = sum(1 for line in lines[data_at + 1:] if line.strip())
    return rows, header.encoded_width


def _label_to_outlier(token: str) -> bool:
    # the parser admits only the two output values, in any case
    return token.lower() == _POSITIVE


class Preprocessor:
    """Per-attribute encoding fitted on training rows only.

    Numeric attributes are scaled by 255 / max-abs over the training
    rows (scale 1 for an all-zero column); categorical attributes become
    one-hot blocks over the declared domain, so train and test always
    encode to the same width. Test values are never clipped.
    """

    def __init__(self, attributes, encoders):
        self.attributes = tuple(attributes)
        self.encoders = tuple(encoders)

    @classmethod
    def fit(cls, train: RawDataset) -> "Preprocessor":
        if train.n == 0:
            raise ValueError("cannot fit a preprocessor on an empty dataset")
        name_to_col = {a.name: i for i, a in enumerate(train.attributes)}
        encoders = []
        for attr in train.input_attributes:
            col = name_to_col[attr.name]
            if attr.is_numeric:
                peak = max(abs(float(row[col])) for row in train.rows)
                encoders.append(255.0 / peak if peak > 0 else 1.0)
            else:
                encoders.append({v: i for i, v in enumerate(attr.domain)})
        return cls(train.input_attributes, encoders)

    @property
    def width(self) -> int:
        return sum(a.width for a in self.attributes)

    def transform(self, data: RawDataset) -> tuple[np.ndarray, np.ndarray]:
        """Encode rows to an (n, width) float matrix and a boolean outlier
        label vector (positive class = outlier).
        """
        if tuple(data.input_attributes) != self.attributes:
            raise ValueError("dataset declarations do not match the "
                             "fitted preprocessor")
        name_to_col = {a.name: i for i, a in enumerate(data.attributes)}
        x = np.zeros((data.n, self.width))
        offset = 0
        # a column at a time, so the branch is taken once per attribute
        for attr, enc in zip(self.attributes, self.encoders):
            tokens = [row[name_to_col[attr.name]] for row in data.rows]
            if attr.is_numeric:
                x[:, offset] = [float(tok) * enc for tok in tokens]
                # a peak under 1.4e-306 scales by inf; test values may overflow
                if not np.isfinite(x[:, offset]).all():
                    raise ValueError(f"attribute {attr.name!r} does not scale "
                                     f"to finite values by {enc!r}")
            else:
                hot = np.array([offset + enc[tok] for tok in tokens], dtype=int)
                x[np.arange(data.n), hot] = 1.0
            offset += attr.width
        out_col = data.output_index
        y = np.array([_label_to_outlier(row[out_col]) for row in data.rows],
                     dtype=bool)
        return x, y


def strip_outliers_from_train(fold_or_train) -> RawDataset:
    """Drop positive-class rows from a training dataset (or the train
    side of a FoldPair); the detector must never see outliers in
    training. Raises when nothing is left.
    """
    train = fold_or_train.train if isinstance(fold_or_train, FoldPair) else fold_or_train
    col = train.output_index
    kept = tuple(row for row in train.rows
                 if not _label_to_outlier(row[col]))
    if not kept:
        raise ValueError("no normal rows left in the training fold; "
                         "cannot train")
    return RawDataset(relation=train.relation, attributes=train.attributes,
                      input_names=train.input_names,
                      output_name=train.output_name, rows=kept)


def fold_file_names(name: str, fold_index: int) -> tuple[str, str]:
    return (f"{name}-5-{fold_index}tra.dat", f"{name}-5-{fold_index}tst.dat")


def fold_paths(directory, name: str):
    """Yield the (train, test) paths of folds 1..5 of `name`, whether or
    not the files exist."""
    directory = Path(directory)
    for k in range(1, 6):
        tra, tst = fold_file_names(name, k)
        yield directory / tra, directory / tst


def find_datasets(root) -> list[tuple[str, Path]]:
    """Locate datasets anywhere under `root` by their fold-1 training
    file. Returns (name, directory) pairs sorted by name. A name found in
    two directories is an error naming both; a `root` that is not a
    directory is an error naming it.
    """
    root = Path(root)
    if not root.is_dir():   # rglob would find nothing there
        raise NotADirectoryError(f"{root}: no such directory")
    suffix = fold_file_names("", 1)[0]
    found: dict[str, Path] = {}
    for path in sorted(root.rglob(f"*{suffix}")):
        name = path.name[: -len(suffix)]
        if name in found:
            raise ValueError(f"dataset {name!r} is in two directories: "
                             f"{found[name]} and {path.parent}")
        found[name] = path.parent
    return sorted(found.items())


def discover_folds(directory, name: str) -> list[FoldPair]:
    """Load the five train/test pairs of `name` from `directory`.

    All ten files must exist; the error lists every missing one.
    """
    paths = list(fold_paths(directory, name))
    missing = [str(p) for pair in paths for p in pair if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"missing fold files for {name!r}: "
                                + ", ".join(missing))
    return [FoldPair(train=parse_keel(tra), test=parse_keel(tst), fold_index=k)
            for k, (tra, tst) in enumerate(paths, start=1)]
