""".dat parsing, fold discovery, encoding, and train-fold stripping."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qms22.keel import (Attribute, KeelParseError, Preprocessor,
                        discover_folds, find_datasets, fold_file_names,
                        fold_paths, read_shape,
                        parse_keel, parse_keel_text, strip_outliers_from_train)

from synthdata import dataset_text, write_dataset

MINIMAL = """\
@relation tiny
@attribute X1 real [0.0, 10.0]
@attribute X2 real [0.0, 10.0]
@attribute Class {negative, positive}
@inputs X1, X2
@outputs Class
@data
1.0, 2.0, negative
3.5, 4.0, positive
0.0, 9.0, negative
"""


CLASS = "@attribute Class {negative, positive}\n"


def numeric_dataset(train_values, label="negative"):
    rows = "\n".join(f"{v}, {label}" for v in train_values)
    return parse_keel_text(
        "@relation t\n"
        "@attribute V real\n"
        "@attribute Class {negative, positive}\n"
        "@data\n" + rows + "\n")


class TestParse:
    def test_minimal_file(self):
        data = parse_keel_text(MINIMAL)
        assert data.relation == "tiny"
        assert data.n == 3
        assert data.input_names == ("X1", "X2")
        assert data.output_name == "Class"
        assert data.rows[1] == ("3.5", "4.0", "positive")
        assert [a.kind for a in data.attributes] == ["real", "real",
                                                     "categorical"]

    def test_glued_domain_and_range(self):
        data = parse_keel_text(
            "@relation g\n"
            "@attribute A real[0.0,1.0]\n"
            "@attribute B integer [0, 7]\n"
            "@attribute Class{negative,positive}\n"
            "@data\n"
            "0.5, 3, negative\n")
        assert data.attributes[0] == Attribute("A", "real")
        assert data.attributes[1] == Attribute("B", "integer")
        assert data.attributes[2].domain == ("negative", "positive")

    def test_directives_case_insensitive(self):
        data = parse_keel_text(
            "@RELATION shout\n"
            "@ATTRIBUTE V real\n"
            "@Attribute Class {negative, positive}\n"
            "@DATA\n"
            "1.0, positive\n")
        assert data.relation == "shout"
        assert data.n == 1

    def test_missing_inputs_outputs_default_to_last_column(self):
        data = parse_keel_text(
            "@relation d\n"
            "@attribute A real\n"
            "@attribute B real\n"
            "@attribute Class {negative, positive}\n"
            "@data\n"
            "1, 2, negative\n")
        assert data.input_names == ("A", "B")
        assert data.output_name == "Class"

    @pytest.mark.parametrize("first, second, line", [
        ("@attribute C1 {a, a, b}", "@attribute X1 real", 2),
        ("@attribute X1 real", "@attribute C1 {a, a, b}", 3),
    ], ids=["categorical-first", "categorical-last"])
    def test_repeated_categorical_value_rejected(self, first, second, line):
        # one-hot columns are one per declared value, so a repeat would
        # leave the width and the encoding disagreeing
        text = (f"@relation r\n{first}\n{second}\n"
                "@attribute Class {negative, positive}\n"
                "@data\na, 1.0, negative\n")
        with pytest.raises(KeelParseError,
                           match=rf"f\.dat:{line}: categorical domain "
                                 rf"repeats a value"):
            parse_keel_text(text, source="f.dat")

    def test_value_outside_domain_names_line_and_value(self):
        text = MINIMAL + "5.0, 5.0, maybe\n"
        with pytest.raises(KeelParseError, match=r"<string>:11.*'maybe'"):
            parse_keel_text(text)

    def test_missing_value_marker_rejected(self):
        text = MINIMAL.replace("3.5, 4.0, positive", "?, 4.0, positive")
        with pytest.raises(KeelParseError, match=r":9:.*missing value.*'X1'"):
            parse_keel_text(text)

    def test_row_arity_mismatch(self):
        text = MINIMAL + "1.0, 2.0\n"
        with pytest.raises(KeelParseError,
                           match=r":11:.*has 2 values, expected 3"):
            parse_keel_text(text)

    def test_parse_error_survives_pickling(self):
        # a bench worker's parse error reaches the parent through pickle
        text = MINIMAL + "1.0, 2.0\n"
        with pytest.raises(KeelParseError) as info:
            parse_keel_text(text, source="fold.dat")
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is KeelParseError
        assert str(copy) == str(info.value) == ("fold.dat:11: row has 2 "
                                                "values, expected 3")
        assert (copy.source, copy.line_no) == ("fold.dat", 11)

    def test_non_numeric_token(self):
        text = MINIMAL.replace("0.0, 9.0, negative", "0.0, abc, negative")
        with pytest.raises(KeelParseError, match=r":10:.*'abc'.*'X2'"):
            parse_keel_text(text)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf",
                                       "Infinity", "-Infinity", "1e400"])
    def test_non_finite_token(self, token):
        text = MINIMAL.replace("0.0, 9.0, negative", f"0.0, {token}, negative")
        with pytest.raises(KeelParseError,
                           match=rf"fold\.dat:10:.*non-finite.*'{token}'.*'X2'"):
            parse_keel_text(text, source="fold.dat")

    def test_unknown_directive(self):
        with pytest.raises(KeelParseError, match=r":1:.*'@banana'"):
            parse_keel_text("@banana split\n@data\n")

    def test_missing_data_section(self):
        with pytest.raises(KeelParseError, match="missing @data"):
            parse_keel_text("@relation x\n@attribute Class {negative, positive}\n")

    def test_text_before_data_section(self):
        with pytest.raises(KeelParseError, match="expected a directive"):
            parse_keel_text("@relation x\n1.0, 2.0\n@data\n")

    def test_output_must_be_binary_categorical(self):
        with pytest.raises(KeelParseError, match="exactly two values"):
            parse_keel_text("@relation x\n"
                            "@attribute V real\n"
                            "@attribute Class {a, b, c}\n"
                            "@data\n1.0, a\n")
        with pytest.raises(KeelParseError, match="exactly two values"):
            parse_keel_text("@relation x\n"
                            "@attribute V real\n"
                            "@attribute Y real\n"
                            "@data\n1.0, 2.0\n")

    def test_duplicate_attribute_names(self):
        with pytest.raises(KeelParseError, match="duplicate"):
            parse_keel_text("@relation x\n"
                            "@attribute V real\n"
                            "@attribute V real\n"
                            "@attribute Class {negative, positive}\n"
                            "@data\n1, 2, negative\n")

    def test_undeclared_input_reference(self):
        with pytest.raises(KeelParseError, match="undeclared.*'W'"):
            parse_keel_text("@relation x\n"
                            "@attribute V real\n"
                            "@attribute Class {negative, positive}\n"
                            "@inputs W\n"
                            "@outputs Class\n"
                            "@data\n1, negative\n")

    @pytest.mark.parametrize("inputs, message", [
        ("V, Class", "@inputs names the output attribute 'Class'"),
        ("V, V", "@inputs names an attribute twice"),
    ])
    def test_inputs_must_name_each_feature_once(self, inputs, message):
        with pytest.raises(KeelParseError, match=f"^fold.dat:4: {message}"):
            parse_keel_text("@relation x\n"
                            "@attribute V real\n"
                            "@attribute Class {negative, positive}\n"
                            f"@inputs {inputs}\n"
                            "@outputs Class\n"
                            "@data\n1, negative\n", source="fold.dat")

    @pytest.mark.parametrize("header, line, message", [
        ("@attribute C {a, b\n" + CLASS, 2, "unterminated categorical domain"),
        ("@attribute C {a, , b}\n" + CLASS, 2, "empty categorical value"),
        ("@attribute {a, b}\n" + CLASS, 2, "attribute needs a name"),
        ("@attribute V\n" + CLASS, 2, "attribute needs a type: 'V'"),
        ("@attribute V complex\n" + CLASS, 2,
         "unknown attribute type 'complex'"),
        ("", 1, "no attributes declared"),
        ("@attribute V real\n" + CLASS + "@outputs V, Class\n", 4,
         "expected exactly one output attribute, got 2"),
        ("@attribute V real\n@attribute V integer\n" + CLASS, 3,
         "duplicate attribute name 'V'"),
        ("@attribute V real\n" + CLASS + "@inputs V, z\n@outputs Class\n", 4,
         "undeclared attribute 'z' referenced"),
        ("@attribute V real\n" + CLASS + "@inputs V\n@outputs z\n", 5,
         "undeclared attribute 'z' referenced"),
        (CLASS, 2, "no input attribute declared"),
        (CLASS + "@inputs\n@outputs Class\n", 3, "no input attribute declared"),
    ], ids=["unterminated-domain", "empty-value", "no-name", "no-type",
            "unknown-type", "no-attributes", "two-outputs", "duplicate",
            "undeclared-input", "undeclared-output", "only-output",
            "empty-inputs"])
    def test_malformed_header_rejected(self, header, line, message):
        with pytest.raises(KeelParseError,
                           match=rf"^f\.dat:{line}: {re.escape(message)}$"):
            parse_keel_text(f"@relation r\n{header}@data\n", source="f.dat")

    def test_parse_from_file_names_path(self, tmp_path):
        bad = tmp_path / "broken.dat"
        bad.write_text(MINIMAL + "oops\n")
        with pytest.raises(KeelParseError, match="broken.dat:11"):
            parse_keel(bad)

    @pytest.mark.parametrize("read", [parse_keel, read_shape])
    @pytest.mark.parametrize("line, byte, reason", [
        (1, b"\xff", "invalid start byte"),
        (9, b"\xe9", "invalid continuation byte"),
        (11, b"\xc3", "unexpected end of data"),
    ])
    def test_bad_byte_names_path_and_line(self, tmp_path, read, line, byte,
                                          reason):
        # the byte ends the line, or the file when there is no next line
        lines = MINIMAL.encode().split(b"\n")
        lines[line - 1] += byte
        bad = tmp_path / "broken.dat"
        bad.write_bytes(b"\n".join(lines))
        with pytest.raises(KeelParseError) as info:
            read(bad)
        assert (info.value.source, info.value.line_no) == (str(bad), line)
        assert info.value.message == (f"byte {byte[0]:#04x} is not UTF-8 "
                                      f"({reason})")

    def test_file_is_utf8_with_any_line_ending(self, tmp_path):
        path = tmp_path / "café.dat"
        expected = parse_keel_text(MINIMAL.replace("tiny", "café"),
                                   source=str(path))
        for newline in ("\n", "\r\n", "\r"):
            text = MINIMAL.replace("tiny", "café").replace("\n", newline)
            path.write_bytes(text.encode("utf-8"))
            assert parse_keel(path) == expected
            assert read_shape(path) == (3, 2)
            # the line of a missing @data counts the file's line breaks
            path.write_bytes(text.split("@data")[0].encode("utf-8"))
            with pytest.raises(KeelParseError, match=r"café\.dat:7: missing"):
                parse_keel(path)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # as editors that save "UTF-8 with BOM" write it; a bad byte keeps
        # its line and byte, here the byte right after a line break
        path = tmp_path / "bom.dat"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
        assert parse_keel(path) == parse_keel_text(MINIMAL, source=str(path))
        assert read_shape(path) == (3, 2)
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.replace(
            "@data\n", "@data\n\udcff").encode("utf-8", "surrogateescape"))
        for read in parse_keel, read_shape:
            with pytest.raises(KeelParseError) as info:
                read(path)
            assert (info.value.line_no, info.value.message) == (
                8, "byte 0xff is not UTF-8 (invalid start byte)")


class TestPreprocessor:
    def test_scale_is_255_over_max_abs(self):
        train = numeric_dataset([-2, 4])
        prep = Preprocessor.fit(train)
        x, y = prep.transform(train)
        assert x[:, 0].tolist() == [-127.5, 255.0]
        assert not y.any()

    def test_degenerate_all_zero_column(self):
        train = numeric_dataset([0, 0, 0])
        x, _ = Preprocessor.fit(train).transform(train)
        assert x[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_test_rows_are_not_clipped(self):
        train = numeric_dataset([-2, 4])
        test = numeric_dataset([8])
        x, _ = Preprocessor.fit(train).transform(test)
        assert x[0, 0] == 510.0

    @pytest.mark.parametrize("train, test", [
        (["1e-320", "0.0"], ["1e-320", "0.0"]),   # scale 255 / 1e-320 = inf
        (["1", "-2"], ["1e308"]),                  # 127.5 * 1e308 overflows
    ], ids=["subnormal-peak", "test-overflow"])
    def test_unscalable_column_names_its_attribute(self, train, test):
        prep = Preprocessor.fit(numeric_dataset(train))
        with pytest.raises(ValueError, match="^attribute 'V' does not scale "
                                             "to finite values by "):
            prep.transform(numeric_dataset(test))

    def test_one_hot_over_declared_domain(self):
        text = ("@relation c\n"
                "@attribute Color {a, b, c}\n"
                "@attribute Class {negative, positive}\n"
                "@data\nb, negative\n")
        data = parse_keel_text(text)
        prep = Preprocessor.fit(data)
        x, _ = prep.transform(data)
        assert prep.width == 3
        assert x[0].tolist() == [0.0, 1.0, 0.0]

    def test_mixed_numeric_and_categorical_row(self):
        text = ("@relation mix\n"
                "@attribute V real\n"
                "@attribute Color {a, b, c}\n"
                "@attribute Class {negative, positive}\n"
                "@data\n"
                "-2, a, negative\n"
                "4, b, positive\n")
        data = parse_keel_text(text)
        prep = Preprocessor.fit(data)
        x, y = prep.transform(data)
        assert x[1].tolist() == [255.0, 0.0, 1.0, 0.0]
        assert y.tolist() == [False, True]
        assert prep.columns == (("V", None), ("Color", "a"), ("Color", "b"),
                                ("Color", "c"))

    def test_one_hot_blocks_sum_to_one(self):
        rng = np.random.default_rng(3)
        values = rng.choice(["a", "b", "c"], size=12)
        rows = "\n".join(f"{v}, negative" for v in values)
        data = parse_keel_text("@relation c\n"
                               "@attribute Color {a, b, c}\n"
                               "@attribute Class {negative, positive}\n"
                               "@data\n" + rows + "\n")
        x, _ = Preprocessor.fit(data).transform(data)
        assert np.array_equal(x.sum(axis=1), np.ones(12))

    def test_round_trip_max_abs_is_255(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            values = rng.normal(scale=rng.uniform(0.01, 90.0), size=8)
            values[0] = -np.abs(values).max() * 1.5  # pin a negative peak
            train = numeric_dataset([repr(float(v)) for v in values])
            x, _ = Preprocessor.fit(train).transform(train)
            assert np.abs(x[:, 0]).max() == pytest.approx(255.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dataset_text_round_trip(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        p = data.draw(st.integers(1, 5), label="p")
        values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n * p,
                                    max_size=n * p), label="values")
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                          label="flags")
        samples = np.reshape(values, (n, p))
        parsed = parse_keel_text(dataset_text(samples, flags))
        x, y = Preprocessor.fit(parsed).transform(parsed)
        assert x.shape == (n, p)
        assert np.isfinite(x).all()
        assert y.tolist() == flags
        # each column is the written values scaled to a max-abs of 255
        written = np.array([[float(f"{v:.6f}") for v in row] for row in samples])
        for col, raw in zip(x.T, written.T):
            peak = np.abs(raw).max()
            scale = 255.0 / peak if peak > 0 else 1.0
            assert col == pytest.approx(raw * scale, rel=1e-12, abs=1e-12)

    def test_labels_matched_case_insensitively(self):
        text = ("@relation caps\n"
                "@attribute V real\n"
                "@attribute Class {Negative, Positive}\n"
                "@data\n"
                "1, Negative\n"
                "2, Positive\n")
        data = parse_keel_text(text)
        _, y = Preprocessor.fit(data).transform(data)
        assert y.tolist() == [False, True]

    def test_unmappable_labels_rejected(self):
        text = ("@relation odd\n"
                "@attribute V real\n"
                "@attribute Class {yes, no}\n"
                "@data\n1, yes\n")
        with pytest.raises(KeelParseError,
                           match=r"odd\.dat:3:.*'Class'.*'yes', 'no'"):
            parse_keel_text(text, source="odd.dat")

    def test_declaration_mismatch_rejected(self):
        train = numeric_dataset([1, 2])
        other = parse_keel_text("@relation o\n"
                                "@attribute W real\n"
                                "@attribute Class {negative, positive}\n"
                                "@data\n1, negative\n")
        with pytest.raises(ValueError, match="do not match"):
            Preprocessor.fit(train).transform(other)

    def test_empty_training_data_rejected(self):
        empty = parse_keel_text("@relation e\n"
                                "@attribute V real\n"
                                "@attribute Class {negative, positive}\n"
                                "@data\n")
        with pytest.raises(ValueError, match="empty"):
            Preprocessor.fit(empty)

    def test_empty_test_data_encodes_to_no_rows(self):
        header = ("@relation e\n@attribute V real\n@attribute C {a, b}\n"
                  "@attribute Class {negative, positive}\n@data\n")
        prep = Preprocessor.fit(parse_keel_text(header + "2, b, negative\n"))
        x, y = prep.transform(parse_keel_text(header))
        assert (x.shape, x.dtype, y.shape, y.dtype) == ((0, 3), np.float64,
                                                        (0,), np.bool_)


class TestStripOutliers:
    def test_positives_removed(self):
        data = parse_keel_text(MINIMAL)
        stripped = strip_outliers_from_train(data)
        assert stripped.n == 2
        assert all(row[-1] == "negative" for row in stripped.rows)
        assert stripped.declarations() == data.declarations()

    def test_all_negative_unchanged(self):
        data = numeric_dataset([1, 2, 3])
        assert strip_outliers_from_train(data).rows == data.rows

    def test_all_positive_rejected(self):
        data = numeric_dataset([1, 2], label="positive")
        with pytest.raises(ValueError, match="no normal rows"):
            strip_outliers_from_train(data)


class TestFoldDiscovery:
    def test_fold_file_names(self):
        assert fold_file_names("iris0", 3) == ("iris0-5-3tra.dat",
                                               "iris0-5-3tst.dat")

    def test_fold_paths(self, tmp_path):
        pairs = list(fold_paths(tmp_path, "iris0"))
        assert pairs == [(tmp_path / f"iris0-5-{k}tra.dat",
                          tmp_path / f"iris0-5-{k}tst.dat")
                         for k in range(1, 6)]

    def test_read_shape_counts_rows_and_one_hot_columns(self, tmp_path):
        path = tmp_path / "s.dat"
        path.write_text("@relation s\n"
                        "@attribute X1 real [0, 9]\n"
                        "@attribute C {a, b, c, d}\n"
                        "@attribute Class {negative, positive}\n"
                        "@inputs X1, C\n@outputs Class\n"
                        "@DATA\n1, a, negative\n\n2, d, positive\n"
                        "3, c, negative\n")
        assert read_shape(path) == (3, 5)
        assert parse_keel(path).encoded_width == 5
        # rows are counted, not validated
        path.write_text(path.read_text() + "junk\n")
        assert read_shape(path) == (4, 5)

    def test_read_shape_rejects_a_bad_header(self, tmp_path):
        path = tmp_path / "s.dat"
        path.write_text("@relation s\n@attribute X1 real\n1, negative\n")
        with pytest.raises(KeelParseError, match=r"s\.dat:3"):
            read_shape(path)
        path.write_text("@relation s\n@attribute X1 real\n@data\n")
        with pytest.raises(KeelParseError, match="output attribute"):
            read_shape(path)

    def test_complete_dataset(self, tmp_path):
        write_dataset(tmp_path, "synth")
        folds = discover_folds(tmp_path, "synth")
        assert [f.fold_index for f in folds] == [1, 2, 3, 4, 5]
        for fold in folds:
            assert fold.train.declarations() == fold.test.declarations()

    def test_missing_file_listed(self, tmp_path):
        write_dataset(tmp_path, "synth")
        (tmp_path / "synth-5-3tst.dat").unlink()
        with pytest.raises(FileNotFoundError, match=r"synth-5-3tst\.dat"):
            discover_folds(tmp_path, "synth")

    def test_mismatched_pair_rejected(self, tmp_path):
        write_dataset(tmp_path, "synth")
        (tmp_path / "synth-5-2tst.dat").write_text(
            "@relation synth\n"
            "@attribute Other real\n"
            "@attribute Class {negative, positive}\n"
            "@data\n1, negative\n")
        with pytest.raises(ValueError, match="fold 2"):
            discover_folds(tmp_path, "synth")

    def test_find_datasets_recurses_and_sorts(self, tmp_path):
        write_dataset(tmp_path / "b_nested" / "deep", "beta")
        write_dataset(tmp_path / "a_nested", "alpha")
        (tmp_path / "README.txt").write_text("not a dataset\n")
        found = find_datasets(tmp_path)
        assert [name for name, _ in found] == ["alpha", "beta"]
        assert found[1][1] == tmp_path / "b_nested" / "deep"

    def test_find_datasets_rejects_a_name_in_two_directories(self,
                                                              tmp_path):
        write_dataset(tmp_path / "dup" / "a", "glass1")
        write_dataset(tmp_path / "dup" / "b", "glass1")
        write_dataset(tmp_path / "dup" / "c", "iris0")
        with pytest.raises(ValueError) as error:
            find_datasets(tmp_path)
        assert str(error.value) == (
            f"dataset 'glass1' is in two directories: {tmp_path / 'dup' / 'a'}"
            f" and {tmp_path / 'dup' / 'b'}")

    def test_find_datasets_empty(self, tmp_path):
        assert find_datasets(tmp_path) == []

    def test_find_datasets_needs_a_directory(self, tmp_path):
        (tmp_path / "file").write_text("not a directory\n")
        for root in (tmp_path / "missing", tmp_path / "file"):
            with pytest.raises(NotADirectoryError) as error:
                find_datasets(root)
            assert str(error.value) == f"{root}: no such directory"

    def test_find_datasets_follows_a_linked_directory(self, tmp_path):
        # Path.rglob on Python 3.11 does not enter a symlinked directory
        write_dataset(tmp_path / "archive" / "glass1", "glass1")
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "glass1").symlink_to(tmp_path / "archive"
                                                  / "glass1")
        assert find_datasets(tmp_path / "data") == [
            ("glass1", tmp_path / "data" / "glass1")]

    def test_find_datasets_ends_a_link_loop_counting_a_dataset_once(
            self, tmp_path):
        # a/loop leads back to the root, and b is a second route to a
        write_dataset(tmp_path / "a", "glass1")
        (tmp_path / "a" / "loop").symlink_to(tmp_path)
        (tmp_path / "b").symlink_to(tmp_path / "a")
        assert find_datasets(tmp_path) == [("glass1", tmp_path / "a")]
