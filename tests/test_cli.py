"""End-to-end command-line behavior on synthetic fold files."""

import concurrent.futures
import csv
import shutil
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qms22 import cli, keel, ssad
from qms22.cli import build_parser, main
from qms22.keel import discover_folds, fold_paths

from synthdata import (FAST_FLAGS, dataset_text, write_dataset,
                       write_fold_pair)

REFERENCE_CSV = Path(__file__).parent / "data" / "reference_results.csv"


def fold_pair_files(tmp_path, seed=3):
    rng = np.random.default_rng(seed)
    return write_fold_pair(tmp_path, "synth", 1, rng)


def read_csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def make_results_csv(path, aucs):
    with open(path, "w") as f:
        f.write("dataset,auc\n")
        for name, value in aucs.items():
            f.write(f"{name},{value!r}\n")
    return path


def write_one_hot_dataset(directory, name, values, n_train):
    """Five folds of one real input and one categorical input with
    `values` declared values; two outliers in every file."""
    rng = np.random.default_rng(0)
    domain = ", ".join(f"v{i}" for i in range(values))
    header = [f"@relation {name}", "@attribute X1 real [0, 10]",
              f"@attribute C1 {{{domain}}}",
              "@attribute Class {negative, positive}",
              "@inputs X1, C1", "@outputs Class", "@data"]
    for train_path, test_path in fold_paths(directory, name):
        for path, n in ((train_path, n_train), (test_path, n_train // 2)):
            rows = [f"{rng.uniform(0, 1):.3f}, v{rng.integers(values)}, "
                    f"negative" for _ in range(n)]
            rows += [f"{rng.uniform(8, 9):.3f}, v{rng.integers(values)}, "
                     f"positive" for _ in range(2)]
            path.write_text("\n".join(header + rows) + "\n")


def stable_part(path):
    """A bench CSV's rows without the `seconds` column."""
    return [(r["dataset"], r["fold"], r["auc"], r["n"], r["p"])
            for r in read_csv_rows(path)]


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the bench process pool with one that runs each task when it
    is submitted, so no process starts. Returns the pool sizes asked for
    and the dataset names in submission order. Nothing is pickled, so a
    task or an error that cannot cross a process boundary passes here:
    error-path tests use the real pool."""
    record = {"sizes": [], "submitted": []}

    class InlinePool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            record["submitted"].append(task[0])
            future = Future()
            try:
                future.set_result(fn(task))
            except Exception as exc:
                future.set_exception(exc)
            return future

    # cmd_bench imports the pool class from here when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return record


@pytest.mark.parametrize("command", [
    ["run", "--out", "{missing}/roc.csv"],
    ["run", "--out", "{tmp}/roc.csv", "--svg", "{missing}/roc.svg"],
    ["bench", "--out", "{missing}/bench.csv"],
], ids=["run-out", "run-svg", "bench-out"])
def test_missing_output_directory_fails_before_training(tmp_path, capsys,
                                                        monkeypatch, command):
    def fail(*args):
        raise AssertionError("parsed input before checking the output")

    # the commands import these from keel when they run
    monkeypatch.setattr(keel, "parse_keel", fail)
    monkeypatch.setattr(keel, "find_datasets", fail)
    tra, tst = fold_pair_files(tmp_path)
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing, tmp=tmp_path) for arg in command]
    inputs = (["--train", str(tra), "--test", str(tst)] if argv[0] == "run"
              else ["--data-dir", str(tmp_path)])
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + inputs + FAST_FLAGS) == 1
    err = capsys.readouterr().err
    assert f"{missing}/" in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", [
    ["run", "--out", "{taken}"],
    ["run", "--out", "{tmp}/roc.csv", "--svg", "{taken}"],
    ["bench", "--out", "{taken}"],
    ["summary", "{tmp}/results.csv", "--out", "{taken}"],
], ids=["run-out", "run-svg", "bench-out", "summary-out"])
def test_directory_as_output_file_fails_before_reading(tmp_path, capsys,
                                                       monkeypatch, command):
    def fail(*args):
        raise AssertionError("read input before checking the output")

    for module, name in ((keel, "parse_keel"), (keel, "find_datasets"),
                         (cli, "_read_representative_aucs")):
        monkeypatch.setattr(module, name, fail)
    tra, tst = fold_pair_files(tmp_path)
    make_results_csv(tmp_path / "results.csv", {"a": 0.5})
    taken = tmp_path / "taken"
    taken.mkdir()
    argv = [arg.format(taken=taken, tmp=tmp_path) for arg in command]
    inputs = {"run": ["--train", str(tra), "--test", str(tst), *FAST_FLAGS],
              "bench": ["--data-dir", str(tmp_path), *FAST_FLAGS],
              "summary": []}[argv[0]]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + inputs) == 1
    err = capsys.readouterr().err
    assert f"output file {taken} is a directory" in err
    assert sorted(tmp_path.rglob("*")) == before


class TestRun:
    def test_writes_roc_csv_and_prints_auc(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        out = tmp_path / "roc.csv"
        code = main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), *FAST_FLAGS])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("AUC ")
        value = float(printed.split()[1])
        assert 0.0 <= value <= 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1] == "inf,0.0,0.0"
        assert lines[-1].endswith(",1.0,1.0")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (first, second):
            assert main(["run", "--train", str(tra), "--test", str(tst),
                         "--out", str(out), *FAST_FLAGS]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_iterations_means_chance_auc(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        out = tmp_path / "roc.csv"
        code = main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), "--iterations", "0"])
        assert code == 0
        assert capsys.readouterr().out == "AUC 0.5\n"
        rows = read_csv_rows(out)
        assert len(rows) == 2  # one tied threshold step after (0,0)

    def test_svg_artifact(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        svg = tmp_path / "roc.svg"
        assert main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(tmp_path / "roc.csv"), "--svg", str(svg),
                     *FAST_FLAGS]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "AUC" in text

    def test_mismatched_files_fail(self, tmp_path, capsys):
        tra, _ = fold_pair_files(tmp_path)
        rng = np.random.default_rng(1)
        wider = tmp_path / "wider.dat"
        wider.write_text(dataset_text(rng.normal(size=(6, 3)),
                                      [False] * 5 + [True]))
        code = main(["run", "--train", str(tra), "--test", str(wider),
                     "--out", str(tmp_path / "roc.csv"), *FAST_FLAGS])
        assert code == 1
        assert "declare different attributes" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["run", "--train", str(tmp_path / "nope.dat"),
                     "--test", str(tmp_path / "nope.dat"),
                     "--out", str(tmp_path / "roc.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_hyperparameter_reported_before_missing_file(self, tmp_path,
                                                             capsys):
        code = main(["run", "--train", str(tmp_path / "nope.dat"),
                     "--test", str(tmp_path / "nope.dat"),
                     "--out", str(tmp_path / "roc.csv"), "--alpha", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "alpha must be in [0, 1)" in err
        assert "nope.dat" not in err

    def test_two_member_functions_fail(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        out = tmp_path / "roc.csv"
        # the detector's m rule comes before any input is read, so a
        # missing --train file goes unmentioned
        for train in (tra, tmp_path / "nope.dat"):
            code = main(["run", "--train", str(train), "--test", str(tst),
                         "--out", str(out), *FAST_FLAGS, "--m", "2"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: m must be >= 3 for the detector, "
                                  "got 2")
            assert "nope.dat" not in err
            assert not out.exists()

    def test_non_finite_step_fails(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        out = tmp_path / "roc.csv"
        code = main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), "--step-a", "nan"])
        assert code == 1
        assert "step_a must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unscalable_column_fails_naming_it(self, tmp_path, capsys):
        # a training peak of 1e-320 would scale X2 by 255 / 1e-320 = inf
        header = ("@relation tiny\n@attribute X1 real\n@attribute X2 real\n"
                  "@attribute Class {negative, positive}\n@data\n")
        rows = "".join(f"{i}, {'1e-320' if i % 2 else '0.0'}, negative\n"
                       for i in range(8))
        tra, tst = tmp_path / "tiny-tra.dat", tmp_path / "tiny-tst.dat"
        tra.write_text(header + rows)
        tst.write_text(header + "1, 0.0, negative\n9, 1e-320, positive\n")
        out = tmp_path / "roc.csv"
        code = main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), *FAST_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == ("error: attribute 'X2' does not "
                                           "scale to finite values by inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("outliers, normals", [(0, 12), (3, 0)],
                             ids=["no-outlier", "no-normal"])
    def test_test_file_without_both_classes_fails_before_training(
            self, tmp_path, capsys, monkeypatch, outliers, normals):
        def fail(*args):
            raise AssertionError("trained a fold that cannot be scored")

        monkeypatch.setattr(ssad, "cpm_optimize_many", fail)
        tra, tst = write_fold_pair(tmp_path, "synth", 1,
                                   np.random.default_rng(3), n_test=normals,
                                   n_outliers=outliers)
        out = tmp_path / "roc.csv"
        assert main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), *FAST_FLAGS]) == 1
        assert capsys.readouterr().err == (
            f"error: {tst}: a ROC needs at least one outlier ('positive') "
            f"and one normal ('negative') test row, got {outliers} and "
            f"{normals}\n")
        assert not out.exists()

    def test_bad_byte_fails_naming_file_and_line(self, tmp_path, capsys):
        tra, tst = fold_pair_files(tmp_path)
        lines = tst.read_bytes().split(b"\n")
        lines[8] += b"\xff"
        tst.write_bytes(b"\n".join(lines))
        out = tmp_path / "roc.csv"
        assert main(["run", "--train", str(tra), "--test", str(tst),
                     "--out", str(out), *FAST_FLAGS]) == 1
        assert capsys.readouterr().err == (
            f"error: {tst}:9: byte 0xff is not UTF-8 (invalid start byte)\n")
        assert not out.exists()


class TestBench:
    def test_single_dataset_six_sorted_rows(self, tmp_path, capsys):
        data_dir = write_dataset(tmp_path / "data", "synth")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["fold"] for r in rows] == ["1", "2", "3", "4", "5", "avg"]
        fold_aucs = [float(r["auc"]) for r in rows[:5]]
        assert rows[5]["auc"] == repr(float(np.mean(fold_aucs)))
        # n = train rows + test rows before stripping; p = raw inputs
        assert all(r["n"] == "41" and r["p"] == "2" for r in rows)
        assert float(rows[5]["seconds"]) == pytest.approx(
            sum(float(r["seconds"]) for r in rows[:5]), abs=5e-3)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_avg_has_the_bits_of_np_mean(self, aucs):
        # the avg row's mean of a dataset's five fold AUCs, as
        # _bench_dataset takes it without numpy
        assert sum(aucs) / len(aucs) == float(np.mean(aucs))

    def test_datasets_sorted_by_name(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "beta", seed=1)
        write_dataset(data_dir, "alpha", seed=2)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS]) == 0
        names = [r["dataset"] for r in read_csv_rows(out)]
        assert names == ["alpha"] * 6 + ["beta"] * 6

    def test_parallel_matches_serial(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "one", seed=4)
        write_dataset(data_dir, "two", seed=5)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(["bench", "--data-dir", str(data_dir),
                     "--out", str(serial), "--workers", "1", *FAST_FLAGS]) == 0
        assert main(["bench", "--data-dir", str(data_dir),
                     "--out", str(parallel), "--workers", "2", *FAST_FLAGS]) == 0

        assert stable_part(serial) == stable_part(parallel)

    def test_fold_aucs_equal_score_fold(self, tmp_path, capsys):
        # folds of unequal size, and fold 3 one feature wider, so the
        # bench trains the other folds padded to its width
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rng = np.random.default_rng(12)
        for k in (1, 2, 4, 5):
            write_fold_pair(data_dir, "synth", k, rng, n_train=16 + 3 * k,
                            n_test=8 + k)
        for name, n in (("synth-5-3tra.dat", 20), ("synth-5-3tst.dat", 12)):
            flags = [False] * (n - 3) + [True] * 3
            samples = rng.normal(size=(n, 3)) + 9.0 * np.array(flags)[:, None]
            (data_dir / name).write_text(dataset_text(samples, flags, "synth"))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS]) == 0
        rows = read_csv_rows(out)
        hp = cli._hyper_from_args(build_parser().parse_args(
            ["run", "--train", "a", "--test", "b", *FAST_FLAGS]))
        folds = discover_folds(data_dir, "synth")
        assert [r["fold"] for r in rows] == ["1", "2", "3", "4", "5", "avg"]
        for fold, row in zip(folds, rows):
            auc, n, p = cli._score_fold(fold, hp)
            assert row["auc"] == repr(auc)
            assert (row["n"], row["p"]) == (str(n), str(p))
        assert rows[2]["p"] == "3" and rows[0]["p"] == "2"
        # a fold row holds the dataset's seconds over its folds
        assert len({r["seconds"] for r in rows[:5]}) == 1

    def test_pool_no_larger_than_the_dataset_count(self, tmp_path, capsys,
                                                   monkeypatch, inline_pool):
        sizes = inline_pool["sizes"]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "one", seed=4)
        write_dataset(data_dir, "two", seed=5)
        out = tmp_path / "bench.csv"
        for workers in (["--workers", "8"], [], ["--workers", "2"]):
            assert main(["bench", "--data-dir", str(data_dir),
                         "--out", str(out), *workers, *FAST_FLAGS]) == 0
        assert sizes == [2, 2, 2]
        # one worker is a pool of one
        assert main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS]) == 0
        assert sizes == [2, 2, 2, 1]
        write_dataset(tmp_path / "lone", "lone", seed=6)
        assert main(["bench", "--data-dir", str(tmp_path / "lone"),
                     "--out", str(out), "--workers", "8", *FAST_FLAGS]) == 0
        assert sizes == [2, 2, 2, 1, 1]

    def test_default_workers_are_the_cpus_this_process_may_use(
            self, tmp_path, capsys, monkeypatch, inline_pool):
        sizes = inline_pool["sizes"]
        data_dir = tmp_path / "data"
        for i, name in enumerate(("one", "two", "three")):
            write_dataset(data_dir, name, seed=4 + i)
        out = tmp_path / "bench.csv"
        bench = ["bench", "--data-dir", str(data_dir), "--out", str(out),
                 *FAST_FLAGS]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        # pinned to fewer CPUs than the host has, as by taskset or a cpuset
        for allowed, pool in (({5}, [1]), ({0, 3}, [1, 2])):
            monkeypatch.setattr(cli.os, "sched_getaffinity",
                                lambda pid: allowed, raising=False)
            assert main(bench) == 0
            assert sizes == pool
        # where the platform has no affinity call, the host's CPU count
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert main(bench) == 0
        assert sizes == [1, 2, 3]

    def test_pool_gets_the_costliest_datasets_first(self, tmp_path, capsys,
                                                    inline_pool):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "aaa", seed=1)
        write_dataset(data_dir, "big", seed=2, n_train=60)
        write_dataset(data_dir, "mid", seed=3, n_train=40)
        # few rows but a 40-valued categorical input: width 41, so the
        # costliest set although its files are smaller than big's
        write_one_hot_dataset(data_dir, "wide", values=40, n_train=12)
        # ranked by its training files, then reported by its worker
        write_dataset(data_dir, "broken", seed=4, n_train=90)
        (data_dir / "broken-5-3tst.dat").unlink()
        # the same cost as "aaa": the tie goes by name
        for path in sorted(data_dir.glob("aaa-5-*.dat")):
            shutil.copy(path, data_dir / path.name.replace("aaa", "zzz"))
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(["bench", "--data-dir", str(data_dir),
                     "--out", str(serial), "--workers", "1", *FAST_FLAGS]) == 0
        serial_err = capsys.readouterr().err
        assert main(["bench", "--data-dir", str(data_dir),
                     "--out", str(parallel), "--workers", "2",
                     *FAST_FLAGS]) == 0
        captured = capsys.readouterr()

        def fold_bytes(name):
            return sum(path.stat().st_size
                       for path in data_dir.glob(f"{name}-5-*.dat"))

        # rows x (width + 1) over five training files: 14·42, 92·3, 62·3,
        # 42·3 and 26·3 per fold; one worker or two, the same order
        order = ["wide", "broken", "big", "mid", "aaa", "zzz"]
        assert inline_pool["submitted"] == order * 2
        assert inline_pool["sizes"] == [1, 2]
        assert fold_bytes("wide") < fold_bytes("big")
        assert stable_part(parallel) == stable_part(serial)
        names = [row[0] for row in stable_part(parallel)]
        assert names == [name for name in ("aaa", "big", "mid", "wide",
                                           "zzz") for _ in range(6)]
        errors = captured.err.splitlines()
        assert errors == serial_err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: broken: missing fold files")
        assert errors[0].endswith("broken-5-3tst.dat")
        assert "(30 rows, 1 failures)" in captured.out

    def test_malformed_row_fails_only_its_dataset(self, tmp_path, capsys):
        self.check_one_bad_row(tmp_path, capsys, b"1.0, negative",
                               "row has 2 values, expected 3")

    def test_bad_byte_fails_only_its_dataset(self, tmp_path, capsys):
        self.check_one_bad_row(tmp_path, capsys, b"1.0, 2.0, neg\xffative",
                               "byte 0xff is not UTF-8 (invalid start byte)")

    @staticmethod
    def check_one_bad_row(tmp_path, capsys, row, message):
        # the real pool, so the worker's parse error crosses a process
        # boundary; one worker and two report it alike
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "good", seed=1)
        write_dataset(data_dir, "fine", seed=2)
        write_dataset(data_dir, "bad", seed=3)
        bad_file = data_dir / "bad-5-2tra.dat"
        lines = bad_file.read_bytes().splitlines()
        lines[9] = row
        bad_file.write_bytes(b"\n".join(lines) + b"\n")
        outputs = {}
        for workers in ("2", "1"):
            out = tmp_path / f"bench-{workers}.csv"
            assert main(["bench", "--data-dir", str(data_dir),
                         "--out", str(out), "--workers", workers,
                         *FAST_FLAGS]) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error: bad: {bad_file}:10: {message}"]
            assert "(12 rows, 1 failures)" in captured.out
            outputs[workers] = stable_part(out)
        assert [row[0] for row in outputs["2"]] == ["fine"] * 6 + ["good"] * 6
        assert outputs["2"] == outputs["1"]

    def test_training_cost_counts_unreadable_files_as_zero(self, tmp_path):
        write_dataset(tmp_path, "s", n_train=10)
        assert cli._training_cost(("s", tmp_path, None)) == 5 * 12 * 3
        (tmp_path / "s-5-2tra.dat").write_text("@relation s\nno header\n")
        (tmp_path / "s-5-4tra.dat").unlink()
        assert cli._training_cost(("s", tmp_path, None)) == 3 * 12 * 3
        (tmp_path / "s-5-5tra.dat").write_bytes(b"@relation \xff\n")
        assert cli._training_cost(("s", tmp_path, None)) == 2 * 12 * 3
        assert cli._training_cost(("gone", tmp_path, None)) == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--data-dir", str(tmp_path),
                  "--out", str(tmp_path / "bench.csv"), "--workers", workers])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["bench", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "bench.csv")])
        assert code == 1
        assert "no datasets found" in capsys.readouterr().err

    def test_data_dir_that_is_not_a_directory(self, tmp_path, capsys):
        (tmp_path / "file").write_text("not a directory\n")
        for root in (tmp_path / "missing", tmp_path / "file"):
            code = main(["bench", "--data-dir", str(root),
                         "--out", str(tmp_path / "bench.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: {root}: no such directory\n")
        assert not (tmp_path / "bench.csv").exists()

    def test_broken_dataset_skipped(self, tmp_path, capsys):
        data_dir = write_dataset(tmp_path / "data", "good")
        # fold-1 train file alone makes "bad" discoverable but unloadable
        rng = np.random.default_rng(0)
        write_fold_pair(data_dir, "bad", 1, rng)
        (data_dir / "bad-5-1tst.dat").unlink()
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS])
        assert code == 0
        assert "bad" in capsys.readouterr().err
        assert {r["dataset"] for r in read_csv_rows(out)} == {"good"}

    def test_two_member_functions_fail_once_before_any_dataset(
            self, tmp_path, capsys):
        write_dataset(tmp_path / "data" / "a", "alpha", seed=1)
        write_dataset(tmp_path / "data" / "b", "beta", seed=2)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data-dir", str(tmp_path / "data"),
                     "--out", str(out), "--workers", "1", *FAST_FLAGS,
                     "--m", "2"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: m must be >= 3 for the detector, got 2")
        assert not out.exists()

    def test_fold_without_an_outlier_fails_its_dataset_before_training(
            self, tmp_path, capsys, monkeypatch, inline_pool):
        # every fold of "good" trains; "bad" fails at fold 4's test file
        # without training any of its folds
        data_dir = tmp_path / "data"
        write_dataset(data_dir, "good", seed=1)
        write_dataset(data_dir, "bad", seed=2, folds=(1, 2, 3, 5))
        write_fold_pair(data_dir, "bad", 4, np.random.default_rng(4),
                        n_outliers=0)
        trained = []
        train = ssad.cpm_optimize_many

        def record(problems, hp):
            trained.append(len(problems))
            return train(problems, hp)

        monkeypatch.setattr(ssad, "cpm_optimize_many", record)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "error: bad: fold 4: a ROC needs at least one outlier "
            "('positive') and one normal ('negative') test row, got 0 "
            "and 12\n")
        assert "(6 rows, 1 failures)" in captured.out
        assert trained == [5]   # good's five folds, in one call
        assert {r["dataset"] for r in read_csv_rows(out)} == {"good"}

    def test_datasets_behind_linked_directories(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        write_dataset(archive / "alpha", "alpha", seed=1)
        write_dataset(archive / "beta", "beta", seed=2)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name in ("alpha", "beta"):
            (data_dir / name).symlink_to(archive / name)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data-dir", str(data_dir), "--out", str(out),
                     "--workers", "1", *FAST_FLAGS])
        assert code == 0
        rows = read_csv_rows(out)
        assert [(r["dataset"], r["fold"]) for r in rows if r["fold"] == "avg"] \
            == [("alpha", "avg"), ("beta", "avg")]
        assert len(rows) == 12

    def test_all_datasets_broken(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        write_fold_pair(tmp_path, "bad", 1, rng)
        (tmp_path / "bad-5-1tst.dat").unlink()
        code = main(["bench", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "bench.csv"), "--workers", "1"])
        assert code == 1
        assert "all datasets failed" in capsys.readouterr().err


class TestCompare:
    def test_file_against_itself(self, tmp_path, capsys):
        results = make_results_csv(tmp_path / "r.csv",
                                   {"a": 0.9, "b": 0.8, "c": 0.7})
        assert main(["compare", str(results), str(results)]) == 0
        out = capsys.readouterr().out
        assert "r_plus 0.0" in out
        assert "r_minus 0.0" in out
        assert "p_value 1.0" in out
        assert "fail to reject" in out

    def test_uniform_improvement_rejected(self, tmp_path, capsys):
        base = {f"d{i:02d}": 0.5 + i / 100.0 for i in range(30)}
        ours = {name: value + 0.01 for name, value in base.items()}
        a = make_results_csv(tmp_path / "ours.csv", ours)
        b = make_results_csv(tmp_path / "base.csv", base)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "n_effective 30" in out
        assert "r_plus 465.0" in out
        assert "r_minus 0.0" in out
        assert "reject the null hypothesis" in out
        assert "fail to reject" not in out

    def test_only_avg_rows_feed_the_test(self, tmp_path, capsys):
        ours = tmp_path / "ours.csv"
        ours.write_text("dataset,fold,auc,n,p,seconds\n"
                        "a,1,0.1,10,2,0.1\n"
                        "a,avg,0.9,10,2,0.5\n")
        base = make_results_csv(tmp_path / "base.csv", {"a": 0.8})
        assert main(["compare", str(ours), str(base)]) == 0
        out = capsys.readouterr().out
        assert "n_effective 1" in out
        assert "r_plus 1.0" in out

    def test_no_common_datasets(self, tmp_path, capsys):
        a = make_results_csv(tmp_path / "a.csv", {"x": 0.5})
        b = make_results_csv(tmp_path / "b.csv", {"y": 0.5})
        assert main(["compare", str(a), str(b)]) == 1
        assert "share no dataset names" in capsys.readouterr().err

    def test_missing_columns_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,value\nx,0.5\n")
        good = make_results_csv(tmp_path / "good.csv", {"x": 0.5})
        assert main(["compare", str(bad), str(good)]) == 1
        assert "expected 'dataset' and 'auc'" in capsys.readouterr().err


class TestResultsValidation:
    @pytest.mark.parametrize("auc, message", [
        ("", "AUC '' is not a number"),
        ("high", "AUC 'high' is not a number"),
        ("nan", "AUC 'nan' is not finite"),
        ("-inf", "AUC '-inf' is not finite"),
        ("1.7", "AUC 1.7 is outside [0, 1]"),
        ("-0.25", "AUC -0.25 is outside [0, 1]"),
        # "\udcff" is written as the byte 0xff
        pytest.param("0.\udcff5", "byte 0xff is not UTF-8 (invalid start "
                     "byte)", id="bad-byte"),
        pytest.param("0" * 131_073, "field larger than field limit (131072)",
                     id="field-limit"),
    ])
    @pytest.mark.parametrize("command", ["compare", "summary"])
    def test_bad_auc_rejected_with_file_and_line(self, tmp_path, capsys,
                                                 command, auc, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(f"dataset,auc\na,0.5\nb,{auc}\nc,0.75\n".encode(
            "utf-8", "surrogateescape"))
        good = make_results_csv(tmp_path / "good.csv",
                                {"a": 0.6, "b": 0.7, "c": 0.8})
        files = [str(bad), str(good)] if command == "compare" else [str(bad)]
        assert main([command, *files]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:3: {message}\n"
        assert captured.out == ""

    def test_dataset_named_twice_rejected(self, tmp_path, capsys):
        bad = make_results_csv(tmp_path / "bad.csv", {"a": 0.5, "b": 0.6})
        with open(bad, "a") as f:
            f.write("a,0.5\n")
        assert main(["summary", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:4: dataset 'a' is already on line 2\n")

    def test_bench_file_checks_only_its_avg_rows(self, tmp_path, capsys):
        # fold rows repeat the dataset and may hold any AUC; two avg rows
        # for one dataset are an error
        bench = tmp_path / "bench.csv"
        text = ("dataset,fold,auc,n,p,seconds\n"
                "a,1,0.25,10,2,0.1\n"
                "a,2,,10,2,0.1\n"
                "a,avg,0.5,10,2,0.2\n"
                "b,1,0.75,10,2,0.1\n"
                "b,avg,0.75,10,2,0.1\n")
        bench.write_text(text)
        assert main(["summary", str(bench)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(
            "bench,0.5,")
        bench.write_text(text + "a,avg,0.5,10,2,0.2\n")
        assert main(["summary", str(bench)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bench}:7: dataset 'a' is already on line 4\n")


class TestSummary:
    def test_constant_results(self, tmp_path, capsys):
        results = make_results_csv(tmp_path / "flat.csv",
                                   {f"d{i}": 0.8 for i in range(5)})
        assert main(["summary", str(results)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "classifier,min,q1,median,q3,max,mean,std"
        fields = out[1].split(",")
        assert fields[0] == "flat"
        assert fields[1:6] == ["0.8"] * 5
        assert float(fields[6]) == pytest.approx(0.8, abs=1e-12)
        assert fields[7] == "0.0"

    def test_input_order_preserved(self, tmp_path, capsys):
        zeta = make_results_csv(tmp_path / "zeta.csv", {"a": 0.5, "b": 0.7})
        alpha = make_results_csv(tmp_path / "alpha.csv", {"a": 0.6, "b": 0.8})
        assert main(["summary", str(zeta), str(alpha)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["classifier",
                                                          "zeta", "alpha"]

    def test_out_file(self, tmp_path, capsys):
        results = make_results_csv(tmp_path / "r.csv", {"a": 0.25, "b": 0.75})
        out = tmp_path / "summary.csv"
        assert main(["summary", str(results), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[1].startswith("r,0.25,")
        fields = lines[1].split(",")
        assert fields[1:6] == ["0.25", "0.375", "0.5", "0.625", "0.75"]
        assert float(fields[6]) == pytest.approx(0.5)
        assert float(fields[7]) == pytest.approx(np.sqrt(0.125))

    def test_bundled_reference_results(self, capsys):
        assert main(["summary", str(REFERENCE_CSV)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        fields = line.split(",")
        assert fields[0] == "reference_results"
        assert float(fields[6]) == pytest.approx(0.8252, abs=5e-5)
        assert float(fields[7]) == pytest.approx(0.1483, abs=5e-5)

    @pytest.mark.parametrize("command", ["compare", "summary"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys,
                                                command):
        # as Excel's "CSV UTF-8" writes it; a bad byte keeps its line
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbfdataset,auc\na,0.25\nb,0.75\n")
        files = [str(bom)] * (2 if command == "compare" else 1)
        assert main([command, *files]) == 0
        out = capsys.readouterr().out
        assert ("n_effective 0" if command == "compare"
                else "bom,0.25,") in out
        bom.write_bytes(b"\xef\xbb\xbfdataset,auc\na,0.25\n\xff,0.75\n")
        assert main([command, *files]) == 1
        assert capsys.readouterr().err == (
            f"error: {bom}:3: byte 0xff is not UTF-8 (invalid start byte)\n")

    def test_empty_results_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("dataset,auc\n")
        assert main(["summary", str(empty)]) == 1
        assert "no usable result rows" in capsys.readouterr().err


class TestParser:
    def test_defaults_mirror_hyperparameters(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--train", "a", "--test", "b"])
        assert (args.m, args.q, args.alpha) == (7, 10, 0.5)
        assert (args.iterations, args.step_a, args.step_b) == (60, 1.0, 255.0)
        assert (args.b_init, args.guard, args.seed) == (25500.0, 1e-12, 42)
        assert args.out == "roc.csv"

    def test_workers_defaults_to_cpu_count(self, tmp_path, capsys):
        # exercised through main() so the default resolution runs
        code = main(["bench", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "b.csv")])
        assert code == 1  # empty dir, but the default must not crash