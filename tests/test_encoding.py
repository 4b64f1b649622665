"""Every file and every terminal line is UTF-8, whatever the locale, and
every name reaches a CSV whole.

The commands run in fresh interpreters: one where an `open` that would
take the locale's encoding raises its EncodingWarning as an error, one
under the C locale with locale coercion and UTF-8 mode off, where the
locale's encoding is ASCII, and one whose stdio encodes UTF-8 with the
strict error handler, as a UTF-8 locale gives outside UTF-8 mode.
"""

import contextlib
import csv
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import qms22
from qms22.cli import main

from synthdata import FAST_FLAGS, write_dataset, write_fold_pair

REFERENCE_CSV = Path(__file__).parent / "data" / "reference_results.csv"
ENV = dict(os.environ, PYTHONPATH=str(Path(qms22.__file__).parents[1]))
C_LOCALE = dict(ENV, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
STRICT_STDIO = dict(ENV, PYTHONUTF8="0", PYTHONIOENCODING="utf-8:strict")
WARN_LOCALE_ENCODING = ["-X", "warn_default_encoding",
                        "-W", "error::EncodingWarning"]
# a file name byte that is not UTF-8, as Python holds it in a str
BYTE_FF = os.fsdecode(b"\xff")


def cli(*argv, flags=(), env=ENV, text=True):
    """`python [flags] -m qms22.cli argv` in a fresh interpreter; its
    output as text, or with `text=False` as bytes."""
    return subprocess.run([sys.executable, *flags, "-m", "qms22.cli",
                           *map(str, argv)],
                          env=env, capture_output=True,
                          encoding="utf-8" if text else None,
                          errors="replace" if text else None)


def test_no_file_takes_the_locale_encoding(tmp_path):
    data = tmp_path / "data"
    # named as reference rows, so that compare finds common datasets
    for seed, name in enumerate(("glass1", "iris0")):
        write_dataset(data, name, seed=seed)
    tra, tst = data / "glass1-5-1tra.dat", data / "glass1-5-1tst.dat"
    bench = tmp_path / "bench.csv"
    commands = [
        ["run", "--train", tra, "--test", tst, "--out", tmp_path / "roc.csv",
         "--svg", tmp_path / "roc.svg", *FAST_FLAGS],
        ["bench", "--data-dir", data, "--out", bench, "--workers", "1",
         *FAST_FLAGS],
        ["compare", bench, REFERENCE_CSV],
        ["summary", bench, REFERENCE_CSV, "--out", tmp_path / "summary.csv"],
    ]
    for argv in commands:
        child = cli(*argv, flags=WARN_LOCALE_ENCODING)
        assert child.returncode == 0, (argv[0], child.stderr)
        assert "EncodingWarning" not in child.stderr, argv[0]
    with open(bench, newline="", encoding="utf-8") as f:
        names = {row["dataset"] for row in csv.DictReader(f)}
    assert names == {"glass1", "iris0"}


def test_c_locale_writes_the_same_bytes(tmp_path):
    # a non-ASCII @relation name (and fold file names), and a results
    # file whose stem names a summary row
    tra, tst = write_fold_pair(tmp_path, "glass1-café", 1,
                               np.random.default_rng(3))
    results = tmp_path / "café.csv"
    shutil.copyfile(REFERENCE_CSV, results)
    outputs = {}
    for label, env in (("default", ENV), ("C", C_LOCALE)):
        out = tmp_path / label
        out.mkdir()
        ran = cli("run", "--train", tra, "--test", tst,
                  "--out", out / "roc.csv", "--svg", out / "roc.svg",
                  *FAST_FLAGS, env=env)
        summed = cli("summary", results, "--out", out / "summary.csv",
                     env=env)
        assert (ran.returncode, ran.stderr) == (0, ""), label
        assert (summed.returncode, summed.stderr) == (0, ""), label
        outputs[label] = (ran.stdout, *(
            (out / name).read_bytes()
            for name in ("roc.csv", "roc.svg", "summary.csv")))
    assert outputs["C"] == outputs["default"]
    assert outputs["C"][3].splitlines()[1].startswith("café,".encode())


def test_names_with_a_comma_read_back_whole(tmp_path):
    data = tmp_path / "data"
    write_dataset(data / "a,b", "a,b", seed=1)
    write_dataset(data / "iris0", "iris0", seed=2)
    bench = tmp_path / "a,b.csv"
    ran = cli("bench", "--data-dir", data, "--out", bench, "--workers", "1",
              *FAST_FLAGS)
    assert (ran.returncode, ran.stderr) == (0, "")
    lines = bench.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith('"a,b",1,')
    assert lines[6].startswith('"a,b",avg,')
    compared = cli("compare", bench, bench)
    assert (compared.returncode, compared.stderr) == (0, "")
    assert "datasets 2" in compared.stdout
    summed = cli("summary", bench)
    assert (summed.returncode, summed.stderr) == (0, "")
    with open(bench, newline="", encoding="utf-8") as f:
        avg = [row for row in csv.DictReader(f) if row["fold"] == "avg"]
    (row,) = csv.DictReader(io.StringIO(summed.stdout))
    # the file's stem is the classifier, quoted as the dataset name was
    assert summed.stdout.splitlines()[1].startswith('"a,b",')
    assert row["classifier"] == "a,b"
    assert float(row["min"]) == min(float(r["auc"]) for r in avg)


def test_strict_terminal_takes_undecodable_names(tmp_path):
    results = tmp_path / f"r{BYTE_FF}.csv"
    shutil.copyfile(REFERENCE_CSV, results)
    summed = cli("summary", results, env=STRICT_STDIO, text=False)
    assert (summed.returncode, summed.stderr) == (0, b"")
    assert summed.stdout.splitlines()[1].startswith(b"r\xff,")
    data = write_dataset(tmp_path / "data", "synth")
    out = tmp_path / f"b{BYTE_FF}.csv"
    ran = cli("bench", "--data-dir", data, "--out", out, "--workers", "1",
              *FAST_FLAGS, env=STRICT_STDIO, text=False)
    assert (ran.returncode, ran.stderr) == (0, b"")
    assert ran.stdout.startswith(b"wrote " + os.fsencode(out) + b" (6 rows")


def test_c_locale_error_lines_are_utf8(tmp_path):
    data = write_dataset(tmp_path / "data", "café")
    (data / "café-5-3tst.dat").unlink()
    benched = cli("bench", "--data-dir", data, "--out", tmp_path / "b.csv",
                  "--workers", "1", *FAST_FLAGS, env=C_LOCALE, text=False)
    assert benched.returncode == 1
    (line, last) = benched.stderr.splitlines()
    assert line.startswith("error: café: missing fold files".encode())
    assert line.endswith(os.fsencode(data / "café-5-3tst.dat"))
    assert last == b"error: all datasets failed"
    tra, tst = write_fold_pair(tmp_path, "synth", 1, np.random.default_rng(3))
    tst.write_text(tst.read_text().replace(", negative\n", ", négative\n", 1),
                   encoding="utf-8")
    ran = cli("run", "--train", tra, "--test", tst, "--out",
              tmp_path / "roc.csv", *FAST_FLAGS, env=C_LOCALE, text=False)
    assert ran.returncode == 1
    assert "value 'négative' not in".encode() in ran.stderr


def test_streams_without_an_encoding_are_left_alone(tmp_path):
    # main's UTF-8 policy reconfigures stdio; a StringIO has no
    # reconfigure, and the summary it takes is the --out file's text
    out = tmp_path / "summary.csv"
    assert main(["summary", str(REFERENCE_CSV), "--out", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["summary", str(REFERENCE_CSV)]) == 0
    assert stdout.getvalue() == out.read_text(encoding="utf-8")
    assert stderr.getvalue() == ""
