"""Every file is read and written as UTF-8, whatever the locale.

The commands run in fresh interpreters: one where an `open` that would
take the locale's encoding raises its EncodingWarning as an error, and
one under the C locale with locale coercion and UTF-8 mode off, where
the locale's encoding is ASCII.
"""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import qms22

from synthdata import FAST_FLAGS, write_dataset, write_fold_pair

REFERENCE_CSV = Path(__file__).parent / "data" / "reference_results.csv"
ENV = dict(os.environ, PYTHONPATH=str(Path(qms22.__file__).parents[1]))
C_LOCALE = dict(ENV, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
WARN_LOCALE_ENCODING = ["-X", "warn_default_encoding",
                        "-W", "error::EncodingWarning"]


def cli(*argv, flags=(), env=ENV):
    """`python [flags] -m qms22.cli argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, *flags, "-m", "qms22.cli",
                           *map(str, argv)],
                          env=env, capture_output=True, encoding="utf-8",
                          errors="replace")


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
