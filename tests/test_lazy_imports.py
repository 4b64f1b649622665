"""Each command loads only what its own work needs.

The checks run in a fresh interpreter, since this one has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qms22
from qms22 import core
from qms22.cli import main

from synthdata import write_fold_pair

REFERENCE_CSV = Path(__file__).parent / "data" / "reference_results.csv"
ENV = dict(os.environ, PYTHONPATH=str(Path(qms22.__file__).parents[1]))


def cli(*argv, flags=()):
    """`python [flags] -m qms22.cli argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, *flags, "-m", "qms22.cli", *argv],
                          env=ENV, capture_output=True, text=True)


def modules_after(*argv):
    """The modules loaded once `main(argv)` returns in a fresh
    interpreter, which must exit 0."""
    code = ("import json, sys\n"
            "from qms22.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(code)\n")
    child = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_help_runs_without_site_packages():
    # -S leaves site-packages off the path, so numpy cannot load
    child = cli("--help", flags=["-S"])
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("usage: qms22")


def test_summary_runs_without_site_packages(capsys):
    child = cli("summary", str(REFERENCE_CSV), flags=["-S"])
    assert child.returncode == 0, child.stderr
    assert main(["summary", str(REFERENCE_CSV)]) == 0
    assert child.stdout == capsys.readouterr().out


def test_summary_loads_no_numpy():
    assert "numpy" not in modules_after("summary", str(REFERENCE_CSV))


def test_compare_runs_without_site_packages(tmp_path, capsys):
    # the reference AUCs against copies with some of them lowered: three,
    # for the exact tail, and thirty, for the normal one
    lines = REFERENCE_CSV.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",").index("auc")
    for rows, tail in (((1, 5, 9), "exact"), (range(1, 31), "normal")):
        lowered = tmp_path / f"lowered{len(rows)}.csv"
        changed = list(lines)
        for i in rows:
            fields = changed[i].split(",")
            fields[header] = repr(float(fields[header]) - 0.01)
            changed[i] = ",".join(fields)
        lowered.write_text("\n".join(changed) + "\n", encoding="utf-8")
        for argv in ([str(REFERENCE_CSV), str(lowered)],
                     [str(lowered), str(REFERENCE_CSV)]):
            child = cli("compare", *argv, flags=["-S"])
            assert child.returncode == 0, child.stderr
            assert main(["compare", *argv]) == 0
            assert child.stdout == capsys.readouterr().out
            assert f"n_effective {len(rows)}\n" in child.stdout
            assert f" ({tail})\n" in child.stdout


def test_compare_loads_no_trainer_and_no_pool():
    loaded = modules_after("compare", str(REFERENCE_CSV), str(REFERENCE_CSV))
    assert "qms22.metrics" in loaded
    for name in ("numpy", "qms22.core", "qms22.keel", "qms22.ssad",
                 "concurrent.futures"):
        assert name not in loaded


def test_run_loads_no_pool_and_no_masked_arrays(tmp_path):
    tra, tst = write_fold_pair(tmp_path, "synth", 1,
                               np.random.default_rng(3))
    loaded = modules_after("run", "--train", str(tra), "--test", str(tst),
                           "--out", str(tmp_path / "roc.csv"),
                           "--iterations", "0")
    assert "qms22.ssad" in loaded
    assert "concurrent.futures" not in loaded
    assert "numpy.ma" not in loaded


def test_run_loads_no_numpy_random(tmp_path):
    # the member-set shuffle is qms22._pcg64, not numpy.random
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; "
                           "print('numpy.random' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    tra, tst = write_fold_pair(tmp_path, "synth", 1,
                               np.random.default_rng(3))
    loaded = modules_after("run", "--train", str(tra), "--test", str(tst),
                           "--out", str(tmp_path / "roc.csv"),
                           "--iterations", "1")
    assert {"numpy", "qms22._pcg64"} <= loaded
    assert "numpy.random" not in loaded


def openblas_threads_after(env_threads=None, preload=""):
    """OPENBLAS_NUM_THREADS once `main` has run `summary`
    in a fresh interpreter, after `preload`."""
    env = dict(ENV)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    code = (f"import os\n{preload}\n"
            "from qms22.cli import main\n"
            f"main(['summary', {str(REFERENCE_CSV)!r}])\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    return child.stdout.splitlines()[-1]


def test_main_asks_openblas_for_one_thread():
    assert openblas_threads_after() == "1"
    # a caller's setting stands, and once numpy is loaded it is too late
    assert openblas_threads_after("3") == "3"
    assert openblas_threads_after(preload="import numpy") == "None"


@pytest.mark.parametrize("name", [n for n in qms22.__all__
                                  if n != "__version__"])
def test_every_export_is_its_home_modules_object(name):
    value = getattr(qms22, name)
    assert value.__module__.startswith("qms22.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_exports_match_star_import_and_core():
    namespace = {}
    exec("from qms22 import *", namespace)
    assert set(qms22.__all__) <= set(namespace)
    assert core.HyperParams is qms22.HyperParams


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        qms22.nope
