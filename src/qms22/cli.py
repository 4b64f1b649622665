"""Command line interface.

Subcommands:
  run      score one train/test fold pair, write the ROC as CSV (+SVG)
  bench    run every dataset in a directory through 5-fold evaluation
  compare  Wilcoxon signed-rank test between two results CSVs
  summary  five-number summary and mean/std per results CSV

`bench` output rows follow `dataset,fold,auc,n,p,seconds` with an `avg`
row per dataset; `compare` and `summary` accept those files (using the
avg rows) or any CSV with `dataset` and `auc` columns. Every file is
read and written as UTF-8, whatever the locale, and so is the terminal.

Each command imports what its own work needs when it runs: `summary`
and `--help` load no numpy, `compare` loads numpy and the metrics but
not the trainer, and only `bench` loads the process pool.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import time
from pathlib import Path

from .hyper import HyperParams

_DEFAULTS = HyperParams()


# (flag, HyperParams field, help) for every hyperparameter; the type and
# default of each flag are those of the field in HyperParams()
_HYPER_FLAGS = (
    ("--m", "m", "number of member functions"),
    ("--q", "q", "rows per member matrix"),
    ("--alpha", "alpha", "ratio clip threshold"),
    ("--iterations", "iterations", "coordinate sweeps"),
    ("--step-a", "step_a", "perturbation distance for matrix entries"),
    ("--step-b", "step_b", "perturbation distance for offset entries"),
    ("--b-init", "b_init", "initial first offset entry"),
    ("--guard", "denom_guard", "denominator guard"),
    ("--seed", "seed", "shuffle seed for the member-set split"),
)


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    for flag, field, text in _HYPER_FLAGS:
        default = getattr(_DEFAULTS, field)
        parser.add_argument(flag, type=type(default), default=default,
                            help=text)


def _hyper_from_args(args) -> HyperParams:
    # argparse stores --step-a as args.step_a
    return HyperParams(**{field: getattr(args, flag[2:].replace("-", "_"))
                          for flag, field, _ in _HYPER_FLAGS})


def _encode_fold(fold):
    """The fold's training normals and labelled test side, encoded by a
    preprocessor fitted on the normals, as an SsadProblem."""
    from .keel import Preprocessor, strip_outliers_from_train
    from .ssad import SsadProblem
    train = strip_outliers_from_train(fold)
    prep = Preprocessor.fit(train)
    x_train, _ = prep.transform(train)
    x_test, y_test = prep.transform(fold.test)
    return SsadProblem(x_train, x_test, y_test)


def _curves(problems, hp: HyperParams) -> list:
    """Train on encoded folds' normals, together in one `run_qms22_many`
    call; the ROC of each fold's test side. The CLI's one call into
    training: `bench` passes a dataset's folds, `run` a batch of one.
    """
    from .metrics import roc_curve
    from .ssad import run_qms22_many
    return [roc_curve(scores, problem.test_labels)
            for problem, scores in zip(problems,
                                       run_qms22_many(problems, hp))]


def _score_fold(fold, hp: HyperParams) -> tuple[float, int, int]:
    """AUC, dataset size, and raw feature count for one fold."""
    (curve,) = _curves([_encode_fold(fold)], hp)
    return curve.auc, fold.train.n + fold.test.n, len(fold.train.input_names)


def _write_text(path, text: str) -> None:
    # UTF-8 whatever the locale, newlines as written; a name taken from a
    # file name that the locale could not decode keeps its bytes
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as f:
        f.write(text)


def _csv_text(rows) -> str:
    # quotes only a field that holds a comma, a quote or a line break
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _roc_svg(curve) -> str:
    size, margin = 360, 40
    span = size - 2 * margin

    def px(x):
        return margin + x * span

    def py(y):
        return size - margin - y * span

    path = " ".join(f"{px(x):.2f},{py(y):.2f}"
                    for x, y in zip(curve.fpr, curve.tpr))
    ticks = []
    for v in (0.0, 0.5, 1.0):
        ticks.append(f'<text x="{px(v):.0f}" y="{size - margin + 16}" '
                     f'text-anchor="middle" font-size="11">{v:g}</text>')
        ticks.append(f'<text x="{margin - 8}" y="{py(v) + 4:.0f}" '
                     f'text-anchor="end" font-size="11">{v:g}</text>')
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">
<rect width="{size}" height="{size}" fill="white"/>
<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="black"/>
<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="black"/>
<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{margin}" stroke="#bbbbbb" stroke-dasharray="4 3"/>
<polyline points="{path}" fill="none" stroke="#1f6fb2" stroke-width="1.6"/>
{chr(10).join(ticks)}
<text x="{size / 2:.0f}" y="{size - 6}" text-anchor="middle" font-size="12">FPR</text>
<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 12 {size / 2:.0f})">TPR</text>
<text x="{size - margin}" y="{margin - 10}" text-anchor="end" font-size="12">AUC {curve.auc:.4f}</text>
</svg>
"""


def _check_out_paths(*paths) -> None:
    # before any parsing or training, so a bad path costs no work
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise IsADirectoryError(f"output file {path} is a directory")
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no directory for output file {path}")


def cmd_run(args) -> int:
    _check_out_paths(args.out, args.svg)
    from .keel import FoldPair, parse_keel
    # only the encoded arrays are kept while training, not the parsed rows
    problem = _encode_fold(FoldPair(parse_keel(args.train),
                                    parse_keel(args.test), 1))
    (curve,) = _curves([problem], _hyper_from_args(args))
    _write_text(args.out, _csv_text([("threshold", "fpr", "tpr"), *(
        [repr(float(v)) for v in point]
        for point in zip(curve.thresholds, curve.fpr, curve.tpr))]))
    if args.svg:
        _write_text(args.svg, _roc_svg(curve))
    print(f"AUC {curve.auc!r}")
    return 0


def _bench_dataset(task) -> list[tuple]:
    """CSV rows for one dataset: five folds plus the avg row, with AUCs
    as their repr and seconds to the millisecond.

    The folds are encoded first, keeping only their arrays, then trained
    together by `_curves`. Each fold row gets the dataset's seconds
    divided by its folds; the avg row holds the sum.
    """
    from .keel import discover_folds
    name, directory, hp = task
    folds = discover_folds(directory, name)
    started = time.perf_counter()
    shapes = [(str(fold.fold_index), fold.train.n + fold.test.n,
               len(fold.train.input_names)) for fold in folds]
    problems = [_encode_fold(fold) for fold in folds]
    del folds   # the parsed rows are no longer needed
    aucs = [curve.auc for curve in _curves(problems, hp)]
    seconds = time.perf_counter() - started
    rows = [(name, index, repr(auc), n, p, f"{seconds / len(problems):.3f}")
            for (index, n, p), auc in zip(shapes, aucs)]
    # below eight values numpy's pairwise sum is this left-to-right one,
    # so the mean has np.mean's bits
    rows.append((name, "avg", repr(sum(aucs) / len(aucs)), rows[-1][3],
                 rows[-1][4], f"{seconds:.3f}"))
    return rows


def _training_cost(task) -> int:
    """Training rows times (encoded width + 1), summed over a dataset's
    five training files. A CPM sweep makes one trial for each of the
    m·q·(width + 1) entries, and each trial evaluates one loss piece per
    pooled sample, a count that grows with the training rows, so this
    follows a dataset's training time. File bytes do not: a one-hot
    attribute is a short token that encodes to many columns. A missing or
    malformed file counts 0; the worker reports it.
    """
    from .keel import fold_paths, read_shape
    name, directory, _ = task
    total = 0
    for train_path, _ in fold_paths(directory, name):
        try:
            rows, width = read_shape(train_path)
        except (OSError, ValueError):
            continue
        total += rows * (width + 1)
    return total


def cmd_bench(args) -> int:
    _check_out_paths(args.out)
    from concurrent.futures import ProcessPoolExecutor

    # the pool forks its workers from this process: importing what
    # _bench_dataset needs here (ssad brings core, metrics and numpy)
    # spares each worker importing it again
    from . import ssad  # noqa: F401
    from .keel import find_datasets
    hp = _hyper_from_args(args)
    datasets = find_datasets(args.data_dir)
    if not datasets:
        raise ValueError(f"no datasets found in {args.data_dir}")
    workers = args.workers or (  # taskset or a cpuset may allow fewer CPUs
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
    tasks = [(name, directory, hp) for name, directory in datasets]
    results = []
    failures = 0
    # costliest first (ties by name), so the last dataset to start is a
    # cheap one and the workers finish together (Graham's LPT list
    # scheduling); rows are still written by name. Under fork the pool
    # starts every worker at the first submit, so it gets no more
    # workers than there are datasets.
    order = sorted(tasks, key=lambda task: (-_training_cost(task), task[0]))
    with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
        futures = {task[0]: pool.submit(_bench_dataset, task)
                   for task in order}
        for name in sorted(futures):
            try:
                results.extend(futures[name].result())
            except Exception as exc:
                failures += 1
                print(f"error: {name}: {exc}", file=sys.stderr)
    if not results:
        raise ValueError("all datasets failed")
    _write_text(args.out, _csv_text(
        [("dataset", "fold", "auc", "n", "p", "seconds"), *results]))
    print(f"wrote {args.out} ({len(results)} rows, {failures} failures)")
    return 0


def _read_representative_aucs(path) -> dict[str, float]:
    """dataset -> representative AUC from a results CSV.

    Benchmark files contribute their `avg` rows; plain `dataset,auc`
    files contribute every row. A used row must hold a finite AUC in
    [0, 1] and a dataset not named by an earlier used row. The file is
    read as UTF-8. Each error names the file and, where it has one, the
    line.
    """
    out: dict[str, float] = {}
    lines: dict[str, int] = {}
    # decoded in one piece, so that a bad byte's offset is the file's
    data = Path(path).read_bytes()
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: byte {data[exc.start]:#04x} is not "
                         f"UTF-8 ({exc.reason})") from None
    reader = csv.DictReader(io.StringIO(content, newline=""))
    try:
        fields = reader.fieldnames or []
        if "dataset" not in fields or "auc" not in fields:
            raise ValueError(f"{path}: expected 'dataset' and 'auc' columns, "
                             f"got {fields}")
        for row in reader:
            if "fold" in fields and row["fold"] != "avg":
                continue
            line, name, text = reader.line_num, row["dataset"], row["auc"]
            try:
                value = float(text)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{line}: AUC {text!r} is not a "
                                 f"number") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{line}: AUC {text!r} is not finite")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{path}:{line}: AUC {value!r} is outside "
                                 f"[0, 1]")
            if name in lines:
                raise ValueError(f"{path}:{line}: dataset {name!r} is "
                                 f"already on line {lines[name]}")
            out[name], lines[name] = value, line
    except csv.Error as exc:   # such as a field over csv.field_size_limit()
        # DictReader counts a line only once it parses; its reader has
        # counted the failed one
        raise ValueError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: no usable result rows")
    return out


def cmd_compare(args) -> int:
    from .metrics import wilcoxon_signed_rank
    ours = _read_representative_aucs(args.ours)
    baseline = _read_representative_aucs(args.baseline)
    common = sorted(set(ours) & set(baseline))
    if not common:
        raise ValueError("the two results files share no dataset names")
    result = wilcoxon_signed_rank([ours[d] for d in common],
                                  [baseline[d] for d in common])
    print(f"datasets {len(common)}")
    print(f"n_effective {result.n_effective}")
    print(f"r_plus {result.r_plus!r}")
    print(f"r_minus {result.r_minus!r}")
    print(f"p_value {result.p_value!r} ({result.method})")
    if result.p_value < 0.05:
        print("reject the null hypothesis at significance 0.05: "
              "the paired AUCs differ")
    else:
        print("fail to reject the null hypothesis at significance 0.05")
    return 0


def cmd_summary(args) -> int:
    _check_out_paths(args.out)
    from .metrics import five_number_summary, mean_std
    rows = [("classifier", "min", "q1", "median", "q3", "max", "mean", "std")]
    for path in args.results:
        aucs = list(_read_representative_aucs(path).values())
        s = five_number_summary(aucs)
        rows.append((Path(path).stem, *map(repr, (
            s.min, s.q1, s.median, s.q3, s.max, *mean_std(aucs)))))
    if args.out:
        _write_text(args.out, _csv_text(rows))
    else:
        sys.stdout.write(_csv_text(rows))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qms22",
        description="Quadratic multiform separation anomaly detection "
                    "and its KEEL benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="score one train/test fold pair")
    p_run.add_argument("--train", required=True, help="training .dat file")
    p_run.add_argument("--test", required=True, help="test .dat file")
    p_run.add_argument("--out", default="roc.csv", help="ROC CSV path")
    p_run.add_argument("--svg", default=None, help="optional ROC SVG path")
    _add_hyper_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="5-fold evaluation of every "
                                           "dataset under a directory")
    p_bench.add_argument("--data-dir", required=True,
                         help="directory containing KEEL fold files")
    p_bench.add_argument("--out", default="bench.csv", help="results CSV path")
    p_bench.add_argument("--workers", type=_positive_int, default=None,
                         help="parallel dataset workers (default: the CPUs "
                              "this process may run on)")
    _add_hyper_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = sub.add_parser("compare", help="Wilcoxon signed-rank test "
                                           "between two results files")
    p_cmp.add_argument("ours", help="results CSV")
    p_cmp.add_argument("baseline", help="baseline results CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_sum = sub.add_parser("summary", help="five-number summary and "
                                           "mean/std per results file")
    p_sum.add_argument("results", nargs="+", help="results CSVs")
    p_sum.add_argument("--out", default=None, help="summary CSV path "
                                                   "(default: stdout)")
    p_sum.set_defaults(func=cmd_summary)
    return parser


def main(argv=None) -> int:
    # stdio writes as _write_text does; a StringIO has no reconfigure
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
