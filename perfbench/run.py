"""Benchmark of the qms22 command line on seeded synthetic KEEL data.

Run from the repository root:

    python3 perfbench/run.py --workload large-run --seed 1 --seconds 55 --trace 0

The benchmark writes KEEL fold files made from --seed (not timed), then
repeats the workload's CLI invocations (`python -m qms22.cli` with
PYTHONPATH=src) until --seconds have passed and reports medians over the
repetitions. Every repetition's outputs are checked, and must equal the
first repetition's byte for byte apart from the `seconds` column.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload's
CLI invocations once, then scores the same folds in process with a span
around each call into keel, ssad, core and metrics, and prints the
per-layer metrics. The traced AUCs must equal the CLI's bitwise. Each
traced fold sits between two runs of the CLI's own fold code without
spans; their mean time is the baseline for the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Raw repetitions, the machine description and the spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import keelgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_CSV = ROOT / "tests" / "data" / "reference_results.csv"
EXPECTED_AUC = HERE / "expected_auc.json"
OUT = HERE / "out"

# Sweeps per fold. The published seconds are for the default 60 sweeps;
# 6 keeps one repetition of every workload to a few seconds, so a run
# holds enough repetitions for a steady median on a noisy machine.
ITERATIONS = 6
PUBLISHED_ITERATIONS = 60
WORKERS = 2
SETUP_PER_REP = 2
CALL_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str                 # "bench" (5 folds each) or "run" (fold 1)
    datasets: tuple[str, ...]    # sorted, as `bench` orders them

    @property
    def folds(self) -> tuple[int, ...]:
        return (1, 2, 3, 4, 5) if self.command == "bench" else (1,)


# Why each workload: small-bench is bound by Python overhead per trial
# (n < 600) and is the only one that uses the bench process pool;
# large-run is bound by arithmetic and gathers (n = 4174, ~32k loss terms
# per trial) and is the only one with a categorical attribute, so it runs
# the one-hot path of keel.Preprocessor.
WORKLOADS = {
    "small-bench": Workload("bench", ("ecoli1", "glass1", "new-thyroid1",
                                      "yeast-2_vs_4")),
    "large-run": Workload("run", ("abalone19",)),
}

END_TO_END_UNITS = {
    "wall_s": "s", "trials_per_s": "1/s", "x_published": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB", "auc_mean": "auc",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "cli.worker_util": "ratio", "cli.worker_idle_s": "s",
    "keel.parse_s": "s", "keel.parse_rows": "count",
    "keel.preprocess_s": "s", "keel.encoded_width": "count",
    "ssad.plan_s": "s", "ssad.member_rows": "count", "ssad.score_s": "s",
    "core.cache_build_s": "s", "core.cpm_s": "s", "core.trials": "count",
    "core.accepts": "count", "core.accept_ratio": "ratio",
    "core.us_per_trial": "us", "core.terms_per_trial": "count",
    "core.ns_per_term": "ns", "core.final_loss": "loss",
    "metrics.roc_s": "s", "metrics.wilcoxon_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------- inputs


def reference_rows() -> dict[str, dict]:
    with open(REFERENCE_CSV, newline="") as f:
        return {r["dataset"]: r for r in csv.DictReader(f)}


def fold_paths(data: Path, name: str, k: int) -> tuple[Path, Path]:
    d = data / name
    return d / f"{name}-5-{k}tra.dat", d / f"{name}-5-{k}tst.dat"


def trials_per_fold(name: str) -> int:
    from qms22.core import HyperParams
    hp = HyperParams(iterations=ITERATIONS)   # the CLI's defaults otherwise
    return hp.iterations * hp.m * hp.q * (keelgen.SHAPES[name].encoded_width + 1)


def published_seconds(workload: Workload, ref: dict[str, dict]) -> float:
    """Published seconds for the workload's shapes, scaled to the folds
    and sweeps actually run."""
    share = len(workload.folds) / 5 * ITERATIONS / PUBLISHED_ITERATIONS
    return share * sum(float(ref[name]["seconds"]) for name in workload.datasets)


# ------------------------------------------------------------- processes


@dataclass
class Call:
    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def invoke(args: list[str], work: Path) -> Call:
    """Run `python -m qms22.cli args` to completion. CPU time and peak RSS
    (of the child and every descendant it waited for) come from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qms22.cli", *args],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(args, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())


# --------------------------------------------------------- output checks


@dataclass
class Rep:
    """One repetition of a workload's CLI invocations."""

    calls: list[Call]
    aucs: dict[str, float]            # "dataset/fold" -> AUC
    fold_seconds: dict[str, float]    # from the bench CSV
    attempted: int
    failed: int
    problems: list[str]
    fingerprint: str                  # outputs minus the seconds column

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


def valid_auc(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def parse_bench_csv(text: str, workload: Workload):
    """Fold AUCs, fold seconds, problems and the seconds-free text of a
    `bench` results file. A fold counts as failed when its row is missing,
    malformed, has the wrong shape or an invalid AUC."""
    rows = list(csv.DictReader(text.splitlines()))
    aucs, seconds, problems = {}, {}, []
    by_key = {(r.get("dataset"), r.get("fold")): r for r in rows}
    for name in workload.datasets:
        shape = keelgen.SHAPES[name]
        for k in workload.folds:
            key = f"{name}/{k}"
            row = by_key.get((name, str(k)))
            if row is None:
                problems.append(f"{key}: missing row")
                continue
            try:
                auc, n, p = float(row["auc"]), int(row["n"]), int(row["p"])
                sec = float(row["seconds"])
            except (TypeError, ValueError):
                problems.append(f"{key}: malformed row {row}")
                continue
            if (n, p) != (shape.n, shape.p):
                problems.append(f"{key}: shape ({n}, {p}), expected "
                                f"({shape.n}, {shape.p})")
            elif not valid_auc(auc):
                problems.append(f"{key}: AUC {auc!r} out of range")
            else:
                aucs[key], seconds[key] = auc, sec
        if (name, "avg") not in by_key:
            problems.append(f"{name}: missing avg row")
    if len(rows) != len(workload.datasets) * (len(workload.folds) + 1):
        problems.append(f"bench CSV has {len(rows)} rows")
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    return aucs, seconds, problems, stripped


def parse_roc_csv(text: str) -> float:
    """Trapezoidal area of a `run` ROC file; raises ValueError when the
    staircase is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "threshold,fpr,tpr":
        raise ValueError("bad ROC header")
    pts = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    if len(pts) < 2 or pts[0][1:] != (0.0, 0.0) or pts[-1][1:] != (1.0, 1.0):
        raise ValueError("ROC does not run from (0, 0) to (1, 1)")
    return sum(0.5 * (b[1] - a[1]) * (b[2] + a[2]) for a, b in zip(pts, pts[1:]))


def summary_ok(text: str) -> bool:
    """One summary row whose five-number summary holds valid AUCs."""
    lines = text.splitlines()
    try:
        values = [float(v) for v in lines[1].split(",")[1:6]]
    except (IndexError, ValueError):
        return False
    return len(lines) == 2 and len(values) == 5 and all(map(valid_auc, values))


def run_rep(workload: Workload, data: Path, work: Path) -> Rep:
    hyper = ["--iterations", str(ITERATIONS)]
    problems: list[str] = []
    aucs: dict[str, float] = {}
    seconds: dict[str, float] = {}
    n_folds = len(workload.datasets) * len(workload.folds)
    if workload.command == "run":
        name = workload.datasets[0]
        train, test = fold_paths(data, name, 1)
        roc = work / "roc.csv"
        roc.unlink(missing_ok=True)
        call = invoke(["run", "--train", str(train), "--test", str(test),
                       "--out", str(roc), *hyper], work)
        calls = [call]
        fingerprint = call.stdout
        try:
            if call.code != 0:
                raise ValueError(f"exit {call.code}: {call.stderr.strip()}")
            printed = float(call.stdout.split()[1])
            roc_text = roc.read_text()
            area = parse_roc_csv(roc_text)
            if not valid_auc(printed) or abs(area - printed) > 1e-12:
                raise ValueError(f"AUC {printed!r} vs ROC area {area!r}")
            aucs[f"{name}/1"] = printed
            fingerprint += roc_text
        except (ValueError, IndexError, OSError) as exc:
            problems.append(f"run: {exc}")
        return Rep(calls, aucs, seconds, n_folds, n_folds - len(aucs),
                   problems, fingerprint)

    results = work / "bench.csv"
    results.unlink(missing_ok=True)
    call = invoke(["bench", "--data-dir", str(data), "--out", str(results),
                   "--workers", str(WORKERS), *hyper], work)
    calls = [call]
    fingerprint = ""
    if call.code != 0:
        problems.append(f"bench: exit {call.code}: {call.stderr.strip()}")
    else:
        aucs, seconds, bad, fingerprint = parse_bench_csv(
            results.read_text(), workload)
        problems += bad
    failed = n_folds - len(aucs)
    compare = invoke(["compare", str(results), str(REFERENCE_CSV)], work)
    summary = invoke(["summary", str(results)], work)
    calls += [compare, summary]
    for c in (compare, summary):
        fingerprint += c.stdout
    if (compare.code != 0
            or f"datasets {len(workload.datasets)}" not in compare.stdout):
        problems.append(f"compare: exit {compare.code}: {compare.stdout}"
                        f"{compare.stderr}")
        failed += 1
    if summary.code != 0 or not summary_ok(summary.stdout):
        problems.append(f"summary: exit {summary.code}: {summary.stdout}"
                        f"{summary.stderr}")
        failed += 1
    return Rep(calls, aucs, seconds, n_folds + 2, failed, problems,
               fingerprint)


def check_expected(workload_name: str, seed: int, aucs: dict[str, float]):
    """Compare against the AUCs recorded for this seed, if any."""
    recorded = json.loads(EXPECTED_AUC.read_text()) if EXPECTED_AUC.exists() else {}
    want = recorded.get(workload_name, {}).get(str(seed))
    if want is None:
        return []
    got = {k: repr(v) for k, v in aucs.items()}
    if got != want:
        return [f"AUCs differ from those recorded for seed {seed}: "
                f"{got} != {want}"]
    return []


# ------------------------------------------------------------ end to end


def end_to_end(name: str, workload: Workload, seed: int, data: Path,
               work: Path, seconds: float, record: dict) -> dict:
    ref = reference_rows()
    first = workload.datasets[0]
    train, test = fold_paths(data, first, 1)
    setup_args = ["run", "--train", str(train), "--test", str(test),
                  "--out", str(work / "setup_roc.csv"), "--iterations", "0"]
    setup: list[float] = []
    reps: list[Rep] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        # set-up calls sit between repetitions so both see the same machine
        for _ in range(SETUP_PER_REP):
            call = invoke(setup_args, work)
            if call.code != 0:
                record["problems"].append(f"setup run: exit {call.code}: "
                                          f"{call.stderr}")
            setup.append(call.wall_s)
        reps.append(run_rep(workload, data, work))
        now = time.perf_counter()
        # stop when one more round would end after --seconds
        if now + (now - round_started) - started > seconds:
            break

    problems = record["problems"]
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.problems]
        if rep.fingerprint != reps[0].fingerprint:
            problems.append(f"rep {i}: outputs differ from rep 0")
    problems += check_expected(name, seed, reps[0].aucs)

    trials = sum(trials_per_fold(d) for d in workload.datasets) * len(workload.folds)
    walls = [rep.wall_s for rep in reps]
    # every CLI call pays start-up and imports whatever the sweep count;
    # take that off before comparing with the published sweep time
    fixed = statistics.median(setup)
    sweep_walls = [rep.wall_s - len(rep.calls) * fixed for rep in reps]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    aucs = list(reps[0].aucs.values())
    metrics = {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(trials / w for w in walls),
        "x_published": (statistics.median(sweep_walls)
                        / published_seconds(workload, ref)),
        "setup_s": fixed,
        "peak_rss_mb": max(c.maxrss_mb for rep in reps for c in rep.calls),
        "auc_mean": sum(aucs) / len(aucs) if aucs else 0.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    record.update(setup_s=setup, reps=[
        {"wall_s": rep.wall_s, "calls": [(c.args[0], c.wall_s, c.cpu_s, c.maxrss_mb)
                                         for c in rep.calls],
         "aucs": {k: repr(v) for k, v in rep.aucs.items()},
         "fold_seconds": rep.fold_seconds} for rep in reps])
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


# ------------------------------------------------------------- per layer


def per_layer(name: str, workload: Workload, seed: int, data: Path,
              work: Path, record: dict) -> dict:
    import traced
    from qms22 import cli
    from qms22.core import HyperParams
    from qms22.keel import FoldPair, discover_folds, parse_keel
    from qms22.metrics import wilcoxon_signed_rank

    hp = HyperParams(iterations=ITERATIONS)
    ref = reference_rows()
    rep = run_rep(workload, data, work)
    problems = record["problems"]
    problems += rep.problems + check_expected(name, seed, rep.aucs)

    def untraced_s(fold) -> float:
        started = time.perf_counter()
        cli._score_fold(fold, hp)
        return time.perf_counter() - started

    tracer = traced.Tracer()
    counts: dict[str, traced.FoldCounts] = {}
    untraced: list[float] = []
    for ds in workload.datasets:
        # `run` parses one pair; `bench` parses all five of a dataset,
        # then scores them
        if workload.command == "run":
            train_path, test_path = fold_paths(data, ds, 1)
            with tracer.span("keel.parse", f"{ds}/1"):
                pairs = [FoldPair(parse_keel(train_path), parse_keel(test_path), 1)]
        else:
            with tracer.span("keel.parse", f"{ds}/*"):
                pairs = discover_folds(data / ds, ds)
        for fold in pairs:
            key = f"{ds}/{fold.fold_index}"
            if not untraced:
                # the first fold scored in a process runs about 1 s slow
                untraced_s(fold)
            # the CLI's own fold code just before and just after the traced
            # fold, so machine drift falls on both sides
            before = untraced_s(fold)
            counts[key] = traced.traced_fold(tracer, key, fold.train, fold.test, hp)
            untraced.append((before + untraced_s(fold)) / 2)
    # the paired test `compare` makes; run workloads pair their one fold
    ours = {}
    for key, c in counts.items():
        ours.setdefault(key.split("/")[0], []).append(c.auc)
    with tracer.span("metrics.wilcoxon"):
        wilcoxon_signed_rank([sum(v) / len(v) for v in ours.values()],
                             [float(ref[d]["auc"]) for d in ours])

    for key, c in counts.items():
        if repr(c.auc) != repr(rep.aucs.get(key)):
            problems.append(f"{key}: traced AUC {c.auc!r} != CLI "
                            f"{rep.aucs.get(key)!r}")

    self_s = traced.self_times(tracer.spans)
    traced_s = sum(s.end - s.start for s in tracer.spans if s.name == "fold")
    folds = list(counts.values())
    trials = sum(c.trials for c in folds)
    terms = sum(c.terms for c in folds)
    cpm_s = self_s["core.cpm"]
    if workload.command == "bench":
        workers, wall = WORKERS, rep.calls[0].wall_s
        busy = sum(rep.fold_seconds.values())
    else:
        # one process, idle while the interpreter starts and imports qms22
        workers, wall = 1, rep.wall_s
        busy = wall - invoke(["--help"], work).wall_s
    metrics = {
        "cli.worker_util": busy / (workers * wall),
        "cli.worker_idle_s": workers * wall - busy,
        "keel.parse_s": self_s["keel.parse"],
        "keel.parse_rows": sum(c.parse_rows for c in folds),
        "keel.preprocess_s": self_s["keel.preprocess"],
        "keel.encoded_width": sum(c.encoded_width for c in folds) / len(folds),
        "ssad.plan_s": self_s["ssad.plan"],
        "ssad.member_rows": sum(c.member_rows for c in folds),
        "ssad.score_s": self_s["ssad.score"],
        "core.cache_build_s": self_s["core.cache_build"],
        "core.cpm_s": cpm_s,
        "core.trials": trials,
        "core.accepts": sum(c.accepts for c in folds),
        "core.accept_ratio": sum(c.accepts for c in folds) / trials,
        "core.us_per_trial": cpm_s / trials * 1e6,
        "core.terms_per_trial": terms / trials,
        "core.ns_per_term": cpm_s / terms * 1e9,
        "core.final_loss": sum(c.final_loss for c in folds),
        "metrics.roc_s": self_s["metrics.roc"],
        "metrics.wilcoxon_s": self_s["metrics.wilcoxon"],
        "trace.overhead_ratio": traced_s / sum(untraced),
    }
    record.update(cli_wall_s=rep.wall_s, untraced_fold_s=untraced,
                  folds={k: asdict(c) for k, c in counts.items()})
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    with open(spans_path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps(asdict(s)) + "\n")
    return {"attempted": rep.attempted, "failed": rep.failed,
            "metrics": {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}}


# ----------------------------------------------------------------- main


def machine() -> dict:
    """The hardware and software the numbers were taken on."""
    import numpy
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qms22" / "cli.py").is_file() or not REFERENCE_CSV.is_file():
        print(f"error: {ROOT} holds no qms22 source tree (src/qms22) and "
              f"reference table; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    data = work / "data"
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "iterations": ITERATIONS,
              "machine": machine(), "problems": []}
    try:
        for name in workload.datasets:
            keelgen.write_dataset(data, name, args.seed)
        if args.trace:
            result = per_layer(args.workload, workload, args.seed, data,
                               work, record)
        else:
            result = end_to_end(args.workload, workload, args.seed, data,
                                work, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not record["problems"]
    record.update(correct=correct, attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={k: v for k, (v, _) in result["metrics"].items()})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for key, (value, unit) in result["metrics"].items():
        print(f"{args.workload:12s} {key:22s} {value:14.6g} {unit}")
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
