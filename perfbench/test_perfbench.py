"""Tests of the benchmark's own parts: the data generator, the output
checks on `bench` and `run` files, and the span arithmetic.

    python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import keelgen  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from qms22.core import HyperParams  # noqa: E402
from qms22 import cli  # noqa: E402
from qms22.keel import (FoldPair, Preprocessor, discover_folds,  # noqa: E402
                        parse_keel)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic(tmp_path):
    name = "abalone19"
    a = keelgen.write_dataset(tmp_path / "a", name, 3)
    b = keelgen.write_dataset(tmp_path / "b", name, 3)
    c = keelgen.write_dataset(tmp_path / "c", name, 4)
    assert len(_files(a)) == 10
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


@pytest.mark.parametrize("name", sorted(keelgen.SHAPES))
def test_generator_shapes(tmp_path, name):
    shape = keelgen.SHAPES[name]
    folds = discover_folds(keelgen.write_dataset(tmp_path, name, 1), name)
    test_rows = 0
    for fold in folds:
        assert fold.train.n + fold.test.n == shape.n
        assert len(fold.train.input_names) == shape.p
        assert Preprocessor.fit(fold.train).width == shape.encoded_width
        labels = {row[-1] for row in fold.test.rows}
        assert labels == {"negative", "positive"}
        test_rows += fold.test.n
    # every row sits in exactly one test fold
    assert test_rows == shape.n


def _bench_text(workload, auc=0.75):
    lines = ["dataset,fold,auc,n,p,seconds"]
    for name in workload.datasets:
        shape = keelgen.SHAPES[name]
        for k in workload.folds:
            lines.append(f"{name},{k},{auc!r},{shape.n},{shape.p},0.{k}00")
        lines.append(f"{name},avg,{auc!r},{shape.n},{shape.p},1.500")
    return "\n".join(lines) + "\n"


def test_bench_csv_extraction():
    workload = run.WORKLOADS["small-bench"]
    aucs, seconds, problems, stripped = run.parse_bench_csv(
        _bench_text(workload), workload)
    assert problems == []
    assert len(aucs) == 20 and set(aucs.values()) == {0.75}
    assert seconds["glass1/3"] == 0.3
    assert "0.300" not in stripped and "glass1,3,0.75,214,9" in stripped


@pytest.mark.parametrize("edit, failed", [
    (lambda t: t.replace("glass1,2,", "glass1,9,"), 1),            # missing row
    (lambda t: t.replace("ecoli1,4,0.75", "ecoli1,4,nan"), 1),      # non-finite
    (lambda t: t.replace("ecoli1,5,0.75", "ecoli1,5,1.5"), 1),      # out of range
    (lambda t: t.replace("glass1,1,0.75,214", "glass1,1,0.75,999"), 1),
    (lambda t: t.replace(",0.75,", ",x,"), 20),                     # malformed
])
def test_bench_csv_flags_bad_rows(edit, failed):
    workload = run.WORKLOADS["small-bench"]
    aucs, _, problems, _ = run.parse_bench_csv(edit(_bench_text(workload)),
                                               workload)
    assert 20 - len(aucs) == failed
    assert problems


def test_roc_area_and_malformed_roc():
    text = "threshold,fpr,tpr\ninf,0.0,0.0\n2.0,0.0,0.5\n1.0,1.0,1.0\n"
    assert run.parse_roc_csv(text) == 0.75
    with pytest.raises(ValueError):
        run.parse_roc_csv("threshold,fpr,tpr\ninf,0.0,0.0\n1.0,0.5,1.0\n")


def test_self_times_subtract_direct_children():
    spans = [traced.Span(0, "fold", 0.0, 10.0, None, "a/1"),
             traced.Span(1, "core.cpm", 1.0, 7.0, 0, "a/1"),
             traced.Span(2, "inner", 2.0, 3.0, 1, "a/1"),
             traced.Span(3, "metrics.roc", 8.0, 9.0, 0, "a/1"),
             traced.Span(4, "core.cpm", 20.0, 21.5, None, "a/2")]
    self_s = traced.self_times(spans)
    assert self_s == {"fold": 3.0, "core.cpm": 6.5, "inner": 1.0,
                      "metrics.roc": 1.0}


def test_tracer_records_nesting():
    tracer = traced.Tracer()
    with tracer.span("fold", "x/1"):
        with tracer.span("keel.preprocess", "x/1"):
            pass
    with tracer.span("metrics.wilcoxon"):
        pass
    assert [(s.name, s.parent, s.fold) for s in tracer.spans] == [
        ("fold", None, "x/1"), ("keel.preprocess", 0, "x/1"),
        ("metrics.wilcoxon", None, None)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_traced_fold_counts_and_matches_cli(tmp_path):
    name = "new-thyroid1"
    shape = keelgen.SHAPES[name]
    directory = keelgen.write_dataset(tmp_path, name, 1)
    hp = HyperParams(iterations=1)
    train = directory / f"{name}-5-1tra.dat"
    test = directory / f"{name}-5-1tst.dat"
    fold = FoldPair(parse_keel(train), parse_keel(test), 1)
    tracer = traced.Tracer()
    counts = traced.traced_fold(tracer, f"{name}/1", fold.train, fold.test, hp)
    auc = cli._score_fold(fold, hp)[0]
    assert repr(counts.auc) == repr(auc)
    assert counts.trials == run.trials_per_fold(name) // run.ITERATIONS
    assert 0 < counts.accepts <= counts.trials
    assert counts.parse_rows == shape.n
    assert counts.encoded_width == shape.encoded_width
    assert counts.terms > counts.trials and math.isfinite(counts.final_loss)
    names = {s.name for s in tracer.spans}
    assert {"fold", "keel.preprocess", "ssad.plan", "core.cache_build",
            "core.cpm", "core.final_loss", "ssad.score",
            "metrics.roc"} <= names


@pytest.mark.parametrize("text, ok", [
    ("classifier,min,q1,median,q3,max,mean,std\nb,0.5,0.6,0.7,0.8,0.9,0.7,0.1\n", True),
    ("classifier,min,q1,median,q3,max,mean,std\nb,0.5,0.6,0.7,0.8,1.5,0.7,0.1\n", False),
    ("classifier,min,q1,median,q3,max,mean,std\nb,0.5,nan,0.7,0.8,0.9,0.7,0.1\n", False),
    ("classifier,min,q1,median,q3,max,mean,std\n", False),
    ("error: boom\n", False),
])
def test_summary_check(text, ok):
    assert run.summary_ok(text) is ok
