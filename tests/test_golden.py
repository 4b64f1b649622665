"""Frozen outputs of the CPM trainer.

Each case trains a model and compares, bit for bit, the final A and b
bytes, the number of accepted moves, the loss reported after every
accepted move, `loss_full` of the result and the scores, against
`tests/data/golden_cpm.json`. A kernel change that claims bitwise
identical results must pass unchanged. One that changes bits must say so
and re-baseline the file in the same change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qms22 import HyperParams, TrainingProblem, cpm_optimize, loss_full
from qms22.ssad import SsadProblem, build_member_sets, outlier_scores

from oracles import from_member_sets

pytestmark = pytest.mark.bitwise

GOLDEN = Path(__file__).parent / "data" / "golden_cpm.json"

# name -> (seed, m, q, p, set sizes, alpha, iterations, step_a, step_b, b_init)
SMALL = {
    "small-m2": (101, 2, 2, 3, (14, 9), 0.3, 6, 0.25, 0.5, 3.0),
    "small-m3": (102, 3, 2, 3, (12, 8, 10), 0.5, 5, 0.3, 0.9, 3.0),
    "small-m4-alpha0": (103, 4, 3, 2, (7, 11, 5, 9), 0.0, 4, 0.5, 1.5, 6.0),
    "small-m5": (104, 5, 2, 4, (20, 14, 17, 9, 12), 0.8, 3, 0.25, 2.0, 8.0),
    "small-m3-wide": (105, 3, 4, 6, (30, 25, 28), 0.5, 3, 1.0, 5.0, 40.0),
    "small-m6-q1": (106, 6, 1, 3, (15, 8, 12, 10, 6, 9), 0.2, 6, 0.5, 2.5, 10.0),
}

# name -> (seed, n_train, n_test, p, iterations); m=7, q=10, default steps
SSAD = {
    "ssad-n1000": (201, 820, 180, 8, 3),
    "ssad-n400": (202, 300, 100, 6, 4),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _small_problem(seed, m, q, p, sizes, alpha, iterations, step_a, step_b,
                   b_init):
    rng = np.random.default_rng(seed)
    sets = [rng.normal(scale=2.0, size=(s, p)) + i for i, s in enumerate(sizes)]
    weights = rng.uniform(0.2, 2.0, size=m)
    hp = HyperParams(m=m, q=q, alpha=alpha, iterations=iterations,
                     step_a=step_a, step_b=step_b, b_init=b_init)
    return from_member_sets(sets, weights), hp


def _ssad_problem(seed, n_train, n_test, p, iterations):
    # normals in a max-abs-255 box, as after preprocessing, with a few
    # far-off outliers in the test batch
    rng = np.random.default_rng(seed)
    train = rng.normal(scale=60.0, size=(n_train, p))
    test = rng.normal(scale=60.0, size=(n_test, p))
    test[: n_test // 10] += 150.0
    hp = HyperParams(iterations=iterations)
    problem = SsadProblem(np.clip(train, -255, 255), np.clip(test, -255, 255))
    plan = build_member_sets(problem, hp.m, hp.seed)
    pooled = np.vstack([problem.test_samples, problem.train_normals])
    training = TrainingProblem(pooled, plan.member_sets, plan.class_weights)
    return problem, training, hp


def run_case(name: str) -> dict:
    if name in SMALL:
        training, hp = _small_problem(*SMALL[name])
        problem = None
    else:
        problem, training, hp = _ssad_problem(*SSAD[name])
    losses = []
    model = cpm_optimize(training, hp,
                         on_accept=lambda *args: losses.append(args[-1]))
    if problem is None:
        scores = model.member_values(training.samples)
    else:
        scores = outlier_scores(model, problem.test_samples)
    return {
        "model_sha256": _sha(*[f.a for f in model.members],
                             *[f.b for f in model.members]),
        "accepts": len(losses),
        "accept_losses_sha256": _sha(np.asarray(losses)),
        "loss_full": repr(loss_full(training, model)),
        "scores_sha256": _sha(scores),
    }


CASES = sorted(SMALL) + sorted(SSAD)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name, golden):
    assert run_case(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in CASES},
                                 indent=2, sort_keys=True) + "\n")
