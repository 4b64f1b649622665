"""Seeded synthetic KEEL fold files shaped like rows of the reference table.

Each dataset copies the (n, p) of the `tests/data/reference_results.csv`
row whose name it reuses. Normal rows come from a two-component Gaussian
mixture; outliers come from a wider Gaussian whose centre sits a fixed
distance away, so the classes overlap and no AUC saturates. Categorical
attributes draw from per-class value distributions that share most of
their mass. The positive counts are higher than the real archives' so
that one test fold holds enough outliers for a steady AUC.

The same (name, seed) always writes the same bytes; shapes, declared
domains and therefore the encoded width never depend on the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FOLDS = 5
SHIFT = 2.0   # latent distance of the outlier centre from the normal ones
MIX = 0.5     # share of the outliers' categorical mass drawn elsewhere


@dataclass(frozen=True)
class Shape:
    n: int
    numeric: int
    domains: tuple[int, ...]   # one categorical attribute per entry
    positives: int

    @property
    def p(self) -> int:
        return self.numeric + len(self.domains)

    @property
    def encoded_width(self) -> int:
        return self.numeric + sum(self.domains)


SHAPES = {
    "glass1": Shape(214, 9, (), 64),
    "ecoli1": Shape(336, 7, (), 80),
    "new-thyroid1": Shape(215, 5, (), 45),
    "yeast-2_vs_4": Shape(514, 8, (), 100),
    # like the real abalone: 7 real attributes and a 3-valued categorical
    # one (Sex), so the one-hot path runs; encoded width 10
    "abalone19": Shape(4174, 7, (3,), 420),
}


def _numeric(law, rng, shape: Shape, n_neg: int, n_pos: int) -> np.ndarray:
    d = shape.numeric
    mixing = law.normal(size=(d, d)) / np.sqrt(d) + np.eye(d)
    centres = law.normal(size=(2, d))
    direction = law.normal(size=d)
    direction /= np.linalg.norm(direction)
    centre_out = centres.mean(axis=0) + SHIFT * direction
    which = rng.integers(0, 2, size=n_neg)
    normals = centres[which] + rng.normal(size=(n_neg, d))
    outliers = centre_out + 1.5 * rng.normal(size=(n_pos, d))
    z = np.vstack([normals, outliers]) @ mixing.T
    return 10.0 + 2.0 * z


def _categorical(law, rng, size: int, n_neg: int, n_pos: int):
    p_neg = law.dirichlet(np.full(size, 2.0))
    p_pos = (1.0 - MIX) * p_neg + MIX * law.dirichlet(np.full(size, 0.5))
    return np.concatenate([rng.choice(size, size=n_neg, p=p_neg),
                           rng.choice(size, size=n_pos, p=p_pos)])


def _header(name: str, shape: Shape, lo, hi) -> list[str]:
    lines = [f"@relation {name}"]
    names = []
    for j in range(shape.numeric):
        names.append(f"X{j + 1}")
        lines.append(f"@attribute X{j + 1} real [{lo[j]:.4f}, {hi[j]:.4f}]")
    for j, size in enumerate(shape.domains):
        attr = f"C{j + 1}"
        names.append(attr)
        values = ", ".join(f"v{v}" for v in range(size))
        lines.append(f"@attribute {attr} {{{values}}}")
    lines.append("@attribute Class {negative, positive}")
    lines.append("@inputs " + ", ".join(names))
    lines.append("@outputs Class")
    lines.append("@data")
    return lines


def dataset_rows(name: str, seed: int) -> tuple[list[str], list[str], np.ndarray]:
    """(header lines, data lines, fold of each row) for one dataset."""
    shape = SHAPES[name]
    # the distributions depend on the name only; the seed draws the rows
    key = zlib.crc32(name.encode())
    law = np.random.default_rng(key)
    rng = np.random.default_rng([seed, key])
    n_pos = shape.positives
    n_neg = shape.n - n_pos
    x = _numeric(law, rng, shape, n_neg, n_pos)
    cats = [_categorical(law, rng, size, n_neg, n_pos)
            for size in shape.domains]
    labels = ["negative"] * n_neg + ["positive"] * n_pos
    data = []
    for r in range(shape.n):
        fields = [f"{v:.4f}" for v in x[r]]
        fields += [f"v{c[r]}" for c in cats]
        fields.append(labels[r])
        data.append(", ".join(fields))
    # stratified folds: deal each class's shuffled rows round-robin
    fold = np.empty(shape.n, dtype=np.int64)
    for start, count in ((0, n_neg), (n_neg, n_pos)):
        order = start + rng.permutation(count)
        fold[order] = np.arange(count) % FOLDS + 1
    order = rng.permutation(shape.n)
    data = [data[i] for i in order]
    fold = fold[order]
    header = _header(name, shape, x.min(axis=0), x.max(axis=0))
    return header, data, fold


def write_dataset(root, name: str, seed: int) -> Path:
    """Write the ten fold files of `name` under root/name; returns that
    directory."""
    header, data, fold = dataset_rows(name, seed)
    directory = Path(root) / name
    directory.mkdir(parents=True, exist_ok=True)
    for k in range(1, FOLDS + 1):
        for suffix, keep in (("tra", fold != k), ("tst", fold == k)):
            rows = [line for line, kept in zip(data, keep) if kept]
            text = "\n".join(header + rows) + "\n"
            (directory / f"{name}-5-{k}{suffix}.dat").write_text(text)
    return directory
