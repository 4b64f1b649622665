"""Member values with the same bits under any OpenBLAS kernel.

OpenBLAS picks a kernel for the CPU it runs on, and OPENBLAS_CORETYPE
overrides the pick for one process. A BLAS matmul can round differently
on another kernel. The member functions use no BLAS, so the scores,
`loss_full` and the ROC thresholds are the same bytes whatever the CPU.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qms22
from qms22 import HyperParams, MemberFunction, QmsModel


def member_values_sha256() -> str:
    """Hash of the member values of a seeded model on 200 samples, at the
    scale of preprocessed features."""
    rng = np.random.default_rng(5)
    members = tuple(MemberFunction(rng.normal(size=(10, 8)),
                                   rng.normal(scale=100.0, size=10))
                    for _ in range(7))
    x = rng.normal(scale=60.0, size=(200, 8))
    values = QmsModel(members, HyperParams()).member_values(x)
    return hashlib.sha256(values.tobytes()).hexdigest()


@pytest.mark.parametrize("kernel", ["Prescott", "Nehalem", "Sandybridge"])
def test_member_values_same_bytes_under_another_kernel(kernel):
    path = [str(Path(qms22.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", "from test_portability import "
         "member_values_sha256; print(member_values_sha256())"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == member_values_sha256()
