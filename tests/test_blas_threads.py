"""The ECF's bits under another BLAS thread count.

``empirical_char_fn`` takes its power sums as matrix products, which numpy
hands to its BLAS.  A BLAS picks its kernels by the CPU, so the last bits of
the ECF hold for one BLAS build and machine, as those of the ufuncs hold for
one SIMD dispatch target (tests/test_simd_dispatch.py).  The thread count
must move no bit: each run below computes the ECF on the default grid and on
a 10**4-point grid in a fresh interpreter, with ``OPENBLAS_NUM_THREADS`` at 1
and at 2, and the outputs must be byte-identical.
"""

import os
import subprocess
import sys

import stablesums

_SCRIPT = """
import hashlib
import numpy as np
from stablesums import StableParams, empirical_char_fn, sample
from stablesums.rng import stream
from stablesums.verification import _frequency_grid

x = sample(StableParams(1.2, 0.5), stream(4430, 0), 40_007)
wide = -5.0 + 10.0 * np.arange(10**4) / (10**4 - 1)
for t in (_frequency_grid(), wide):
    print(hashlib.sha256(empirical_char_fn(x, t).tobytes()).hexdigest())
"""


def _digests(threads: int) -> list:
    src = os.path.dirname(os.path.dirname(stablesums.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.split()


def test_ecf_bits_do_not_depend_on_blas_threads():
    one = _digests(1)
    assert len(one) == 2
    assert _digests(2) == one
