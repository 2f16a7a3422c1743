"""Random starts and matrices: the pure-Python PCG64 stream against NumPy's,
and the random starts against NumPy's former construction of them."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from volqso.errors import ValidationError
from volqso.sampling import (
    _PCG64,
    interior_points,
    random_canonical_params,
    random_skew_matrix,
)
from volqso.simplex import validate

# one to five 32-bit entropy words, and the edges between them
SEEDS = [*range(300), 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
         2 ** 96, 2 ** 100 + 7, 2 ** 128 - 1, 2 ** 128, 2 ** 130 + 3,
         3 ** 200]


@pytest.mark.parametrize("chunk", range(0, len(SEEDS), 100))
def test_stream_equals_numpy_pcg64(chunk):
    for seed in SEEDS[chunk:chunk + 100]:
        ours = _PCG64(seed)
        theirs = np.random.default_rng(seed)
        assert ours.random(20) == theirs.random(20).tolist(), seed
        # the stream goes on where it stopped
        assert ours.random(3) == theirs.random(3).tolist(), seed


# The random starts as drawn before the package stopped using NumPy, with
# its `log1p`.  NumPy may dispatch that to an AVX-512 routine that differs
# from libm's in the last bit; with those CPU features disabled it is libm's.
NUMPY_STARTS = """\
import json
import numpy as np
out = []
for m in (2, 3, 4):
    for seed in range(200):
        rng = np.random.default_rng(seed)
        scale = 1.0 - m * 0.01
        for _ in range(3):
            e = -np.log1p(-rng.random(m))
            u = e / e.sum()
            out.append((scale * u + 0.01).tolist())
print(json.dumps(out))
"""
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_interior_points_equal_numpy_construction():
    disabled = [name for name in AVX512 if cpu_features().get(name)]
    env = dict(os.environ)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, "-c", NUMPY_STARTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = iter(json.loads(proc.stdout))
    for m in (2, 3, 4):
        for seed in range(200):
            for point in interior_points(m, 3, seed):
                assert point == validate(next(expected)), (m, seed)


def test_generator_and_seed_give_the_same_draws():
    # an object with random(n) is used as given; what it draws is made a
    # Python float
    assert interior_points(4, 3, np.random.default_rng(7)) == \
        interior_points(4, 3, 7)
    a = random_skew_matrix(4, np.random.default_rng(7))
    assert a == random_skew_matrix(4, 7) == random_skew_matrix(
        4, np.int64(7))
    params = random_canonical_params(np.random.default_rng(7))
    assert params == random_canonical_params(7)
    assert all(type(v) is float for v in params.as_tuple())
    assert all(type(v) is float for row in a.rows for v in row)


@pytest.mark.parametrize("seed,error", [
    (-1, ValidationError), (None, TypeError), (1.5, TypeError),
    ("3", TypeError), ([1, 2], TypeError),
    (np.random.SeedSequence(3), TypeError)],
    ids=["negative", "none", "float", "str", "list", "seed-sequence"])
def test_seed_is_a_non_negative_int(seed, error):
    with pytest.raises(error):
        random_skew_matrix(3, seed)
