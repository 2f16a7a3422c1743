"""Random starts and matrices: the PCG64 stream of each backend against
NumPy's and against each other, and the random starts against NumPy's
former construction of them."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volqso
from volqso import kernel, sampling
from volqso.errors import KernelUnavailable, ValidationError
from volqso.kernel import available_backends
from volqso.sampling import (
    interior_points,
    random_canonical_params,
    random_skew_matrix,
)
from volqso.simplex import validate

# one to five 32-bit entropy words, and the edges between them
SEEDS = [*range(300), 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
         2 ** 96, 2 ** 100 + 7, 2 ** 128 - 1, 2 ** 128, 2 ** 130 + 3,
         3 ** 200]
# the seeds on either side of every word boundary up to 32 words, and
# random seeds of exactly 32 words
BOUNDARY_SEEDS = [s for k in range(1, 33)
                  for s in (2 ** (32 * k) - 1, 2 ** (32 * k),
                            2 ** (32 * k) + 1, 2 ** (32 * k - 1))]
_WIDE = random.Random(32)
WIDE_SEEDS = [2 ** 1024 - 1, 2 ** 1023,
              *(2 ** 1023 | _WIDE.getrandbits(1023) for _ in range(60))]

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernel not built",
)


def stream(backend):
    """The seeded generator of `backend`: seed -> random(n)."""
    if backend not in available_backends():
        pytest.skip("compiled kernel not built")
    return kernel._functions(backend).stream


@pytest.mark.parametrize("chunk", range(0, len(SEEDS), 100))
def test_stream_equals_numpy_pcg64(chunk):
    # under each backend built
    for backend in available_backends():
        draws = stream(backend)
        for seed in SEEDS[chunk:chunk + 100]:
            ours = draws(seed)
            theirs = np.random.default_rng(seed)
            assert ours(20) == theirs.random(20).tolist(), (backend, seed)
            # the stream goes on where it stopped
            assert ours(3) == theirs.random(3).tolist(), (backend, seed)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_wide_seeds_equal_numpy_pcg64(backend):
    draws = stream(backend)
    for seed in BOUNDARY_SEEDS[::7] + WIDE_SEEDS[:4]:
        assert draws(seed)(5) == np.random.default_rng(
            seed).random(5).tolist(), seed


@needs_compiled
def test_compiled_stream_equals_python_stream():
    # every seed set, each stream drawn in chunks of 0 to 9 values (and
    # one negative count, which draws none), so it goes on across calls
    compiled, python = stream("compiled"), stream("python")
    sizes = random.Random(5)
    for seed in SEEDS + BOUNDARY_SEEDS + WIDE_SEEDS:
        ours, ref = compiled(seed), python(seed)
        for n in [sizes.randrange(10) for _ in range(6)] + [-1, 4]:
            assert ours(n) == ref(n), (seed, n)


@needs_compiled
def test_generators_drawn_in_turn_keep_their_own_streams():
    compiled, python = stream("compiled"), stream("python")
    for a, b in [(1, 2), (7, 7), (2 ** 64, 2 ** 64 - 1), (0, 3 ** 200)]:
        pairs = [(compiled(a), python(a)), (compiled(b), python(b))]
        for k in range(12):
            ours, ref = pairs[k % 2]
            assert ours(k % 5) == ref(k % 5), (a, b, k)


@needs_compiled
@pytest.mark.parametrize("state", [
    b"\0" * 32, bytearray(31), bytearray(33), bytearray(), memoryview(
        bytearray(32)), np.zeros(4, np.uint64), [0] * 32, None],
    ids=["bytes", "short", "long", "empty", "memoryview", "ndarray", "list",
         "none"])
def test_compiled_draw_rejects_a_foreign_state(state):
    ext = sys.modules["volqso._kernel"]
    with pytest.raises(ValueError, match="^generator state must be a "
                       "bytearray of 32 bytes$"):
        ext.pcg64_random(state, 3)


@needs_compiled
def test_compiled_state_is_a_bytearray_advanced_in_place():
    ext = sys.modules["volqso._kernel"]
    state = ext.pcg64_seed((7).to_bytes(1, "little"))
    assert type(state) is bytearray and len(state) == 32
    # trailing zero bytes name the same seed; seed bytes are bytes
    assert ext.pcg64_seed(b"\7" + bytes(130)) == state
    with pytest.raises(TypeError, match="^seed bytes must be bytes, not "
                       "bytearray$"):
        ext.pcg64_seed(bytearray(b"\7"))
    before = bytes(state)
    assert ext.pcg64_random(state, 0) == [] and state == before
    assert ext.pcg64_random(state, 2) == np.random.default_rng(
        7).random(2).tolist()
    assert state != before


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


@pytest.mark.parametrize("seed,error,message", [
    (-1, ValidationError, "^seed must be non-negative, got -1$"),
    (-2 ** 70, ValidationError,
     f"^seed must be non-negative, got {-2 ** 70}$"),
    (None, TypeError, "^'NoneType' object cannot be interpreted as an "
     "integer$"),
    (1.5, TypeError, "^'float' object cannot be interpreted as an integer$"),
    ("3", TypeError, "^'str' object cannot be interpreted as an integer$"),
    ([1, 2], TypeError, "^'list' object cannot be interpreted as an "
     "integer$"),
    (np.random.SeedSequence(3), TypeError, r"^'numpy\.random\."
     r"bit_generator\.SeedSequence' object cannot be interpreted as an "
     "integer$")],
    ids=["negative", "negative-wide", "none", "float", "str", "list",
         "seed-sequence"])
def test_seed_is_a_non_negative_int(monkeypatch, seed, error, message):
    # under each backend built, with the same message
    for backend in available_backends():
        monkeypatch.setattr(sampling, "_stream", stream(backend))
        for draw in (lambda: random_skew_matrix(3, seed),
                     lambda: interior_points(3, 0, seed),
                     lambda: random_canonical_params(seed)):
            with pytest.raises(error, match=message):
                draw()


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_seeded_draws_agree_across_backends(monkeypatch, backend):
    # what the library draws from a seed, under each backend, against the
    # draws of NumPy's generator with that seed
    monkeypatch.setattr(sampling, "_stream", stream(backend))
    for seed in [0, 1, 7, 2 ** 32, 2 ** 64 + 5, 3 ** 200]:
        for m in (2, 3, 4, np.int64(4)):
            assert repr(random_skew_matrix(m, seed)) == repr(
                random_skew_matrix(m, np.random.default_rng(seed)))
            assert repr(interior_points(m, 3, seed)) == repr(
                interior_points(m, 3, np.random.default_rng(seed)))
        assert repr(volqso.random_canonical_matrix(seed)) == repr(
            volqso.random_canonical_matrix(np.random.default_rng(seed)))


def test_bad_backend_choice_raises_at_the_first_draw():
    # the import and a generator given as the seed need no backend
    body = (
        "import volqso.sampling as s\n"
        "from volqso.errors import KernelUnavailable\n"
        "class Fixed:\n"
        "    def random(self, n):\n"
        "        return [0.25] * n\n"
        "s.random_skew_matrix(3, Fixed())\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        s.random_skew_matrix(3, 1)\n"
        "    except KernelUnavailable as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ, VOLQSO_KERNEL="bogus",
               PYTHONPATH=str(Path(volqso.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 2 * ("VOLQSO_KERNEL='bogus'; expected auto, "
                               "python or compiled\n")
    assert issubclass(KernelUnavailable, ValidationError)


def test_a_generator_that_draws_too_few_is_refused():
    class Short:
        def random(self, n):
            return [0.5] * (n - 1)

    with pytest.raises(ValueError, match="^the generator drew 5 values, "
                       "not 6$"):
        random_skew_matrix(4, Short())
