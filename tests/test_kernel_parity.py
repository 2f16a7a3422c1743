"""The compiled and pure-Python kernels must produce bit-identical output,
and so must their one-step maps, errors included; the one-step log map the
output of a one-step run of either, and the compiled CSV formatter the
bytes of repr (of math.exp, in its exp and phi columns)."""

import json
import math
import random
import struct
import types
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volqso import kernel, qso
from volqso._kernel_py import UNDERFLOW_GUARD
from volqso.cli import main
from volqso.errors import DegenerateFactor, DimensionMismatch
from volqso.kernel import available_backends, get_formatter, get_kernel
from volqso.qso import SkewMatrix, apply_volterra_log, skew3
from volqso.sampling import random_skew_matrix
from volqso.simplex import LogSimplexPoint, SimplexPoint, _trusted

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernel not built",
)

ALL_HALF = [[0, .5, .5, -.5], [-.5, 0, .5, .5],
            [-.5, -.5, 0, .5], [.5, -.5, -.5, 0]]
# every canonical parameter 1: entries are +-1, so some step weights
# 1 + a[k][i] are exactly 0 and their logs -inf
CYCLIC_ONE = [[0, 1, 1, -1], [-1, 0, 1, 1],
              [-1, -1, 0, 1], [1, -1, -1, 0]]


def deep_equal(a, b) -> bool:
    """Exact equality, with NaN == NaN (bit-identity for our value set);
    arrays are equal when their typecodes and raw bytes are."""
    if isinstance(a, array):
        return (isinstance(b, array) and a.typecode == b.typecode
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(deep_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(deep_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def run_both(m, a_rows, logx0, steps, log_eps, coord_obs, mono_obs,
             checkpoints, stride, want_phi):
    args = (m, a_rows, logx0, steps, log_eps, coord_obs, mono_obs,
            checkpoints, stride, want_phi)
    rc, rp = get_kernel("compiled")(*args), get_kernel("python")(*args)
    # perfbench compares the results with ==, and an array never equals a
    # list
    assert {k: type(v) for k, v in rc.items()} == \
        {k: type(v) for k, v in rp.items()}
    return rc, rp


def logs_of(coords):
    return [math.log(c) if c > 0 else float("-inf") for c in coords]


def no_error(rc):
    assert rc["error"] is None


def crosses_underflow(rc):
    # |a| = 1: coordinates cross the linear-double underflow threshold and
    # the log-domain factor fallback is exercised
    assert rc["error"] is None
    assert min(rc["trace_logx"]) < -1000.0


def keeps_zero_slot(rc):
    assert rc["final_logx"][1] == float("-inf")


def boundary_face_start(rc):
    # the zero slot's logx = -inf meets a logw = -inf in the underflow
    # branch: -inf + -inf must drop out of the log-domain sum
    assert rc["error"] is None
    assert rc["final_logx"][0] == float("-inf")
    assert len(rc["trace_steps"]) == 3001


def factor_above_guard(rc):
    # a step factor between 1e-280 (the underflow guard) and 1e-200, where
    # a direct log and the log-domain sum round differently: both kernels
    # must switch branches at the same guard
    logx, m = rc["trace_logx"], 3
    assert any(math.log(1e-280) < logx[i + m] - logx[i] < math.log(1e-200)
               for i in range(len(logx) - m))


def switches_neighbourhood(rc):
    # the point leaves U_1 straight into U_2: one step closes the first
    # event and opens the next
    first, second = rc["events"]
    assert first[0] != second[0] and first[2] == second[1]


CASES = {
    "all_half_long_run": (
        (4, ALL_HALF, logs_of([0.4, 0.3, 0.2, 0.1]), 50_000, math.log(0.05),
         [0, 1, 2, 3], [[1 / 3, 0.0, 1 / 3, 1 / 3]],
         [2 ** k for k in range(16)], 97, True),
        no_error),
    "unit_parameters_underflow_crossing": (
        (3, [list(r) for r in skew3(1.0, 1.0, 1.0).rows],
         logs_of([0.5, 0.3, 0.2]), 40_000, math.log(0.05), [0, 1, 2], [],
         [2 ** k for k in range(15)], 211, False),
        crosses_underflow),
    "zero_matrix": (
        (4, [[0.0] * 4 for _ in range(4)], logs_of([0.25] * 4), 1000,
         math.log(0.05), [0, 1, 2, 3], [], [1, 10, 100, 1000], 100, True),
        None),
    "face_start_keeps_exact_zero": (
        (4, ALL_HALF, logs_of([0.5, 0.0, 0.3, 0.2]), 5000, math.log(0.05),
         [0, 1, 2, 3], [], [5000], 501, True),
        keeps_zero_slot),
    "cyclic_one_face_start_dense": (
        (4, CYCLIC_ONE, logs_of([0.0, 0.5, 0.3, 0.2]), 3000,
         math.log(0.05), [0, 1, 2, 3],
         [[0.1, 0.25, 0.4, 0.05], [0.0, 0.3, 0.2, 0.45]],
         [2 ** k for k in range(12)], 1, True),
        boundary_face_start),
    "factor_above_underflow_guard": (
        (3, [[0.0, -1.0, 0.5], [1.0, 0.0, 1.0], [-0.5, -1.0, 0.0]],
         logs_of([0.02, 0.9, 0.08]), 20, math.log(0.05), [0, 1, 2], [],
         [20], 1, False),
        factor_above_guard),
    # eps = 0.4 > 1/4 lets two neighbourhoods touch; only the kernel
    # accepts it (TrajectoryConfig keeps eps below 1/4)
    "direct_switch": (
        (2, [[0.0, -1.0], [1.0, 0.0]], logs_of([0.62, 0.38]), 5,
         math.log(0.4), [0, 1], [], [1, 5], 1, False),
        switches_neighbourhood),
}


@needs_compiled
class TestParity:
    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical(self, case):
        args, check = CASES[case]
        rc, rp = run_both(*args)
        if check is not None:
            check(rc)
        assert deep_equal(rc, rp)

    def test_random_matrices(self, rng):
        for trial in range(10):
            m = 3 + trial % 2
            a = random_skew_matrix(m, rng)
            start = rng.random(m) + 0.05
            start /= start.sum()
            rc, rp = run_both(m, [list(r) for r in a.rows],
                              logs_of(start), 3000, math.log(0.05),
                              list(range(m)), [[0.5] * m],
                              [2 ** k for k in range(11)], 37, m == 4)
            assert deep_equal(rc, rp)

    def test_sojourn_events_identical(self, generic_start4):
        rc, rp = run_both(4, ALL_HALF, logs_of(generic_start4.coords),
                          100_000, math.log(0.05), [], [], [100_000], 10_000,
                          True)
        assert rc["events"] == rp["events"]
        assert len(rc["events"]) > 5

    @pytest.mark.parametrize("formatter", ["compiled", "python"])
    def test_cli_output_bytes_identical(self, tmp_path, monkeypatch,
                                        formatter):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "matrix": CYCLIC_ONE,
            "starts": {"points": [[0.0, 0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]]},
            "steps": 3000, "record_stride": 1,
            "observables": {"coordinates": [1, 2, 3, 4], "monomials": [
                [0.1, 0.25, 0.4, 0.05], [0.0, 0.3, 0.2, 0.45]]}}))
        monkeypatch.setattr("volqso.kernel.format_rows",
                            get_formatter(formatter))
        trees = []
        for backend in ("compiled", "python"):
            monkeypatch.setattr("volqso.kernel.run", get_kernel(backend))
            out = tmp_path / backend
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 11      # summary.json + 2 starts x 5 CSVs
        assert trees[0] == trees[1]


@st.composite
def kernel_inputs(draw):
    """Arguments of a short kernel run: an exact-skew matrix with entries
    from {-1, 0, 1} or uniform in [-1, 1], a start that may have zero
    coordinates, a stride of 1-7, explicit checkpoints and 0-2 monomials."""
    m = draw(st.integers(2, 4))
    entry = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    a = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a[i][j] = draw(entry)
            a[j][i] = -a[i][j]
    weights = draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0),
                            min_size=m, max_size=m).filter(any))
    start = [w / math.fsum(weights) for w in weights]
    steps = draw(st.integers(1, 2000))
    checkpoints = sorted(draw(st.sets(st.integers(1, steps), max_size=12)))
    monomials = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=m,
                                       max_size=m), max_size=2))
    log_eps = math.log(draw(st.floats(0.01, 0.24)))
    return (m, a, logs_of(start), steps, log_eps, list(range(m)), monomials,
            checkpoints, draw(st.integers(1, 7)), m == 4)


@needs_compiled
@settings(max_examples=100, deadline=None)
@given(args=kernel_inputs())
def test_fuzzed_runs_bit_identical(args):
    assert deep_equal(*run_both(*args))


# ---------------------------------------------------------------------------
# the one-step log map against a one-step run


def one_step_cases():
    """(matrix, log point) pairs, m = 2-4: entries +-1 or 0 (step weights
    of 0, so the log-domain sum), dyadic or uniform; log coordinates -inf,
    near -1e5 (coordinates that are 0.0 as doubles), moderate, or 0."""
    rng = random.Random(4241)
    entry = [1.0, -1.0, 0.0, 0.5, -0.25, None]
    log_coord = [-math.inf, -1e5, -700.0, -3.0, 0.0, None]
    for trial in range(3000):
        m = 2 + trial % 3
        rows = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = rng.choice(entry)
                rows[i][j] = rng.uniform(-1.0, 1.0) if v is None else v
                rows[j][i] = -rows[i][j]
        logs = []
        for _ in range(m):
            v = rng.choice(log_coord)
            if v is None:
                v = rng.uniform(-40.0, 0.0)
            elif v == -1e5:
                v += rng.uniform(-50.0, 50.0)
            logs.append(v)
        if all(v == -math.inf for v in logs):
            logs[rng.randrange(m)] = 0.0
        yield SkewMatrix(rows), LogSimplexPoint(logs)


def one_step_run(backend, a, x):
    """apply_volterra_log as a one-step run of `backend`: its final point,
    or the DegenerateFactor message its error gives."""
    raw = get_kernel(backend)(a.m, [list(r) for r in a.rows],
                              list(x.log_coords), 1, 0.0, [], [], [], 1,
                              False)
    if raw["error"] is not None:
        return f"log step failed: {raw['error'][0]}"
    return LogSimplexPoint(tuple(raw["final_logx"]))


def one_step_map(a, x):
    try:
        return apply_volterra_log(a, x)
    except DegenerateFactor as exc:
        return str(exc)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_one_step_map_is_a_one_step_run(backend):
    if backend not in available_backends():
        pytest.skip("compiled kernel not built")
    log_domain = 0
    for a, x in one_step_cases():
        got, want = one_step_map(a, x), one_step_run(backend, a, x)
        assert deep_equal(got.log_coords, want.log_coords), (a.rows, x)
        xs = [math.exp(v) for v in x.log_coords]
        log_domain += any(math.fsum((1.0 + w) * v for w, v in zip(row, xs))
                          < UNDERFLOW_GUARD for row in a.rows)
    assert log_domain > 300
    # unchecked points: nothing left to step, a NaN, a sum of 3
    a = skew3(0.5, -1.0, 1.0)
    for logs, error in (((-math.inf,) * 3, "degenerate"),
                        ((math.nan, 0.0, 0.0), "degenerate"),
                        ((0.0, 0.0, 0.0), "breakdown")):
        x = _trusted(LogSimplexPoint, logs)
        assert one_step_map(a, x) == one_step_run(backend, a, x) == (
            f"log step failed: {error}")


# ---------------------------------------------------------------------------
# the compiled one-step maps against the Python ones

# the boundary families: signed zeros, +-1, tiny and subnormal values, 2^-60
# and the double below 1; None draws a uniform value
ENTRIES = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, 2.0 ** -60,
           0.9999999999999999, None]
COORDS = [0.0, 5e-324, 1e-300, 2.0 ** -60, 0.9999999999999999, None]
LOGS = [-math.inf, -1e5, -745.0, -700.0, -3.0, 0.0, None]


def one_step_matrices(rng, m):
    """An exact-skew matrix with entries from ENTRIES, and a square one
    whose entries are drawn independently."""
    def draw():
        v = rng.choice(ENTRIES)
        return rng.uniform(-1.0, 1.0) if v is None else v

    skew = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            skew[i][j] = draw()
            skew[j][i] = -skew[i][j]
    free = [[draw() for _ in range(m)] for _ in range(m)]
    return [tuple(map(tuple, skew)), tuple(map(tuple, free))]


def image_cases():
    """(rows, coords), m = 2-4: simplex points with zero or tiny
    coordinates, and raw vectors whose factors can fall below 0, where the
    Python image clamps them or raises."""
    rng = random.Random(2024)
    for trial in range(6000):
        m = 2 + trial % 3
        raw = []
        for _ in range(m):
            v = rng.choice(COORDS)
            raw.append(rng.uniform(0.0, 1.0) if v is None else v)
        if not any(raw):
            raw[rng.randrange(m)] = 1.0
        total = math.fsum(raw)
        points = [tuple(v / total for v in raw),
                  tuple(rng.uniform(-0.1, 1.2) for _ in range(m))]
        for rows in one_step_matrices(rng, m):
            for coords in points:
                yield rows, coords
    # the errors of math.fsum and of the factor check, and non-finite sums
    yield ((1.0, 1.0), (1.0, 1.0)), (math.inf, -math.inf)
    yield ((1e308, 1e308), (1.0, 1.0)), (1.0, 1.0)
    yield ((1e308, 1e308), (1.0, 1.0)), (10.0, 10.0)
    yield ((0.0, 1.0), (-1.0, 0.0)), (math.nan, 0.5)
    yield ((0.0, -1.0), (1.0, 0.0)), (0.5, 1.5)
    yield ((0.0, 0.5), (-0.5, 0.0)), (0.5, 0.25, 0.25)


def log_map_cases():
    """(rows, log coordinates), m = 2-4: points with coordinates 0, below
    the smallest double, tiny or moderate; and the logs that a one-step
    run rejects as degenerate or breaking down, or that overflow exp."""
    rng = random.Random(2025)
    for trial in range(6000):
        m = 2 + trial % 3
        logs = []
        for _ in range(m):
            v = rng.choice(LOGS)
            if v is None:
                v = rng.uniform(-40.0, 0.0)
            elif v == -1e5:
                v += rng.uniform(-50.0, 50.0)
            logs.append(v)
        if all(v == -math.inf for v in logs):
            logs[rng.randrange(m)] = 0.0
        for rows in one_step_matrices(rng, m):
            yield rows, LogSimplexPoint(logs).log_coords
    rows = ((0.0, 0.5, -1.0), (-0.5, 0.0, 1.0), (1.0, -1.0, 0.0))
    for logs in ((-math.inf,) * 3, (math.nan, 0.0, 0.0), (0.0, 0.0, 0.0),
                 (710.0, 0.0, 0.0), (math.inf, 0.0, -math.inf),
                 (0.0, -1.0)):
        yield rows, logs


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:    # every error type counts, not one
        return type(exc).__name__, str(exc)


@needs_compiled
@pytest.mark.parametrize("name,cases,min_values", [
    ("image", image_cases, 20_000), ("log_map", log_map_cases, 8_000)])
def test_one_step_maps_bit_identical(name, cases, min_values):
    # the compiled map gives the Python one's bits, or None where the
    # Python one raises or meets a non-finite sum; qso then runs the Python
    # one, so the maps give the same result, or the same error, under
    # either backend
    index = ["image", "log_map"].index(name) + 2
    compiled = kernel._functions("compiled")[index]
    python = kernel._functions("python")[index]
    values = declined = 0
    for rows, vec in cases():
        want = outcome(python, rows, vec)
        got = compiled(rows, vec)
        if got is None:
            assert isinstance(want, tuple) or "inf" in want or \
                "nan" in want, (rows, vec, want)
            declined += 1
        else:
            assert repr(got) == want, (rows, vec)
            values += 1
    assert values >= min_values and declined >= 5


@needs_compiled
@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_one_step_errors_keep_type_and_message(monkeypatch, backend):
    image, log_map = kernel._functions(backend)[2:]
    monkeypatch.setattr(qso, "_image", image)
    monkeypatch.setattr(qso, "_log_map", log_map)
    a = skew3(0.5, -1.0, 1.0)
    with pytest.raises(DegenerateFactor, match=r"^step factor -0\.5 at slot "
                       r"3; input is corrupted$"):
        qso.raw_volterra_image(a, _trusted(SimplexPoint, (0.0, 1.5, 0.0)))
    for logs, error in (((-math.inf,) * 3, "degenerate"),
                        ((0.0, 0.0, 0.0), "breakdown")):
        with pytest.raises(DegenerateFactor,
                           match=f"^log step failed: {error}$"):
            apply_volterra_log(a, _trusted(LogSimplexPoint, logs))
    with pytest.raises(DimensionMismatch, match="^matrix m=3, point m=2$"):
        qso.apply_volterra(a, SimplexPoint((0.5, 0.5)))
    with pytest.raises(DimensionMismatch, match="^matrix m=3, point m=2$"):
        apply_volterra_log(a, LogSimplexPoint((0.0, -1.0)))


@needs_compiled
def test_duck_typed_matrix_takes_the_python_path():
    # list rows are not exact tuples: the compiled maps decline them
    image, log_map = kernel._functions("compiled")[2:]
    rows = [[0.0, 0.5, -0.25], [-0.5, 0.0, 1.0], [0.25, -1.0, 0.0]]
    duck = types.SimpleNamespace(rows=rows, m=3)
    x = SimplexPoint((0.2, 0.3, 0.5))
    assert image(rows, x.coords) is None
    assert log_map(rows, x.to_log().log_coords) is None
    a = SkewMatrix(rows)
    assert qso.raw_volterra_image(duck, x) == qso.raw_volterra_image(a, x)
    assert apply_volterra_log(duck, x.to_log()) == apply_volterra_log(
        a, x.to_log())


# ---------------------------------------------------------------------------
# the compiled CSV formatter against repr


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def assert_reprs(values):
    """The compiled formatter writes each double as repr does, one a row."""
    values = list(values)
    got = get_formatter("compiled")(len(values),
                                    [(array("d", values), 0, 1, "")])
    expected = "".join(repr(v) + "\r\n" for v in values).encode()
    if got != expected:
        bad = [(v, g) for v, g in zip(values, got.decode().split("\r\n"))
               if g != repr(v)]
        pytest.fail(f"{len(bad)} of {len(values)} differ, e.g. {bad[:5]}")


def with_neighbours(values):
    for v in values:
        yield from (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))


@needs_compiled
class TestFormatter:
    def test_special_values(self):
        assert_reprs([0.0, -0.0, math.inf, -math.inf, math.nan,
                      math.copysign(math.nan, -1.0), from_bits(0xFFF8 << 48),
                      from_bits(0x7FF0000000000001), 5e-324, -5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e308,
                      -1.7976931348623157e308])

    def test_powers_of_two(self):
        assert_reprs(with_neighbours(
            math.ldexp(1.0, k) for k in range(-1074, 1024)))

    def test_powers_of_ten(self):
        assert_reprs(with_neighbours(
            float(f"1e{k}") for k in range(-323, 309)))

    def test_layout_boundaries(self):
        assert_reprs([1e-4, math.nextafter(1e-4, 0.0), -1e-4, 1e16,
                      math.nextafter(1e16, 0.0), 9999999999999998.0,
                      -9999999999999998.0, 1e-5, 1e15, 123456789.0])

    def test_integers(self):
        rng = random.Random(53)
        assert_reprs([float(n) for n in range(-1000, 100_000)]
                     + [float(2 ** 53 - n) for n in range(1000)]
                     + [float(rng.randrange(2 ** 53)) for _ in range(10_000)]
                     + [float(10 ** k) for k in range(16)])

    def test_subnormal_significands(self):
        assert_reprs(from_bits(c) for c in range(1, 20_000))

    def test_ties_to_even_digit(self):
        # n / 2^17 (n odd) in [0.5, 1) lies exactly halfway between two
        # 16-digit decimals, both within half an ulp of it
        assert_reprs(n / 2 ** 17 for n in range(2 ** 16 + 1, 2 ** 17, 2))

    def test_random_bit_patterns(self):
        rng = random.Random(20260)
        assert_reprs(from_bits(rng.getrandbits(64)) for _ in range(200_000))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=50))
    def test_hypothesis_floats(self, values):
        assert_reprs(values)

    def test_int_columns(self):
        ints = [-2 ** 63, 2 ** 63 - 1, 0, -1, 7, -10 ** 18, 10 ** 18]
        floats = [0.5, -0.0, math.nan, 1e300, -2.5e-310, 3.0, 1 / 3]
        columns = [(array("q", ints), 0, 1, ""),
                   (array("d", floats), 0, 1, "")]
        got = get_formatter("compiled")(len(ints), columns)
        assert got == "".join(f"{n},{x!r}\r\n"
                              for n, x in zip(ints, floats)).encode()
        assert got == get_formatter("python")(len(ints), columns)

    def test_rows_of_several_columns(self):
        ints = array("q", range(-6, 6))
        floats = array("d", [v / 7 for v in range(-9, 9)])
        for n_rows in (1, 2, 3, 6):
            n_int, n_float = len(ints) // n_rows, len(floats) // n_rows
            # row-major blocks, read back to front and interleaved
            columns = [
                *((floats, j, n_float, op) for j, op
                  in zip(range(n_float), ["exp", "", "phi"] * n_float)),
                *((ints, j, n_int, "") for j in reversed(range(n_int))),
                (floats, n_float - 1, n_float, "phi")]
            assert get_formatter("compiled")(n_rows, columns) == \
                get_formatter("python")(n_rows, columns)

    def test_bad_sizes_rejected(self):
        fmt = get_formatter("compiled")
        three = array("q", [1, 2, 3])
        for columns in ([(three, 2, 1, "")], [(three, 1, 2, "")],
                        [(three, -1, 1, "")], [(three, 0, 0, "")], []):
            with pytest.raises(ValueError):
                fmt(2, columns)
        with pytest.raises(ValueError):
            fmt(0, [(three, 0, 1, "")])
        for columns in ([(array("l", [1]), 0, 1, "")], [([1.0], 0, 1, "")],
                        [(three, 0, 1, "exp")],
                        [(array("d", [1.0]), 0, 1, "log")]):
            with pytest.raises(TypeError):
                fmt(1, columns)


# ---------------------------------------------------------------------------
# the exp and phi columns against math.exp and the phi rule


def phi_rule(lp: float) -> float:
    return math.exp(lp) if lp <= 0.0 else math.nan


def log_values() -> list:
    """Trace-like logs: the edge cases, the range where exp is subnormal
    and seeded random logs."""
    rng = random.Random(1729)
    edges = [-math.inf, 0.0, -0.0, math.nan, -5e-324, -1e-300, -1.0,
             -708.3964185322641, -708.4, -745.1332191019411, -745.14,
             -746.0, -1e308]
    subnormal = [-708.4 - 36.74 * i / 20_000 for i in range(20_001)]
    subnormal += [math.nextafter(v, d) for v in (-708.4, -745.1332191019411)
                  for d in (-math.inf, math.inf)]
    return (edges + subnormal
            + [rng.uniform(-800.0, 0.0) for _ in range(100_000)]
            + [-rng.expovariate(1.0) for _ in range(20_000)])


@pytest.fixture(params=["compiled", "python"])
def formatter(request):
    if request.param not in available_backends():
        pytest.skip("compiled kernel not built")
    return get_formatter(request.param)


class TestExpColumns:
    def test_exp_column_is_math_exp(self, formatter):
        logs = log_values() + [5e-324, 1e-300, 0.5, 700.0, 709.78]
        got = formatter(len(logs), [(array("d", logs), 0, 1, "exp")])
        assert got == "".join(
            repr(math.exp(v)) + "\r\n" for v in logs).encode()

    def test_phi_column_is_the_phi_rule(self, formatter):
        logs = log_values() + [5e-324, 1e-300, 0.5, 709.78, 1e300, math.inf]
        got = formatter(len(logs), [(array("d", logs), 0, 1, "phi")])
        assert got == "".join(
            repr(phi_rule(v)) + "\r\n" for v in logs).encode()

    def test_strided_columns_of_one_block(self, formatter):
        # a trace block read as trajectory.csv and phi.csv read it: every
        # row, from an offset, by a stride
        logs = array("d", log_values()[:30_000])
        steps = array("q", range(10_000))
        got = formatter(9_999, [(steps, 1, 1, ""), (logs, 4, 3, "exp"),
                                (logs, 5, 3, "phi"), (logs, 3, 3, "")])
        assert got == "".join(
            f"{n},{math.exp(logs[3 * n + 1])!r},"
            f"{phi_rule(logs[3 * n + 2])!r},{logs[3 * n]!r}\r\n"
            for n in range(1, 10_000)).encode()
