import csv
import io
import math
import threading
from array import array

import pytest

from volqso import ergodic, kernel
from volqso.classify import CanonicalParams
from volqso.ergodic import (
    CesaroSeries,
    CoordinateObservable,
    MonomialObservable,
    SojournEvent,
    SojournTable,
    TrajectoryConfig,
    TrajectoryResult,
    Verdict,
    c_abs,
    decade_windows,
    dyadic_checkpoints,
    ergodic_verdict,
    escape_bound,
    outside_fraction_trend,
    route_check,
    run_ensemble,
    run_trajectory,
    sojourn_growth,
    write_cesaro_csv,
    write_outside_csv,
    write_phi_csv,
    write_sojourn_csv,
    write_trajectory_csv,
)
from volqso.errors import (
    EpsilonTooLarge,
    NumericalBreakdown,
    TooFewCheckpoints,
    TooFewSojourns,
    ValidationError,
)
from volqso.qso import SkewMatrix, skew3
from volqso.sampling import interior_points, random_canonical_matrix
from volqso.simplex import LogSimplexPoint, SimplexPoint, validate

INF = float("inf")


class TestConfig:
    def test_dyadic_checkpoints(self):
        assert dyadic_checkpoints(8) == (1, 2, 4, 8)
        assert dyadic_checkpoints(10) == (1, 2, 4, 8, 10)

    def test_epsilon_range(self, all_half, generic_start4):
        with pytest.raises(ValidationError):
            TrajectoryConfig(all_half, generic_start4, 100, epsilon=0.3)
        with pytest.raises(ValidationError):
            TrajectoryConfig(all_half, generic_start4, 100, epsilon=0.0)

    def test_checkpoints_must_ascend(self, all_half, generic_start4):
        with pytest.raises(ValidationError):
            TrajectoryConfig(all_half, generic_start4, 100,
                             checkpoints=(4, 2))
        with pytest.raises(ValidationError):
            TrajectoryConfig(all_half, generic_start4, 100,
                             checkpoints=(1, 200))

    def test_dimension_check(self, all_half):
        with pytest.raises(ValidationError):
            TrajectoryConfig(all_half, SimplexPoint.barycenter(3), 100)


class TestRunBasics:
    def test_identity_map_constant_means(self, rng):
        a = SkewMatrix.zero(4)
        start = interior_points(4, 1, rng)[0]
        cfg = TrajectoryConfig(a, start, 512, record_stride=64)
        res = run_trajectory(cfg)
        for series, ref in zip(res.cesaro, start.coords):
            for _, value in series.checkpoints:
                assert value == pytest.approx(ref, rel=1e-12)
        verdict = ergodic_verdict(res.cesaro)
        assert verdict.verdict == Verdict.CONVERGED_AT_SCALE
        assert res.max_abs_drift <= 1e-12

    def test_face_coordinate_stays_zero(self, all_half):
        start = validate((0.5, 0.0, 0.3, 0.2))
        cfg = TrajectoryConfig(all_half, start, 1000, record_stride=100)
        res = run_trajectory(cfg)
        assert res.final.log_coords[1] == -INF
        assert res.cesaro[1].function_id == "x2"
        assert res.cesaro[1].values[-1] == 0.0

    def test_trace_covers_endpoints(self, all_half, generic_start4):
        cfg = TrajectoryConfig(all_half, generic_start4, 1001,
                               record_stride=100)
        res = run_trajectory(cfg)
        assert res.trace_steps[0] == 0
        assert res.trace_steps[-1] == 1001

    def test_m3_has_no_phi(self, rng):
        cfg = TrajectoryConfig(skew3(0.5, 0.5, 0.5),
                               interior_points(3, 1, rng)[0],
                               1000, record_stride=100)
        res = run_trajectory(cfg)
        assert math.isnan(res.min_log_phi)
        assert all(math.isnan(v) for v in res.trace_log_phi)
        assert len(res.sojourn.events) > 0

    def test_duplicate_observable_names_rejected(self, all_half,
                                                   generic_start4):
        cfg = TrajectoryConfig(all_half, generic_start4, 100,
                               record_stride=10)
        with pytest.raises(ValidationError):
            run_trajectory(cfg, [CoordinateObservable(1),
                                 CoordinateObservable(1)])

    def test_monomial_observable_traced(self, all_half, generic_start4):
        lam = (1 / 3, 0.0, 1 / 3, 1 / 3)
        cfg = TrajectoryConfig(all_half, generic_start4, 1000,
                               record_stride=100)
        res = run_trajectory(cfg, [MonomialObservable(lam, name="F")])
        trace = res.monomial_traces["F"]
        logs0 = generic_start4.to_log().log_coords
        expected0 = sum(l * v for l, v in zip(lam, logs0) if l != 0.0)
        assert trace[0] == pytest.approx(expected0, rel=1e-12)

    def test_ensemble_order_independent_of_workers(self, all_half, rng):
        starts = interior_points(4, 6, rng)
        configs = [TrajectoryConfig(all_half, s, 2000, record_stride=500)
                   for s in starts]
        seq = run_ensemble(configs, workers=1)
        par = run_ensemble(configs, workers=8)
        for r1, r2 in zip(seq, par):
            assert r1.final.log_coords == r2.final.log_coords
            assert r1.cesaro == r2.cesaro

    @pytest.mark.parametrize("backend", ["compiled", "python"])
    def test_ensemble_pool_capped_at_cpu_count(self, all_half, rng,
                                               monkeypatch, backend):
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        # run_ensemble imports threading once it has chosen threads
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        monkeypatch.setattr(ergodic.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(kernel, "BACKEND", backend)
        configs = [TrajectoryConfig(all_half, s, 2000, record_stride=500)
                   for s in interior_points(4, 6, rng)]
        seq = run_ensemble(configs, workers=1)
        assert started == []
        par = run_ensemble(configs, workers=64)
        assert par == seq
        # threads only help a kernel that releases the GIL
        assert len(started) == (3 if backend == "compiled" else 0)
        assert not any(t.is_alive() for t in started)

    def test_ensemble_raises_first_failure_in_input_order(
            self, all_half, generic_start4, monkeypatch):
        # thread k runs configs k, k + 3: steps 3 and 5 fail on two threads
        def run(cfg, observables=None):
            if cfg.steps in (3, 5):
                raise NumericalBreakdown(f"at {cfg.steps} steps")
            return cfg.steps

        monkeypatch.setattr(ergodic, "run_trajectory", run)
        monkeypatch.setattr(ergodic.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(kernel, "BACKEND", "compiled")
        configs = [TrajectoryConfig(all_half, generic_start4, n)
                   for n in range(1, 7)]
        with pytest.raises(NumericalBreakdown, match="at 3 steps"):
            run_ensemble(configs, workers=3)
        assert run_ensemble(configs[:2] + configs[5:], workers=3) == [1, 2, 6]


class TestCesaroAccuracy:
    def test_compensated_sum_against_fsum(self, all_half, generic_start4):
        steps = 10_000
        cfg = TrajectoryConfig(all_half, generic_start4, steps,
                               record_stride=1, checkpoints=(steps,))
        res = run_trajectory(cfg, [CoordinateObservable(1)])
        # x1 at steps 0..steps-1: the first of each row of 4 log coordinates
        xs = [math.exp(v) for v in res.trace_log_coords[:-4:4]]
        assert len(xs) == steps
        reference = math.fsum(xs) / steps
        assert abs(res.cesaro[0].values[-1] - reference) <= 1e-12


class TestSojournBookkeeping:
    def test_events_well_formed(self, all_half, generic_start4):
        cfg = TrajectoryConfig(all_half, generic_start4, 50_000,
                               record_stride=1000)
        result = run_trajectory(cfg)
        for series in result.cesaro:     # coordinate means stay in [0, 1]
            assert all(0.0 <= v <= 1.0 for v in series.values)
        table = result.sojourn
        assert table.events
        prev_exit = -1
        for e in table.events:
            assert e.entry_step >= prev_exit
            if not e.censored:
                assert e.exit_step > e.entry_step
                assert e.length == e.exit_step - e.entry_step + 1
                prev_exit = e.exit_step
        assert sum(1 for e in table.events if e.censored) <= 1

    def test_started_inside_flag(self, all_half):
        start = validate((0.94, 0.02, 0.02, 0.02))
        cfg = TrajectoryConfig(all_half, start, 5000, record_stride=1000)
        table = run_trajectory(cfg).sojourn
        assert table.events[0].started_inside
        assert table.events[0].entry_step == 0
        assert table.events[0].vertex == 1

    def test_phi_at_entry_matches_trace(self, all_half, generic_start4):
        # log phi at the pre-entry step equals the recorded entry value
        cfg = TrajectoryConfig(all_half, generic_start4, 2000,
                               record_stride=1)
        res = run_trajectory(cfg)
        by_step = dict(zip(res.trace_steps, res.trace_log_phi))
        for e in res.sojourn.events:
            if e.started_inside:
                continue
            assert e.log_phi_entry == by_step[e.entry_step - 1]


class TestEscapeBound:
    def test_boundary_phi_gives_zero(self):
        params = CanonicalParams(*([0.5] * 6))
        eps = 0.05
        phi = eps * eps * (1 - 3 * c_abs(params) * eps)
        assert escape_bound(params, eps, phi) == 0.0

    def test_all_half_numbers(self):
        params = CanonicalParams(*([0.5] * 6))
        assert c_abs(params) == 2.0
        got = escape_bound(params, 0.05, 1e-12)
        assert got == pytest.approx(math.log2(0.0025 * 0.7 / 1e-12),
                                    rel=1e-12)

    def test_log_phi_entry_point(self):
        params = CanonicalParams(*([0.5] * 6))
        direct = escape_bound(params, 0.05, 1e-12)
        via_log = escape_bound(params, 0.05,
                               log_phi_at_entry=math.log(1e-12))
        assert via_log == pytest.approx(direct, rel=1e-12)

    def test_epsilon_too_large(self):
        params = CanonicalParams(*([0.5] * 6))
        with pytest.raises(EpsilonTooLarge):
            escape_bound(params, 1.0 / 6.0, 1e-12)

    def test_params_must_be_strict(self):
        with pytest.raises(ValidationError):
            escape_bound((0.0, 0.5, 0.5, 0.5, 0.5, 0.5), 0.05, 1e-12)

    def test_c_abs_formula(self):
        params = CanonicalParams(0.5, 0.2, 0.3, 0.6, 0.1, 0.8)
        expected = max(1 / (1 - 0.5), 1 / (1 - max(0.2, 0.6)),
                       1 / (1 - max(0.1, 0.8)))
        assert c_abs(params) == pytest.approx(expected, rel=1e-15)


class TestRouteCheck:
    def test_admissible_sequence(self):
        assert route_check([1, 4, 3, 2, 1, 4, 2, 1])

    def test_one_must_go_to_four(self):
        assert not route_check([1, 3, 2, 1, 4, 2, 1])

    def test_needs_two_cycles(self):
        assert not route_check([1, 4, 2, 1])

    def test_long_run_route(self, all_half, generic_start4):
        cfg = TrajectoryConfig(all_half, generic_start4, 200_000,
                               record_stride=10_000)
        table = run_trajectory(cfg).sojourn
        assert route_check(table)


class TestSojournGrowth:
    def test_monotone_lengths(self):
        assert sojourn_growth((10, 25, 70, 190))

    def test_single_violation_zero_tolerance(self):
        assert not sojourn_growth((10, 25, 12, 190), max_violation_rate=0.0)
        assert not sojourn_growth((10, 25, 12, 190))  # int(4*0.1) == 0

    def test_violation_within_tolerance(self):
        lengths = (5, 10, 20, 40, 80, 75, 160, 320, 640, 1280)
        assert sojourn_growth(lengths)  # one violation, ten sojourns

    def test_first_sojourn_ignored(self):
        assert sojourn_growth((100, 10, 20, 40))

    def test_too_few(self):
        with pytest.raises(TooFewSojourns):
            sojourn_growth((10, 20))


class TestOutsideFraction:
    def test_decade_windows_cover_run(self):
        ws = decade_windows(10**6)
        assert ws[0] == (0, 10)
        assert ws[-1] == (10**5, 10**6)
        total = sum(e - s for s, e in ws)
        assert total == 10**6

    def test_never_leaving_gives_zero(self, all_half):
        start = validate((0.97, 0.01, 0.01, 0.01))
        cfg = TrajectoryConfig(all_half, start, 50, record_stride=10)
        res = run_trajectory(cfg)
        trend = outside_fraction_trend(res.sojourn)
        if res.sojourn.events[0].censored:          # never left
            assert all(f == 0.0 for _, f in trend)

    def test_dominant_row_fraction_eventually_zero(self, dominant_row_matrix,
                                                   generic_start4):
        cfg = TrajectoryConfig(dominant_row_matrix, generic_start4, 100_000,
                               record_stride=10_000)
        res = run_trajectory(cfg)
        trend = outside_fraction_trend(res.sojourn)
        assert trend[-1][1] == 0.0


class TestVerdict:
    def test_constant_series_converged(self):
        s = CesaroSeries("x1", tuple((2 ** k, 0.25) for k in range(10)))
        v = ergodic_verdict([s])
        assert v.verdict == Verdict.CONVERGED_AT_SCALE
        assert v.max_oscillation == 0.0

    def test_oscillating_series(self):
        vals = [(2 ** k, 0.2 + 0.3 * (k % 2)) for k in range(12)]
        v = ergodic_verdict([CesaroSeries("x1", tuple(vals))])
        assert v.verdict == Verdict.OSCILLATING_AT_SCALE

    def test_inconclusive_between_thresholds(self):
        vals = [(2 ** k, 0.2 + 0.005 * (k % 2)) for k in range(12)]
        v = ergodic_verdict([CesaroSeries("x1", tuple(vals))])
        assert v.verdict == Verdict.INCONCLUSIVE

    def test_too_few_checkpoints(self):
        s = CesaroSeries("x1", tuple((2 ** k, 0.25) for k in range(5)))
        with pytest.raises(TooFewCheckpoints):
            ergodic_verdict([s])

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            ergodic_verdict([])

    def test_thresholds_must_be_ordered(self):
        s = CesaroSeries("x1", tuple((2 ** k, 0.25) for k in range(10)))
        with pytest.raises(ValidationError):
            ergodic_verdict([s], delta_conv=0.1, delta_osc=0.01)

    def test_dominant_row_matrix_converges(self, dominant_row_matrix,
                                           generic_start4):
        # at 2^16 the 1/n transient still dominates the trailing window, so
        # only non-oscillation is asserted here; the full converged verdict
        # at 2^22 is acceptance criterion 6
        cfg = TrajectoryConfig(dominant_row_matrix, generic_start4, 2 ** 16,
                               record_stride=2 ** 12)
        res = run_trajectory(cfg)
        v = ergodic_verdict(res.cesaro)
        assert v.verdict != Verdict.OSCILLATING_AT_SCALE
        # trajectory heads into the dominant vertex
        assert math.exp(res.final.log_coords[0]) > 0.99


class TestShrinkage:
    def test_log_phi_trace_matches_extended_precision(self, all_half,
                                                      generic_start4):
        # independent oracle: same orbit in 60-digit arithmetic
        from mpmath import mp, mpf

        mp.dps = 60
        steps, stride = 3000, 100
        rows = [[mpf(v) for v in row] for row in all_half.rows]
        x = [mpf("0.4"), mpf("0.3"), mpf("0.2"), mpf("0.1")]
        oracle = {}
        for n in range(steps + 1):
            if n % stride == 0:
                oracle[n] = float(mp.log(max(x[0] * x[1] * x[3],
                                             x[0] * x[2] * x[3])))
            y = [x[k] * (1 + sum(rows[k][i] * x[i] for i in range(4)))
                 for k in range(4)]
            s = sum(y)
            x = [v / s for v in y]

        cfg = TrajectoryConfig(all_half, generic_start4, steps,
                               record_stride=stride)
        res = run_trajectory(cfg)
        for step, lp in zip(res.trace_steps, res.trace_log_phi):
            assert lp == pytest.approx(oracle[step], rel=1e-10, abs=1e-10)

    def test_phi_below_threshold_by_1e5(self, all_half, generic_start4):
        cfg = TrajectoryConfig(all_half, generic_start4, 100_000,
                               record_stride=100_000)
        res = run_trajectory(cfg)
        assert res.min_log_phi <= math.log(1e-6)

    def test_random_canonical_shrinkage(self, rng):
        for _ in range(3):
            a = random_canonical_matrix(rng)
            for start in interior_points(4, 2, rng):
                cfg = TrajectoryConfig(a, start, 100_000,
                                       record_stride=100_000)
                res = run_trajectory(cfg, observables=[])
                assert res.min_log_phi <= math.log(1e-6)

    def test_repeller_monomial_decays_per_decade(self, all_half,
                                                 generic_start4):
        # exponents of the repelling face point: log F falls every decade
        from volqso.fixed_points import face_fixed_point
        from volqso.simplex import FaceId

        rec = face_fixed_point(all_half, FaceId((1, 3, 4)))
        lam = rec.point.coords
        cfg = TrajectoryConfig(all_half, generic_start4, 100_000,
                               record_stride=10)
        res = run_trajectory(cfg, [MonomialObservable(lam, name="F")])
        trace = dict(zip(res.trace_steps, res.monomial_traces["F"]))
        for n0, n1 in ((100, 1000), (1000, 10_000), (10_000, 100_000)):
            assert trace[n1] < trace[n0]


# every float form a CSV value can take: non-finite values, a signed zero, a
# subnormal, and either side of both layout boundaries (1e-4 and 1e16)
SPECIAL = (float("nan"), INF, -INF, -0.0, 5e-324, 1e308, 1e-05, 0.0001, 1e16,
           9999999999999998.0, 123456789.0, math.copysign(math.nan, -1.0))


def special_result() -> TrajectoryResult:
    """A result holding every float form a CSV value can take, and monomial
    names the CSV has to quote."""
    events = (
        SojournEvent(1, 0, 9, float("nan"), True),
        SojournEvent(4, 12, 40, -INF, False),
        SojournEvent(3, 50, 51, -0.0, False),
        SojournEvent(2, 300, None, -745.0, False),
    )
    return TrajectoryResult(
        m=4, steps=1000, epsilon=0.05,
        observable_names=("x1", "x2", "F,1", 'G"q'),
        cesaro=tuple(CesaroSeries(name, tuple(zip(range(1, 13), values)))
                     for name, values in (
                         ("x1", SPECIAL), ("x2", SPECIAL[::-1]),
                         ("F,1", SPECIAL[1:] + SPECIAL[:1]),
                         ('G"q', (0.1, 1 / 3, 2.5, -7.0, 1e-5, 1e16) * 2))),
        sojourn=SojournTable(events, total_steps=1000, epsilon=0.05, m=4),
        trace_steps=array("q", range(12)),
        trace_log_coords=array("d", (float("nan"), INF, -INF, -0.0,
                                     -745.0, 709.0, 5e-324, -1e-300,
                                     -0.1, -1.5, -2.5, -3.5) * 4),
        trace_log_phi=array("d", SPECIAL),
        monomial_traces={"F,1": array("d", SPECIAL[::-1]),
                         'G"q': array("d", SPECIAL)},
        min_log_phi=-INF,
        final=LogSimplexPoint((0.0, -INF, -INF, -INF)),
        max_abs_drift=0.0,
    )


def csv_reference(rows) -> bytes:
    """The rows written the way the CSV writers did before they passed
    floats to csv.writer: each float as repr(float(v))."""
    buf = io.StringIO()
    csv.writer(buf).writerows(
        [repr(float(v)) if isinstance(v, float) else v for v in row]
        for row in rows)
    return buf.getvalue().encode()


@pytest.fixture(params=["compiled", "python"])
def csv_backend(request, monkeypatch):
    """Send the CSV writers' rows through one backend's formatter."""
    if request.param not in kernel.available_backends():
        pytest.skip("compiled kernel not built")
    monkeypatch.setattr(kernel, "format_rows",
                        kernel.get_formatter(request.param))


class TestCsvFormat:
    def test_writers_match_reference_bytes(self, tmp_path, csv_backend):
        res = special_result()
        monos = list(res.monomial_traces)
        expected = {
            write_trajectory_csv: [["step", "x1", "x2", "x3", "x4"]] + [
                [n, *map(math.exp, res.trace_log_coords[4 * i:4 * i + 4])]
                for i, n in enumerate(res.trace_steps)],
            write_cesaro_csv: [["n", *res.observable_names]] + [
                [n, *(s.values[i] for s in res.cesaro)]
                for i, n in enumerate(res.cesaro[0].ns)],
            write_sojourn_csv: [[
                "vertex", "entry_step", "exit_step", "length", "censored",
                "started_inside", "log_phi_entry", "phi_entry"]] + [
                [e.vertex, e.entry_step, -1 if e.censored else e.exit_step,
                 -1 if e.censored else e.length, int(e.censored),
                 int(e.started_inside), e.log_phi_entry, e.phi_entry]
                for e in res.sojourn.events],
            write_phi_csv: [["step", "phi", "log_phi",
                             *(f"log_{n}" for n in monos)]] + [
                [n, math.exp(lp) if lp <= 0.0 else float("nan"), lp,
                 *(res.monomial_traces[name][i] for name in monos)]
                for i, (n, lp) in enumerate(zip(res.trace_steps,
                                                res.trace_log_phi))],
            write_outside_csv: [["window_start", "window_end",
                                 "outside_fraction"]] + [
                [ws, we, frac] for (ws, we), frac
                in outside_fraction_trend(res.sojourn)],
        }
        for writer, rows in expected.items():
            path = tmp_path / f"{writer.__name__}.csv"
            writer(path, res)
            data = path.read_bytes()
            assert data == csv_reference(rows), writer.__name__
            assert data.endswith(b"\r\n")
        phi = (tmp_path / "write_phi_csv.csv").read_bytes()
        assert phi.startswith(b'step,phi,log_phi,"log_F,1","log_G""q"\r\n')
        assert b",-0.0," in phi and b",5e-324," in phi
        for text in (b"1e-05", b"0.0001", b"1e+16", b"9999999999999998.0",
                     b"123456789.0"):
            assert b"," + text + b"," in phi
        assert b"-nan" not in phi
