import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from conftest import hann_phasors
from vibroident import dsp
from vibroident.dsp import (
    FilterCoefficients,
    design_bandpass,
    filter_gain,
    _basis,
    _phase_at,
    filtfilt,
    fit_sine,
    hann_basis,
)
from vibroident.errors import DesignError, FilterError, FitError
from vibroident.timeseries import TimeSeries, TimeSeriesSet


def sine_series(f, fs=200.0, dur=10.0, amp=1.0, phase=0.0, t0=0.0, extra=None):
    t = t0 + np.arange(int(dur * fs) + 1) / fs
    u = amp * np.sin(2 * np.pi * f * t + phase)
    if extra is not None:
        u = u + extra(t)
    return TimeSeries(t0, fs, u, "m/s^2", "u")


def gain_from_polynomials(coeffs: FilterCoefficients, f: float) -> float:
    # independent of sosfreqz: evaluate B(z)/A(z) on the unit circle
    b, a = sps.sos2tf(coeffs.sos)
    z = np.exp(-1j * 2 * np.pi * f / coeffs.fs)
    num = np.polyval(b[::-1], z)
    den = np.polyval(a[::-1], z)
    return abs(num / den)


class TestDesign:
    def test_coefficient_count(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        b, a = sps.sos2tf(c.sos)
        assert len(b) == 11 and len(a) == 11
        assert a[0] == pytest.approx(1.0)
        assert c.pad_len == 3 * len(b)

    def test_corner_magnitudes_minus_3db(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        target = 10 ** (-3 / 20)
        for f in (1.0, 25.0):
            assert filter_gain(c, f)[0] == pytest.approx(target, abs=0.01)
            assert gain_from_polynomials(c, f) == pytest.approx(target, abs=0.01)

    def test_midband_gain(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        assert filter_gain(c, math.sqrt(25.0))[0] >= 0.999

    def test_dc_is_exact_zero(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        # band-pass sections carry zeros at z = +-1
        assert filter_gain(c, 0.0)[0] == 0.0

    def test_corner_above_nyquist_rejected(self):
        with pytest.raises(DesignError):
            design_bandpass(5, 1.0, 120.0, 200.0)
        with pytest.raises(DesignError):
            design_bandpass(5, -1.0, 25.0, 200.0)

    @pytest.mark.parametrize(
        "order, f_low", [(0, 1.0), (13, 1.0), (10**9, 1.0), (5, 5e-324)],
        ids=["order_0", "order_13", "order_1e9", "corner_underflows"],
    )
    def test_order_and_degenerate_corner_rejected(self, order, f_low):
        with pytest.raises(DesignError):
            design_bandpass(order, f_low, 25.0, 200.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_poles_inside_unit_circle(self, order):
        c = design_bandpass(order, 1.0, 25.0, 200.0)
        for section in c.sos:
            poles = np.roots(section[3:])
            assert np.all(np.abs(poles) < 1.0)


class TestFiltFilt:
    def test_inband_amplitude_and_phase(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        ts = sine_series(10.0, dur=30.0)
        out = filtfilt(c, ts)
        fit = fit_sine(out, 10.0)
        expected = filter_gain(c, 10.0)[0] ** 2
        assert fit.amplitude == pytest.approx(expected, rel=0.01)
        assert abs(fit.phase) < math.radians(0.5)

    def test_constant_input_suppressed(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        ts = TimeSeries(0.0, 200.0, np.full(2000, 3.7), "m/s^2", "u")
        out = filtfilt(c, ts)
        assert np.max(np.abs(out.values)) < 1e-6 * 3.7

    def test_50hz_attenuated_60db(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        assert filter_gain(c, 50.0)[0] ** 2 < 10 ** (-60 / 20)
        ts = sine_series(50.0, dur=30.0)
        out = filtfilt(c, ts)
        # steady mid-section, away from edge transients
        mid = out.values[2000:-2000]
        assert np.max(np.abs(mid)) < 10 ** (-60 / 20)

    def test_too_short_raises(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        ts = TimeSeries(0.0, 200.0, np.zeros(c.pad_len), "m/s^2", "u")
        with pytest.raises(FilterError):
            filtfilt(c, ts)

    def test_time_reversal_symmetry(self):
        # zero-phase filtering is time-symmetric once the edge transients of
        # the 1 Hz corner (~15 s to 1e-12) have died out
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        rng = np.random.default_rng(3)
        ts = TimeSeries(0.0, 200.0, rng.standard_normal(16000), "m/s^2", "u")
        rev = ts.with_values(ts.values[::-1])
        lhs = filtfilt(c, rev).values
        rhs = filtfilt(c, ts).values[::-1]
        margin = int(20 * 200)
        interior = slice(margin, -margin)
        assert np.max(np.abs(lhs[interior] - rhs[interior])) < 1e-12


    def test_record_rows_equal_channel_filtering(self):
        c = design_bandpass(5, 1.0, 25.0, 200.0)
        rng = np.random.default_rng(5)
        tss = TimeSeriesSet(1.5, 200.0, rng.standard_normal((3, 4000)), ("a", "b", "c"), ("m",) * 3)
        out = filtfilt(c, tss)
        assert out.labels == tss.labels and out.start_time == tss.start_time
        for row, ts in zip(out, tss):
            assert np.array_equal(row.values, filtfilt(c, ts).values)


#: (order, fs, n): orders 1, 5 and MAX_ORDER at both rates, from one sample
#: past the padding (n = None) to a long record
TRANSPOSE_CASES = [
    (order, fs, n) for order in (1, 5, dsp.MAX_ORDER) for fs in (200.0, 512.0) for n in (None, 3001, 30000)
]


@pytest.mark.parametrize("order, fs, n", TRANSPOSE_CASES)
def test_transpose_is_the_adjoint_of_filtfilt(order, fs, n):
    # <filtfilt(x), k> = <x, filtfilt_transpose(k)> for kernels on the first
    # sample, on the last, on both edges' padding and on the whole record,
    # within 1e-13 of the largest the product can be, |filtfilt(x)| |k|
    c = design_bandpass(order, 1.0, 25.0, fs)
    n = n or c.pad_len + 1
    rng = np.random.default_rng(order * n)
    x = rng.standard_normal((3, n)) + rng.uniform(-3.0, 3.0, (3, 1))
    edge = min(n // 2, 2 * c.pad_len)
    k = np.zeros((4, n))
    k[0, 0] = k[1, -1] = 1.0
    k[2, :edge] = np.hanning(edge)
    k[2, -edge:] -= np.hanning(edge)
    k[3] = rng.standard_normal(n)
    filtered = filtfilt(c, TimeSeriesSet(0.0, fs, x, ("a", "b", "c"), ("m",) * 3)).values
    kt = dsp.filtfilt_transpose(c, k)
    assert kt.shape == k.shape
    scale = np.linalg.norm(filtered, axis=1)[:, None] * np.linalg.norm(k, axis=1)
    assert np.max(np.abs(filtered @ k.T - x @ kt.T) / scale) < 1e-13


def test_transpose_too_short_raises():
    c = design_bandpass(5, 1.0, 25.0, 200.0)
    with pytest.raises(FilterError):
        dsp.filtfilt_transpose(c, np.ones((2, c.pad_len)))


#: (fs, f_low, f_high): the analysis default, the same band at 512 Hz, and
#: two low corners at f_low/fs <= 1/512, where the poles crowd z = 1
REFERENCE_BANDS = [
    (200.0, 1.0, 25.0),
    (512.0, 1.0, 25.0),
    (200.0, 200.0 / 512.0, 50.0),
    (512.0, 0.5, 128.0),
]
REFERENCE_CASES = [(order, *band) for order in range(1, 7) for band in REFERENCE_BANDS]


def butterworth_magnitude(order, f_low, f_high, fs, f):
    """|H| of the digital Butterworth band-pass in closed form, on the
    pre-warped axis Omega = tan(pi f / fs)."""
    w, lo, hi = (np.tan(np.pi * np.asarray(v) / fs) for v in (f, f_low, f_high))
    return 1.0 / np.sqrt(1.0 + ((w * w - lo * hi) / ((hi - lo) * w)) ** (2 * order))


@pytest.mark.parametrize("order, fs, f_low, f_high", REFERENCE_CASES)
class TestScipyReference:
    def test_sections_match_butter(self, order, fs, f_low, f_high):
        c = design_bandpass(order, f_low, f_high, fs)
        ref = sps.butter(order, [f_low, f_high], btype="bandpass", fs=fs, output="sos")
        assert c.sos.shape == ref.shape
        assert np.max(np.abs(c.sos - ref)) < 1e-12

    def test_gain_matches_sosfreqz_and_closed_form(self, order, fs, f_low, f_high):
        c = design_bandpass(order, f_low, f_high, fs)
        ref = sps.butter(order, [f_low, f_high], btype="bandpass", fs=fs, output="sos")
        f = np.geomspace(f_low / 2.0, min(2.0 * f_high, 0.45 * fs), 4001)
        _, h = sps.sosfreqz(ref, worN=f, fs=fs)
        gain = filter_gain(c, f)
        assert np.max(np.abs(gain / np.abs(h) - 1.0)) < 1e-10
        exact = butterworth_magnitude(order, f_low, f_high, fs, f)
        assert np.max(np.abs(gain / exact - 1.0)) < 1e-10

    def test_rows_match_sosfiltfilt(self, order, fs, f_low, f_high):
        # bench length (24,796 samples), and twice a full default row
        # (180,000: 12 scan levels); offset, sub-corner drift, in-band
        # tone, noise
        c = design_bandpass(order, f_low, f_high, fs)
        ref_sos = sps.butter(order, [f_low, f_high], btype="bandpass", fs=fs, output="sos")
        rng = np.random.default_rng(order)
        for rows, n in ((4, 24796), (2, 180000)):
            t = np.arange(n) / fs
            values = (
                rng.standard_normal((rows, t.size))
                + rng.uniform(-3.0, 3.0, (rows, 1))
                + 2.0 * np.sin(2 * np.pi * 0.4 * f_low * t)
                + 5.0 * np.sin(2 * np.pi * math.sqrt(f_low * f_high) * t)
            )
            labels = tuple("abcd"[:rows])
            record = TimeSeriesSet(0.0, fs, values, labels, ("m",) * rows)
            out = filtfilt(c, record).values
            for row, x in zip(out, values):
                ref = sps.sosfiltfilt(ref_sos, x, padtype="odd", padlen=c.pad_len)
                assert np.max(np.abs(row - ref)) < 1e-10 * np.max(np.abs(ref))


def grid_search_sine(t, u, f_fixed, a_span=(0.0, 2.0), rounds=6, n=81):
    """Brute-force (amplitude, phase) search at a fixed frequency."""
    w = 2 * np.pi * f_fixed
    a_lo, a_hi = a_span
    p_lo, p_hi = -np.pi, np.pi
    best = (np.inf, None, None)
    for _ in range(rounds):
        amps = np.linspace(a_lo, a_hi, n)
        phs = np.linspace(p_lo, p_hi, n)
        for a in amps:
            res = u[None, :] - a * np.sin(w * t[None, :] + phs[:, None])
            sse = np.sum(res * res, axis=1)
            k = int(np.argmin(sse))
            if sse[k] < best[0]:
                best = (sse[k], a, phs[k])
        da = (a_hi - a_lo) / (n - 1)
        dp = (p_hi - p_lo) / (n - 1)
        a_lo, a_hi = best[1] - 2 * da, best[1] + 2 * da
        p_lo, p_hi = best[2] - 2 * dp, best[2] + 2 * dp
    return best[1], best[2], math.sqrt(best[0] / len(u))


class TestFitSine:
    def test_exact_recovery(self):
        ts = sine_series(10.0, dur=10.0)
        fit = fit_sine(ts, 10.0)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.frequency == pytest.approx(10.0, abs=1e-9)
        assert fit.phase == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_rms < 1e-9

    def test_offset_frequency_start(self):
        # the fit stays at the frequency it is given: the least-squares
        # sine at 10.7 Hz of a 10 Hz signal
        ts = sine_series(10.0, dur=10.0, amp=2.5, phase=0.8)
        fit = fit_sine(ts, 10.7)
        t = ts.times()
        g = np.column_stack([np.sin(2 * np.pi * 10.7 * t), np.cos(2 * np.pi * 10.7 * t)])
        (a, b), *_ = np.linalg.lstsq(g, ts.values, rcond=None)
        assert fit.frequency == 10.7
        assert fit.amplitude == pytest.approx(math.hypot(a, b), rel=1e-9)
        assert fit.phase == pytest.approx(math.atan2(b, a), abs=1e-9)

    def test_superharmonic_matches_grid_search_oracle(self):
        ts = sine_series(7.0, dur=40.0, extra=lambda t: 0.3 * np.sin(2 * np.pi * 14 * t))
        fit = fit_sine(ts, 7.0)
        a_ref, _, rms_ref = grid_search_sine(ts.times(), ts.values, 7.0)
        assert fit.amplitude == pytest.approx(a_ref, abs=1e-6)
        assert fit.residual_rms == pytest.approx(0.3 / math.sqrt(2), rel=1e-3)
        assert rms_ref == pytest.approx(0.3 / math.sqrt(2), rel=1e-3)

    def test_noisy_amplitude_monte_carlo(self):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sigma = 1.0 / math.sqrt(2 * 10 ** (20 / 10))  # 20 dB SNR
            ts = sine_series(10.0, dur=10.0, extra=lambda t: sigma * rng.standard_normal(t.size))
            fit = fit_sine(ts, 10.0)
            errs.append(abs(fit.amplitude - 1.0))
        assert np.percentile(errs, 95) < 0.02

    def test_monotone_refinement(self):
        rng = np.random.default_rng(11)
        ts = sine_series(9.7, dur=5.0, extra=lambda t: 0.1 * rng.standard_normal(t.size))
        fit = fit_sine(ts, 10.0)
        # stage-(i) reference: plain linear fit at the initial frequency
        t = ts.times()
        g = np.column_stack([np.sin(2 * np.pi * 10.0 * t), np.cos(2 * np.pi * 10.0 * t)])
        coef, *_ = np.linalg.lstsq(g, ts.values, rcond=None)
        rms_stage1 = math.sqrt(np.mean((ts.values - g @ coef) ** 2))
        assert fit.residual_rms <= rms_stage1 + 1e-15

    def test_too_few_cycles_raises(self):
        ts = sine_series(10.0, dur=0.2)
        with pytest.raises(FitError):
            fit_sine(ts, 10.0)

    @given(st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, s):
        ts = sine_series(9.3, dur=6.0, amp=1.0, phase=0.4)
        scaled = ts.with_values(s * ts.values)
        f1 = fit_sine(ts, 9.0)
        f2 = fit_sine(scaled, 9.0)
        assert f2.amplitude == pytest.approx(s * f1.amplitude, rel=1e-9)
        assert f2.omega == pytest.approx(f1.omega, rel=1e-9)
        assert f2.phase == pytest.approx(f1.phase, abs=1e-9)


def batch_rows(t, seed=17):
    """Channels of one window: clean, noisy, off-frequency, noise-only,
    zero and strongly scaled rows."""
    rng = np.random.default_rng(seed)
    w = 2 * np.pi * 8.0
    return np.stack([
        np.sin(w * t + 0.3),
        2.5 * np.sin(1.04 * w * t - 2.0) + 0.2 * rng.standard_normal(t.size),
        0.7 * np.sin(0.93 * w * t + 1.0) + 0.05 * np.sin(2 * w * t),
        0.01 * rng.standard_normal(t.size),
        np.zeros(t.size),
        1e4 * np.sin(w * t) + 30.0 * rng.standard_normal(t.size),
        0.3 * np.sin(1.08 * w * t + 3.0) + 0.3 * rng.standard_normal(t.size),
    ])


W8 = 2 * np.pi * 8.0


def window_phasors(t):
    """The analysis window's row map on the samples ``t``: its Hann
    projection at 8 Hz relative to a unit sine."""
    basis = hann_basis(t, np.sin(W8 * t), W8, t[0] + 0.01, t[-1] - 0.01)
    return lambda U: hann_phasors(basis, U)


class TestFitSines:
    """The rows of one window through its :func:`hann_basis`, row by row,
    and :func:`fit_sine` on one row."""

    def test_rows_of_a_large_batch_equal_one_row_calls(self):
        # the channel blocks of the analysis rely on it
        t = 312.4 + np.arange(1201) / 200.0
        U = np.vstack([batch_rows(t, seed) for seed in range(10)])
        rows_of = window_phasors(t)
        batch = rows_of(U)
        for row in range(len(U)):
            assert batch[row : row + 1].tobytes() == rows_of(U[row : row + 1]).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_rows_leave_the_other_rows_unchanged(self):
        t = 312.4 + np.arange(1201) / 200.0
        w = 2 * np.pi * 8.0
        normal = batch_rows(t)
        degenerate = np.array([
            np.full(t.size, 5.0),                    # constant
            1e300 * np.sin(w * t),                   # sums overflow
            1e-300 * np.sin(w * t + 1.0),            # products underflow
            np.r_[1.0, np.zeros(t.size - 1)],        # one spike
            np.sin(w * t) * (np.arange(t.size) % 2), # every other sample
            np.full(t.size, np.nan),
        ])
        rows = slice(3, 3 + len(normal))
        rows_of = window_phasors(t)
        mixed = rows_of(np.vstack([degenerate[:3], normal, degenerate[3:]]))
        assert mixed[rows].tobytes() == rows_of(normal).tobytes()

    def test_residual_is_that_of_the_returned_parameters(self):
        t = 40.0 + np.arange(801) / 200.0
        for u in batch_rows(t):
            fit = fit_sine(TimeSeries(t[0], 200.0, u), 8.0)
            r = u - fit.amplitude * np.sin(fit.omega * t + fit.phase)
            assert fit.residual_rms == pytest.approx(math.sqrt(np.mean(r * r)), rel=1e-6, abs=1e-12)

    def test_short_window_raises(self):
        with pytest.raises(FitError):
            fit_sine(TimeSeries(0.0, 200.0, np.zeros(50)), 10.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended long double")
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        rate=st.floats(min_value=50.0, max_value=2000.0),
        wdt=st.floats(min_value=1e-4, max_value=0.6),
        t0=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_basis_matches_exp(self, n, rate, wdt, t0):
        dt = 1.0 / rate
        omega = wdt / dt
        basis = _basis(omega, float(_phase_at(omega, t0)), dt, n)
        got = basis[:, 1] + 1j * basis[:, 0]
        # reference phase omega*(t0 + k*dt) in extended precision, reduced mod 2*pi
        two_pi = 8 * np.arctan(np.longdouble(1))
        k = np.arange(n, dtype=np.longdouble)
        theta = np.longdouble(omega) * (np.longdouble(t0) + k * np.longdouble(dt))
        theta = (theta - two_pi * np.rint(theta / two_pi)).astype(float)
        assert np.max(np.abs(got - np.exp(1j * theta))) < 1e-11


class TestFitSinesAt:
    """:func:`fit_sine` at a known omega."""

    def test_noise_free_rows_recover_their_phasors(self):
        # a late window: phases are reported on the absolute axis
        t = 312.4 + np.arange(1201) / 200.0
        w = 2 * np.pi * 8.3
        for amp, phase in zip([1.0, 2.5, 1e-3, 1e4, 0.0], [0.3, -2.0, 3.1, -0.7, 0.0]):
            fit = fit_sine(TimeSeries(t[0], 200.0, amp * np.sin(w * t + phase)), 8.3)
            assert fit.omega == w
            assert abs(fit.phasor - amp * np.exp(1j * phase)) / max(amp, 1.0) < 1e-9
            # the explicit residual: measured up to 9e-13 of the amplitude
            r = amp * np.sin(w * t + phase) - fit.amplitude * np.sin(w * t + fit.phase)
            assert math.sqrt(np.mean(r * r)) < 1e-11 * max(amp, 1.0)

    def test_rows_take_one_linear_solve(self):
        # one linear solve on the basis at the given omega, phased at the
        # first sample: the projections times the pinv of the 2x2 Gram
        t = 40.0 + np.arange(801) / 200.0
        w = 2 * np.pi * 8.0
        dt = (t[-1] - t[0]) / (t.size - 1)
        basis = _basis(w, float(_phase_at(w, t[0])), dt, t.size)
        P = np.linalg.pinv(basis.T @ basis)
        for u in batch_rows(t):
            proj = dsp._project(u[None], basis)
            a, b = (proj[:, :1] * P[:, 0] + proj[:, 1:] * P[:, 1])[0]
            single = fit_sine(TimeSeries(t[0], 200.0, u), 8.0)
            assert (single.amplitude, single.phase) == (np.hypot(a, b), dsp._wrap_phase(np.arctan2(b, a)))

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf, 2 * np.pi * 0.4])
    def test_bad_frequency_or_short_window_raises(self, omega):
        with pytest.raises(FitError):
            fit_sine(TimeSeries(0.0, 200.0, np.zeros(1201)), omega / (2 * np.pi))


class TestFitSinesDrift:
    """A stepped dwell whose drive drifts off its nominal frequency, read
    as the analysis reads it: :func:`hann_basis` at the program's nominal
    omega, each row over the force row."""

    #: largest |ratio at the nominal omega / ratio at the drive's omega - 1|
    #: over the three window lengths, the three frequencies and the rows'
    #: phases, per frequency offset, as measured (1.1e-16, 9.8e-7, 9.5e-6
    #: and 6.9e-5)
    RATIO_CHANGE = {0.0: 1e-15, 1e-4: 1.5e-6, 1e-3: 1.5e-5, 1e-2: 1e-4}
    #: largest |ratio / true ratio - 1| per window length in cycles, as
    #: measured (2.4e-3, 1.2e-4 and 5.0e-5): the negative frequency's image
    #: through the short window, and the noise; the offset moves none of them
    TRUTH_ERROR = {3.2: 3e-3, 6.0: 2e-4, 20.0: 1e-4}

    @pytest.mark.parametrize("offset", sorted(RATIO_CHANGE))
    @pytest.mark.parametrize("cycles", [3.2, 6.0, 20.0])
    def test_drift_omega_tracks_an_offset_drive(self, cycles, offset):
        # four response rows and a force row at 1e-4 noise of their
        # amplitude, at one drive frequency off the nominal one: the rows
        # over the force read at the nominal omega stay close to the same
        # ratios read at the drive's omega, and to the true ones
        rng = np.random.default_rng(int(cycles * 10) + int(1e4 * offset))
        amp = np.array([100.0, 80.0, 120.0, 60.0])
        for f in (1.5, 8.0, 20.0):
            t = 312.4 + np.arange(int(cycles / f * 512.0) + 1) / 512.0
            w = 2 * np.pi * f * (1.0 + offset)
            for _ in range(4):
                phase = rng.uniform(-np.pi, np.pi, 4)
                U = amp[:, None] * np.sin(w * t + phase[:, None]) + 0.01 * rng.standard_normal((4, t.size))
                F = 50.0 * np.sin(w * t + 0.3) + 0.01 * rng.standard_normal(t.size)
                nominal = hann_basis(t, np.sin(2 * np.pi * f * t), 2 * np.pi * f, t[0], t[-1])
                drive = hann_basis(t, np.sin(w * t), w, t[0], t[-1])
                at_nominal = hann_phasors(nominal, U) / hann_phasors(nominal, F)[0]
                at_drive = hann_phasors(drive, U) / hann_phasors(drive, F)[0]
                assert np.max(np.abs(at_nominal / at_drive - 1.0)) <= self.RATIO_CHANGE[offset]
                truth = amp * np.exp(1j * (phase - 0.3)) / 50.0
                assert np.max(np.abs(at_nominal / truth - 1.0)) <= self.TRUTH_ERROR[cycles]


class TestHannPhasors:
    """:func:`hann_basis`: rows read through it, over its reference."""

    def test_rows_read_their_phasor_against_a_chirp_reference(self):
        # one chirp (1 Hz + 0.4 Hz/s, 5 Hz at 10 s) at two sample rates:
        # rows that are the reference scaled and shifted read that factor;
        # samples outside the window weigh nothing
        for fs in (200.0, 512.0):
            t = np.arange(int(20 * fs) + 1) / fs
            phi = 2 * np.pi * (t + 0.2 * t * t)
            amp = np.array([1.0, 2.5, 1e4, 0.0])
            shift = np.array([0.0, 0.7, -2.0, 0.0])
            U = amp[:, None] * np.sin(phi + shift[:, None])
            basis = hann_basis(t, np.sin(phi), 2 * np.pi * 5.0, 7.5, 12.5)
            got = hann_phasors(basis, U)
            assert got[0] == pytest.approx(1.0, abs=1e-14)
            # measured 2.3e-6: the window's leakage of the negative frequency
            assert np.max(np.abs(got - amp * np.exp(1j * shift)) / np.maximum(amp, 1.0)) < 1e-5

    @pytest.mark.parametrize("cut", [slice(2, None), slice(None, -2), slice(0, 0)])
    def test_window_the_samples_do_not_cover_raises(self, cut):
        # the samples at the window's ends weigh nothing; cut one more
        t = 7.5 + np.arange(1001) / 200.0
        u = np.sin(2 * np.pi * 5.0 * t)
        hann_basis(t, u, 2 * np.pi * 5.0, 7.5, 12.5)
        with pytest.raises(FitError, match="does not cover the window"):
            hann_basis(t[cut], u[cut], 2 * np.pi * 5.0, 7.5, 12.5)
