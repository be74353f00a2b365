"""Signal conditioning and sinusoidal parameter estimation.

Band-pass Butterworth design (bilinear transform with pre-warping,
realized as second-order sections), zero-phase filtering as one blocked
state recurrence and its exact transpose, and the one estimator of an
analysis window.  numpy is the only dependency.

Every analysis window, a stepped dwell or a sweep crossing, has one
frequency and one estimator, which both of its records use:
:func:`hann_basis` (:class:`HannBasis`), the Hann kernel's real and
imaginary parts at the window's frequency, applied to rows, one product
per row, and divided by the same projection of the program's drive.  The
analysis filters a response window's kernel by :func:`filtfilt_transpose`,
keeps it on the support that :func:`kernel_support` cuts, and applies
every window's kernel to the raw rows in one pass over a stream of blocks
of rows (:func:`project_blocks`).  :func:`fit_sine` is the one-row
least-squares fit of a sinusoid at a given frequency, with its explicit
residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, FilterError, FitError
from .recurrence import block_operators, carry
from .timeseries import TimeSeries, TimeSeriesSet


@dataclass(frozen=True)
class FilterCoefficients:
    """Band-pass IIR filter as second-order sections, designed at rate ``fs``.

    A band-pass of order n has n sections; the transfer-function
    polynomials are never formed, filtering runs on the sections.
    """

    sos: np.ndarray
    fs: float

    @property
    def pad_len(self) -> int:
        """Edge padding of the zero-phase filter: three times 2n+1 taps."""
        return 3 * (2 * len(self.sos) + 1)

    @functools.cached_property
    def operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W, F, steady) of :func:`filtfilt`'s blocked recurrence, built
        once per design."""
        return _block_operators(self.sos)


@dataclass(frozen=True)
class SineFit:
    """u(t) = amplitude * sin(omega * t + phase), t absolute seconds."""

    amplitude: float
    omega: float            # rad/s
    phase: float            # rad, wrapped to (-pi, pi]
    residual_rms: float

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)

    @property
    def phasor(self) -> complex:
        """Complex amplitude: u(t) = Im(phasor * exp(i*omega*t))."""
        return self.amplitude * np.exp(1j * self.phase)


#: highest band-pass order designed: on a 5-8 Hz band at 200 Hz, order 12
#: filters within 5e-14 of each row's peak of an extended-precision
#: reference, and order 16 is off by 8e-10
MAX_ORDER = 12


def design_bandpass(order: int, f_low: float, f_high: float, fs: float) -> FilterCoefficients:
    """Butterworth band-pass with -3 dB corners at f_low and f_high.

    The analog low-pass prototype poles -exp(i*pi*(2k+1-n)/(2n)) go through
    the low-pass to band-pass map s -> (s^2 + w0^2) / (bw*s), with corners
    pre-warped for the bilinear map s = 2 (z - 1) / (z + 1) that takes them
    to the z-plane.  The 2n poles and the 2n zeros (n at z = +1, n at
    z = -1) are paired into n sections as scipy's ``zpk2sos`` pairs them:
    conjugate pairs, the two real poles (if any) together, each with the two
    zeros nearest its pole, the section with the pole nearest the unit
    circle last.  The gain sits in the first section.

    Pairing each pole with the zeros nearest it keeps the cascade's inner
    signals small.  With one zero at +1 and one at -1 in every section
    instead, the filtered rows drifted from an extended-precision reference
    by 3e-11 of their peak at order 6 and f_low/fs = 1/1024, and by 5e-8
    at order 10 and f_low/fs = 1/512; with this pairing, by 2e-13 and 5e-14.
    """
    if not 1 <= order <= MAX_ORDER:
        raise DesignError(f"order must be 1..{MAX_ORDER}, got {order}")
    if not 0.0 < f_low < f_high:
        raise DesignError(f"need 0 < f_low < f_high, got {f_low}, {f_high}")
    if f_high >= fs / 2.0:
        raise DesignError(f"corner {f_high} Hz at or above Nyquist {fs / 2.0} Hz")
    lo, hi = 2.0 * np.tan(np.pi * np.array([f_low, f_high]) / fs)
    bw = hi - lo
    half = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order)) * (bw / 2.0)
    root = np.sqrt(half * half - lo * hi)
    analog = np.concatenate([half + root, half - root])
    # the n analog zeros at s = 0 map to z = +1, the n at infinity to z = -1
    gain = (2.0 * bw) ** order / np.prod(2.0 - analog).real
    poles = (2.0 + analog) / (2.0 - analog)
    if not np.all(np.abs(poles) < 1.0):
        raise DesignError(f"corners {f_low}, {f_high} Hz put a pole on the unit circle at {fs} Hz")

    def worst(p):
        return abs(1.0 - abs(p))

    # one pole of each conjugate pair, or the real pair with its pole
    # nearest the unit circle first; pairs taken from the unit circle
    # outwards, each with the two zeros nearest its pole
    pairs = [(p, p.conjugate()) for p in poles[poles.imag > 0]]
    real = sorted(poles[poles.imag == 0].real, key=worst)
    if real:
        pairs.append(tuple(real))
    pairs.sort(key=lambda pq: worst(pq[0]))
    left = {1.0: order, -1.0: order}
    rows = []
    for p, q in pairs:
        near = 1.0 if p.real > 0 else -1.0
        z1 = near if left[near] else -near
        left[z1] -= 1
        z2 = near if left[near] else -near
        left[z2] -= 1
        rows.append([1.0, -(z1 + z2), z1 * z2, 1.0, -(p + q).real, (p * q).real])
    sos = np.array(rows[::-1])
    sos[0, :3] *= gain
    return FilterCoefficients(sos=sos, fs=fs)


def filter_gain(coeffs: FilterCoefficients, freqs) -> np.ndarray:
    """|H(f)| of the single-pass filter: the product of the section
    responses at z^-1 = exp(-2*pi*i*f/fs)."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    z = np.exp(-2j * np.pi * freqs / coeffs.fs)[..., None]
    b0, b1, b2, a0, a1, a2 = coeffs.sos.T
    return np.abs(np.prod((b0 + z * (b1 + z * b2)) / (a0 + z * (a1 + z * a2)), axis=-1))


def _state_space(sos: np.ndarray):
    """The section cascade as one recurrence on 2n states,
    s[k] = A s[k-1] + B x[k] and y[k] = C s[k-1] + D x[k].

    Each section keeps its two states in normal form: a rotation-scaling
    block [[sigma, -omega], [omega, sigma]] for a complex pole pair, with
    input and output vectors of equal length, and two first-order stages
    for real poles.  The direct-form blocks [[-a1, 1], [-a2, 0]] are far
    from normal for poles near z = 1, and the blocked recurrence multiplies
    by powers of A.  On a 5-8 Hz band at 200 Hz, in direct form ||A^j||
    reached 6e8 at order 8 and 1e14 at order 12, and the filtered rows
    were off an extended-precision reference by 1.5e-11 and 7e-10 of their
    peak; in normal form by 5e-15 and 4e-14.
    """
    size = 2 * len(sos)
    A = np.zeros((size, size))
    B = np.zeros(size)
    c, d = np.zeros(size), 1.0          # a section's input is c . s + d x
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        j = slice(2 * i, 2 * i + 2)
        # strictly proper part of the section: (n1 z + n2) / (z^2 + a1 z + a2)
        n1, n2 = b1 - a1 * b0, b2 - a2 * b0
        mid, disc = -a1 / 2.0, a1 * a1 / 4.0 - a2
        if disc < 0.0:
            omega = math.sqrt(-disc)
            block = [[mid, -omega], [omega, mid]]
            # out . adj(zI - block) @ inp = n1 z + n2 with inp = (g, 0)
            q = (n2 + mid * n1) / omega
            g = math.sqrt(math.hypot(n1, q)) or 1.0
            inp, out = (g, 0.0), (n1 / g, q / g)
        else:
            p = mid + math.copysign(math.sqrt(disc), mid)
            r = a2 / p if p != 0.0 else mid
            block = [[p, 0.0], [1.0, r]]
            inp, out = (1.0, 0.0), (n1, n2 + r * n1)
        A[j] = np.outer(inp, c)
        A[j, j] += block
        B[j] = np.multiply(inp, d)
        c = b0 * c
        c[j] += out
        d = b0 * d
    return A, B, c, d


#: samples per block of the filter recurrence
_FILTER_BLOCK = 64
#: most blocks per BLAS call of a row's stacked products: OpenBLAS threads
#: larger ones.  On 2 cores, an 87 x 24,796 record filtered in 25 ms wall
#: and 50 ms CPU with one call per row, in 22 ms of each with 128 blocks.
_PRODUCT_BLOCKS = 128


def _cascade_pass(W: np.ndarray, F: np.ndarray, x: np.ndarray, s0: np.ndarray, out: np.ndarray) -> None:
    """One pass of the recurrence over the rows of ``x`` into ``out`` (which
    may be ``x`` itself), from the states ``s0`` before each row's first
    sample: the blocks' drive states, carried after ``s0`` by
    :func:`recurrence.carry`, then their outputs plus the free response of
    the state before each.  Rows never share a product, so each is
    computed exactly as if filtered alone."""
    rows, n = x.shape
    m, k = len(W), len(F)
    nc = -(-n // (m * _PRODUCT_BLOCKS))         # nb blocks in nc equal products
    nb = nc * -(-n // (m * nc))
    states = np.empty((rows, nb + 1, k))
    states[:, 0] = s0
    padded = np.zeros(nb * m)
    blocks = padded.reshape(nc, -1, m)
    for row, sr in zip(x, states):
        padded[:n] = row
        np.matmul(blocks, W[:, m:], out=sr[1:].reshape(nc, -1, k))
    carry(states, F[:, m:])
    y = np.empty(blocks.shape)
    for row, sr, o in zip(x, states, out):
        padded[:n] = row
        np.matmul(blocks, W[:, :m], out=y)
        y += sr[:-1].reshape(nc, -1, k) @ F[:, :m]
        o[:] = y.reshape(-1)[:n]


def _block_operators(sos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W maps a block's samples, and F the state before it, to the block's
    outputs (first m columns) and the state after it (last 2n); ``steady``
    is the state of a unit constant input, (I - A)^-1 B."""
    A, B, C, D = _state_space(sos)
    m = _FILTER_BLOCK
    P, G = block_operators(A, B, m)
    W = np.zeros((m, m + len(A)))
    W[:, 1:m] = G[:, :-1] @ C
    np.fill_diagonal(W, D)
    W[:, m:] = G[:, -1]
    F = np.hstack([(C @ P[:m]).T, P[m].T])
    return W, F, np.linalg.solve(np.eye(len(A)) - A, B)


def filtfilt(coeffs: FilterCoefficients, record: TimeSeries | TimeSeriesSet):
    """Forward-backward zero-phase filtering of a TimeSeries or of each row
    of a TimeSeriesSet; effective magnitude |H|^2.  As in scipy's
    ``sosfiltfilt``, odd (reflective) edge padding of ``pad_len`` samples is
    applied and removed, and each pass starts from the steady state of its
    first sample: the state z of a unit constant input solves
    (I - A) z = B, scaled by that sample.

    The sections run as one recurrence on 2n states (see ``_state_space``),
    s[k] = A s[k-1] + B x[k], y[k] = C s[k-1] + D x[k], in blocks of m
    samples.  From the state s before a block,

        y[j] = C A^j s + sum_{i=0..j} h[j-i] x[i],   h[0] = D, h[l] = C A^(l-1) B,
        s'   = A^m s + sum_{i=0..m-1} A^(m-1-i) B x[i],

    so the drive terms of all blocks are products with one Toeplitz matrix
    (see ``recurrence.block_operators``), the states s' are carried by a
    doubling scan (``recurrence.carry``), and then the outputs y get C A^j s.

    A row never shares a product with another, so it gets the same bits
    in any batch.
    """
    n = record.values.shape[-1]
    if record.sample_rate != coeffs.fs:
        raise FilterError(
            f"series rate {record.sample_rate} Hz does not match design rate {coeffs.fs} Hz"
        )
    edge = coeffs.pad_len
    if n <= edge:
        raise FilterError(f"series length {n} <= padding requirement {edge}")
    W, F, steady = coeffs.operators
    x = record.values.reshape(-1, n)
    ext = np.concatenate(
        [2.0 * x[:, :1] - x[:, edge:0:-1], x, 2.0 * x[:, -1:] - x[:, -2 : -edge - 2 : -1]], axis=1
    )
    _cascade_pass(W, F, ext, steady * ext[:, :1], ext)
    back = ext[:, ::-1]
    _cascade_pass(W, F, back, steady * back[:, :1], back)
    return record.with_values(ext[:, edge:-edge].reshape(record.values.shape))


def filtfilt_transpose(coeffs: FilterCoefficients, rows) -> np.ndarray:
    """The transpose L^T of :func:`filtfilt`'s linear map L on rows as long
    as the record: <L x, k> = <x, L^T k>, so a kernel filtered here reads
    from raw rows what it reads from filtered ones.  L pads a row oddly,
    then runs two passes, each the zero-state cascade H plus the free
    response g of ``steady`` times the pass's first sample (the initial
    states of Gustafsson, *IEEE Trans. Signal Process.* 44(4), 1996).  In
    reverse order: a row is zero-embedded in the padded length, H runs
    forward with <g, the reversed row> added at the last sample, then
    reversed with <g, its input> added at the first, and the padding is
    folded back onto the samples it copied.  Rows never share a product.
    """
    k = _rows(rows)
    n = k.shape[1]
    edge = coeffs.pad_len
    if n <= edge:
        raise FilterError(f"series length {n} <= padding requirement {edge}")
    W, F, steady = coeffs.operators
    # the rows zero-embedded, and below them g, in one forward pass
    u = np.zeros((len(k) + 1, n + 2 * edge))
    u[:-1, edge:-edge] = k
    s0 = np.zeros((len(u), len(steady)))
    s0[-1] = steady
    _cascade_pass(W, F, u, s0, u)
    g, u = u[-1], u[:-1]
    u[:, -1] += np.einsum("rn,n->r", k, g[::-1][edge:-edge])
    head = np.einsum("rn,n->r", u, g)
    back = u[:, ::-1]
    _cascade_pass(W, F, back, 0.0, back)
    u[:, 0] += head
    out = u[:, edge:-edge]
    out[:, 0] += 2.0 * u[:, :edge].sum(axis=1)
    out[:, 1 : edge + 1] -= u[:, edge - 1 :: -1]
    out[:, -1] += 2.0 * u[:, -edge:].sum(axis=1)
    out[:, -edge - 1 : -1] -= u[:, : -edge - 1 : -1]
    return out


def kernel_support(kernel: np.ndarray, share: float) -> tuple[int, int, float]:
    """The shortest index range [a, b) of an (n, 2) ``kernel`` outside which
    its weight, the sum of |k| = hypot of its two columns, is at most
    ``share`` of the whole, half of it on each side; and the weight outside
    [a, b), the most that a row of values of at most 1 in size reads there."""
    weight = np.hypot(kernel[:, 0], kernel[:, 1])
    tail = np.cumsum(weight[::-1])
    head = np.cumsum(weight, out=weight)
    budget = 0.5 * share * head[-1]
    a = int(np.searchsorted(head, budget, side="right"))
    b = max(len(head) - int(np.searchsorted(tail, budget, side="right")), a)
    dropped = (head[a - 1] if a else 0.0) + (tail[len(head) - b - 1] if b < len(head) else 0.0)
    return a, b, float(dropped)


def project_blocks(record, kernels) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``record`` times each of ``kernels``, read as a stream of
    blocks of rows (:meth:`~vibroident.timeseries.TimeSeriesSet.blocks`).

    ``kernels`` holds ``(first, k)`` pairs, ``k`` an (m, 2) kernel on the
    samples ``first`` to ``first + m - 1``, zero elsewhere: its support.
    Each block is multiplied once by the kernels whose support meets it,
    stacked into one (rows, 2 x kernels) matrix that is zero where a
    support ends inside the block, one product per row, so a row gets the
    same bits in any batch of rows.  Returns the (rows, kernels, 2) sums,
    and a (blocks, 3) array of each block's first row, end row and largest
    |value| (NaN if it holds one).
    """
    sums = np.zeros((len(record), len(kernels), 2))
    peaks = []
    with np.errstate(all="ignore"):
        for lo, block in record.blocks():
            hi = lo + block.shape[1]
            peaks.append((lo, hi, np.maximum(block.max(), -block.min())))
            on = [j for j, (a, k) in enumerate(kernels) if a < hi and lo < a + len(k)]
            if not on:
                continue
            stacked = np.zeros((hi - lo, len(on), 2))
            for i, j in enumerate(on):
                a, k = kernels[j]
                r0, r1 = max(a, lo), min(a + len(k), hi)
                stacked[r0 - lo : r1 - lo, i] = k[r0 - a : r1 - a]
            sums[:, on] += _project(block, stacked.reshape(hi - lo, -1)).reshape(len(sums), -1, 2)
    return sums, np.array(peaks).reshape(-1, 3)


# 2*pi in three parts; the first two carry 26 significant bits, so their
# products with any integer below 2**27 are exact (Cody-Waite reduction)
_TWO_PI_HI = 6.283185243606567
_TWO_PI_MID = 6.357301884918343e-08
_TWO_PI_LO = 2.4492935982947064e-16


def _veltkamp(x):
    """Split into a 26-bit head and the exact remainder."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _phase_at(omega, t0: float) -> np.ndarray:
    """omega * t0 reduced modulo 2*pi, to about 1e-15 rad.

    The rounded product alone is off by up to half an ulp of omega*t0,
    ~4e-12 rad at 6e4 rad (120 rad/s at 500 s); the exact two-term product
    (Dekker) reduced against the three-part 2*pi keeps late windows exact.
    """
    omega = np.asarray(omega, dtype=float)
    p = omega * t0
    wh, wl = _veltkamp(omega)
    th, tl = _veltkamp(t0)
    err = ((wh * th - p) + wh * tl + wl * th) + wl * tl
    q = np.rint(p / (2.0 * math.pi))
    return ((p - q * _TWO_PI_HI) - q * _TWO_PI_MID) - q * _TWO_PI_LO + err


def _wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    out = phi - 2.0 * math.pi * np.rint(phi / (2.0 * math.pi))
    return np.where(out <= -math.pi, out + 2.0 * math.pi, out)


def _basis(omega: float, phase: float, dt: float, n: int) -> np.ndarray:
    """The (n, 2) basis of a window's fit: columns sin and cos of
    phase + omega*k*dt, k < n."""
    theta = phase + omega * (dt * np.arange(n))
    return np.column_stack([np.sin(theta), np.cos(theta)])


def _project(U: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(C, 2) products of the rows of ``U`` with ``basis``, one product per
    row, so a row gets the same bits in any batch."""
    return np.matmul(U[:, None, :], basis)[:, 0]


def _rows(U) -> np.ndarray:
    """``U`` as a float matrix, one row per channel."""
    return np.atleast_2d(np.asarray(U, dtype=float))


def fit_sine(ts: TimeSeries, f: float) -> SineFit:
    """Fit amplitude and phase of a single sinusoid at ``f`` Hz: the
    linear fit at omega = 2*pi*f on the window's (n, 2) basis
    (:func:`_basis`), on the absolute axis (:func:`_phase_at` of the first
    sample), so the fitted phase is that of absolute time (the sine-fit
    estimator at a known frequency, Pintelon & Schoukens, *System
    Identification: A Frequency Domain Approach*, 2012).  The coefficients
    are the row's projections times the pinv of the basis's 2x2 Gram,
    which is also the minimum-norm fit where sin and cos are nearly
    collinear (omega*dt near 0 or pi); the RMS is that of the explicit
    residual, the row minus its fitted sine.  FitError unless ``f`` is
    finite and positive and the samples cover >= 3 of its cycles."""
    if not 0.0 < f < math.inf:
        raise FitError(f"fit frequency must be finite and positive, got {f} Hz")
    omega = 2.0 * math.pi * float(f)
    t = ts.times()
    span = float(t[-1] - t[0])
    if span * f < 3.0:
        raise FitError(f"window covers {span * f:.2f} cycles of {f} Hz; need >= 3")
    basis = _basis(omega, float(_phase_at(omega, float(t[0]))), span / (len(t) - 1), len(t))
    P = np.linalg.pinv(basis.T @ basis)
    u = _rows(ts.values)
    with np.errstate(all="ignore"):
        proj = _project(u, basis)
        coef = proj[:, :1] * P[:, 0] + proj[:, 1:] * P[:, 1]
        (a, b), = coef
        amplitude, phase = np.hypot(a, b), _wrap_phase(np.arctan2(b, a))
        r = u - coef @ basis.T
        (rms,) = np.sqrt(np.einsum("cn,cn->c", r, r) / u.shape[1])
    return SineFit(float(amplitude), omega, float(phase), float(rms))


@dataclass(frozen=True)
class HannBasis:
    """One window's Hann projection: the (n, 2) basis, the real and
    imaginary parts of the Hann-weighted kernel at each of its n samples,
    and the reference's projection onto it."""

    basis: np.ndarray
    reference: complex

    def phasors(self, U) -> np.ndarray:
        """Every row's projection divided by the reference's; a row whose
        projection overflows gets non-finite values."""
        with np.errstate(all="ignore"):
            rows = _project(_rows(U), self.basis)
            return (rows[:, 0] + 1j * rows[:, 1]) / self.reference


def hann_basis(t, reference, omega: float, t0: float, t1: float) -> HannBasis:
    """The estimator of every analysis window: complex amplitudes at
    ``omega`` over one Hann window on [t0, t1], relative to ``reference``
    (one row on the samples ``t``); samples outside the window weigh
    nothing.

    Each row and the reference are weighted by the window and projected
    onto exp(-i*omega*(t - t_c)), t_c the window's centre; a row's phasor
    (:meth:`HannBasis.phasors`) is its projection divided by the
    reference's.  A row that is the reference scaled by a gets a.  A
    response to the drive gets the transfer function at about ``omega``:
    in a stepped dwell the drive's one frequency, in a sweep window the
    frequency it crosses, since the window's share of the chirp divides
    out (spectral division, Mueller & Massarani, *J. Audio Eng. Soc.*
    49(6), 2001; localised in time as in Pintelon & Schoukens, *System
    Identification*, 2nd ed., 2012).  The window weighs its ends down, so
    a dwell's start and stop leak little into it.  Rows that share ``t0``,
    ``t1``, ``omega`` and a reference share one phase reference, whatever
    their sample rate.

    FitError unless the samples cover the window whole: no sample spacing
    may fit between an end of the window and the first or last sample.
    """
    t = np.asarray(t, dtype=float)
    if t.size < 2 or t[0] - (t[1] - t[0]) >= t0 or t[-1] + (t[-1] - t[-2]) <= t1:
        span = f"[{t[0]:.6g}, {t[-1]:.6g}] s" if t.size else "no samples"
        raise FitError(f"record ({span}) does not cover the window [{t0:.6g}, {t1:.6g}] s")
    tau = t - 0.5 * (t0 + t1)
    hann = np.where(np.abs(tau) <= 0.5 * (t1 - t0), np.cos(math.pi * tau / (t1 - t0)) ** 2, 0.0)
    kernel = hann * np.exp(-1j * omega * tau)
    basis = np.column_stack([kernel.real, kernel.imag])
    with np.errstate(all="ignore"):
        ref = _project(_rows(reference), basis)[0]
    return HannBasis(basis, complex(ref[0], ref[1]))
