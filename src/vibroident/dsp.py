"""Signal conditioning and sinusoidal parameter estimation.

Band-pass Butterworth design (bilinear transform with pre-warping,
realized as second-order sections), zero-phase filtering as one blocked
state recurrence, and the three-stage sine least-squares fit.  numpy is
the only dependency.

The sine fit is batched: :func:`fit_sines` fits every channel of a window
in one pass, each at its own frequency, and :func:`fit_sine` is its
one-row case.  :func:`fit_sines_at` fits every channel at one known
frequency in one linear in-phase/quadrature solve, and
:func:`fit_sines_drift` at the one frequency of the channels' phase
drift between the window's halves.  The analysis fits a stepped dwell's
force channels with :func:`fit_sines_drift` and its response channels
with :func:`fit_sines_at` at the force's frequency; a sweep window's
channels, whose frequency follows the transfer function's phase slope,
take :func:`fit_sines`.  On the uniform
time axis, exp(i*w*t_k) is built from two-level powers (about 2*sqrt(n)
exponentials per row, then one complex product per sample).  The linear
stages project the samples onto those powers without forming the basis,
take the sin/cos Gram terms from the closed-form Dirichlet sum and read
the SSE off the normal equations.  The polish takes Newton steps on the
exact 3x3 Hessian of each row, so it converges quadratically also where
the residual is as large as the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, FilterError, FitError
from .recurrence import block_operators
from .timeseries import TimeSeries, TimeSeriesSet, _veltkamp

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
#: cells (rows x samples) of one block of rows in the passes where rows
#: never share a product: the zero-phase filter and the sine-fit polish
#: build their scratch for one block at a time, so it does not grow with
#: the record.  The polish keeps about 105 bytes of scratch per cell and
#: the filter about 18 (tracemalloc), so the filter takes four budgets per
#: block: about 7 and 5 MB.  A window of 222 samples x 87 channels is one
#: block.
_BLOCK_CELLS = 1 << 16
#: blocks per drive-term product.  OpenBLAS runs larger products (about
#: 1e6 multiply-adds and up) on several threads.  On 2 cores, one product
#: per row saved no wall time on an 87 x 24,796 record (0.07-0.13 s a
#: call either way, 8 fresh processes each) and took 0.01 s more CPU a
#: call with the CLI's sleeping idle threads; with spinning ones, twice
#: the CPU time.
_PRODUCT_BLOCKS = 128


def _cascade_pass(W: np.ndarray, F: np.ndarray, x: np.ndarray, s0: np.ndarray, out: np.ndarray) -> None:
    """One pass of the recurrence over the rows of ``x`` into ``out`` (which
    may be ``x`` itself), from the states ``s0`` before each row's first
    sample.  Rows never share a product, so each is computed exactly as if
    filtered alone."""
    rows, n = x.shape
    m = len(W)
    nb = -(-n // m)
    z = np.empty((rows, nb, W.shape[1]))
    padded = np.zeros(nb * m)
    blocks = padded.reshape(nb, m)
    for row, zr in zip(x, z):
        padded[:n] = row
        for i in range(0, nb, _PRODUCT_BLOCKS):
            np.matmul(blocks[i : i + _PRODUCT_BLOCKS], W, out=zr[i : i + _PRODUCT_BLOCKS])
    s = s0[:, None, :]
    for b in range(nb):
        block = z[:, b : b + 1]
        block += s @ F
        s = block[..., m:]
    for zr, o in zip(z, out):
        o[:] = zr[:, :m].reshape(-1)[:n]


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
    (see ``recurrence.block_operators``), and the state is carried from
    block to block by one small product per block.

    Rows are filtered a block of rows at a time (``_BLOCK_CELLS``) into one
    preallocated output matrix, so the padded copy and the drive terms
    exist for one block only; a row never shares a product with another,
    so blocking does not change a bit.
    """
    n = record.values.shape[-1]
    if record.sample_rate != coeffs.fs:
        raise FilterError(
            f"series rate {record.sample_rate} Hz does not match design rate {coeffs.fs} Hz"
        )
    edge = coeffs.pad_len
    if n <= edge:
        raise FilterError(f"series length {n} <= padding requirement {edge}")
    A, B, C, D = _state_space(coeffs.sos)
    m = _FILTER_BLOCK
    P, G = block_operators(A, B, m)
    # W maps a block's samples, and F the state before it, to the block's
    # outputs (first m columns) and the state after it (last 2n)
    W = np.zeros((m, m + len(A)))
    W[:, 1:m] = G[:, :-1] @ C
    np.fill_diagonal(W, D)
    W[:, m:] = G[:, -1]
    F = np.hstack([(C @ P[:m]).T, P[m].T])
    steady = np.linalg.solve(np.eye(len(A)) - A, B)

    x = record.values.reshape(-1, n)
    out = np.empty(x.shape)
    step = max(1, 4 * _BLOCK_CELLS // (n + 2 * edge))
    for lo in range(0, len(x), step):
        xb = x[lo : lo + step]
        ext = np.concatenate(
            [2.0 * xb[:, :1] - xb[:, edge:0:-1], xb, 2.0 * xb[:, -1:] - xb[:, -2 : -edge - 2 : -1]], axis=1
        )
        _cascade_pass(W, F, ext, steady * ext[:, :1], ext)
        back = ext[:, ::-1]
        _cascade_pass(W, F, back, steady * back[:, :1], back)
        out[lo : lo + step] = ext[:, edge:-edge]
    return record.with_values(out.reshape(record.values.shape))


#: golden-section steps that take the +-10 % bracket below 1e-6 of the start
#: frequency.  Each step shrinks a bracket by GOLDEN whichever side it keeps,
#: so every channel of a batch needs the same number of steps.
_GOLDEN_STEPS = math.ceil(math.log(1e-6 / 0.2) / math.log(GOLDEN))

# 2*pi in three parts; the first two carry 26 significant bits, so their
# products with any integer below 2**27 are exact (Cody-Waite reduction)
_TWO_PI_HI = 6.283185243606567
_TWO_PI_MID = 6.357301884918343e-08
_TWO_PI_LO = 2.4492935982947064e-16


@dataclass(frozen=True)
class SineFits:
    """Row-wise fits of one window: u_c(t) = amplitude[c] * sin(omega[c] * t + phase[c]).

    ``converged`` is False where the Newton polish ran out of iterations;
    that row then holds the best iterate found.
    """

    amplitude: np.ndarray
    omega: np.ndarray
    phase: np.ndarray
    residual_rms: np.ndarray
    converged: np.ndarray

    @property
    def frequency(self) -> np.ndarray:
        return self.omega / (2.0 * math.pi)

    @property
    def phasor(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phase)

    def __getitem__(self, row: int) -> SineFit:
        return SineFit(
            amplitude=float(self.amplitude[row]),
            omega=float(self.omega[row]),
            phase=float(self.phase[row]),
            residual_rms=float(self.residual_rms[row]),
        )


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


def _block_shape(n: int) -> tuple[int, int]:
    """(rows, m) of the two-level split k = j*m + l, m = ceil(sqrt(n))."""
    m = math.isqrt(n - 1) + 1
    return -(-n // m), m


def _powers(omega, phase, dt: float, n: int):
    """Factors of exp(i*(phase + omega*k*dt)) for k = j*m + l < n.

    ``inner[:, l]`` is exp(i*(phase + omega*l*dt)) and ``outer[:, j]`` is
    exp(i*omega*j*m*dt); each sample is one product of the two, so a row
    costs about 2*sqrt(n) exponentials instead of n sines and n cosines.
    """
    nj, m = _block_shape(n)
    inner = np.exp(1j * (phase[:, None] + omega[:, None] * (dt * np.arange(m))))
    outer = np.exp(1j * (omega[:, None] * (dt * m * np.arange(nj))))
    return inner, outer


def _phasors(omega, phase, dt: float, n: int) -> np.ndarray:
    """exp(i*(phase + omega*k*dt)) for k < n, one row per entry of ``omega``."""
    inner, outer = _powers(omega, phase, dt, n)
    return (outer[:, :, None] * inner[:, None, :]).reshape(len(omega), -1)[:, :n]


def _fold(U: np.ndarray) -> np.ndarray:
    """Rows zero-padded to the two-level length and folded to (C, rows, m)."""
    c, n = U.shape
    nj, m = _block_shape(n)
    blocks = np.zeros((c, nj * m))
    blocks[:, :n] = U
    return blocks.reshape(c, nj, m)


def _linear_fits(blocks, uu, omega, dt: float, n: int) -> np.ndarray:
    """LSF of a*sin(w*tau) + b*cos(w*tau), tau = k*dt, for each row at its
    own frequency; returns (amplitude, phase, sse) stacked as (3, C).

    The projections s.u and c.u run on the two-level powers without
    forming the basis.  The Gram terms are Dirichlet sums in closed form,
    and the SSE comes from the normal equations, uu - a*su - b*cu.
    """
    inner, outer = _powers(omega, np.zeros_like(omega), dt, n)
    d = omega * dt
    # sum_k exp(2i*w*k*dt) = exp(i*(n-1)*d) * sin(n*d) / sin(d)
    dirichlet = np.exp(1j * (n - 1) * d) * (np.sin(n * d) / np.sin(d))
    ss = 0.5 * (n - dirichlet.real)
    cc = 0.5 * (n + dirichlet.real)
    sc = 0.5 * dirichlet.imag
    det = ss * cc - sc * sc
    flat = det <= 1e-12 * np.maximum(ss * cc, 1e-300)
    # a row whose sums overflow (or are not finite) gets non-finite values
    # in its own entries; no other row shares them, so none is warned of
    with np.errstate(all="ignore"):
        part = blocks @ np.stack([inner.real, inner.imag], axis=-1)
        z = np.einsum("cj,cj->c", outer, part[..., 0] + 1j * part[..., 1])
        cu, su = z.real, z.imag
        a = (cc * su - sc * cu) / det
        b = (ss * cu - sc * su) / det
        if np.any(flat):
            # sin and cos nearly collinear (w*dt near 0 or pi): minimum-norm fit
            gram = np.stack([np.stack([ss, sc], -1), np.stack([sc, cc], -1)], -2)[flat]
            rhs = np.stack([su, cu], -1)[flat]
            a[flat], b[flat] = np.einsum("cij,cj->ic", np.linalg.pinv(gram), rhs)
        return np.array([np.hypot(a, b), np.arctan2(b, a), uu - a * su - b * cu])


def _sse(U, params, dt: float) -> np.ndarray:
    """Explicit residual sum of squares of A*sin(w*tau + psi), params (C, 3)."""
    sines = _phasors(params[:, 1], params[:, 2], dt, U.shape[1]).imag
    r = U - params[:, :1] * sines
    return np.einsum("cn,cn->c", r, r)


def _solve_spd(S, b):
    """Solve stacked symmetric 3x3 systems S x = b by Cholesky.

    A row whose S is not positive definite, or not finite, gets a non-finite
    x (a square root of a negative pivot, or a division by a zero one), so
    no input raises.
    """
    with np.errstate(all="ignore"):
        l00 = np.sqrt(S[:, 0, 0])
        l10 = S[:, 1, 0] / l00
        l20 = S[:, 2, 0] / l00
        l11 = np.sqrt(S[:, 1, 1] - l10 * l10)
        l21 = (S[:, 2, 1] - l20 * l10) / l11
        l22 = np.sqrt(S[:, 2, 2] - l20 * l20 - l21 * l21)
        y0 = b[:, 0] / l00
        y1 = (b[:, 1] - l10 * y0) / l11
        x2 = (b[:, 2] - l20 * y0 - l21 * y1) / l22 / l22
        x1 = (y1 - l21 * x2) / l11
        x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return np.column_stack([x0, x1, x2])


def _newton_steps(U, params, dt: float):
    """Newton steps on SSE/2 of f = A*sin(w*tau + psi) for every row, and
    their predicted SSE decrease g.step, where g = J^T r.

    With s and c the sine and cosine of w*tau + psi, J has the columns s,
    A*tau*c and A*c, and the Hessian is J^T J - sum_k r_k * (Hessian of f
    at sample k).  The steps are solved for (dA, A*dw, A*dpsi): that takes
    A out of the Gram matrix G of (s, tau*c, c), and leaves the residual
    term as sums of r*s, r*c, r*tau*c, r*tau*s and r*tau^2*s over A, so no
    term scales with A^2.  Each system is scaled to the unit diagonal of G.
    Where the Hessian is not positive definite (far from a minimum, or on
    a degenerate row) the Gauss-Newton system G takes its place; a row
    singular in both gets a non-finite step.
    """
    n = U.shape[1]
    tau = dt * np.arange(n)
    amp = params[:, 0]
    with np.errstate(all="ignore"):
        basis = _phasors(params[:, 1], params[:, 2], dt, n)
        s, c = basis.imag, basis.real
        cols = np.stack([U - amp[:, None] * s, s, tau * c, c, tau * s, tau * tau * s], axis=1)
        # sums[:, i, j] = sum over samples of cols[i + 1] * cols[j]
        sums = cols[:, 1:] @ cols[:, :4].transpose(0, 2, 1)
        g, gram = sums[:, :3, 0], sums[:, :3, 1:]
        rs, rtc, rc, rts, rtts = sums[:, :, 0].T / amp
        zero = np.zeros_like(amp)
        curvature = np.moveaxis(np.array([[zero, rtc, rc], [rtc, -rtts, -rts], [rc, -rts, -rs]]), -1, 0)
        d = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        outer = d[:, :, None] * d[:, None, :]
        y = _solve_spd((gram - curvature) * outer, d * g)
        indefinite = ~np.all(np.isfinite(y), axis=1)
        y[indefinite] = _solve_spd(gram[indefinite] * outer[indefinite], d[indefinite] * g[indefinite])
        y *= d
        return y / np.column_stack([np.ones_like(amp), amp, amp]), np.einsum("ck,ck->c", g, y)


def _polish(U, params, sse, dt: float, t0: float, max_iter: int) -> np.ndarray:
    """Newton on (A, w, psi) of every row, with step halving per row.

    Updates ``params`` and ``sse`` in place and returns the converged flags.
    Rows leave the active set once a step no longer improves the residual
    or shrinks below 1e-13 of the parameter scale (phase measured on the
    absolute time axis, psi - w*t0).  A step whose predicted decrease is
    below the rounding of the SSE (1e-12 of it) is tried once and never
    halved: near the minimum, a rise by an ulp says nothing about the step.
    """
    converged = np.zeros(len(U), dtype=bool)
    active = np.arange(len(U))
    for _ in range(max_iter):
        if active.size == 0:
            break
        step, decrease = _newton_steps(U[active], params[active], dt)
        finite = np.all(np.isfinite(step), axis=1)
        once = decrease <= 1e-12 * sse[active]
        # halve until the residual improves (keeps refinement monotone)
        improved = np.zeros(active.size, dtype=bool)
        pending = np.flatnonzero(finite)
        for _ in range(30):
            if pending.size == 0:
                break
            rows = active[pending]
            trial = params[rows] + step[pending]
            sse_t = _sse(U[rows], trial, dt)
            ok = sse_t <= sse[rows]
            acc = rows[ok]
            with np.errstate(invalid="ignore"):   # inf - inf on an overflowing row
                improved[pending[ok]] = sse[acc] - sse_t[ok] > 1e-12 * np.maximum(sse[acc], 1e-300)
            params[acc] = trial[ok]
            sse[acc] = sse_t[ok]
            pending = pending[~ok & ~once[pending]]
            step[pending] /= 2.0
        # parameter scales: amplitude/frequency relative, phase in radians
        p = params[active]
        scale = np.column_stack([np.maximum(np.abs(p[:, 0]), 1e-300), np.abs(p[:, 1]), np.ones(len(p))])
        rel = np.abs(np.column_stack([step[:, 0], step[:, 1], step[:, 2] - t0 * step[:, 1]])) / scale
        done = (np.max(rel, axis=1) < 1e-13) | ~improved
        converged[active[done & finite]] = True
        active = active[~done & finite]
    return converged


#: Newton iterations a sine fit may take before it counts as not converged
MAX_ITER = 100


def _window(t, U, f: float):
    """``t`` and the rows of ``U`` as float arrays, and the sample spacing;
    FitError unless ``f`` is positive and the window covers >= 3 of its cycles."""
    t = np.asarray(t, dtype=float)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if not 0.0 < f < math.inf:
        raise FitError(f"fit frequency must be finite and positive, got {f} Hz")
    span = float(t[-1] - t[0])
    if span * f < 3.0:
        raise FitError(f"window covers {span * f:.2f} cycles of {f} Hz; need >= 3")
    return t, U, span / (U.shape[1] - 1)


def fit_sines_at(t, U, omega: float) -> SineFits:
    """Fit u_c(t) = A_c * sin(omega * t + phi_c) to every row of ``U`` at
    one known angular frequency: the stepped-sine estimator at a known
    excitation frequency (Pintelon & Schoukens, *System Identification: A
    Frequency Domain Approach*, 2012).

    Every row takes the one linear in-phase/quadrature solve of stage (i)
    of :func:`fit_sines` at ``omega``, with no search and no polish, so
    every row is converged and ``omega`` is that of every row.  Phases are
    reported on the absolute axis; the residual RMS is read off the normal
    equations (floored at zero), to about 1e-16 of the row's sum of squares.
    """
    t, U, dt = _window(t, U, omega / (2.0 * math.pi))
    c, n = U.shape
    w = np.full(c, float(omega))
    amp, psi, sse = _linear_fits(_fold(U), np.einsum("cn,cn->c", U, U), w, dt, n)
    return SineFits(
        amplitude=amp,
        omega=w,
        phase=_wrap_phase(psi - _phase_at(w, float(t[0]))),
        residual_rms=np.sqrt(np.maximum(sse, 0.0) / n),
        converged=np.ones(c, dtype=bool),
    )


def fit_sines_drift(t, U, f: float) -> SineFits:
    """Fit every row of ``U`` at the one angular frequency taken from the
    rows' phase drift near ``f``: :func:`fit_sines_at` at that omega.

    Each row takes the linear fit of :func:`fit_sines`' stage (i) at
    2*pi*f on the two halves of the window.  Its phase moves between them
    by its frequency offset times the distance between the halves'
    centres; the wrapped phase difference over that distance is the row's
    offset, and omega is 2*pi*f plus the offsets' mean weighted by the
    rows' amplitudes (the halves' sum).  Where every amplitude is zero, or
    the weighted mean is not finite (only where a row's sums overflow),
    omega stays 2*pi*f.  No row searches or polishes, so every row is
    converged.  An offset that drifts a row's phase by more than pi
    across the halves aliases: this is an estimator for a drive at about
    ``f``, as in a stepped dwell, not for an unknown frequency.

    A fit at the wrong frequency reads each half's phase slightly off its
    centre, by an amount that depends on the phase, so one pass is off by
    a few per cent of the offset on short windows: on noise-free rows of
    3.2 cycles, 4.8e-5 of omega at an offset of 1e-3.  A second pass at
    the first pass's omega takes that to 2.2e-6.
    """
    t, U, dt = _window(t, U, f)
    n = U.shape[1]
    h = n // 2
    span = (n - h) * dt
    halves = [(_fold(V), np.einsum("cn,cn->c", V, V)) for V in (U[:, :h], U[:, n - h :])]
    w0 = omega = 2.0 * math.pi * f
    for _ in range(2):
        (a1, p1, _), (a2, p2, _) = (
            _linear_fits(blocks, uu, np.full(len(uu), omega), dt, h) for blocks, uu in halves
        )
        weight = a1 + a2
        with np.errstate(all="ignore"):
            offset = _wrap_phase(p2 - p1 - omega * span) / span
            omega += float(weight @ offset / weight.sum())
        if not math.isfinite(omega):
            omega = w0
            break
    return fit_sines_at(t, U, omega)


def fit_sines(t, U, f_init: float, max_iter: int = MAX_ITER) -> SineFits:
    """Fit u_c(t) = A_c * sin(w_c * t + phi_c) to every row of ``U``.

    ``U`` holds C channels sampled on the uniform axis ``t`` (n samples).
    Each row goes through three stages: (i) linear fit of the
    in-phase/quadrature pair at ``f_init``, (ii) golden-section refinement
    of the frequency over +-10 %, re-solving the linear problem, run in
    lock-step over all rows, (iii) Newton polish of all three parameters
    on the rows still active, falling back to a Gauss-Newton step where
    the Hessian is not positive definite.  The fit runs on the local axis
    tau = t - t[0]; phases are reported on the absolute axis.  The residual
    RMS is that of the returned parameters and never exceeds the stage-(i)
    residual.  Rows are independent in every stage, so stage (iii) runs
    over blocks of rows (``_BLOCK_CELLS``) to bound its scratch.
    """
    t, U, dt = _window(t, U, f_init)
    c, n = U.shape
    w0 = 2.0 * math.pi * f_init
    blocks = _fold(U)
    uu = np.einsum("cn,cn->c", U, U)

    # stage (i): linear fit at the commanded frequency
    first = _linear_fits(blocks, uu, np.full(c, w0), dt, n)
    amp, omega, psi, sse = first[0], np.full(c, w0), first[1], first[2]
    converged = np.ones(c, dtype=bool)

    live = np.flatnonzero(amp > 0.0)
    if live.size:
        bl, uul, ul = blocks[live], uu[live], U[live]
        # stage (ii): golden-section search on omega in +-10 %
        lo = np.full(live.size, 0.9 * w0)
        hi = np.full(live.size, 1.1 * w0)
        x1 = hi - GOLDEN * (hi - lo)
        x2 = lo + GOLDEN * (hi - lo)
        f1 = _linear_fits(bl, uul, x1, dt, n)
        f2 = _linear_fits(bl, uul, x2, dt, n)
        for _ in range(_GOLDEN_STEPS):
            left = f1[2] < f2[2]
            hi = np.where(left, x2, hi)
            lo = np.where(left, lo, x1)
            x = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
            fx = _linear_fits(bl, uul, x, dt, n)
            x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
            f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
        best_w, best = np.full(live.size, w0), first[:, live]
        for x, fx in ((x1, f1), (x2, f2)):
            better = fx[2] < best[2]
            best_w = np.where(better, x, best_w)
            best = np.where(better, fx, best)

        # stage (iii): Newton from the best linear fit, whose residual
        # is evaluated explicitly so that every accepted step truly improves
        params = np.column_stack([best[0], best_w, best[1]])
        sse_live = np.empty(live.size)
        step = max(1, _BLOCK_CELLS // n)
        for lo in range(0, live.size, step):
            rows = slice(lo, lo + step)
            sse_live[rows] = _sse(ul[rows], params[rows], dt)
            converged[live[rows]] = _polish(ul[rows], params[rows], sse_live[rows], dt, float(t[0]), max_iter)
        amp[live], omega[live], psi[live] = params.T
        sse[live] = sse_live

    psi = np.where(amp < 0.0, psi + math.pi, psi)
    amp = np.abs(amp)
    psi = np.where(omega < 0.0, math.pi - psi, psi)  # sin(-wt+psi) = sin(wt + pi - psi)
    omega = np.abs(omega)
    return SineFits(
        amplitude=amp,
        omega=omega,
        phase=_wrap_phase(psi - _phase_at(omega, float(t[0]))),
        residual_rms=np.sqrt(sse / n),
        converged=converged,
    )


def fit_sine(ts: TimeSeries, f_init: float, max_iter: int = MAX_ITER) -> SineFit:
    """Fit amplitude/frequency/phase of a single sinusoid.

    The one-row case of :func:`fit_sines`.  When the Newton polish does not
    converge within ``max_iter`` iterations, raises :class:`FitError`
    carrying the best fit.
    """
    fits = fit_sines(ts.times(), ts.values[None, :], f_init, max_iter)
    if not fits.converged[0]:
        raise FitError(f"no convergence after {max_iter} Newton iterations", best=fits[0])
    return fits[0]
