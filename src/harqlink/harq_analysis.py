"""Analytic HARQ throughput for slow- and fast-fading channels.

Slow fading: all rounds of a cycle share one SNR, so the error cascade is
a closed-form function of that SNR; its region average is a fixed
320-node Gauss-Legendre rule on each smooth piece in u = exp(-x / avg_snr),
within 1e-12 of an adaptive quadrature.  Fast fading: rounds see i.i.d.
SNRs and the conditional cascade f_{k,l}(x) requires averaging over the
later rounds; RR admits a closed form through the Erlang law of the summed
SNR, IR is handled by numerical self-convolution of the per-round mutual
information density on a uniform MI grid.  The fast-fading throughput is
a renewal-reward ratio (S. M. Ross, Applied Probability Models with
Optimization Applications, 1970): a cycle's expected reward over its
expected duration, both sums of each rate's masses over its own region.
Fixed regions need those masses only: `fast_throughput` takes RR's as
differences of one closed-form function at the region ends (`_rr_masses`),
and IR's from one grid functional per region, spectral inner products
(`_region_masses`).  The region optimizer needs them as curves of the
threshold, so it builds FastFadingTables and returns the ratio it maximizes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .amc import DecisionRegions, ThroughputEstimate, _interval_masses
from .coding import (CombiningType, McsTable, _erlang_phi, _mi_inv_steps, _per_grid,
                     first_round_cum, mutual_information, mutual_information_inv, per, per_at,
                     per_erlang_rows)


class HarqVariant(Enum):
    PLAIN = "plain"
    PACKET_DROP = "packet-drop"
    VARIABLE_LENGTH = "variable-length"


@dataclass(frozen=True)
class HarqConfig:
    """Protocol parameters: combining type, round budget, and variant.

    lengths_primary / lengths_aux are the normalized codeword length sets
    used by the variable-length variant; first transmissions draw from the
    primary set only.
    """

    combining: CombiningType
    max_rounds: int
    variant: HarqVariant = HarqVariant.PLAIN
    lengths_primary: tuple[float, ...] = ()
    lengths_aux: tuple[float, ...] = ()

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.variant is HarqVariant.VARIABLE_LENGTH:
            if self.combining is not CombiningType.IR:
                raise ValueError("variable-length HARQ requires IR combining")
            lp = self.lengths_primary
            if not lp or any(b >= a for a, b in zip(lp, lp[1:])) or lp[0] != 1.0:
                raise ValueError("lengths_primary must be strictly decreasing with max 1")
            if self.lengths_aux and max(self.lengths_aux) >= min(lp):
                raise ValueError("aux lengths must be smaller than every primary length")


# ---------------------------------------------------------------------------
# slow fading
# ---------------------------------------------------------------------------

def _cascade(gamma, K: int, combining: CombiningType, th, a_tilde: float) -> np.ndarray:
    """PER(h^{-1}(k h(gamma))) at thresholds th for k = 1..K, along a new
    last axis; th broadcasts against gamma[..., None]."""
    gamma = np.asarray(gamma, dtype=float)[..., None]
    ks = np.arange(1, K + 1)
    if combining is CombiningType.RR:
        agg = ks * gamma
    else:
        agg = mutual_information_inv(ks * mutual_information(gamma))
    return per_at(agg, th, a_tilde)


def _eta(rate, f: np.ndarray, K: int) -> np.ndarray:
    """R (1 - f_K) / (1 + sum_{k<K} f_k) over cascades f on the last axis."""
    return rate * (1.0 - f[..., K - 1]) / (1.0 + f[..., :K - 1].sum(axis=-1))


def slow_cascades(gamma, K: int, combining: CombiningType, table: McsTable) -> np.ndarray:
    """f_{k,l}(gamma) = PER_l(h^{-1}(k h(gamma))) for every rate l and k = 1..K.

    Vectorized over gamma (nonnegative); shape gamma.shape + (L, K).
    """
    gamma = np.asarray(gamma, dtype=float)[..., None]
    return _cascade(gamma, K, combining, np.asarray(table.thresholds)[:, None], table.a_tilde)


def slow_throughput_at(gamma, K: int, combining: CombiningType, table: McsTable) -> np.ndarray:
    """Per-SNR HARQ throughput eta_l(gamma) = R_l (1 - f_K) / (1 + sum_{k<K} f_k)
    in slow fading for every rate l; K=1 reduces to R_l (1 - PER_l).

    Vectorized over gamma (nonnegative); shape gamma.shape + (L,).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return _eta(np.asarray(table.rates), slow_cascades(gamma, K, combining, table), K)


def _slow_kinks(l: int, K: int, combining: CombiningType, table: McsTable) -> list[float]:
    # first-round SNRs at which the k-round aggregate hits the threshold
    th = table.threshold(l)
    if combining is CombiningType.RR:
        return [th / k for k in range(1, K + 1)]
    return [mutual_information_inv(table.rate(l) / k) for k in range(1, K + 1)]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n even.  Three Newton steps on P_n from Tricomi's initial
    nodes, with P_n and P_{n-1} from Bonnet's recurrence, reach the nodes
    to 1e-16 at n = 320; the weights 2 / ((1 - x^2) P_n'(x)^2) are then good
    to 3e-11 relative (numpy's leggauss: 2.3e-10), against 40-digit roots."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    p0, p1, t = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(3):
        p0.fill(1.0)
        p1[:] = x
        for j in range(2, n + 1):
            # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j into p0's
            # buffer: in place, since an array per step leaves about
            # 150 KiB of freed heap resident in every importing process
            np.multiply(x, p1, out=t)
            t *= (2 * j - 1) / j
            p0 *= (1 - j) / j
            p0 += t
            p0, p1 = p1, p0
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


# Built once at import, so that forked sweep workers inherit it.  With 160
# nodes the piece that touches u = 0, where the top rate's PER behaves like
# u^p with p = a_tilde avg_snr / threshold < 1, misses 1e-12.
_GL_X, _GL_W = _gauss_legendre(320)


def slow_throughput(regions: DecisionRegions, K: int, combining: CombiningType,
                    table: McsTable, avg_snr: float) -> ThroughputEstimate:
    """Region-averaged slow-fading throughput; supports interval unions.

    With u = exp(-x / avg_snr) the exponential SNR law becomes uniform, so
    each interval [a, b) maps to the finite range (exp(-b/avg), exp(-a/avg)]
    and the integrand is the bounded per-SNR throughput at x(u).  The
    cascade kinks map to u as well and split each range into smooth
    pieces.  Every piece gets the same fixed 320-node Gauss-Legendre rule,
    and one pass evaluates the integrand at all nodes, each node's cascade
    at its own piece's rate only.  Over the README grid (-5..30 dB; RR and
    IR; amc-exact and slow-optimized regions; K = 1 and 4) the result
    differs from an adaptive quadrature by at most 1.1e-13.
    """
    if not avg_snr > 0:
        raise ValueError("avg_snr must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    pieces = []
    for l, a, b in zip(*regions.labelled_intervals()):
        u_lo, u_hi = math.exp(-b / avg_snr), math.exp(-a / avg_snr)
        u_kinks = (math.exp(-x / avg_snr) for x in _slow_kinks(l, K, combining, table))
        edges = [u_lo, *sorted(u for u in u_kinks if u_lo < u < u_hi), u_hi]
        # empty where exp rounds both ends to one u, such as 0 on underflow
        pieces += [(l, lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    l, lo, hi = np.array(pieces).reshape(-1, 3).T
    at = l.astype(int) - 1  # each piece's rate, 0-based
    half = (hi - lo) / 2.0
    u = ((hi + lo) / 2.0)[:, None] + half[:, None] * _GL_X  # (pieces, nodes)
    th = np.asarray(table.thresholds)[at][:, None, None]
    f = _cascade(-avg_snr * np.log(u), K, combining, th, table.a_tilde)  # (pieces, nodes, K)
    own = _eta(np.asarray(table.rates)[at][:, None], f, K)
    return ThroughputEstimate(value=float(half @ (own @ _GL_W)))


# ---------------------------------------------------------------------------
# fast fading
# ---------------------------------------------------------------------------

_SPAN = 50.0  # the fast-fading grid ends at _SPAN * avg_snr
_GRID_POINTS = 1 << 15  # its default size

# The work arrays of each thread's latest table build or region-mass
# evaluation; see FastFadingTables and _region_masses.
_work = threading.local()


def _work_arrays(**arrays: tuple) -> dict[str, np.ndarray]:
    """Fresh work arrays, each given as (shape, dtype).  They stay this
    thread's until its next table build or region-mass evaluation has
    made its own, so they outlive the call that uses them.

    glibc hands the free top of the heap back to the kernel once it
    exceeds the trim threshold, twice the largest block yet freed from its
    own mmap, and every page handed back faults again in the next call.
    Work arrays that outlive the call keep the heap top in use, and one
    large block of them lifts the threshold above a call's fresh
    temporaries.  With glibc 2.36, per in-process fast README sweep: table
    builds took about 172k minor faults with temporaries made afresh for
    every row, 96k with arrays made by a thread's first build and reused,
    and under 60 with arrays that outlive the build; the spectral region
    masses took 67k with three separate work arrays and 3 with one block.
    Every array of the IR chain but its spectra is a work array, the
    2n-point grid, exp(-x / avg_snr) and the PER row among them, and the
    sweep takes 2-5; the same block made afresh in every region-mass call
    took 61k and ran about 15 % slower.
    """
    _work.arrays = {name: np.empty(shape, dtype) for name, (shape, dtype) in arrays.items()}
    return _work.arrays


def _mi_grid(avg_snr: float, n: int) -> tuple[float, np.ndarray]:
    """The step dv and the n-point grid x_i = 2**(i dv) - 1, uniform in the
    MI domain over [0, _SPAN * avg_snr]."""
    return _mi_grid_into(avg_snr, n, np.empty(n))


def _mi_grid_into(avg_snr: float, n: int, out: np.ndarray) -> tuple[float, np.ndarray]:
    """_mi_grid's step dv and its points x_i for i < out.size, written into
    out.  IR reads the PER on the grid's 2n-point extension; every point is
    computed on its own, so the first n are the n-point grid's bits."""
    dv = mutual_information(_SPAN * avg_snr) / n
    return dv, _mi_inv_steps(dv, out)


def _grid_cell(g: np.ndarray, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index j of the cell [g[j], g[j + 1]) of the ascending grid g that holds
    x (the last cell for x >= g[-1]), the cell's width, and x's offset into
    it, capped at the cell's end: the linear interpolation of `cum_mass`."""
    j = np.searchsorted(g[:-1], x, side="right") - 1
    x0 = g[j]
    return j, g[j + 1] - x0, np.minimum(x, g[-1]) - x0


def _reward_cost(rates, m: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected reward R (P - E_K) and duration P + sum_{k<K} E_k of the
    renewal cycles of rates R with mass rows m = (P, E_1, ..., E_K)."""
    return rates * (m[0] - m[K]), m[:K].sum(axis=0)


class FastFadingTables:
    """Cumulative f_{k,l} tables over a shared SNR grid.

    The grid is uniform in the MI domain (`_mi_grid`).  cum[k - 2, l - 1] is
    the integral of pdf * f_{k,l} over [0, x_i) for k >= 2: for RR exactly
    phi_k(0) - phi_k(x_i) (`coding._erlang_phi`), and for IR the trapezoid
    rule over the grid of the correlation f_{k,l}(x_i) = sum_{j<n} g_l[i + j]
    p_{k-1}[j] dv of PER_l on the grid extended to 2n points, g_l, with the
    density p_{k-1} of the MI summed over k - 1 rounds (`_ir_spectra`).  All
    transforms have length 2n: the circular correlation of the 2n-point g_l
    with the zero-padded p_{k-1} reaches index i + j <= 2n - 2 for the n
    outputs i < n a row keeps, so it never wraps.  The region optimizer, the
    only harqlink code that builds them, reads every region mass from
    `cum_mass`, its renewal-reward sums from `renewal_sums` and its score
    crossings from `cum_density`; fast_throughput, given tables, reads the
    sums too.

    The IR trapezoid and row chain write with out= into work arrays
    (`_work_arrays`) that the build makes after its own x and cum, in the
    arithmetic of the allocating build, so every `cum` bit is the same.  An
    IR build makes one 2n-point grid, whose first n points are x, and one
    exp(-x / avg_snr), which both pdf and p_1 take (`_ir_spectra`).
    """

    def __init__(self, table: McsTable, K: int, combining: CombiningType,
                 avg_snr: float, n_grid: int = _GRID_POINTS):
        if K < 1:
            raise ValueError("K must be >= 1")
        if not avg_snr > 0:
            raise ValueError("avg_snr must be positive")
        self.table = table
        self.K = K
        self.combining = combining
        self.avg_snr = avg_snr

        n = n_grid
        if combining is CombiningType.IR:  # the grid, and its extension for the rows
            dv, x_ext = _mi_grid_into(avg_snr, n, np.empty(2 * n))
            self.x = x_ext[:n]
        else:
            dv, self.x = _mi_grid(avg_snr, n)
        L = table.num_rates
        self.cum = np.empty((K - 1, L, n))
        self.cum[:, :, 0] = 0.0
        if K < 2:
            return
        if combining is CombiningType.RR:
            self._phi0 = np.empty((K - 1, L))  # phi_k(0), for cum_mass off the grid
            for l in range(L):
                phi = _erlang_phi(l + 1, self.x, K, table, avg_snr)
                self._phi0[:, l] = phi[:, 0]  # x_0 = 0
                np.subtract(phi[:, :1], phi, out=self.cum[:, l])
            return
        work = _work_arrays(e=(n, float), pdf=(n, float), per_row=(2 * n, float), p=(n, float),
                            y=(n, float), t=(n - 1, float), row=(n, float),
                            p_conj=(n + 1, complex), product=(n + 1, complex))
        e, pdf, per_row, p, y, t, row, p_conj, product = work.values()
        np.divide(self.x, -avg_snr, out=e)  # -x / avg_snr, as x / -avg_snr rounds the same
        np.exp(e, out=e)
        np.divide(e, avg_snr, out=pdf)
        dx = np.diff(self.x)
        rate_spectrum, density_spectra = _ir_spectra(table, K, dv, x_ext, e, avg_snr, per_row, p)
        g_spectra = [rate_spectrum(l) for l in range(L)]
        # cum[k, l] of rounds k + 2 and rate l + 1, k outer, from the row
        # f = irfft(G_{l+1} conj(P_{k+1}), 2n)[:n] dv, clipped to [0, 1]
        for k, p_spectrum in enumerate(density_spectra):
            np.conjugate(p_spectrum, out=p_conj)
            for l, g in enumerate(g_spectra):
                np.multiply(g, p_conj, out=product)
                np.multiply(np.fft.irfft(product, 2 * n)[:n], dv, out=row)
                np.clip(row, 0.0, 1.0, out=row)
                # scipy's cumulative_trapezoid, in its arithmetic:
                # cumsum(dx * (y[1:] + y[:-1]) / 2.0) with y = pdf * f
                np.multiply(pdf, row, out=y)
                np.add(y[1:], y[:-1], out=t)
                np.multiply(dx, t, out=t)
                np.divide(t, 2.0, out=t)
                np.cumsum(t, out=self.cum[k, l, 1:])

    def cum_mass(self, l, x) -> np.ndarray:
        """Masses of pdf * f_{k,l} over [0, x) for k = 0..K, shaped (K + 1,) +
        the broadcast shape of l (a rate index or an integer array) and x (inf
        allowed).  Rows 0 (f_{0,l} = 1, so P(SNR < x)) and 1 are `first_round_cum`;
        k >= 2 is phi_k(0) - phi_k(x) for RR, as on the grid, and np.interp of
        `cum` for IR, in its exact arithmetic."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.K + 1,) + np.broadcast_shapes(np.shape(l), x.shape))
        out[:2] = first_round_cum(l, x, self.table, self.avg_snr)
        g = self.x
        if x is g:  # on its own grid, the table itself
            out[2:] = self.cum[:, l - 1]  # l is one rate here
        elif self.K > 1 and self.combining is CombiningType.RR:
            phi_0 = self._phi0[:, np.broadcast_to(l, out.shape[1:]) - 1]
            out[2:] = phi_0 - _erlang_phi(l, x, self.K, self.table, self.avg_snr)
        elif self.K > 1:
            j, width, offset = _grid_cell(g, x)
            c0, c1 = self.cum[:, l - 1, j], self.cum[:, l - 1, j + 1]
            inner = (c1 - c0) / width * offset + c0
            out[2:] = np.where(x < g[-1], inner, c1)
        return out

    def cum_density(self, l, x) -> np.ndarray:
        """The x-derivatives of the `cum_mass` rows, pdf * f_{k,l}(x) for
        k = 0..K, shaped as they are: f_0 = 1 and f_1 = PER_l; for k >= 2
        `per_erlang_rows` for RR, exact, and for IR the slope of cum_mass's
        linear interpolation in the cell that holds x, 0 from the grid's end
        on, so a node takes the slope of the cell right of it."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.K + 1,) + np.broadcast_shapes(np.shape(l), x.shape))
        out[0] = np.exp(-x / self.avg_snr) / self.avg_snr
        out[1] = out[0] * per_at(x, np.asarray(self.table.thresholds)[np.asarray(l) - 1],
                                 self.table.a_tilde)
        if self.K > 1 and self.combining is CombiningType.RR:
            out[2:] = out[0] * per_erlang_rows(l, x, self.K - 1, self.table, self.avg_snr)
        elif self.K > 1:
            j, width, _ = _grid_cell(self.x, x)
            slope = (self.cum[:, l - 1, j + 1] - self.cum[:, l - 1, j]) / width
            out[2:] = np.where(x < self.x[-1], slope, 0.0)
        return out

    def reward_cost(self, l, x) -> tuple[np.ndarray, np.ndarray]:
        """Expected reward and duration of a renewal cycle (`_reward_cost`)
        that rate l collects on [0, x), elementwise, from the `cum_mass`
        rows; a region's share is their difference."""
        rates = np.asarray(self.table.rates)[np.asarray(l) - 1]
        return _reward_cost(rates, self.cum_mass(l, x), self.K)

    def renewal_sums(self, l, a, b) -> tuple[float, float]:
        """Expected reward and duration of a renewal cycle, summed over the
        regions [a, b) of rates l (equal-length sequences)."""
        reward, cost = self.reward_cost(l, (b, a))
        return float(np.sum(reward[0] - reward[1])), float(np.sum(cost[0] - cost[1]))


def _ir_spectra(table: McsTable, K: int, dv: float, x_ext: np.ndarray, e: np.ndarray,
                avg_snr: float, per_row: np.ndarray, p: np.ndarray):
    """The spectra that IR rows are made of, on the 2n-point extension x_ext
    of the grid x = x_ext[:n]: a function that gives G_l = rfft(PER_l) of the
    0-based rate l, and a generator of P_{k-1}, the rfft of the zero-padded
    density p_{k-1} of the MI summed over k - 1 rounds, for k = 2..K.  p_1
    = ln 2 (1 + x) e / avg_snr is one round's MI density, with e =
    exp(-x / avg_snr) the caller's, and p_{s+1} = p_s * p_1 a
    self-convolution, whose n kept points do not wrap at 2n, so each
    density spectrum also serves the next density.

    The caller makes x_ext and e once and uses them too (x and pdf), so
    neither the grid nor the exponential is made twice.  PER_l goes into
    the work array per_row (2n points), with exp only where it is neither
    1 nor 0 (`coding._per_grid`, bit for bit per()), and each density into
    p (n points), in the operations and order of the chain that made them
    afresh, so every spectrum has the same bits."""
    n = p.size

    def rate_spectrum(l: int) -> np.ndarray:
        return np.fft.rfft(_per_grid(x_ext, table.thresholds[l], table.a_tilde, per_row))

    def density_spectra():
        np.add(x_ext[:n], 1.0, out=p)
        np.multiply(p, math.log(2.0), out=p)
        np.multiply(p, e, out=p)
        np.divide(p, avg_snr, out=p)
        p1_spectrum = p_spectrum = np.fft.rfft(p, 2 * n)
        for k in range(2, K + 1):
            if k > 2:  # p becomes the density of the MI summed over k - 1 rounds
                np.multiply(np.fft.irfft(p_spectrum * p1_spectrum, 2 * n)[:n], dv, out=p)
                p_spectrum = np.fft.rfft(p, 2 * n)
            yield p_spectrum

    return rate_spectrum, density_spectra()


def _rr_masses(labels, lows, highs, K: int, table: McsTable, avg_snr: float) -> np.ndarray:
    """RR masses E_{k,l} of pdf * f_{k,l} over the regions [lows, highs) of
    rates labels (all of a rate's intervals together), k = 2..K, as the rows
    of a (K - 1, L) array: each interval's phi_k(low) - phi_k(high)
    (`coding._erlang_phi`), exact up to rounding, with no grid."""
    phi = _erlang_phi(labels, (lows, highs), K, table, avg_snr)
    masses = np.zeros((K - 1, table.num_rates))
    np.add.at(masses, (slice(None), np.asarray(labels) - 1), phi[:, 0] - phi[:, 1])
    return masses


def _region_masses(labels, lows, highs, K: int, table: McsTable, avg_snr: float) -> np.ndarray:
    """IR masses E_{k,l} of pdf * f_{k,l} over the regions [lows, highs) of
    rates labels (all of a rate's intervals together), k = 2..K, as the rows
    of a (K - 1, L) array: what the differences of FastFadingTables.cum_mass
    at the region ends give, up to rounding, without building the tables.

    The trapezoid with linear interpolation in the end cells (`_grid_cell`)
    makes a region mass the weighted sum sum_i W_l[i] f_{k,l}(x_i), with
    W_l[i] = pdf_i (c_l[i - 1] + c_l[i]) / 2 and c_l[m] the length of grid
    cell m that rate l's regions cover.  The rows are the correlations
    dv irfft(G_l conj(P_{k-1}))[:n] of the table build, so by Parseval's
    theorem over the 2n-point spectrum
    E_{k,l} = dv / 2n Re sum_w h(w) G_l(w) conj(W^_l(w)) conj(P_{k-1}(w)),
    with h = 1, 2, ..., 2, 1 over the rfft half: every bin but the first
    and the last stands for itself and its conjugate.  That is the product
    of an (L, n + 1) and an (n + 1, K - 1) matrix, formed one rate at a
    time so that only one G_l is alive at once.

    The sum carries no [0, 1] clip of the rows.  Below 0 the clip trims
    only rounding, but p_{k-1} summed at the grid's left points overshoots
    its integral by about dv p_{k-1}(0) / 2 (1e-4 at -5 dB), so a row whose
    true value is near 1 exceeds 1 by that much and the table caps it.  On
    W_l's nodes i >= lo a row is at most its value at lo, since PER_l falls
    with the SNR and p_{k-1} >= 0, and that is at most
    PER_l(x_lo) dv p_{k-1}[0] + PER_l(x_{lo+1}) dv sum_{j>0} p_{k-1}[j].
    Where that bound comes within 1e-9 of 1, a region that starts at 0
    takes the row's value at 0, dv / 2n sum_w h(w) Re(G_l conj(P_{k-1})),
    and where that does too, or the region starts above 0, the mass is
    summed from the row made and clipped as the table build does.  The
    amc-exact regions of the README sweep (-5 to 30 dB, a_tilde 4 and inf)
    never make the row; at -15 dB rate 1's, which starts at 0, and those
    that start past the grid's end do.

    No n-point pass only recomputes a value or only touches zeros, and
    every mass keeps the bits of the chain that made each array afresh:
    the 2n-point grid is made once and x is its first half, computed point
    by point as the n-point grid is (`_mi_grid_into`); exp(-x / avg_snr) is
    made once for W_l and p_1 (`_ir_spectra`), with x / -avg_snr, which
    rounds as -x / avg_snr does; PER_l takes exp only where it is neither 1
    nor 0 (`coding._per_grid`).  c_l and W_l are formed only over the cells
    that rate l's regions cover, in the same operations in the same order,
    and W_l is 0 elsewhere, as 0 * pdf_i / 2 is; a rate with no region
    makes no G_l.

    All of its arrays but the spectra live in one (6, 2n + 2) work block
    (`_work_arrays`): the 2n-point grid, PER_l and the products that each
    sum adds; exp(-x / avg_snr) and pdf / 2; the density and c_l; W_l.
    """
    L, n = table.num_rates, _GRID_POINTS
    masses = np.zeros((K - 1, L))
    if K < 2:
        return masses
    block = _work_arrays(block=((6, 2 * n + 2), float))["block"]
    x_ext, per_row, product = block[0, :2 * n], block[1, :2 * n], block[2]
    e, half_pdf, p, covered = block[3, :n], block[3, n:2 * n], block[4, :n], block[4, n:2 * n - 1]
    weights = block[5, :n]
    dv, _ = _mi_grid_into(avg_snr, n, x_ext)
    x = x_ext[:n]
    np.divide(x, -avg_snr, out=e)  # -x / avg_snr, as x / -avg_snr rounds the same
    np.exp(e, out=e)
    np.divide(e, avg_snr, out=half_pdf)
    half_pdf /= 2.0
    rate = np.asarray(labels) - 1
    ja, _, off_a = _grid_cell(x, np.asarray(lows, dtype=float))
    jb, _, off_b = _grid_cell(x, np.asarray(highs, dtype=float))
    rate_spectrum, density_spectra = _ir_spectra(table, K, dv, x_ext, e, avg_snr, per_row, p)
    p_spectra = list(density_spectra)
    # dv p_{k-1}[0], an irfft at 0, and dv sum_j p_{k-1}[j], the zero bin
    p_first = [dv / (2 * n) * (2.0 * p.real.sum() - p[0].real - p[n].real) for p in p_spectra]
    p_mass = [dv * p[0].real for p in p_spectra]
    weights.fill(0.0)
    for l in np.unique(rate):
        mine = rate == l
        lo, hi = ja[mine].min(), jb[mine].max()
        # c_l on cells lo..hi, the widths of whole cells taken in weights as scratch
        covered[lo:hi + 1] = 0.0
        for a, b, oa, ob in zip(ja[mine], jb[mine], off_a[mine], off_b[mine]):
            np.subtract(x[a + 1:b + 1], x[a:b], out=weights[a:b])
            covered[a:b] += weights[a:b]
            covered[b] += ob
            covered[a] -= oa
        # W_l on nodes lo..hi + 1, the only ones it does not hold 0 at
        w = weights[lo:hi + 2]
        w[:-1] = covered[lo:hi + 1]
        w[-1] = 0.0
        w[1:] += covered[lo:hi + 1]
        w *= half_pdf[lo:hi + 2]
        g = rate_spectrum(l)
        per_lo, per_next = per(l + 1, x[lo:lo + 2], table)
        c = np.fft.rfft(weights, 2 * n)
        np.conjugate(c, out=c)
        c *= g
        c[1:n] *= 2.0  # h
        for k, p in enumerate(p_spectra):
            cap = per_lo * p_first[k] + per_next * (p_mass[k] - p_first[k])
            if cap >= 1.0 - 1e-9 and lo == 0:  # the row at 0 itself
                np.multiply(g.view(float), p.view(float), out=product)
                cap = dv / (2 * n) * (2.0 * product.sum() - product[:2].sum() - product[-2:].sum())
            if cap < 1.0 - 1e-9:
                # Re sum conj(P) c is sum P.re c.re + P.im c.im over the
                # interleaved parts; the pairwise sum keeps its rounding
                # below that of the FFTs
                np.multiply(c.view(float), p.view(float), out=product)
                masses[k, l] = product.sum() * (dv / (2 * n))
            else:  # the row reaches 1: make it and clip it as the table build does
                row = product[:n]
                np.multiply(np.fft.irfft(g * np.conjugate(p), 2 * n)[:n], dv, out=row)
                np.clip(row, 0.0, 1.0, out=row)
                row *= weights
                masses[k, l] = row.sum()
        w.fill(0.0)
    return masses


def fast_throughput(regions: DecisionRegions, K: int, combining: CombiningType,
                    table: McsTable, avg_snr: float,
                    tables: FastFadingTables | None = None) -> ThroughputEstimate:
    """Renewal-reward throughput over fast fading: the expected reward of a
    cycle over its expected duration, both sums of each rate's masses over
    its regions, from `first_round_cum` and, for k >= 2, `_rr_masses` or
    `_region_masses`, or, given tables of the same problem, from
    `FastFadingTables.renewal_sums` as in the region optimizer (only
    perfbench's optimized-regions check passes them).  The two agree to
    1e-13; the IR tables round more (3.9e-12 of a region's probability at
    -5 dB, against 1e-15).  At -15 dB and below IR can be slightly negative
    (-4.9e-8 at -20 dB, amc-exact, K = 2): the trapezoid overestimates
    E_{K,l}, which exceeds the exact P_l where f_{K,l} is 1.  RR's masses
    are exact, but a far-tail P_l rounds to 0 (eta -2.5e-94 there)."""
    labels, lows, highs, first = _interval_masses(regions, table, avg_snr)
    if tables is not None:
        if (tables.table, tables.K, tables.combining, tables.avg_snr) != (table, K, combining, avg_snr):
            raise ValueError("tables were built for another table, K, combining or avg_snr")
        reward, duration = tables.renewal_sums(labels, lows, highs)
        return ThroughputEstimate(value=reward / duration)
    if K < 1:
        raise ValueError("K must be >= 1")
    masses = np.empty((K + 1, table.num_rates))
    for k in range(2):
        masses[k] = np.bincount(labels - 1, first[k], table.num_rates)
    rows = _rr_masses if combining is CombiningType.RR else _region_masses
    masses[2:] = rows(labels, lows, highs, K, table, avg_snr)
    reward, duration = _reward_cost(np.asarray(table.rates), masses, K)
    return ThroughputEstimate(value=float(reward.sum() / duration.sum()))


def two_round_bound(regions: DecisionRegions, table: McsTable, avg_snr: float) -> float:
    """Throughput of the hypothetical protocol whose second round always
    succeeds: sum_l R_l p_l / (1 + avg first-round error probability).
    Upper-bounds plain HARQ (RR or IR, any round budget) on the same
    regions; packet-dropping HARQ, which restarts cycles early, can exceed
    it."""
    labels, _, _, (p, f1) = _interval_masses(regions, table, avg_snr)
    rates = np.asarray(table.rates)[labels - 1]
    return float(np.sum(rates * p) / (1.0 + np.sum(f1)))
