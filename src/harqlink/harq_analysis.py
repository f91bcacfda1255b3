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
expected duration, both region sums of FastFadingTables.renewal_sums.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .amc import DecisionRegions, ThroughputEstimate
from .coding import (CombiningType, McsTable, first_round_cum, mutual_information,
                     mutual_information_inv, per, per_at, per_erlang_rows)


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

_SPAN = 50.0  # the FastFadingTables grid ends at _SPAN * avg_snr

# The work arrays of each thread's latest table build; see FastFadingTables.
_work = threading.local()


def _work_arrays(n: int) -> dict[str, np.ndarray]:
    """Fresh work arrays for an n-point table build.  They stay this
    thread's until its next build has made its own, so they outlive the
    build that uses them."""
    _work.arrays = {"y": np.empty(n), "t": np.empty(n - 1), "row": np.empty(n),
                    "p_conj": np.empty(n + 1, complex), "product": np.empty(n + 1, complex)}
    return _work.arrays


class FastFadingTables:
    """Cumulative f_{k,l} tables over a shared SNR grid.

    The grid is uniform in the MI domain (x_i = 2**(i dv) - 1, spanning
    [0, _SPAN * avg_snr]).  cum[k - 2, l - 1] is the integral of
    pdf * f_{k,l} over [0, x_i) for k >= 2, by the trapezoid rule; each
    f_{k,l} row is integrated as soon as it is made.  RR rows are the
    Erlang closed form, every k of one rate from one pass.  IR row (k, l)
    is the correlation f_{k,l}(x_i) = sum_{j<n} g_l[i + j] p_{k-1}[j] dv of
    PER_l on the grid extended to 2n points, g_l, with the density p_{k-1}
    of the MI summed over k - 1 rounds.  All transforms have length 2n: the
    circular correlation of the 2n-point g_l with the zero-padded p_{k-1}
    reaches index i + j <= 2n - 2 for the n outputs i < n a row keeps, so
    it never wraps.  The densities are self-convolutions
    p_{s+1} = p_s * p_1, whose n kept points do not wrap at 2n either, so
    the spectrum of each density serves both its correlations and the next
    density, and one rfft per rate serves every k.  Every region mass that
    fast_throughput and the fast optimizer use comes from `cum_mass`, and
    their renewal-reward sums from `renewal_sums`.

    The trapezoid and the IR row chain write with out= into work arrays
    (`_work_arrays`) that the build makes after its own x and cum and that
    outlive it: they stay alive until the thread's next build has made
    its own.  glibc hands freed heap back to the kernel when the top of
    the heap is free, as it is when a sweep point frees its tables, and
    every page handed back faults again in the next build.  With glibc
    2.36, temporaries made afresh for every row took about 172k minor
    faults per in-process fast README sweep, and work arrays freed with
    their build as many; arrays made once by a thread's first build and
    reused, which then lie below the later builds' heap, still took 96k.
    Arrays that outlive the build keep the heap top in use: the same
    sweep took under 60.  The arithmetic is that of the allocating build,
    so every `cum` bit is the same.
    """

    def __init__(self, table: McsTable, K: int, combining: CombiningType,
                 avg_snr: float, n_grid: int = 1 << 15):
        if K < 1:
            raise ValueError("K must be >= 1")
        if not avg_snr > 0:
            raise ValueError("avg_snr must be positive")
        self.table = table
        self.K = K
        self.combining = combining
        self.avg_snr = avg_snr

        n = n_grid
        dv = mutual_information(_SPAN * avg_snr) / n
        self.x = mutual_information_inv(np.arange(n) * dv)
        pdf = np.exp(-self.x / avg_snr) / avg_snr
        dx = np.diff(self.x)
        L = table.num_rates
        self.cum = np.empty((K - 1, L, n))
        self.cum[:, :, 0] = 0.0
        if K < 2:
            return
        work = _work_arrays(n)
        if combining is CombiningType.RR:
            rows = ((k, l, f) for l in range(L)
                    for k, f in enumerate(per_erlang_rows(l + 1, self.x, K - 1, table, avg_snr)))
        else:
            rows = _ir_rows(table, K, n, dv, self.x, avg_snr, work)
        y, t = work["y"], work["t"]
        for k, l, f in rows:
            # scipy's cumulative_trapezoid, in its arithmetic:
            # cumsum(dx * (y[1:] + y[:-1]) / 2.0) with y = pdf * f
            np.multiply(pdf, f, out=y)
            np.add(y[1:], y[:-1], out=t)
            np.multiply(dx, t, out=t)
            np.divide(t, 2.0, out=t)
            np.cumsum(t, out=self.cum[k, l, 1:])

    def cum_mass(self, l, x) -> np.ndarray:
        """Masses of pdf * f_{k,l} over [0, x) for k = 0..K, shaped (K + 1,) +
        the broadcast shape of l (a rate index or an integer array) and x (inf
        allowed).  Rows 0 (f_{0,l} = 1, so P(SNR < x)) and 1 are `first_round_cum`;
        k >= 2 is np.interp of `cum`, in its exact arithmetic."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.K + 1,) + np.broadcast_shapes(np.shape(l), x.shape))
        out[:2] = first_round_cum(l, x, self.table, self.avg_snr)
        g = self.x
        if x is g:  # on its own grid the interpolation is the identity
            out[2:] = self.cum[:, l - 1]  # l is one rate here
        elif self.K > 1:
            j = np.searchsorted(g[:-1], x, side="right") - 1
            x0, c0, c1 = g[j], self.cum[:, l - 1, j], self.cum[:, l - 1, j + 1]
            inner = (c1 - c0) / (g[j + 1] - x0) * (np.minimum(x, g[-1]) - x0) + c0
            out[2:] = np.where(x < g[-1], inner, c1)
        return out

    def reward_cost(self, l, x) -> tuple[np.ndarray, np.ndarray]:
        """Expected reward R_l (P - E_{K,l}) and duration P + sum_{k<K} E_{k,l}
        of a renewal cycle that rate l collects on [0, x), elementwise, from
        the `cum_mass` rows P, E_{k,l}; a region's share is their difference."""
        m = self.cum_mass(l, x)
        rates = np.asarray(self.table.rates)[np.asarray(l) - 1]
        return rates * (m[0] - m[self.K]), m[:self.K].sum(axis=0)

    def renewal_sums(self, l, a, b) -> tuple[float, float]:
        """Expected reward and duration of a renewal cycle, summed over the
        regions [a, b) of rates l (equal-length sequences)."""
        reward, cost = self.reward_cost(l, (b, a))
        return float(np.sum(reward[0] - reward[1])), float(np.sum(cost[0] - cost[1]))

    def check_problem(self, table: McsTable, K: int, combining: CombiningType,
                      avg_snr: float) -> FastFadingTables:
        """These tables, or ValueError if they were built for another problem."""
        if (self.table, self.K, self.combining, self.avg_snr) != (table, K, combining, avg_snr):
            raise ValueError("tables were built for another table, K, combining or avg_snr")
        return self


def _ir_rows(table: McsTable, K: int, n: int, dv: float, x, avg_snr: float,
             work: dict[str, np.ndarray]):
    """(k - 2, l - 1, f_{k,l}) for every IR row of FastFadingTables, k outer:
    each row is irfft(G_l conj(P_{k-1}), 2n)[:n] dv, clipped to [0, 1].

    Every yielded row is the same array, the build's work array "row", so
    a row is valid only until the next yield; FastFadingTables.__init__,
    the only caller, integrates each row at once."""
    p_conj, product, row = work["p_conj"], work["product"], work["row"]
    x_ext = mutual_information_inv(np.arange(2 * n) * dv)
    g_spectra = [np.fft.rfft(per(l, x_ext, table)) for l in range(1, table.num_rates + 1)]
    # p_1, the density of one round's MI
    p = math.log(2.0) * (1.0 + x) * np.exp(-x / avg_snr) / avg_snr
    p1_spectrum = p_spectrum = np.fft.rfft(p, 2 * n)
    for k in range(2, K + 1):
        if k > 2:  # p becomes the density of the MI summed over k - 1 rounds
            p = np.fft.irfft(p_spectrum * p1_spectrum, 2 * n)[:n] * dv
            p_spectrum = np.fft.rfft(p, 2 * n)
        np.conjugate(p_spectrum, out=p_conj)
        for l, g in enumerate(g_spectra):
            np.multiply(g, p_conj, out=product)
            np.multiply(np.fft.irfft(product, 2 * n)[:n], dv, out=row)
            yield k - 2, l, np.clip(row, 0.0, 1.0, out=row)


def fast_throughput(regions: DecisionRegions, K: int, combining: CombiningType,
                    table: McsTable, avg_snr: float,
                    tables: FastFadingTables | None = None) -> ThroughputEstimate:
    """Renewal-reward throughput over fast fading: the expected reward of a
    cycle over its expected duration, both summed over every region's
    intervals by `FastFadingTables.renewal_sums`.  Given tables must have
    been built for the same table, K, combining and avg_snr."""
    tables = (FastFadingTables(table, K, combining, avg_snr) if tables is None
              else tables.check_problem(table, K, combining, avg_snr))
    l, a, b = regions.labelled_intervals()
    reward, duration = tables.renewal_sums(np.array(l), a, b)
    return ThroughputEstimate(value=reward / duration)


def two_round_bound(regions: DecisionRegions, table: McsTable, avg_snr: float) -> float:
    """Throughput of the hypothetical protocol whose second round always
    succeeds: sum_l R_l p_l / (1 + avg first-round error probability).
    Upper-bounds plain HARQ (RR or IR, any round budget) on the same
    regions; packet-dropping HARQ, which restarts cycles early, can exceed
    it."""
    labels, lows, highs = regions.labelled_intervals()
    labels = np.array(labels)
    m = first_round_cum(labels, (highs, lows), table, avg_snr)
    p, f1 = m[:, 0] - m[:, 1]  # per region: P(SNR in it) and the mass of pdf * PER_l
    rates = np.asarray(table.rates)[labels - 1]
    return float(np.sum(rates * p) / (1.0 + np.sum(f1)))
