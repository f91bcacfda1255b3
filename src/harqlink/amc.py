"""AMC decision regions and throughput.

Regions are either a monotone threshold vector (one interval per rate) or
explicit unions of intervals; both partition [0, inf) with the half-open
convention [gamma_l, gamma_{l+1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .coding import McsTable, first_round_cum, per_at, snr_margin_delta


class RegionKind(Enum):
    THRESHOLDS = "thresholds"
    INTERVALS = "intervals"


@dataclass(frozen=True)
class ThroughputEstimate:
    """Throughput point value in bits/symbol with provenance."""

    value: float
    ci_half_width: float = 0.0
    provenance: str = "analytic"


@dataclass(frozen=True)
class DecisionRegions:
    """Per-rate SNR regions.

    For kind THRESHOLDS, `thresholds` holds (gamma_1, ..., gamma_L) with
    gamma_1 = 0 and an implicit gamma_{L+1} = inf; equal adjacent entries
    encode a degenerate (empty) region.  For kind INTERVALS, `intervals`
    holds, per rate, a tuple of (lo, hi) pairs; across rates they must
    partition [0, inf) exactly once.
    """

    kind: RegionKind
    thresholds: tuple[float, ...] | None = None
    intervals: tuple[tuple[tuple[float, float], ...], ...] | None = None

    def __post_init__(self):
        if self.kind is RegionKind.THRESHOLDS:
            if self.thresholds is None:
                raise ValueError("threshold regions need a threshold vector")
            t = tuple(float(x) for x in self.thresholds)
            object.__setattr__(self, "thresholds", t)
            if t[0] != 0.0:
                raise ValueError("gamma_1 must be 0")
            if any(b < a for a, b in zip(t, t[1:])):
                raise ValueError("thresholds must be non-decreasing")
        else:
            if self.intervals is None:
                raise ValueError("interval regions need interval lists")
            iv = tuple(tuple((float(a), float(b)) for a, b in per_l) for per_l in self.intervals)
            object.__setattr__(self, "intervals", iv)
            self._validate_partition(iv)

    @staticmethod
    def _validate_partition(iv):
        flat = [(a, b, l + 1) for l, per_l in enumerate(iv) for a, b in per_l]
        flat.sort()
        if not flat or flat[0][0] != 0.0:
            raise ValueError("intervals must start at 0")
        for (a, b, _), (a2, _, _) in zip(flat, flat[1:]):
            if b != a2:
                raise ValueError("intervals must partition [0, inf) with no gaps/overlaps")
            if b <= a:
                raise ValueError("intervals must be non-empty and ordered")
        if not math.isinf(flat[-1][1]):
            raise ValueError("last interval must extend to inf")

    @property
    def num_rates(self) -> int:
        if self.kind is RegionKind.THRESHOLDS:
            return len(self.thresholds)
        return len(self.intervals)

    def intervals_for(self, l: int) -> tuple[tuple[float, float], ...]:
        """Interval list of region l (1-based); empty for degenerate regions."""
        if self.kind is RegionKind.INTERVALS:
            return self.intervals[l - 1]
        t = self.thresholds + (math.inf,)
        lo, hi = t[l - 1], t[l]
        return ((lo, hi),) if hi > lo else ()

    def labelled_intervals(self) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
        """(labels, lows, highs) of every non-empty interval, rate by rate."""
        return tuple(zip(*[(l, a, b) for l in range(1, self.num_rates + 1)
                           for a, b in self.intervals_for(l)]))


def classify(gamma, regions: DecisionRegions):
    """MCS index of the region containing gamma; half-open boundaries.

    Vectorized over gamma.  The interval holding gamma is the number of
    interval starts above 0 that gamma reaches, one compare per start.
    """
    labels, lows, _ = regions.labelled_intervals()
    order = np.argsort(lows)
    edges, labels = np.array(lows)[order], np.array(labels)[order]
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SNR must be nonnegative")
    idx = np.zeros(gamma.shape, dtype=np.min_scalar_type(edges.size))
    for edge in edges[1:].tolist():
        idx += gamma >= edge
    out = labels[idx]
    return out if out.ndim else int(out)


def first_float_where(pred, lo, hi) -> np.ndarray:
    """Elementwise, the float b in (lo, hi] at which the vectorized predicate
    `pred` turns true (it holds at b and fails one float below), for pred
    false at lo and true at hi: bisection until no float lies strictly
    between lo and hi, about 65 steps when hi / lo = 1e4."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        holds = pred(mid)
        lo, hi = np.where(holds, lo, mid), np.where(holds, mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


@lru_cache(maxsize=8)
def amc_thresholds_exact(table: McsTable) -> DecisionRegions:
    """Throughput-optimal thresholds: for every l >= 2 at once, the first
    float at which R_l (1 - PER_l) reaches R_{l-1} (1 - PER_{l-1}), by
    `first_float_where` on [th_l (1 + 1e-14), 1e4 th_l]; ties go to the
    larger rate.  For a_tilde = inf the crossing is the decoding threshold.
    """
    if math.isinf(table.a_tilde):
        t = (0.0,) + table.thresholds[1:]
        return DecisionRegions(RegionKind.THRESHOLDS, thresholds=t)
    r, th, a = np.array(table.rates), np.array(table.thresholds), table.a_tilde

    def right_wins(x):
        return r[1:] * (1.0 - per_at(x, th[1:], a)) >= r[:-1] * (1.0 - per_at(x, th[:-1], a))

    lo, hi = th[1:] * (1.0 + 1e-14), th[1:] * 1e4
    bad = np.flatnonzero(right_wins(lo) | ~right_wins(hi))
    if bad.size:
        rm, rl = table.rates[bad[0]:bad[0] + 2]
        raise ValueError(f"no bracketed crossing for rates {rm}, {rl}")
    gammas = first_float_where(right_wins, lo, hi)
    return DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, *map(float, gammas)))


def amc_thresholds_closed_form(table: McsTable) -> DecisionRegions:
    """Closed-form approximation gamma_l = gamma_th_l (1 + ln(R_l/(R_l-R_{l-1}))/a)."""
    if math.isinf(table.a_tilde):
        return amc_thresholds_exact(table)
    gammas = [0.0]
    for l in range(2, table.num_rates + 1):
        rl, rm = table.rate(l), table.rate(l - 1)
        gammas.append(table.threshold(l) * (1.0 + math.log(rl / (rl - rm)) / table.a_tilde))
    return DecisionRegions(RegionKind.THRESHOLDS, thresholds=tuple(gammas))


def amc_thresholds_per_target(table: McsTable, p_loss: float, arq_rounds: int = 1) -> DecisionRegions:
    """Thresholds placed at PER_l = p_loss**(1/M), clamped below by the
    throughput-optimal values (lower thresholds would lose throughput with
    no reliability benefit at the LLC).
    """
    if not 0.0 < p_loss < 1.0:
        raise ValueError("p_loss must be in (0, 1)")
    if arq_rounds < 1:
        raise ValueError("arq_rounds must be >= 1")
    p_t = p_loss ** (1.0 / arq_rounds)
    optimal = amc_thresholds_exact(table).thresholds
    gammas = [0.0]
    margin = snr_margin_delta(p_t, table.a_tilde)  # 1 for step decoding
    for l in range(2, table.num_rates + 1):
        gammas.append(max(table.threshold(l) * margin, optimal[l - 1]))
    return DecisionRegions(RegionKind.THRESHOLDS, thresholds=tuple(gammas))


def _interval_masses(regions: DecisionRegions, table: McsTable, avg_snr: float):
    """Labels (an array), lows and highs of every non-empty interval of
    regions, and the rows P(SNR in it) and integral of pdf * PER_l over it."""
    labels, lows, highs = regions.labelled_intervals()
    labels = np.array(labels)
    m = first_round_cum(labels, (highs, lows), table, avg_snr)
    return labels, lows, highs, m[:, 0] - m[:, 1]


def amc_throughput(regions: DecisionRegions, table: McsTable, avg_snr: float) -> ThroughputEstimate:
    """Expected AMC throughput sum_l R_l (1 - f_1l) p_l over the SNR law,
    in closed form: sum_l R_l (P(region l) - integral of pdf * PER_l over it).

    Identical for slow and fast fading (errors are block-memoryless).
    """
    labels, _, _, (p, f1) = _interval_masses(regions, table, avg_snr)
    rates = np.asarray(table.rates)[labels - 1]
    return ThroughputEstimate(value=float(np.sum(rates * (p - f1))))
