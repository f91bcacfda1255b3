"""Packet-error model, decoding thresholds, HARQ combining functions, and
closed-form averages over the exponential SNR law: the first-round masses
P(SNR < x) and E[PER_l; SNR < x] (`first_round_cum`) and the Erlang means
of the PER (`per_erlang_rows`).  The only place that evaluates the PER,
log2(1 + gamma) and its inverse."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class CombiningType(Enum):
    RR = "rr"   # repetition redundancy: SNRs add (MRC), h(x) = x
    IR = "ir"   # incremental redundancy: mutual information adds, h(x) = I(x)


@dataclass(frozen=True)
class McsTable:
    """Rate set, decoding thresholds, and PER decay.

    Rates are bits/symbol, strictly increasing.  Thresholds are derived
    from the threshold-decoding rule I(gamma_th_l) = R_l, i.e.
    gamma_th_l = 2**R_l - 1.  a_tilde = inf selects exact step-function
    (threshold) decoding.
    """

    rates: tuple[float, ...]
    a_tilde: float = 4.0
    thresholds: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if len(rates) < 1:
            raise ValueError("need at least one rate")
        if any(r <= 0 for r in rates):
            raise ValueError("rates must be positive")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly increasing")
        if not self.a_tilde > 0:
            raise ValueError("a_tilde must be positive (inf allowed)")
        object.__setattr__(self, "thresholds", tuple(2.0 ** r - 1.0 for r in rates))

    @property
    def num_rates(self) -> int:
        return len(self.rates)

    def rate(self, l: int) -> float:
        """Rate of MCS index l (1-based)."""
        self._check_index(l)
        return self.rates[l - 1]

    def threshold(self, l: int) -> float:
        self._check_index(l)
        return self.thresholds[l - 1]

    def _check_index(self, l: int):
        if not 1 <= l <= len(self.rates):
            raise IndexError(f"MCS index {l} out of range 1..{len(self.rates)}")


_LN2 = math.log(2.0)


def mutual_information(gamma):
    """Gaussian-input mutual information log2(1 + gamma), bits/symbol.

    Evaluated as log1p(gamma) / ln 2, accurate down to the smallest SNRs.
    A Python float takes a scalar path; arrays are handled elementwise.
    """
    if isinstance(gamma, (int, float)):
        if gamma < 0:
            raise ValueError("SNR must be nonnegative")
        return math.log1p(gamma) / _LN2
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("SNR must be nonnegative")
    out = np.log1p(gamma) / _LN2
    return out if out.ndim else float(out)


def mutual_information_inv(bits):
    """Inverse of mutual_information: 2**bits - 1 as expm1(bits ln 2).

    Overflows to inf.  A Python float takes a scalar path.
    """
    if isinstance(bits, (int, float)):
        try:
            return math.expm1(bits * _LN2)
        except OverflowError:
            return math.inf
    bits = np.asarray(bits, dtype=float)
    with np.errstate(over="ignore"):
        out = np.expm1(bits * _LN2)
    return out if out.ndim else float(out)


def per_at(gamma, threshold, a_tilde: float):
    """Packet error rate at SNR gamma >= 0 for a decoding threshold.

    1 below the threshold, exp(-a_tilde (gamma/threshold - 1)) above it; a
    step function for a_tilde = inf.  gamma and threshold broadcast against
    each other (e.g. a column of per-row thresholds); Python floats take a
    scalar path.
    """
    if isinstance(gamma, (int, float)) and isinstance(threshold, (int, float)):
        if gamma < 0:
            raise ValueError("SNR must be nonnegative")
        if gamma < threshold:
            return 1.0
        return 0.0 if math.isinf(a_tilde) else math.exp(-a_tilde * (gamma / threshold - 1.0))
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("SNR must be nonnegative")
    if math.isinf(a_tilde):
        out = np.where(gamma < threshold, 1.0, 0.0)
    else:
        out = np.exp(-a_tilde * np.maximum(gamma / threshold - 1.0, 0.0))
    return out if out.ndim else float(out)


def per(l: int, gamma, table: McsTable):
    """Packet error rate of MCS l at (aggregate) SNR gamma; vectorized over gamma."""
    table._check_index(l)
    return per_at(gamma, table.thresholds[l - 1], table.a_tilde)


def first_round_cum(l, x, table: McsTable, avg_snr: float) -> np.ndarray:
    """First-round masses over [0, x) for exponential SNR, in closed form:
    row 0 is P(SNR < x) and row 1 the integral of pdf * PER_l, shaped (2,) +
    the broadcast shape of l (a rate index or an integer array, e.g. a
    column of rates) and x (inf allowed).  A region [a, b) takes the
    difference of the rows at b and at a."""
    if not avg_snr > 0:
        raise ValueError("avg_snr must be positive")
    th = table.threshold(l) if isinstance(l, int) else np.asarray(table.thresholds)[l - 1]
    x = np.asarray(x, dtype=float)
    out = np.empty((2,) + np.broadcast_shapes(np.shape(l), x.shape))
    out[0] = -np.expm1(-x / avg_snr)
    out[1] = -np.expm1(-np.minimum(x, th) / avg_snr)
    if not math.isinf(table.a_tilde):
        c = 1.0 / avg_snr + table.a_tilde / th
        out[1] += (np.exp(table.a_tilde - th * c) / (avg_snr * c)
                   * -np.expm1(-np.maximum(x - th, 0.0) * c))
    return out


def per_erlang_rows(l: int, x, rounds: int, table: McsTable, avg_snr: float) -> np.ndarray:
    """E[PER_l(x + U_m)], U_m ~ Erlang(m, avg_snr), for m = 1..rounds: row
    m - 1 of a (rounds, x.size) array, over an ascending grid x >= 0.

    For integer m the incomplete gamma functions are finite Poisson sums
    (Abramowitz & Stegun 6.5.13).  On the grid prefix x < th_l, with
    z = (th_l - x) / avg_snr, r = 1 / (avg_snr beta) and
    beta = a_tilde / th_l + 1 / avg_snr, the mean is
    1 - sum_{j<m} e^{-z} z^j / j! + sum_{j<m} e^{-z} z^j / j! r^{m-j}, and one
    pass over j yields every m.  Above the prefix it is the exponential tail
    exp(a_tilde (1 - x / th_l)) / (avg_snr beta)^m, and 0 for a_tilde = inf.
    """
    th = table.threshold(l)
    out = np.empty((rounds, x.size))
    below = np.searchsorted(x, th)  # the length of the prefix x < th_l
    if math.isinf(table.a_tilde):
        r, out[:, below:] = 0.0, 0.0
    else:
        beta = table.a_tilde / th + 1.0 / avg_snr
        r = 1.0 / (avg_snr * beta)
        tail = np.exp(table.a_tilde * (1.0 - x[below:] / th))
        for m in range(1, rounds + 1):
            out[m - 1, below:] = tail / (avg_snr * beta) ** m
    z = (th - x[:below]) / avg_snr
    term = np.exp(-z)  # the Poisson term e^{-z} z^j / j!, from j = 0
    mass = np.zeros_like(z)  # sum_{j<m} of the terms
    tail_mass = np.zeros_like(z)  # sum_{j<m} of the terms times r^{m-j}
    for m in range(1, rounds + 1):
        mass += term
        tail_mass = r * (tail_mass + term)
        out[m - 1, :below] = (1.0 - mass) + tail_mass
        term = term * z / m
    return out


def snr_margin_delta(epsilon: float, a_tilde: float) -> float:
    """Multiplicative SNR margin above threshold needed for PER = epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not a_tilde > 0:
        raise ValueError("a_tilde must be positive")
    return math.log(1.0 / epsilon) / a_tilde + 1.0


def aggregate_snr(snrs, combining: CombiningType) -> float:
    """Scalar aggregate SNR h^{-1}(sum h(gamma_t)) of the rounds so far.

    For IR the sum is kept in the MI domain and exponentiated once, which
    avoids overflowing the product prod(1 + gamma_t) at high SNR.
    """
    snrs = np.asarray(snrs, dtype=float)
    if snrs.size == 0:
        raise ValueError("need at least one SNR")
    if np.any(snrs < 0):
        raise ValueError("SNRs must be nonnegative")
    if combining is CombiningType.RR:
        return float(np.sum(snrs))
    return float(mutual_information_inv(np.sum(mutual_information(snrs))))

