"""Packet-error model, decoding thresholds, HARQ combining types, and
closed-form averages over the exponential SNR law: the first-round masses
P(SNR < x) and E[PER_l; SNR < x] (`first_round_cum`), and the Erlang means
of the PER (`per_erlang_rows`), whose differences give every RR mass.  The
only place that evaluates the PER, log2(1 + gamma) and its inverse."""

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


def _mi_inv_steps(step: float, out: np.ndarray) -> np.ndarray:
    """mutual_information_inv(i * step) for i < out.size, bit for bit, written
    into out."""
    np.multiply(np.arange(out.size), step, out=out)
    out *= _LN2
    with np.errstate(over="ignore"):
        return np.expm1(out, out=out)


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


# exp(-z) rounds to 0 for z above about 745.13
_EXP_UNDERFLOW = 746.0


def _per_grid(x: np.ndarray, threshold: float, a_tilde: float, out: np.ndarray) -> np.ndarray:
    """per_at(x, threshold, a_tilde) into out, bit for bit, for an ascending
    x >= 0, with exp only where the PER is neither 1 nor 0.  Below the
    threshold x / threshold - 1 <= 0, which per_at's max with 0 turns into
    exp(-0.0) = 1; from it on x / threshold >= 1, so the max does nothing,
    up to where the exponent passes -_EXP_UNDERFLOW and exp gives 0.  For
    a_tilde = inf the PER is a step at the threshold."""
    lo = int(np.searchsorted(x, threshold))  # the first x >= threshold
    hi = lo if math.isinf(a_tilde) else int(
        np.searchsorted(x, threshold * (1.0 + _EXP_UNDERFLOW / a_tilde)))
    out[:lo] = 1.0
    tail = out[lo:hi]
    np.divide(x[lo:hi], threshold, out=tail)
    tail -= 1.0
    tail *= -a_tilde
    np.exp(tail, out=tail)
    out[hi:] = 0.0
    return out


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


def per_erlang_rows(l, x, rounds: int, table: McsTable, avg_snr: float) -> np.ndarray:
    """E[PER_l(x + U_m)], U_m ~ Erlang(m, avg_snr), for m = 1..rounds: row
    m - 1 of a (rounds,) + broadcast shape array of l (a rate index or an
    integer array) and x (>= 0, in any order, inf allowed).

    The incomplete gamma functions are finite Poisson sums (Abramowitz &
    Stegun 6.5.13): with z = max(th_l - x, 0) / avg_snr, w = avg_snr beta z,
    beta = a_tilde / th_l + 1 / avg_snr and t = exp(a_tilde min(1 - x / th_l, 0)),
    E = 1 - sum_{j<m} e^{-z} z^j / j! + t sum_{j<m} e^{-z} w^j / j! / (avg_snr beta)^m,
    the exponential tail where x >= th_l (z = 0), and without the second sum
    for a_tilde = inf.  1 - e^{-z} is -expm1(-z), for an error of 1e-16 z.
    """
    th = table.threshold(l) if isinstance(l, int) else np.asarray(table.thresholds)[np.asarray(l) - 1]
    x = np.asarray(x, dtype=float)
    z = np.maximum(th - x, 0.0) / avg_snr
    step = math.isinf(table.a_tilde)
    # row j: e^{-z} z^j / j! and e^{-z} w^j / j!, then their sums over j < m,
    # in place: a fresh 2^15-point temporary costs more in page faults
    terms = np.empty((rounds, 1 if step else 2) + z.shape)
    i = np.arange(1.0, rounds).reshape((rounds - 1,) + (1,) * z.ndim)
    np.divide(z, i, out=terms[1:, 0])
    if not step:
        scale = avg_snr * (table.a_tilde / th + 1.0 / avg_snr)  # avg_snr beta
        power = np.reshape([scale ** m for m in range(1, rounds + 1)],
                           (rounds,) + (1,) * (z.ndim - np.ndim(th)) + np.shape(th))
        np.divide(z * scale, i, out=terms[1:, 1])
    terms[0] = np.exp(-z)
    for j in range(1, rounds):
        terms[j] *= terms[j - 1]
    terms[0, 0] = 0.0  # the sums of the first kind start at j = 1, after -expm1(-z)
    for j in range(1, rounds):
        terms[j] += terms[j - 1]
    out = np.subtract(-np.expm1(-z), terms[:, 0])
    if not step:
        out += terms[:, 1] * (np.exp(table.a_tilde * np.minimum(1.0 - x / th, 0.0)) / power)
    return out


def _erlang_phi(l, x, K: int, table: McsTable, avg_snr: float) -> np.ndarray:
    """phi_k(x) = e^{-x / avg_snr} E[PER_l(x + U_k)] for k = 2..K, row k - 2,
    with l and x as in `per_erlang_rows`.  The Erlang densities satisfy
    f_k' = (f_{k-1} - f_k) / avg_snr and f_k(0) = 0 for k >= 2, so
    phi_k' = -pdf E[PER_l(x + U_{k-1})]: the RR mass of pdf * f_{k,l} over
    [a, b) is phi_k(a) - phi_k(b), exactly, and phi_k(inf) = 0."""
    phi = per_erlang_rows(l, x, K, table, avg_snr)[1:]
    phi *= np.exp(-np.asarray(x, dtype=float) / avg_snr)
    return phi


def snr_margin_delta(epsilon: float, a_tilde: float) -> float:
    """Multiplicative SNR margin above threshold needed for PER = epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not a_tilde > 0:
        raise ValueError("a_tilde must be positive")
    return math.log(1.0 / epsilon) / a_tilde + 1.0
