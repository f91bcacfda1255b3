"""Reference values computed apart from harqlink, for the output checks.

The packet-error model, the exponential SNR law and the Erlang law of a
sum of fading SNRs are written out here from their definitions; nothing in
this module calls into harqlink.
"""

from __future__ import annotations

import math

from scipy import integrate, special, stats


def ergodic_capacity(avg_snr: float) -> float:
    """E[log2(1 + SNR)] for exponential SNR: e^{1/g} E1(1/g) / ln 2."""
    return math.exp(1.0 / avg_snr) * float(special.exp1(1.0 / avg_snr)) / math.log(2.0)


def _decoding_threshold(rate: float) -> float:
    return 2.0 ** rate - 1.0


def _exp_mass(a: float, b: float, avg_snr: float) -> float:
    hi = 0.0 if math.isinf(b) else math.exp(-b / avg_snr)
    return math.exp(-a / avg_snr) - hi


def _per_mass(rate: float, a_tilde: float, a: float, b: float, avg_snr: float,
              shift: float = 0.0) -> float:
    """Integral over x in [a, b) of pdf(x) * PER(x + shift).

    PER(y) = 1 below the decoding threshold th and exp(-a_tilde (y/th - 1))
    above it, so both pieces integrate in closed form against the
    exponential density.
    """
    th = _decoding_threshold(rate)
    cut = th - shift  # x below cut fails with certainty
    total = 0.0
    if min(b, cut) > a:
        total += _exp_mass(a, min(b, cut), avg_snr)
    lo = max(a, cut)
    if b > lo and not math.isinf(a_tilde):
        c = 1.0 / avg_snr + a_tilde / th

        def edge(x):
            if math.isinf(x):
                return 0.0
            return math.exp(a_tilde * (1.0 - (x + shift) / th) - x / avg_snr)

        total += (edge(lo) - edge(b)) / (avg_snr * c)
    return total


def _region_bounds(thresholds):
    edges = list(thresholds) + [math.inf]
    return list(zip(edges, edges[1:]))


def amc_throughput_closed_form(rates, a_tilde: float, thresholds, avg_snr: float) -> float:
    """sum_l R_l (P(region l) - integral of pdf * PER_l over region l)."""
    total = 0.0
    for rate, (a, b) in zip(rates, _region_bounds(thresholds)):
        if b > a:
            total += rate * (_exp_mass(a, b, avg_snr) - _per_mass(rate, a_tilde, a, b, avg_snr))
    return total


def _erlang_cascade_mass(rate: float, a_tilde: float, a: float, b: float, k: int,
                         avg_snr: float) -> float:
    """Integral over [a, b) of pdf(x) f_k(x), f_k(x) = E[PER(x + U)] with
    U ~ Erlang(k-1, avg_snr) the SNR summed over the k-1 later rounds.

    The x integral is closed form for each u; the expectation over U is an
    adaptive quadrature against scipy.stats.gamma.
    """
    if k == 1:
        return _per_mass(rate, a_tilde, a, b, avg_snr)
    law = stats.gamma(k - 1, scale=avg_snr)
    th = _decoding_threshold(rate)
    kinks = sorted(th - x for x in (a, b) if not math.isinf(x) and th - x > 0.0)

    def integrand(u):
        return _per_mass(rate, a_tilde, a, b, avg_snr, shift=u) * law.pdf(u)

    split = max(kinks + [avg_snr])
    head, _ = integrate.quad(integrand, 0.0, split, points=kinks or None,
                             epsabs=1e-15, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(integrand, split, math.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
    return head + tail


def rr_fast_throughput(rates, a_tilde: float, thresholds, K: int, avg_snr: float) -> float:
    """Fast-fading RR HARQ renewal-reward throughput on threshold regions:
    sum_l R_l (p_l - M_{K,l}) / sum_l (p_l + sum_{k<K} M_{k,l}), with
    M_{k,l} the region mass of pdf * f_{k,l}."""
    num = 0.0
    den = 0.0
    for rate, (a, b) in zip(rates, _region_bounds(thresholds)):
        if b <= a:
            continue
        p = _exp_mass(a, b, avg_snr)
        masses = [_erlang_cascade_mass(rate, a_tilde, a, b, k, avg_snr) for k in range(1, K + 1)]
        num += rate * (p - masses[-1])
        den += p + sum(masses[:-1])
    return num / den
