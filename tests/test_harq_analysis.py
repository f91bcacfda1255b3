import functools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.signal import fftconvolve
from scipy.special import gammainc, gammaincc

from harqlink import harq_analysis
from harqlink.amc import (DecisionRegions, RegionKind, amc_throughput,
                          amc_thresholds_exact)
from harqlink.channel import make_stream
from harqlink.coding import (CombiningType, McsTable, first_round_cum,
                             mutual_information, mutual_information_inv, per,
                             per_erlang_rows)
from harqlink.harq_analysis import (FastFadingTables, HarqConfig, HarqVariant,
                                    fast_throughput, slow_cascades, slow_throughput,
                                    slow_throughput_at, two_round_bound)
from harqlink.optimizer import slow_optimal_regions

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)

# independent 30-digit quadrature references (Erlang-average cascade and
# region-averaged slow throughput), frozen here
RR_CASCADE_REF = {  # (l, x, k) at avg_snr = 10
    (3, 0.0, 2): 0.372148164823,
    (3, 0.0, 3): 0.082369547904,
    (3, 0.0, 4): 0.0131832846985,
    (5, 2.0, 3): 0.388026393627,
    (2, 1.0, 2): 0.119741303574,
}
SLOW_IR_K4_AT_10 = 2.07949738614464

# Monte-Carlo-verified regression values of the fast-fading pipeline on
# the exact AMC regions at avg_snr = 10
FAST_RR_K4_AT_10 = 1.9490364880913607
FAST_IR_K4_AT_10 = 1.9621134394682822
TRB_AT_10 = 1.968489989478699


def _mi_sum_density(avg_snr, rounds, n, span=50.0):
    """Density of the MI summed over `rounds` i.i.d. rounds on the uniform
    MI grid of FastFadingTables, by repeated fftconvolve, and the grid step."""
    dv = mutual_information(span * avg_snr) / n
    x = mutual_information_inv(np.arange(n) * dv)
    p_v = math.log(2.0) * (1.0 + x) * np.exp(-x / avg_snr) / avg_snr
    p_s = p_v
    for _ in range(rounds - 1):
        p_s = fftconvolve(p_s, p_v)[:n] * dv
    return p_s, dv


def per_erlang_mean(l, x, extra_rounds, table, avg_snr):
    """Oracle E[PER_l(x + U)], U ~ Erlang(extra_rounds, avg_snr), from the
    regularized incomplete gamma functions of scipy.special."""
    x = np.asarray(x, dtype=float)
    th = table.threshold(l)
    m = extra_rounds
    c = np.maximum(0.0, th - x)
    below = gammainc(m, c / avg_snr)
    if math.isinf(table.a_tilde):
        return below
    beta = table.a_tilde / th + 1.0 / avg_snr
    tail = np.exp(table.a_tilde * (1.0 - x / th)) * gammaincc(m, beta * c) / (avg_snr * beta) ** m
    return below + tail


@functools.lru_cache(maxsize=None)
def rr_mass_reference(l, a, b, k, table, avg_snr):
    """E_{k,l}[a, b), the integral over [a, b) of pdf * E[PER_l(x + U)] with
    U ~ Erlang(k - 1, avg_snr), k >= 2, in 40-digit arithmetic.  Integrating
    x first leaves, at s = x + u >= a, the integrand PER_l(s) e^{-s / avg_snr}
    ((s - a)^{k-1} - (s - b)_+^{k-1}) / (avg_snr^k (k - 1)!): on each piece
    where PER_l is 1 or exp(-a_tilde (s / th_l - 1)) an incomplete gamma
    function (mpmath), independent of the Poisson sums of per_erlang_rows."""
    with mpmath.workdps(40):
        g, th = mpmath.mpf(avg_snr), mpmath.mpf(table.threshold(l))
        pieces = [(mpmath.mpf(0), th, 1 / g, mpmath.mpf(1))]  # (lo, hi, decay, factor)
        if not math.isinf(table.a_tilde):
            a_tilde = mpmath.mpf(table.a_tilde)
            pieces.append((th, mpmath.inf, 1 / g + a_tilde / th, mpmath.exp(a_tilde)))
        total = mpmath.mpf(0)
        for c, sign in ((a, 1), (b, -1)):
            if math.isinf(c):
                continue
            c = mpmath.mpf(c)
            for lo, hi, lam, factor in pieces:
                lo = max(lo, c)
                if lo < hi:  # the integral of (s - c)^{k-1} e^{-lam s} over [lo, hi)
                    total += (sign * factor * mpmath.exp(-lam * c) * lam ** -k
                              * mpmath.gammainc(k, lam * (lo - c), lam * (hi - c)))
        return float(total / (g ** k * mpmath.factorial(k - 1)))


def fast_cascade_conditional(l, x, k, combining, table, avg_snr, n_grid=1 << 14, span=50.0):
    """Pointwise reference f_{k,l}(x): the probability of k consecutive
    failures given first-round SNR x, averaged over the k - 1 later i.i.d.
    round SNRs (Erlang closed form for RR, a trapezoid over the summed-MI
    density for IR)."""
    if k == 1:
        return float(per(l, x, table))
    if combining is CombiningType.RR:
        return float(per_erlang_mean(l, x, k - 1, table, avg_snr))
    p_s, dv = _mi_sum_density(avg_snr, k - 1, n_grid, span)
    agg = mutual_information_inv(mutual_information(x) + np.arange(n_grid) * dv)
    return float(np.trapezoid(per(l, agg, table) * p_s, dx=dv))


def test_harq_config_validation():
    with pytest.raises(ValueError):
        HarqConfig(combining=CombiningType.IR, max_rounds=0)
    with pytest.raises(ValueError):
        HarqConfig(combining=CombiningType.RR, max_rounds=4,
                   variant=HarqVariant.VARIABLE_LENGTH, lengths_primary=(1.0, 0.5))
    with pytest.raises(ValueError):
        HarqConfig(combining=CombiningType.IR, max_rounds=4,
                   variant=HarqVariant.VARIABLE_LENGTH, lengths_primary=(0.5, 0.25))
    with pytest.raises(ValueError):
        HarqConfig(combining=CombiningType.IR, max_rounds=4,
                   variant=HarqVariant.VARIABLE_LENGTH,
                   lengths_primary=(1.0, 0.5), lengths_aux=(0.75,))
    ok = HarqConfig(combining=CombiningType.IR, max_rounds=4,
                    variant=HarqVariant.VARIABLE_LENGTH,
                    lengths_primary=(1.0, 0.5), lengths_aux=(0.25,))
    assert ok.max_rounds == 4


def region_mass(l, a, b, avg_snr):
    """P(a <= SNR < b) and the integral of pdf * PER_l over [a, b), as the
    differences of the first_round_cum rows at b and at a."""
    p, f = first_round_cum(l, (b, a), TABLE, avg_snr)
    return p[0] - p[1], f[0] - f[1]


def region_probability(ends, avg_snr):
    """P(SNR in a union of intervals [a, b)), each as e^{-a / avg_snr}
    (1 - e^{-(b - a) / avg_snr}): this keeps its digits in the far tail, where
    the difference of the P rows of first_round_cum rounds to 0 (e^{-55} at
    -5 dB above the top amc-exact threshold)."""
    return sum(math.exp(-a / avg_snr) * -math.expm1(-(b - a) / avg_snr) for a, b in ends)


def test_first_round_cum_probability_row():
    assert region_mass(3, 0.0, math.inf, 3.0)[0] == pytest.approx(1.0)
    assert region_mass(3, 1.0, 2.0, 3.0)[0] == pytest.approx(
        math.exp(-1 / 3) - math.exp(-2 / 3), rel=1e-12)


def test_first_round_cum_per_row_matches_quadrature():
    for l, a, b in [(3, 0.0, math.inf), (3, 1.0, 6.0), (5, 10.0, 40.0), (1, 0.0, 0.3)]:
        want, _ = quad(lambda x: per(l, x, TABLE) * math.exp(-x / 7.0) / 7.0,
                       a, 200.0 if math.isinf(b) else b,
                       points=[TABLE.threshold(l)] if b > TABLE.threshold(l) > a and not math.isinf(b) else None,
                       limit=200)
        assert region_mass(l, a, b, 7.0)[1] == pytest.approx(want, abs=1e-9)


def test_first_round_masses_reject_nonpositive_avg_snr():
    regions = amc_thresholds_exact(TABLE)
    for avg in (0.0, -1.0):
        with pytest.raises(ValueError, match="avg_snr"):
            amc_throughput(regions, TABLE, avg)
        with pytest.raises(ValueError, match="avg_snr"):
            two_round_bound(regions, TABLE, avg)


def test_first_round_cum_broadcasts_rates_against_points():
    l = np.array([1, 3, 5])
    x = np.array([[0.5, 2.0, math.inf], [0.0, 1.0, 30.0]])
    m = first_round_cum(l, x, TABLE, 4.0)
    assert m.shape == (2, 2, 3)
    for i, j in np.ndindex(x.shape):
        assert np.array_equal(m[:, i, j], first_round_cum(int(l[j]), x[i, j], TABLE, 4.0))


def test_slow_cascade_values():
    c = slow_cascades(2.0, 4, CombiningType.RR, TABLE)
    assert c.shape == (5, 4)
    for k in range(1, 5):
        assert c[2, k - 1] == pytest.approx(per(3, 2.0 * k, TABLE), rel=1e-12)
    c = slow_cascades(2.0, 4, CombiningType.IR, TABLE)
    for k in range(1, 5):
        assert c[2, k - 1] == pytest.approx(per(3, 3.0 ** k - 1.0, TABLE), rel=1e-12)


def test_slow_cascade_rr_below_half_threshold_still_fails_twice():
    th = TABLE.threshold(2)
    c = slow_cascades(th / 2 * 0.999, 2, CombiningType.RR, TABLE)
    assert c[1, 1] == 1.0


def test_ir_cascade_dominated_by_rr():
    for gamma in (0.3, 1.0, 4.0):
        rr = slow_cascades(gamma, 5, CombiningType.RR, TABLE)[3]
        ir = slow_cascades(gamma, 5, CombiningType.IR, TABLE)[3]
        for k in range(2, 6):
            assert ir[k - 1] <= rr[k - 1] + 1e-12


def test_throughput_from_cascade():
    # eta_l = R_l (1 - f_K) / (1 + sum_{k<K} f_k) on the slow cascades
    gamma = np.array([0.3, 2.0, 9.0])
    for combining in (CombiningType.RR, CombiningType.IR):
        f = slow_cascades(gamma, 3, combining, TABLE)
        eta = slow_throughput_at(gamma, 3, combining, TABLE)
        assert eta.shape == (3, 5)
        for i in range(3):
            for l in range(1, 6):
                f1, f2, f3 = f[i, l - 1]
                want = TABLE.rate(l) * (1.0 - f3) / (1.0 + f1 + f2)
                assert eta[i, l - 1] == pytest.approx(want, rel=1e-12)


def test_counterexample_cascade_decreases_with_extra_round():
    # a valid non-increasing cascade whose third round barely helps: the
    # extra slot cost outweighs the success gain, so throughput drops
    f1, f2, f3 = 0.9, 0.405, 0.4
    assert 1.0 >= f1 >= f2 >= f3
    eta2 = (1.0 - f2) / (1.0 + f1)
    eta3 = (1.0 - f3) / (1.0 + f1 + f2)
    assert eta2 > eta3


def test_slow_throughput_at_reductions():
    assert slow_throughput_at(2.0, 1, CombiningType.IR, TABLE)[2] == pytest.approx(
        TABLE.rate(3) * (1 - per(3, 2.0, TABLE)), rel=1e-12)
    assert slow_throughput_at(1e5, 4, CombiningType.IR, TABLE)[4] == pytest.approx(
        TABLE.rate(5), rel=1e-9)
    with pytest.raises(ValueError):
        slow_throughput_at(2.0, 0, CombiningType.IR, TABLE)


def test_supermultiplicative_ratio_condition_and_k_monotonicity():
    # ratio condition f_{k+1}/f_k <= f_k/f_{k-1} on a log SNR grid, and the
    # implied monotonicity of the throughput in the round budget
    grid = np.logspace(-2, 2, 50)
    for combining in (CombiningType.RR, CombiningType.IR):
        f = slow_cascades(grid, 6, combining, TABLE)
        c = np.concatenate([np.ones(f.shape[:-1] + (1,)), f], axis=-1)  # f_0 = 1
        prev, cur, nxt = c[..., 0:5], c[..., 1:6], c[..., 2:7]
        assert np.all((nxt * prev <= cur ** 2 + 1e-12) | (cur <= 0))
        etas = np.stack([slow_throughput_at(grid, K, combining, TABLE) for K in range(1, 7)])
        assert np.all(np.diff(etas, axis=0) >= -1e-12)


def test_slow_throughput_reference_and_reductions():
    regions = amc_thresholds_exact(TABLE)
    got = slow_throughput(regions, 4, CombiningType.IR, TABLE, 10.0).value
    assert got == pytest.approx(SLOW_IR_K4_AT_10, abs=1e-8)
    # K=1 reduces to AMC
    k1 = slow_throughput(regions, 1, CombiningType.IR, TABLE, 10.0).value
    assert k1 == pytest.approx(amc_throughput(regions, TABLE, 10.0).value, abs=1e-8)
    # K=4 never below K=1 on the same regions
    for avg in (0.5, 3.0, 30.0):
        for combining in (CombiningType.RR, CombiningType.IR):
            a = slow_throughput(regions, 4, combining, TABLE, avg).value
            b = slow_throughput(regions, 1, combining, TABLE, avg).value
            assert a >= b - 1e-9


def slow_throughput_reference(regions, K, combining, avg_snr):
    """Adaptive quad of eta_l over every smooth piece of every region, in
    u = exp(-x / avg_snr): each interval is split where a k-round aggregate
    of the first-round SNR reaches th_l (x = th_l / k for RR, I(x) = R_l / k
    for IR)."""
    total = 0.0
    for l in range(1, TABLE.num_rates + 1):
        kinks = [TABLE.threshold(l) / k if combining is CombiningType.RR
                 else mutual_information_inv(TABLE.rate(l) / k) for k in range(1, K + 1)]
        u_kinks = [math.exp(-x / avg_snr) for x in kinks]

        def eta(u, l=l):
            x = -avg_snr * math.log(u) if u > 0.0 else math.inf
            return slow_throughput_at(x, K, combining, TABLE)[l - 1]

        for a, b in regions.intervals_for(l):
            u_lo = 0.0 if math.isinf(b) else math.exp(-b / avg_snr)
            u_hi = math.exp(-a / avg_snr)
            edges = sorted({u_lo, u_hi, *(u for u in u_kinks if u_lo < u < u_hi)})
            total += sum(quad(eta, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges, edges[1:]))
    return total


@pytest.mark.parametrize("combining", list(CombiningType))
def test_slow_throughput_matches_adaptive_quadrature(combining):
    # the fixed Gauss-Legendre rule against the adaptive reference on
    # amc-exact and slow-optimized regions; with 160 nodes the piece that
    # touches u = 0 misses 1e-12 at IR, slow-optimized, 3 dB
    for K in (1, 4):
        for regions in (amc_thresholds_exact(TABLE), slow_optimal_regions(K, combining, TABLE)):
            for snr_db in (-5, 1, 3, 15, 30):
                avg = 10.0 ** (snr_db / 10)
                got = slow_throughput(regions, K, combining, TABLE, avg).value
                assert abs(got - slow_throughput_reference(regions, K, combining, avg)) <= 1e-12


def test_slow_throughput_evaluates_all_nodes_in_one_call(monkeypatch):
    # one cascade pass over every (piece, node), each at its own piece's
    # rate only: no all-rate slow_throughput_at scan
    regions = slow_optimal_regions(4, CombiningType.IR, TABLE)
    calls, scans = [], []
    cascade = harq_analysis._cascade

    def counted(gamma, K, combining, th, a_tilde):
        calls.append((np.shape(gamma), np.shape(th)))
        return cascade(gamma, K, combining, th, a_tilde)

    monkeypatch.setattr(harq_analysis, "_cascade", counted)
    monkeypatch.setattr(harq_analysis, "slow_throughput_at", lambda *a: scans.append(a))
    slow_throughput(regions, 4, CombiningType.IR, TABLE, 2.0)
    assert len(calls) == 1 and not scans
    (pieces, nodes), th_shape = calls[0]
    assert pieces >= len(regions.labelled_intervals()[0]) and th_shape == (pieces, 1, 1)


def test_region_integrals_match_closed_form_near_27_25_db():
    # near 27.25 dB an adaptive quadrature of the top region's [a, inf)
    # tail can miss 4.3e-3 of the mass; both paths must equal the closed
    # form sum_l R_l (P_l - E[PER_l; l])
    regions = amc_thresholds_exact(TABLE)
    avg = 10.0 ** 2.7252
    t = list(regions.thresholds) + [math.inf]
    want = sum(TABLE.rate(l) * (math.exp(-t[l - 1] / avg) - math.exp(-t[l] / avg)
                                - region_mass(l, t[l - 1], t[l], avg)[1])
               for l in range(1, 6))
    assert amc_throughput(regions, TABLE, avg).value == pytest.approx(want, abs=1e-10)
    for combining in (CombiningType.RR, CombiningType.IR):
        got = slow_throughput(regions, 1, combining, TABLE, avg).value
        assert got == pytest.approx(want, abs=1e-10)


def test_fast_cascade_k1_and_monotone():
    assert fast_cascade_conditional(3, 2.0, 1, CombiningType.RR, TABLE, 10.0) == pytest.approx(
        per(3, 2.0, TABLE), rel=1e-12)
    for combining in (CombiningType.RR, CombiningType.IR):
        vals = [fast_cascade_conditional(4, 1.0, k, combining, TABLE, 5.0) for k in range(1, 6)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_fast_cascade_rr_reference_values():
    for (l, x, k), want in RR_CASCADE_REF.items():
        got = fast_cascade_conditional(l, x, k, CombiningType.RR, TABLE, 10.0)
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("a_tilde", [0.5, 4.0, 20.0, math.inf])
def test_per_erlang_rows_match_incomplete_gamma(a_tilde):
    # the finite Poisson sums against scipy's incomplete gamma functions on
    # the table grid, and exactly the exponential tail at and above th_l
    table = McsTable(rates=(0.25, 0.75, 1.5, 2.5, 3.5, 5.0), a_tilde=a_tilde)
    n, rounds = 1 << 12, 15
    for snr_db in range(-20, 31, 5):
        avg = 10.0 ** (snr_db / 10.0)
        x = FastFadingTables(table, 1, CombiningType.RR, avg, n_grid=n).x
        for l in range(1, 7):
            rows = per_erlang_rows(l, x, rounds, table, avg)
            th = table.threshold(l)
            above = x >= th
            beta = a_tilde / th + 1.0 / avg
            for m in range(1, rounds + 1):
                want = per_erlang_mean(l, x, m, table, avg)
                assert np.abs(rows[m - 1] - want).max() <= 4e-15, (snr_db, l, m)
                tail = (np.zeros(above.sum()) if math.isinf(a_tilde)
                        else np.exp(a_tilde * (1.0 - x[above] / th)) / (avg * beta) ** m)
                assert np.array_equal(rows[m - 1, above], tail), (snr_db, l, m)


def test_fast_cascade_rr_k2_matches_direct_quadrature():
    for l, x in [(2, 0.5), (4, 3.0)]:
        th = TABLE.threshold(l)
        want, _ = quad(lambda u: per(l, x + u, TABLE) * math.exp(-u / 10.0) / 10.0,
                       0.0, 400.0, points=[max(0.0, th - x)], limit=200)
        got = fast_cascade_conditional(l, x, 2, CombiningType.RR, TABLE, 10.0)
        assert got == pytest.approx(want, abs=1e-8)


def test_fast_cascade_against_monte_carlo():
    rng = make_stream(42, 0)
    avg = 10.0
    n = 200_000
    draws = -avg * np.log1p(-rng.random((n, 3)))
    for l, x in [(4, 0.5), (5, 2.0)]:
        mi = math.log2(1.0 + x) + np.cumsum(np.log2(1.0 + draws), axis=1)
        agg_ir = np.exp2(mi) - 1.0
        agg_rr = x + np.cumsum(draws, axis=1)
        for k in (2, 3, 4):
            for combining, agg in ((CombiningType.IR, agg_ir), (CombiningType.RR, agg_rr)):
                sample = per(l, agg[:, k - 2], TABLE)
                emp = float(sample.mean())
                sigma = float(sample.std()) / math.sqrt(n)
                got = fast_cascade_conditional(l, x, k, combining, TABLE, avg)
                assert abs(got - emp) <= 3.0 * sigma + 1e-4


def test_fast_cascade_grid_convergence():
    for combining in (CombiningType.IR,):
        a = fast_cascade_conditional(4, 1.0, 3, combining, TABLE, 5.0, n_grid=1 << 14)
        b = fast_cascade_conditional(4, 1.0, 3, combining, TABLE, 5.0, n_grid=1 << 15)
        assert a == pytest.approx(b, abs=5e-5)


def test_ir_tables_are_direct_correlations_and_nest_in_k():
    # every IR row is the correlation sum_j g_l[i + j] p_{k-1}[j] dv of PER_l
    # on the doubled grid with the summed-MI density, integrated by the
    # trapezoid rule, to within two units in the last place of a direct sum,
    # and the table of K' < K rounds is the prefix of the K-round table
    n, avg = 1 << 12, 3.0
    tables = FastFadingTables(TABLE, 4, CombiningType.IR, avg, n_grid=n)
    pdf = np.exp(-tables.x / avg) / avg
    for k in range(2, 5):
        p_s, dv = _mi_sum_density(avg, k - 1, n)
        x_ext = mutual_information_inv(np.arange(2 * n) * dv)
        for l in range(1, 6):
            g = per(l, x_ext, TABLE)
            corr = np.array([np.dot(g[i:i + n], p_s) for i in range(n)]) * dv
            want = cumulative_trapezoid(pdf * np.clip(corr, 0.0, 1.0), tables.x, initial=0.0)
            assert np.abs(tables.cum[k - 2, l - 1] - want).max() <= 4.4e-16, (k, l)
    for K in (2, 3):
        short = FastFadingTables(TABLE, K, CombiningType.IR, avg, n_grid=n)
        assert np.array_equal(short.cum, tables.cum[:K - 1])


@pytest.mark.parametrize("combining", [CombiningType.IR, CombiningType.RR])
def test_one_rate_table_is_a_row_of_the_full_table(combining):
    full = FastFadingTables(TABLE, 3, combining, 10.0, n_grid=1 << 12)
    for l in range(1, 6):
        single = FastFadingTables(McsTable(rates=(TABLE.rate(l),), a_tilde=4.0), 3,
                                  combining, 10.0, n_grid=1 << 12)
        assert np.array_equal(single.cum[:, 0], full.cum[:, l - 1]), l


def _oracle_rr_cum(l, x, k, table, avg_snr):
    """The RR mass of pdf * f_{k,l} over [0, x), exactly: phi_k(0) - phi_k(x)
    with phi_k(x) = e^{-x / avg_snr} E[PER_l(x + U_k)] from scipy's
    incomplete gamma functions (`per_erlang_mean`)."""
    x = np.asarray(x, dtype=float)
    phi_0 = per_erlang_mean(l, 0.0, k, table, avg_snr)
    return phi_0 - np.exp(-x / avg_snr) * per_erlang_mean(l, x, k, table, avg_snr)


# the exact RR oracle against the tables' phi differences: both round
# phi_k(0), which is at most 1, and phi_k(x)
RR_ORACLE_TOL = 1e-15


def _oracle_cum(table, K, combining, avg_snr, n):
    """FastFadingTables.cum as built before the work arrays: every row and
    every trapezoid temporary a fresh array.  RR rows are the exact oracle."""
    dv = mutual_information(50.0 * avg_snr) / n
    x = mutual_information_inv(np.arange(n) * dv)
    pdf = np.exp(-x / avg_snr) / avg_snr
    dx = np.diff(x)
    L = table.num_rates
    cum = np.empty((K - 1, L, n))
    cum[:, :, 0] = 0.0
    if K < 2:
        return cum
    if combining is CombiningType.RR:
        for k in range(K - 1):
            for l in range(L):
                cum[k, l] = _oracle_rr_cum(l + 1, x, k + 2, table, avg_snr)
        return cum
    for k, l, f in _oracle_ir_rows(table, K, n, dv, x, avg_snr):
        y = pdf * f
        np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, out=cum[k, l, 1:])
    return cum


def _oracle_ir_rows(table, K, n, dv, x, avg_snr):
    x_ext = mutual_information_inv(np.arange(2 * n) * dv)
    g_spectra = [np.fft.rfft(per(l, x_ext, table)) for l in range(1, table.num_rates + 1)]
    p = math.log(2.0) * (1.0 + x) * np.exp(-x / avg_snr) / avg_snr
    p1_spectrum = p_spectrum = np.fft.rfft(p, 2 * n)
    for k in range(2, K + 1):
        if k > 2:
            p = np.fft.irfft(p_spectrum * p1_spectrum, 2 * n)[:n] * dv
            p_spectrum = np.fft.rfft(p, 2 * n)
        p_conj = p_spectrum.conj()
        for l, g in enumerate(g_spectra):
            yield k - 2, l, np.clip(np.fft.irfft(g * p_conj, 2 * n)[:n] * dv, 0.0, 1.0)


def test_tables_equal_the_allocating_oracle_bit_for_bit():
    # n varies fastest, so consecutive builds switch grid size and
    # combining: a work array kept at the wrong size, or a row read after
    # the next one overwrote it, would show.  IR tables equal the oracle
    # bit for bit; RR tables, exact, match its exact rows to RR_ORACLE_TOL
    tables = {a: McsTable(rates=TABLE.rates, a_tilde=a) for a in (4.0, math.inf)}
    cases = [(combining, K, a, db, n)
             for a in (4.0, math.inf) for db in (-5.0, 10.0, 30.0) for K in (1, 2, 4)
             for combining in (CombiningType.RR, CombiningType.IR) for n in (1 << 12, 1 << 13)]
    for combining, K, a, db, n in cases:
        avg = 10.0 ** (db / 10.0)
        got = FastFadingTables(tables[a], K, combining, avg, n_grid=n).cum
        want = _oracle_cum(tables[a], K, combining, avg, n)
        if combining is CombiningType.IR:
            assert np.array_equal(got, want), (combining, K, a, db, n)
        else:
            assert np.all(np.abs(got - want) <= RR_ORACLE_TOL), (combining, K, a, db, n)


def test_concurrent_builds_equal_sequential_builds():
    # builds in two threads at once, on one grid size, must never share
    # work arrays, as they would if a later change reused one module-wide
    # set: each would overwrite the other's rows
    n = 1 << 12
    jobs = [[(TABLE, 4, CombiningType.IR, 1.0), (TABLE, 3, CombiningType.RR, 5.0)],
            [(McsTable(rates=(0.5, 2.0, 3.5), a_tilde=math.inf), 3, CombiningType.IR, 20.0),
             (TABLE, 2, CombiningType.IR, 0.3)]]
    want = [[FastFadingTables(*job, n_grid=n).cum for job in thread_jobs] for thread_jobs in jobs]
    got = [[], []]

    def run(i):
        for _ in range(6):
            got[i].append([FastFadingTables(*job, n_grid=n).cum for job in jobs[i]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert len(got[i]) == 6
        for built in got[i]:
            for cum, ref in zip(built, want[i]):
                assert np.array_equal(cum, ref), i


def _region_masses(tables, regions):
    """(K+1, L) masses of pdf * f_{k,l} over each rate's threshold region."""
    t = np.array(regions.thresholds)
    m = tables.cum_mass(np.arange(1, t.size + 1), (np.append(t[1:], math.inf), t))
    return m[:, 0] - m[:, 1]


def test_cum_mass_region_masses():
    regions = amc_thresholds_exact(TABLE)
    m = _region_masses(FastFadingTables(TABLE, 4, CombiningType.IR, 10.0), regions)
    p, f = m[0], m[1:] / m[0]
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(f >= 0) and np.all(f <= 1)
    # cascade averages decrease in k for every rate
    assert np.all(np.diff(f, axis=0) <= 1e-9)
    # f_{1,l} agrees with the closed-form region mass
    t = list(regions.thresholds) + [math.inf]
    for l in range(1, 6):
        p_l, f_l = region_mass(l, t[l - 1], t[l], 10.0)
        assert f[0, l - 1] == pytest.approx(f_l / p_l, rel=1e-9)
    # with K = 1 a cycle is one round, so its expected duration is p
    tables = FastFadingTables(TABLE, 1, CombiningType.IR, 10.0)
    _, cost = tables.reward_cost(np.arange(1, 6), (t[1:], t[:-1]))
    assert np.array_equal(cost[0] - cost[1], _region_masses(tables, regions)[0])


def test_cum_mass_degenerate_region():
    regions = DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 1.0, 1.0, 4.0, 9.0))
    m = _region_masses(FastFadingTables(TABLE, 3, CombiningType.RR, 10.0), regions)
    assert np.all(m[:, 1] == 0.0)


@pytest.mark.parametrize("K, combining", [(1, CombiningType.IR), (2, CombiningType.RR),
                                          (4, CombiningType.IR)])
def test_cum_mass_is_closed_form_and_np_interp(K, combining):
    # row 0 is P(SNR < x), row 1 the closed form of pdf * PER, rows k >= 2
    # np.interp of the cumulative IR tables (constant past the grid, exact
    # on it) and, for RR, the exact masses on and off the grid alike
    tables = FastFadingTables(TABLE, K, combining, 3.0, n_grid=1 << 12)
    x = np.concatenate([make_stream(7, 0).exponential(3.0, 200), tables.x[::97],
                        [0.0, tables.x[-1], 2.0 * tables.x[-1], math.inf]])
    l = 1 + np.arange(x.size) % 5
    m = tables.cum_mass(l, x)
    assert m.shape == (K + 1, x.size)
    assert np.array_equal(m[0], -np.expm1(-x / 3.0))
    assert np.array_equal(m[1], [first_round_cum(int(r), v, TABLE, 3.0)[1] for r, v in zip(l, x)])
    for k in range(2, K + 1):
        if combining is CombiningType.RR:
            want = [_oracle_rr_cum(int(r), v, k, TABLE, 3.0) for r, v in zip(l, x)]
            assert np.all(np.abs(m[k] - want) <= RR_ORACLE_TOL)
        else:
            want = [np.interp(v, tables.x, tables.cum[k - 2, r - 1]) for r, v in zip(l, x)]
            assert np.array_equal(m[k], want)
    assert np.array_equal(tables.cum_mass(5, tables.x), tables.cum_mass(5, tables.x.copy()))


# the top rate on low SNR, where the IR rows near 1 meet the tables' [0, 1]
# clip: at -5 dB (and 30 dB) f_{k,5} is 1 over all of [0, 5).  Its region
# starts at 0 in the first, and above rate 1's in the second
_TOP_RATE_LOW = (
    DecisionRegions(RegionKind.INTERVALS, intervals=(
        ((5.0, 6.0),), ((6.0, 7.0),), ((7.0, 8.0),), ((8.0, math.inf),), ((0.0, 5.0),))),
    DecisionRegions(RegionKind.INTERVALS, intervals=(
        ((0.0, 0.5), (5.0, 6.0)), ((6.0, 7.0),), ((7.0, 8.0),), ((8.0, math.inf),), ((0.5, 5.0),))))


def _fixed_regions(table, x):
    """amc-exact thresholds; degenerate regions; a boundary on a node of the
    grid x and one past its end; interval unions that leave rate 3 out and
    end past the grid at -5 dB; the top rate on low SNR."""
    exact = amc_thresholds_exact(table)
    t = exact.thresholds
    node = float(x[np.searchsorted(x, t[2])])
    yield exact
    yield from _TOP_RATE_LOW
    yield DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 1.0, 1.0, 4.0, 4.0))
    yield DecisionRegions(RegionKind.THRESHOLDS,
                          thresholds=(0.0, t[1], node, t[3], 2.0 * float(x[-1])))
    yield DecisionRegions(RegionKind.INTERVALS, intervals=(
        ((0.0, 0.5), (3.0, 4.0)), ((0.5, 1.5), (4.0, 4.5), (30.0, math.inf)), (),
        ((1.5, 3.0),), ((4.5, 30.0),)))


def _fixed_region_masses(combining):
    """The region masses fast_throughput takes for fixed regions."""
    if combining is CombiningType.RR:
        return harq_analysis._rr_masses
    return harq_analysis._region_masses


def _per_rate(labels, rows):
    """Rows over intervals summed into rows over the 5 rates."""
    return np.array([np.bincount(labels - 1, r, 5) for r in rows]).reshape(-1, 5)


@pytest.mark.parametrize("a_tilde", [4.0, math.inf])
@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
def test_region_masses_equal_table_mass_differences(combining, a_tilde):
    # the spectral masses of fixed regions against the differences of
    # cum_mass at the region ends.  Each is held relative to the larger of
    # the region's probability, which bounds it, and the table's running
    # mass at the region's upper end, whose cumulative sum carries rounding
    # of 1e-14 at -5 dB (see the next test).  eta, which at -5 dB is 0.05
    # to 0.2, is held to 1e-13 relative or absolute, whichever is larger
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    for K in (1, 2, 4):
        for db in (-5.0, 10.0, 30.0):
            avg = 10.0 ** (db / 10.0)
            tables = FastFadingTables(table, K, combining, avg)
            for regions in _fixed_regions(table, tables.x):
                l, lows, highs = regions.labelled_intervals()
                labels = np.array(l)
                m = tables.cum_mass(labels, (highs, lows))
                want = _per_rate(labels, m[:, 0] - m[:, 1])
                scale = np.maximum(want[0], _per_rate(labels, m[2:, 0]))
                got = _fixed_region_masses(combining)(l, lows, highs, K, table, avg)
                assert got.shape == (K - 1, 5)
                assert np.all(np.abs(got - want[2:]) <= 1e-13 * scale), (K, db, regions)
                eta = fast_throughput(regions, K, combining, table, avg).value
                assert eta == pytest.approx(
                    fast_throughput(regions, K, combining, table, avg, tables=tables).value,
                    rel=1e-13, abs=1e-13), (K, db, regions)


@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
def test_region_masses_equal_an_exactly_summed_trapezoid(combining):
    # IR: the trapezoid of pdf * f_{k,l} over each rate's region (amc-exact,
    # and the top rate on low SNR), its cell terms summed by math.fsum, with
    # the allocating oracle's IR correlations, clipped to [0, 1].  RR: the
    # exact masses (`rr_mass_reference`), which RR now takes.  Both are
    # within 1e-15 of the region's probability P_l; the IR tables'
    # cumulative sums miss these sums by up to 3.9e-12 P_l at -5 dB
    n, K = 1 << 15, 3
    for db in (-5.0, 10.0, 30.0):
        avg = 10.0 ** (db / 10.0)
        dv, x = harq_analysis._mi_grid(avg, n)
        if combining is CombiningType.IR:
            rows = {(k, r): f.copy() for k, r, f in _oracle_ir_rows(TABLE, K, n, dv, x, avg)}
        y_pdf = np.exp(-x / avg) / avg
        for regions in (amc_thresholds_exact(TABLE),) + _TOP_RATE_LOW:
            l, lows, highs = regions.labelled_intervals()
            got = _fixed_region_masses(combining)(l, lows, highs, K, TABLE, avg)
            for k, r in np.ndindex(K - 1, 5):
                ends = regions.intervals_for(r + 1)
                if combining is CombiningType.RR:
                    want = sum(rr_mass_reference(r + 1, a, b, k + 2, TABLE, avg) for a, b in ends)
                else:
                    y = y_pdf * rows[k, r]
                    covered = sum(np.clip(np.minimum(b, x[1:]) - np.maximum(a, x[:-1]), 0.0, None)
                                  for a, b in ends)
                    want = math.fsum(covered * (y[:-1] + y[1:]) / 2.0)
                p = region_probability(ends, avg)
                assert abs(got[k, r] - want) <= 1e-15 * p, (db, k, r, regions)


# float.hex of _region_masses' (K - 1, L) rows, taken before the IR chain
# stopped recomputing the grid and exp(-x / avg_snr) and evaluating PER
# where it is exactly 0 or 1: amc-exact regions from -20 to 30 dB (-20 and
# -15 dB take the branch that caps rows reaching 1, -15 dB for rate 1 from
# 0), and slow-optimal interval regions, whose rates that start above 0
# sum the clipped rows
_REGION_MASS_PINS = [
    (4.0, 4, -20.0, "exact", (
        "0x1.0000022f1383ep+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.0000022f1383ep+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.0000022f1383ep+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",)),
    (4.0, 4, -5.0, "exact", (
        "0x1.5c0b8140964a0p-1 0x1.a979d14bffef9p-14 0x1.7c3335e8cd8bfp-26 0x1.35d04d137f347p-47 0x0.0p+0",
        "0x1.914c80a6250b1p-2 0x1.e5f49414fcd89p-16 0x1.d8123547eb9f8p-28 0x1.8ccf12611c8bdp-49 0x0.0p+0",
        "0x1.7709793a29134p-3 0x1.06ae7686b7d43p-17 0x1.1493505bbd1a6p-29 0x1.df0f7607a4c9ep-51 0x0.0p+0",)),
    (4.0, 4, 10.0, "exact", (
        "0x1.70c34d678341ep-9 0x1.d781bcb948e02p-13 0x1.0701ba1f47142p-12 0x1.c1551f9d1513fp-13 0x1.066f896028711p-13",
        "0x1.0a668a7745157p-14 0x1.5cfae4e898cb2p-19 0x1.ab8b67966f472p-19 0x1.79a975eb3d0e3p-19 0x1.be2d15f503255p-20",
        "0x1.23e67f44d9311p-20 0x1.da8d4388240a8p-26 0x1.3d0f90470182cp-25 0x1.20b8fd05f37e0p-25 0x1.58760c568bbf0p-26",)),
    (4.0, 4, 30.0, "exact", (
        "0x1.3ec910c73703fp-22 0x1.f7792e670cb16p-26 0x1.7b777c4fc3903p-25 0x1.108f65402d112p-24 0x1.85a1d7ae21f61p-24",
        "0x1.287b6217e452ep-34 0x1.e0be80eec92c7p-39 0x1.8ce6e7d91c104p-38 0x1.255fee2d149fep-37 0x1.a42e1860638f4p-37",
        "0x1.a1c22fbe05968p-47 0x1.a5542dd4528d8p-52 0x1.7a982b934c56bp-51 0x1.1f5956bb47cbbp-50 0x1.9c9373a57c4afp-50",)),
    (math.inf, 2, -20.0, "exact", (
        "0x1.0000022f1383ep+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",)),
    (math.inf, 2, -5.0, "exact", (
        "0x1.2a7513ec0bb76p-1 0x1.19e4e9be6fa1ap-33 0x1.040d891f65fbcp-43 0x1.08284c659726ep-54 0x1.2a87e6a654b09p-79",)),
    (math.inf, 2, 10.0, "exact", (
        "0x1.e47a047335be0p-10 0x1.118b66aedba19p-32 0x1.eb9511d942e5dp-33 0x1.10eb6a34fbb84p-33 0x1.727df3b0b4d49p-31",)),
    (math.inf, 2, 30.0, "exact", (
        "0x1.9d8705454d8ecp-23 0x1.f9ff79869886ep-46 0x1.c22bd663997fap-43 0x1.63f5bbe7595f6p-43 0x1.86100adb43686p-41",)),
    (4.0, 2, -15.0, "exact", (
        "0x1.00000130cc617p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",)),
    (math.inf, 4, 10.0, "exact", (
        "0x1.e47a047335be0p-10 0x1.118b66aedba19p-32 0x1.eb9511d942e5dp-33 0x1.10eb6a34fbb84p-33 0x1.727df3b0b4d49p-31",
        "0x1.17384e41f71eap-15 0x1.53f6fc4ed666fp-48 0x1.30f4bc55d21a9p-48 0x1.5414124160c93p-49 0x1.cc1d0a88b499dp-47",
        "0x1.dbccf6c5e4f01p-22 0x1.84302845ca655p-63 -0x1.72ccb79abef2cp-59 0x1.808eb128e3731p-57 -0x1.b5f34ae7f04ddp-58",)),
    (4.0, 4, 10.0, "slow-optimal", (
        "0x1.1cd6db6fe4f88p-9 0x1.09d1aa58587d4p-9 0x1.d22d3307d2c8fp-8 0x1.654563d711efap-6 0x1.bc08db0efd570p-5",
        "0x1.d6b6428f036f4p-15 0x1.7f7017164de39p-14 0x1.005a3c35a6289p-11 0x1.b767349ad3577p-10 0x1.47c48fdf0103cp-8",
        "0x1.1084786b31c04p-20 0x1.6a4d4ef017814p-19 0x1.6892bf0e62922p-16 0x1.61bebd15d0b2bp-14 0x1.387323c64bc69p-12",)),
    (math.inf, 2, -5.0, "slow-optimal", (
        "0x1.2a7513c0bb518p-1 0x1.2bc65f611b981p-4 0x1.446efc5f5a253p-6 0x1.74f9fd6fc353bp-9 0x1.b7b7ce10b8166p-13",)),
]


@pytest.mark.parametrize("a_tilde, K, snr_db, source, want", _REGION_MASS_PINS)
def test_region_masses_are_pinned(a_tilde, K, snr_db, source, want):
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    regions = (amc_thresholds_exact(table) if source == "exact"
               else slow_optimal_regions(K, CombiningType.IR, table))
    l, lows, highs = regions.labelled_intervals()
    got = harq_analysis._region_masses(l, lows, highs, K, table, 10.0 ** (snr_db / 10.0))
    assert [" ".join(float(v).hex() for v in row) for row in got] == list(want)


@pytest.mark.parametrize("a_tilde", [1.0, 4.0, math.inf])
def test_rr_masses_match_an_exact_reference(a_tilde):
    # the RR masses that fast_throughput takes for fixed regions (among them
    # a top region that starts past the grid's end and interval unions that
    # end past it), and cum_mass over [0, x) on the grid, between its nodes
    # and past its end, against the 40-digit reference, to 1e-13 of the
    # probability of the region, or of [0, x).  The grid masses missed it
    # by up to 1.1e-8 at -5 dB, and by all of it past the grid's end
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    for db in (-5.0, 10.0, 30.0):
        avg = 10.0 ** (db / 10.0)
        for K in (1, 2, 4):
            tables = FastFadingTables(table, K, CombiningType.RR, avg)
            g = tables.x
            for regions in _fixed_regions(table, g):
                l, lows, highs = regions.labelled_intervals()
                got = harq_analysis._rr_masses(l, lows, highs, K, table, avg)
                assert got.shape == (K - 1, 5)
                for k, r in np.ndindex(K - 1, 5):
                    ends = regions.intervals_for(r + 1)
                    want = sum(rr_mass_reference(r + 1, a, b, k + 2, table, avg) for a, b in ends)
                    p = region_probability(ends, avg)
                    assert abs(got[k, r] - want) <= 1e-13 * p, (db, K, k, r, regions)
            nodes = np.arange(4096, g.size, 4096)  # P(SNR < x) >= 2.9e-3 from here on
            x = np.concatenate([(g[nodes - 1] + g[nodes]) / 2.0, [1.5 * g[-1], math.inf]])
            rates = 1 + np.arange(x.size) % 5
            off = tables.cum_mass(rates, x)
            for r in range(1, 6):
                on = tables.cum_mass(r, g)[:, nodes]
                for k in range(2, K + 1):
                    for v, m in [*zip(g[nodes], on[k]), *zip(x[rates == r], off[k, rates == r])]:
                        want = rr_mass_reference(r, 0.0, float(v), k, table, avg)
                        assert abs(m - want) <= 1e-13 * -math.expm1(-v / avg), (db, K, k, r, v)


def test_fast_throughput_on_interval_regions_equals_threshold_form():
    # splitting every threshold region into sub-intervals leaves the throughput
    regions = amc_thresholds_exact(TABLE)
    t = list(regions.thresholds) + [math.inf]
    split = []
    for a, b in zip(t, t[1:]):
        mid = a + 5.0 if math.isinf(b) else 0.5 * (a + b)
        split.append(((a, 0.3 * a + 0.7 * mid), (0.3 * a + 0.7 * mid, mid), (mid, b)))
    intervals = DecisionRegions(RegionKind.INTERVALS, intervals=tuple(split))
    for combining in (CombiningType.RR, CombiningType.IR):
        tables = FastFadingTables(TABLE, 4, combining, 10.0)
        want = fast_throughput(regions, 4, combining, TABLE, 10.0, tables=tables).value
        got = fast_throughput(intervals, 4, combining, TABLE, 10.0, tables=tables).value
        assert got == pytest.approx(want, rel=1e-12)


def test_fast_throughput_single_rate_thresholds_with_inf():
    # (0, ..., 0, inf, ..., inf) sends every block at rate m; with K = 1
    # that is R_m (1 - E[PER_m])
    for m in range(1, 6):
        regions = DecisionRegions(RegionKind.THRESHOLDS,
                                  thresholds=(0.0,) * m + (math.inf,) * (5 - m))
        got = fast_throughput(regions, 1, CombiningType.IR, TABLE, 10.0).value
        want = TABLE.rate(m) * (1.0 - region_mass(m, 0.0, math.inf, 10.0)[1])
        assert got == pytest.approx(want, rel=1e-12)


def test_fast_throughput_regression_and_mc_agreement():
    regions = amc_thresholds_exact(TABLE)
    assert fast_throughput(regions, 4, CombiningType.RR, TABLE, 10.0).value == pytest.approx(
        FAST_RR_K4_AT_10, rel=1e-5)
    assert fast_throughput(regions, 4, CombiningType.IR, TABLE, 10.0).value == pytest.approx(
        FAST_IR_K4_AT_10, rel=1e-5)


_IR_GRID_OVERSHOOT = pytest.mark.xfail(strict=True, reason=(
    "P_l is the closed form but E_{K,l} the trapezoid on the MI grid, which "
    "overestimates the convex pdf's integral; where f_{K,l} is 1 over a "
    "region E_{K,l} exceeds P_l and eta comes out about -5e-8 (-20 dB) and "
    "-2.7e-8 (-15 dB)"))


@pytest.mark.parametrize("snr_db, combining", [
    pytest.param(-20.0, CombiningType.RR, marks=pytest.mark.xfail(strict=True, reason=(
        "the RR masses are exact, but P_2, the difference of two values of "
        "P(SNR < x) that both round to 1, comes out 0 against E_{2,2} = 3.3e-94, "
        "and eta is -2.5e-94"))),
    (-15.0, CombiningType.RR),
    pytest.param(-20.0, CombiningType.IR, marks=_IR_GRID_OVERSHOOT),
    pytest.param(-15.0, CombiningType.IR, marks=_IR_GRID_OVERSHOOT),
])
def test_fast_throughput_nonnegative_at_low_snr(combining, snr_db):
    eta = fast_throughput(amc_thresholds_exact(TABLE), 2, combining, TABLE,
                          10.0 ** (snr_db / 10.0)).value
    assert eta >= 0.0


def test_two_round_bound_dominates_harq():
    regions = amc_thresholds_exact(TABLE)
    assert two_round_bound(regions, TABLE, 10.0) == pytest.approx(TRB_AT_10, rel=1e-6)
    for avg in (0.5, 3.16, 10.0, 100.0):
        trb = two_round_bound(regions, TABLE, avg)
        for combining in (CombiningType.RR, CombiningType.IR):
            for K in (2, 4):
                assert trb >= fast_throughput(regions, K, combining, TABLE, avg).value - 1e-9


def test_posterior_rate_identity():
    # two routes to E[R | NACK_1]: region integrals vs Bayes weights
    regions = amc_thresholds_exact(TABLE)
    avg = 50.0
    t = list(regions.thresholds) + [math.inf]
    p, f1 = np.array([region_mass(l, t[l - 1], t[l], avg) for l in range(1, 6)]).T
    f1 = f1 / p
    rates = np.asarray(TABLE.rates)
    f1_bar = float(np.sum(f1 * p))
    route_a = float(np.sum(rates * f1 * p)) / f1_bar
    posterior = f1 * p / f1_bar
    route_b = float(np.sum(rates * posterior))
    assert route_a == pytest.approx(route_b, abs=1e-10)
    assert np.all(p > 0)
    assert route_a < TABLE.rates[-1]
