import math

import numpy as np
import pytest

from harqlink.amc import RegionKind, amc_thresholds_exact, classify
from harqlink.coding import CombiningType, McsTable
from harqlink.harq_analysis import FastFadingTables, fast_throughput, slow_throughput_at
from harqlink.optimizer import fast_optimize_regions, slow_optimal_regions

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)


def test_slow_regions_k1_reduce_to_amc_thresholds():
    regions = slow_optimal_regions(1, CombiningType.IR, TABLE)
    amc = amc_thresholds_exact(TABLE).thresholds
    # every rate occupies a single interval whose lower edge is the AMC
    # threshold; both are last-bit crossings, and IR's log2/exp2 round trip
    # in the cascade can move its curves by an ulp
    for l in range(1, 6):
        ivs = regions.intervals_for(l)
        assert len(ivs) == 1
        assert ivs[0][0] == pytest.approx(amc[l - 1], rel=1e-14, abs=0.0)


def test_slow_regions_match_pointwise_argmax():
    regions = slow_optimal_regions(3, CombiningType.IR, TABLE)
    assert regions.kind is RegionKind.INTERVALS
    # spot check: the selected rate achieves the max per-SNR throughput
    from harqlink.harq_analysis import slow_throughput_at
    grid = np.logspace(-1.5, 3, 40)
    for g, etas in zip(grid, slow_throughput_at(grid, 3, CombiningType.IR, TABLE)):
        chosen = int(classify(float(g), regions))
        assert etas[chosen - 1] >= max(etas) - 1e-9


@pytest.mark.parametrize("combining", list(CombiningType), ids=lambda c: c.value)
@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("a_tilde", [4.0, math.inf])
def test_slow_boundaries_are_exact_to_the_last_bit(combining, K, a_tilde):
    # the rate right of a boundary wins at it, the rate left of it one float
    # below; winners as slow_optimal_regions scans them (ties to the larger
    # rate, rate 1 where every rate has zero throughput), on the same arrays
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    labels, lows, _ = slow_optimal_regions(K, combining, table).labelled_intervals()
    order = np.argsort(lows)
    labels, bounds = np.array(labels)[order], np.array(lows)[order][1:]

    def winners(x):
        eta = slow_throughput_at(x, K, combining, table)
        w = table.num_rates - np.argmax(eta[:, ::-1], axis=1)
        w[np.all(eta <= 0.0, axis=1)] = 1
        return w

    assert bounds.size
    assert np.array_equal(winners(bounds), labels[1:])
    assert np.array_equal(winners(np.nextafter(bounds, 0.0)), labels[:-1])


def test_slow_regions_two_rate_union_structure():
    # with two rates and several rounds the lower rate can win on a
    # detached interval; the result must still partition [0, inf)
    t2 = McsTable(rates=(0.75, 3.75), a_tilde=4.0)
    regions = slow_optimal_regions(4, CombiningType.RR, t2)
    edges = sorted(e for ivs in regions.intervals for iv in ivs for e in iv)
    assert edges[0] == 0.0 and math.isinf(edges[-1])
    # interior edges appear exactly twice (shared by adjacent intervals)
    interior = [e for e in edges[1:-1]]
    assert all(interior.count(e) == 2 for e in set(interior))


def test_reward_cost_sign_brackets_throughput():
    # F(lam) = reward - lam * duration of the renewal cycle changes sign at
    # the throughput
    tables = FastFadingTables(TABLE, 4, CombiningType.IR, 10.0)
    regions = amc_thresholds_exact(TABLE)
    eta = fast_throughput(regions, 4, CombiningType.IR, TABLE, 10.0, tables=tables).value
    t = np.array(regions.thresholds)
    reward, cost = tables.renewal_sums(np.arange(1, 6), t, np.append(t[1:], math.inf))
    assert reward - (eta - 1e-3) * cost > 0
    assert reward - (eta + 1e-3) * cost < 0
    assert reward - eta * cost == pytest.approx(0.0, abs=1e-9)


def test_tables_built_for_another_problem_are_rejected():
    # K = 4 IR tables at 10 dB used to answer for K = 2 RR at 3 dB: 1.96212
    # where 0.96851 is right (the optimum there is 0.97345)
    tables = FastFadingTables(TABLE, 4, CombiningType.IR, 10.0)
    regions = amc_thresholds_exact(TABLE)
    others = [(TABLE, 2, CombiningType.RR, 3.0), (TABLE, 4, CombiningType.RR, 10.0),
              (TABLE, 3, CombiningType.IR, 10.0), (TABLE, 4, CombiningType.IR, 3.0),
              (McsTable(rates=TABLE.rates, a_tilde=2.0), 4, CombiningType.IR, 10.0)]
    for table, K, combining, avg in others:
        with pytest.raises(ValueError, match="another"):
            fast_throughput(regions, K, combining, table, avg, tables=tables)
    assert fast_throughput(regions, 2, CombiningType.RR, TABLE, 3.0).value == pytest.approx(
        0.96851, abs=1e-5)
    assert fast_optimize_regions(2, CombiningType.RR, TABLE, 3.0).throughput.value == (
        pytest.approx(0.97345, abs=1e-5))
    same = McsTable(rates=TABLE.rates, a_tilde=4.0)
    own = FastFadingTables(TABLE, 4, CombiningType.IR, 10.0)
    assert (fast_throughput(regions, 4, CombiningType.IR, same, 10.0, tables=tables).value
            == fast_throughput(regions, 4, CombiningType.IR, TABLE, 10.0, tables=own).value)


@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
def test_optimized_regions_beat_amc_regions(combining):
    avg = 10.0
    res = fast_optimize_regions(4, combining, TABLE, avg)
    t = res.regions.thresholds
    assert t[0] == 0.0
    assert all(b >= a for a, b in zip(t, t[1:]))
    baseline = fast_throughput(amc_thresholds_exact(TABLE), 4, combining, TABLE, avg,
                               tables=FastFadingTables(TABLE, 4, combining, avg)).value
    assert res.throughput.value >= baseline - 1e-9
    assert res.certificate <= 1e-12


def test_optimized_regions_high_snr_non_degenerate():
    avg = 10.0 ** 2.5  # 25 dB
    res = fast_optimize_regions(4, CombiningType.IR, TABLE, avg)
    t = res.regions.thresholds
    assert all(b > a for a, b in zip(t, t[1:]))
    assert res.certificate <= 1e-12


def test_optimized_thresholds_shift_with_average_snr():
    # with retransmissions available the optimizer is more aggressive than
    # single-shot rate selection at low average SNR (every threshold moves
    # down) and more conservative at high SNR for the lower thresholds
    amc = amc_thresholds_exact(TABLE).thresholds
    res_lo = fast_optimize_regions(4, CombiningType.IR, TABLE, 10.0 ** -0.5)
    res_hi = fast_optimize_regions(4, CombiningType.IR, TABLE, 10.0 ** 1.5)
    assert all(a <= b + 1e-6 for a, b in zip(res_lo.regions.thresholds, amc))
    assert all(a >= b - 1e-6
               for a, b in zip(res_hi.regions.thresholds[:3], amc[:3]))


@pytest.mark.xfail(strict=True, reason=(
    "the verified optimum at 15 dB keeps its two upper thresholds slightly "
    "below the single-shot values (clamping them up loses ~1.2e-3 "
    "throughput), so the per-threshold ordering does not hold there"))
def test_optimized_thresholds_all_above_single_shot_at_high_snr():
    amc = amc_thresholds_exact(TABLE).thresholds
    res = fast_optimize_regions(4, CombiningType.IR, TABLE, 10.0 ** 1.5)
    assert all(a >= b - 1e-6 for a, b in zip(res.regions.thresholds, amc))


def test_fast_optimize_regions_is_deterministic():
    avg = 10.0
    a = fast_optimize_regions(4, CombiningType.IR, TABLE, avg)
    b = fast_optimize_regions(4, CombiningType.IR, TABLE, avg)
    assert a == b


@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
@pytest.mark.parametrize("snr_db, K, a_tilde", [
    pytest.param(snr_db, K, a_tilde, id=f"{snr_db}{suffix}")
    for K, a_tilde, suffix in ((4, 4.0, ""), (1, 4.0, "-K1"), (2, 4.0, "-K2"),
                               (4, math.inf, "-inf"))
    for snr_db in (-5.0, 5.0, 10.0, 25.0)])
def test_fast_optimize_certificate(combining, snr_db, K, a_tilde):
    # no grid threshold vector beats the returned ratio: the grid maximum
    # of F(., eta) is <= 0 up to rounding, and the Dinkelbach trace climbs;
    # the ratio is, bit for bit, the throughput of the returned regions on
    # the tables of the problem, which the CLI reports for optimized rows
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    avg = 10.0 ** (snr_db / 10.0)
    res = fast_optimize_regions(K, combining, table, avg)
    assert res.certificate <= 1e-12
    lams = [state.lam for state in res.iterations]
    assert lams[0] == 0.0 and len(lams) >= 2
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert res.throughput.value >= lams[-1]
    tables = FastFadingTables(table, K, combining, avg)
    assert res.throughput.value == fast_throughput(res.regions, K, combining, table, avg,
                                                   tables=tables).value
    eta = fast_throughput(res.regions, K, combining, table, avg).value
    assert eta == pytest.approx(res.throughput.value, abs=1e-12)
