"""End-to-end acceptance checks for the throughput criteria the package
commits to.  Monte Carlo runs use pinned seeds; tolerances are stated
inline next to each assertion."""

import math

import numpy as np
import pytest

from harqlink.amc import (DecisionRegions, RegionKind, amc_throughput,
                          amc_thresholds_exact)
from harqlink.channel import ChannelConfig, FadingMode
from harqlink.coding import CombiningType, McsTable, per, snr_margin_delta
from harqlink.harq_analysis import (HarqConfig, HarqVariant, fast_throughput,
                                    slow_cascades, slow_throughput,
                                    slow_throughput_at, two_round_bound)
from harqlink.optimizer import fast_optimize_regions, slow_optimal_regions
from harqlink.simulator import (simulate_packet_drop, simulate_plain,
                                simulate_vl)

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)
REGIONS = amc_thresholds_exact(TABLE)


def _db(x):
    return 10.0 ** (x / 10.0)


# -- 1: SNR margin of the exponential PER model ------------------------------

def test_acceptance_01_snr_margin():
    assert 10 * math.log10(snr_margin_delta(1e-2, 4.0)) == pytest.approx(3.3, abs=0.05)
    assert 10 * math.log10(snr_margin_delta(1e-2, 0.5)) == pytest.approx(10.0, abs=0.15)


# -- 2: boundary PER at the throughput-optimal single-shot thresholds --------

def test_acceptance_02_amc_boundary_pers():
    expected = [0.5, 1.0 / 3.0, 0.25, 0.2]
    for l, want in zip(range(2, 6), expected):
        assert per(l, REGIONS.thresholds[l - 1], TABLE) == pytest.approx(want, abs=0.01)


# -- 3: cascade ratio property, round-budget monotonicity, counterexample ----

def test_acceptance_03_cascade_property_suite():
    grid = np.logspace(-2, 2, 50)
    for combining in (CombiningType.RR, CombiningType.IR):
        f = slow_cascades(grid, 6, combining, TABLE)
        c = np.concatenate([np.ones(f.shape[:-1] + (1,)), f], axis=-1)  # f_0 = 1
        # f_{k+1} f_{k-1} <= f_k^2 (ratio non-increasing)
        assert np.all(c[..., 2:7] * c[..., 0:5] <= c[..., 1:6] ** 2 + 1e-12)
        etas = np.stack([slow_throughput_at(grid, K, combining, TABLE) for K in range(1, 7)])
        assert np.all(np.diff(etas, axis=0) >= -1e-12)
    # a synthetic cascade with f_k <= f_1^k whose third round still hurts:
    # R (1 - f_K) / (1 + sum_{k<K} f_k) with R = 1
    f1 = 0.9
    f2 = 0.5 * f1 ** 2
    f3 = 0.75 * f1 ** 3
    assert f2 <= f1 ** 2 and f3 <= f1 ** 3
    assert (1.0 - f2) / (1.0 + f1) > (1.0 - f3) / (1.0 + f1 + f2)


# -- 4: Monte Carlo vs analytic at nine grid points --------------------------

@pytest.mark.parametrize("snr_db", [-5.0, 5.0, 15.0])
def test_acceptance_04_mc_oracle_amc(snr_db):
    avg = _db(snr_db)
    res = simulate_plain(REGIONS,
                         HarqConfig(combining=CombiningType.IR, max_rounds=1),
                         TABLE, ChannelConfig(avg, FadingMode.FAST, seed=4),
                         blocks=10 ** 6)
    want = amc_throughput(REGIONS, TABLE, avg).value
    assert abs(res.throughput - want) <= res.ci_half_width


@pytest.mark.parametrize("snr_db", [-5.0, 5.0, 15.0])
def test_acceptance_04_mc_oracle_slow_ir(snr_db):
    avg = _db(snr_db)
    res = simulate_plain(REGIONS,
                         HarqConfig(combining=CombiningType.IR, max_rounds=4),
                         TABLE, ChannelConfig(avg, FadingMode.SLOW, seed=4),
                         blocks=10 ** 6)
    want = slow_throughput(REGIONS, 4, CombiningType.IR, TABLE, avg).value
    assert abs(res.throughput - want) <= res.ci_half_width


@pytest.mark.parametrize("snr_db", [-5.0, 5.0, 15.0])
def test_acceptance_04_mc_oracle_fast_rr(snr_db):
    avg = _db(snr_db)
    res = simulate_plain(REGIONS,
                         HarqConfig(combining=CombiningType.RR, max_rounds=4),
                         TABLE, ChannelConfig(avg, FadingMode.FAST, seed=4),
                         blocks=10 ** 6)
    want = fast_throughput(REGIONS, 4, CombiningType.RR, TABLE, avg).value
    assert abs(res.throughput - want) <= res.ci_half_width


# -- 5: retransmissions win at low average SNR -------------------------------

def test_acceptance_05_low_snr_ordering():
    avg = _db(-10.0)
    eta_amc = amc_throughput(REGIONS, TABLE, avg).value
    for combining in (CombiningType.RR, CombiningType.IR):
        eta = fast_throughput(REGIONS, 4, combining, TABLE, avg).value
        assert eta >= eta_amc


# -- 6: single-shot wins at high average SNR, bound in between ---------------

def test_acceptance_06_high_snr_ordering():
    avg = _db(25.0)
    eta_amc = amc_throughput(REGIONS, TABLE, avg).value
    for combining in (CombiningType.RR, CombiningType.IR):
        for regions in (REGIONS,
                        fast_optimize_regions(4, combining, TABLE, avg).regions):
            bound = two_round_bound(regions, TABLE, avg)
            eta = fast_throughput(regions, 4, combining, TABLE, avg).value
            assert eta_amc > bound
            assert bound >= eta - 1e-9


# -- 7: crossing points of HARQ vs single-shot throughput --------------------

def _crossing(xs, ds):
    for a, b, da, db_ in zip(xs, xs[1:], ds, ds[1:]):
        if da >= 0.0 > db_:
            return a + (b - a) * da / (da - db_)
    raise AssertionError(f"no sign change on {xs[0]}..{xs[-1]} dB")


def test_acceptance_07_crossing_rr_fixed_regions():
    xs = [1.0 + 0.25 * i for i in range(15)]  # 1.0 .. 4.5 dB
    ds = []
    for snr_db in xs:
        avg = _db(snr_db)
        ds.append(fast_throughput(REGIONS, 4, CombiningType.RR, TABLE, avg).value
                  - amc_throughput(REGIONS, TABLE, avg).value)
    assert _crossing(xs, ds) == pytest.approx(3.0, abs=1.5)


def test_acceptance_07_crossing_ir_optimized_regions():
    xs = [6.5 + 0.25 * i for i in range(15)]  # 6.5 .. 10.0 dB
    ds = []
    for snr_db in xs:
        avg = _db(snr_db)
        res = fast_optimize_regions(4, CombiningType.IR, TABLE, avg)
        ds.append(res.throughput.value - amc_throughput(REGIONS, TABLE, avg).value)
    assert _crossing(xs, ds) == pytest.approx(9.0, abs=1.5)


# -- 8: degenerate-region structure of the optimized thresholds --------------

def test_acceptance_08_full_collapse_at_5db():
    # KNOWN FAILURE, kept on purpose: the verified optimum at 5 dB keeps a
    # small non-degenerate top region (thresholds ~ (0,0,0,0,0.92)) and
    # beats the fully collapsed vector by ~6e-3 bits/symbol, confirmed by
    # an independent protocol-level simulation.  Full collapse does occur
    # on the 6.5-8.5 dB band.  See the repository notes for details.
    res = fast_optimize_regions(4, CombiningType.IR, TABLE, _db(5.0))
    t = res.regions.thresholds
    assert t[1] == t[2] == t[3] == t[4] == 0.0, (
        f"optimum at 5 dB is {t} with throughput {res.throughput.value:.7f}; "
        "the top rate does not absorb the whole SNR axis")


def test_acceptance_08_all_regions_alive_at_25db():
    res = fast_optimize_regions(4, CombiningType.IR, TABLE, _db(25.0))
    t = res.regions.thresholds
    assert all(b > a for a, b in zip(t, t[1:]))


# -- 9: packet-dropping recovers the single-shot throughput ------------------

@pytest.mark.parametrize("snr_db", [12.0, 16.0, 20.0, 24.0])
@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
def test_acceptance_09_packet_drop_recovery(snr_db, combining):
    avg = _db(snr_db)
    harq = HarqConfig(combining=combining, max_rounds=4,
                      variant=HarqVariant.PACKET_DROP)
    res = simulate_packet_drop(REGIONS, harq, TABLE,
                               ChannelConfig(avg, FadingMode.FAST, seed=9),
                               blocks=10 ** 6)
    eta_amc = amc_throughput(REGIONS, TABLE, avg).value
    assert res.throughput >= eta_amc - (0.02 + res.ci_half_width)


# -- 10: variable-length scheduling beats single-shot at high SNR ------------

def test_acceptance_10_variable_length_gain():
    avg = _db(20.0)
    harq = HarqConfig(combining=CombiningType.IR, max_rounds=4,
                      variant=HarqVariant.VARIABLE_LENGTH,
                      lengths_primary=(1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5),
                      lengths_aux=(1 / 8, 1 / 12, 1 / 16))
    res = simulate_vl(harq, TABLE, ChannelConfig(avg, FadingMode.FAST, seed=10),
                      blocks=10 ** 6)
    eta_amc = amc_throughput(REGIONS, TABLE, avg).value
    assert res.throughput > eta_amc + res.ci_half_width


# -- 11: single-shot vs two-round-bound gap grows with the rate count --------

@pytest.mark.parametrize("snr_db", [15.0, 20.0, 25.0])
def test_acceptance_11_gap_monotone_in_rate_count(snr_db):
    avg = _db(snr_db)
    gaps = []
    for L in (2, 3, 5):
        rates = tuple(np.linspace(0.75, 3.75, L))
        t = McsTable(rates=rates, a_tilde=math.inf)
        r = amc_thresholds_exact(t)
        gaps.append(amc_throughput(r, t, avg).value - two_round_bound(r, t, avg))
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))


# -- 12: slow fading demands union-of-interval regions -----------------------

def test_acceptance_12_slow_interval_unions():
    t2 = McsTable(rates=(3.0, 3.75), a_tilde=4.0)
    regions = slow_optimal_regions(4, CombiningType.IR, t2)
    assert regions.kind is RegionKind.INTERVALS
    assert any(len(regions.intervals_for(l)) >= 2 for l in (1, 2))
    amc2 = amc_thresholds_exact(t2)
    for snr_db in np.arange(-5.0, 30.0 + 1e-9, 0.5):
        avg = _db(float(snr_db))
        a = slow_throughput(regions, 4, CombiningType.IR, t2, avg).value
        b = slow_throughput(amc2, 4, CombiningType.IR, t2, avg).value
        assert a >= b - 1e-9
