import math

import numpy as np
import pytest

from harqlink.amc import (DecisionRegions, RegionKind, amc_throughput,
                          amc_thresholds_closed_form, amc_thresholds_exact,
                          amc_thresholds_per_target, classify)
from harqlink.coding import CombiningType, McsTable, per, per_at
from harqlink.optimizer import slow_optimal_regions

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)
STEP_TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=math.inf)

# high-precision reference values for the default table (independent
# 30-digit root-finding on R_l (1-PER_l) = R_{l-1} (1-PER_{l-1}))
EXACT_THRESHOLDS = (0.0, 2.1451840282179543, 4.7857463233059647,
                    9.4133390756288757, 17.433563700056612)
CLOSED_FORM_THRESHOLDS = (0.0, 2.14526940134048, 4.7886529381574,
                          9.42601513195981, 17.4654654505079)
# independent 30-digit adaptive quadrature of the region-averaged reward
AMC_THROUGHPUT_REF = {10.0: 2.04115441341338,
                      3.1622776601683795: 1.0594825616254,
                      100.0: 3.46441219013388}


def test_exact_thresholds_match_reference():
    got = amc_thresholds_exact(TABLE).thresholds
    assert got == pytest.approx(EXACT_THRESHOLDS, rel=1e-9)


def test_exact_thresholds_equalize_instantaneous_throughput():
    got = amc_thresholds_exact(TABLE).thresholds
    for l in range(2, 6):
        g = got[l - 1]
        lhs = TABLE.rate(l) * (1.0 - per(l, g, TABLE))
        rhs = TABLE.rate(l - 1) * (1.0 - per(l - 1, g, TABLE))
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("rates", [TABLE.rates, (0.75, 1.5, 3.0)], ids=["default", "three-rate"])
@pytest.mark.parametrize("a_tilde", [2.5, 4.0, 8.0])
def test_exact_thresholds_are_exact_to_the_last_bit(rates, a_tilde):
    # rate l's throughput reaches rate l-1's at gamma_l and not one float
    # below it, on the array arithmetic of amc_thresholds_exact (the scalar
    # PER path can differ from it in the last bit)
    table = McsTable(rates=rates, a_tilde=a_tilde)
    r, th = np.array(rates), np.array(table.thresholds)
    gammas = np.array(amc_thresholds_exact(table).thresholds[1:])

    def right_minus_left(x):
        return (r[1:] * (1.0 - per_at(x, th[1:], a_tilde))
                - r[:-1] * (1.0 - per_at(x, th[:-1], a_tilde)))

    assert np.all(right_minus_left(gammas) >= 0.0)
    assert np.all(right_minus_left(np.nextafter(gammas, 0.0)) < 0.0)


def test_exact_thresholds_need_a_bracketed_crossing():
    # so slow a PER decay that rate 1 still leads at 1e4 times rate 2's threshold
    with pytest.raises(ValueError, match="no bracketed crossing for rates 1.0, 5.0"):
        amc_thresholds_exact(McsTable(rates=(1.0, 5.0), a_tilde=1e-5))


def test_boundary_per_values():
    # at the optimal boundary PER_l(gamma_l) = 1 - R_{l-1}/R_l
    got = amc_thresholds_exact(TABLE).thresholds
    expected = [0.5, 1.0 / 3.0, 0.25, 0.2]
    for l, want in zip(range(2, 6), expected):
        assert per(l, got[l - 1], TABLE) == pytest.approx(want, abs=0.01)


def test_closed_form_matches_formula_and_is_close_to_exact():
    got = amc_thresholds_closed_form(TABLE).thresholds
    assert got == pytest.approx(CLOSED_FORM_THRESHOLDS, rel=1e-9)
    assert got == pytest.approx(EXACT_THRESHOLDS, rel=3e-3)


def test_step_decoding_thresholds_collapse_to_decoding_thresholds():
    got = amc_thresholds_exact(STEP_TABLE).thresholds
    assert got[0] == 0.0
    assert got[1:] == pytest.approx(STEP_TABLE.thresholds[1:], rel=1e-14)
    assert amc_thresholds_closed_form(STEP_TABLE).thresholds == got


def test_per_target_thresholds():
    regions = amc_thresholds_per_target(TABLE, p_loss=1e-3, arq_rounds=1)
    exact = amc_thresholds_exact(TABLE).thresholds
    for l in range(2, 6):
        g = regions.thresholds[l - 1]
        assert g >= exact[l - 1]
        assert per(l, g, TABLE) <= 1e-3 * (1 + 1e-9)
    # a loose target clamps to the throughput-optimal thresholds
    loose = amc_thresholds_per_target(TABLE, p_loss=0.9, arq_rounds=4)
    assert loose.thresholds == pytest.approx(exact, rel=1e-12)


def test_per_target_validation():
    with pytest.raises(ValueError):
        amc_thresholds_per_target(TABLE, p_loss=0.0)
    with pytest.raises(ValueError):
        amc_thresholds_per_target(TABLE, p_loss=0.5, arq_rounds=0)


def test_threshold_regions_validation():
    with pytest.raises(ValueError):
        DecisionRegions(RegionKind.THRESHOLDS, thresholds=(1.0, 2.0))  # gamma_1 != 0
    with pytest.raises(ValueError):
        DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        DecisionRegions(RegionKind.THRESHOLDS)


def test_interval_regions_validation():
    ok = DecisionRegions(RegionKind.INTERVALS,
                         intervals=(((0.0, 1.0), (2.0, math.inf)), ((1.0, 2.0),)))
    assert ok.num_rates == 2
    with pytest.raises(ValueError):  # gap
        DecisionRegions(RegionKind.INTERVALS,
                        intervals=(((0.0, 1.0),), ((2.0, math.inf),)))
    with pytest.raises(ValueError):  # overlap
        DecisionRegions(RegionKind.INTERVALS,
                        intervals=(((0.0, 2.0),), ((1.0, math.inf),)))
    with pytest.raises(ValueError):  # does not start at zero
        DecisionRegions(RegionKind.INTERVALS,
                        intervals=(((1.0, math.inf),),))
    with pytest.raises(ValueError):  # bounded support
        DecisionRegions(RegionKind.INTERVALS,
                        intervals=(((0.0, 5.0),),))


def test_classify_half_open_boundaries():
    regions = DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 2.0, 5.0))
    assert classify(0.0, regions) == 1
    assert classify(1.999999, regions) == 1
    assert classify(2.0, regions) == 2  # boundary belongs to the upper region
    assert classify(5.0, regions) == 3
    assert classify(1e9, regions) == 3
    np.testing.assert_array_equal(classify([0.0, 2.0, 4.9, 5.1], regions),
                                  [1, 2, 2, 3])
    with pytest.raises(ValueError):
        classify(-0.1, regions)


def test_classify_skips_degenerate_regions():
    regions = DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 1.0, 1.0, 4.0))
    # region 2 is empty: 1.0 belongs to region 3
    assert classify(1.0, regions) == 3
    assert 2 not in set(np.atleast_1d(classify(np.linspace(0, 10, 1001), regions)))
    assert regions.intervals_for(2) == ()


def test_classify_interval_union():
    regions = DecisionRegions(RegionKind.INTERVALS,
                              intervals=(((0.0, 1.0), (2.0, math.inf)), ((1.0, 2.0),)))
    np.testing.assert_array_equal(classify([0.5, 1.5, 3.0], regions), [1, 2, 1])


@pytest.mark.parametrize("regions", [
    amc_thresholds_exact(TABLE),
    amc_thresholds_exact(STEP_TABLE),
    DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 0.0, 0.0, 0.0, 0.92)),
    DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 1.0, 1.0, 4.0)),
    DecisionRegions(RegionKind.THRESHOLDS, thresholds=(0.0, 0.0, 0.0)),
    # acceptance_12's table, whose slow IR-optimal regions are interval unions
    slow_optimal_regions(4, CombiningType.IR, McsTable(rates=(3.0, 3.75), a_tilde=4.0)),
], ids=["exact", "step", "degenerate", "empty-middle", "all-top", "interval-union"])
def test_classify_equals_sorted_edge_search(regions):
    labels, lows, _ = regions.labelled_intervals()
    order = np.argsort(lows)
    edges, labels = np.array(lows)[order], np.array(labels)[order]
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    g = np.concatenate([np.random.default_rng(3).exponential(10.0, 10 ** 4),
                        np.geomspace(1e-12, 1e6, 500), near[near >= 0.0], [0.0, np.inf]])
    want = labels[np.searchsorted(edges, g, side="right") - 1]
    np.testing.assert_array_equal(classify(g, regions), want)
    for x, w in zip(g[-3 * edges.size - 2:].tolist(), want[-3 * edges.size - 2:].tolist()):
        got = classify(x, regions)
        assert type(got) is int and got == w


def test_amc_throughput_reference_values():
    regions = amc_thresholds_exact(TABLE)
    for avg, want in AMC_THROUGHPUT_REF.items():
        got = amc_throughput(regions, TABLE, avg)
        assert got.value == pytest.approx(want, abs=1e-8)
        assert got.ci_half_width == 0.0
        assert got.provenance == "analytic"


def test_amc_throughput_bounds_and_monotonicity():
    regions = amc_thresholds_exact(TABLE)
    vals = [amc_throughput(regions, TABLE, 10 ** (db / 10)).value
            for db in (-10, 0, 10, 20, 30)]
    assert all(0.0 < v < TABLE.rates[-1] for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_amc_throughput_exact_regions_beat_alternatives():
    exact = amc_thresholds_exact(TABLE)
    closed = amc_thresholds_closed_form(TABLE)
    strict = amc_thresholds_per_target(TABLE, p_loss=1e-3)
    for avg in (1.0, 10.0, 100.0):
        best = amc_throughput(exact, TABLE, avg).value
        assert amc_throughput(closed, TABLE, avg).value <= best + 1e-9
        assert amc_throughput(strict, TABLE, avg).value <= best + 1e-9


def test_amc_throughput_interval_regions_agree_with_thresholds():
    t = amc_thresholds_exact(TABLE).thresholds
    bounds = list(t) + [math.inf]
    intervals = tuple((((bounds[i], bounds[i + 1]),)) for i in range(5))
    as_intervals = DecisionRegions(RegionKind.INTERVALS, intervals=intervals)
    a = amc_throughput(amc_thresholds_exact(TABLE), TABLE, 10.0).value
    b = amc_throughput(as_intervals, TABLE, 10.0).value
    assert a == pytest.approx(b, abs=1e-10)
