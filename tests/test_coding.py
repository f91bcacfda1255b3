import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harqlink.coding import (_EXP_UNDERFLOW, CombiningType, McsTable, _per_grid,
                             mutual_information, mutual_information_inv, per, snr_margin_delta)
from harqlink.harq_analysis import _GRID_POINTS, HarqConfig, HarqVariant, _mi_grid_into
from harqlink.simulator import _vl_aggregate

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)
STEP_TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=math.inf)


def test_thresholds_follow_rate_rule():
    for l in range(1, 6):
        assert TABLE.threshold(l) == pytest.approx(2.0 ** (0.75 * l) - 1.0, rel=1e-14)
        assert mutual_information(TABLE.threshold(l)) == pytest.approx(TABLE.rate(l), rel=1e-12)


def test_table_validation():
    with pytest.raises(ValueError):
        McsTable(rates=())
    with pytest.raises(ValueError):
        McsTable(rates=(1.0, 1.0))
    with pytest.raises(ValueError):
        McsTable(rates=(2.0, 1.0))
    with pytest.raises(ValueError):
        McsTable(rates=(-1.0, 1.0))
    with pytest.raises(ValueError):
        McsTable(rates=(1.0,), a_tilde=0.0)
    with pytest.raises(IndexError):
        TABLE.rate(0)
    with pytest.raises(IndexError):
        TABLE.rate(6)


def test_per_shape():
    th = TABLE.threshold(3)
    assert per(3, th * 0.999, TABLE) == 1.0
    assert per(3, th, TABLE) == pytest.approx(1.0, rel=1e-12)
    assert per(3, 2.0 * th, TABLE) == pytest.approx(math.exp(-4.0), rel=1e-12)
    # step decoding
    assert per(3, th * 0.999, STEP_TABLE) == 1.0
    assert per(3, th * 1.001, STEP_TABLE) == 0.0
    # vectorized
    out = per(3, np.array([0.0, th, 10 * th]), TABLE)
    assert out.shape == (3,)
    assert out[0] == 1.0


@pytest.mark.parametrize("a_tilde", [0.5, 4.0, 10.0, math.inf])
def test_per_grid_equals_per_bit_for_bit(a_tilde):
    # the PER that the IR chain reads on the 2n-point MI grid, with exp only
    # from the threshold to the cut past which it gives 0, against per() on
    # the same points, -20 to 30 dB; the added points sit on both sides of
    # each threshold, of the cut and of where exp starts to give 0
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    for db in range(-20, 31, 5):
        _, x = _mi_grid_into(10.0 ** (db / 10.0), _GRID_POINTS, np.empty(2 * _GRID_POINTS))
        for l, th in enumerate(table.thresholds, 1):
            edges = [th] + [th * (1.0 + z / a_tilde) for z in (745.1332191019412, _EXP_UNDERFLOW)]
            near = [np.nextafter(e, direction) for e in edges for direction in (0.0, math.inf)]
            grid = np.sort(np.concatenate([x, edges, near]))
            got = _per_grid(grid, th, a_tilde, np.empty_like(grid))
            assert np.array_equal(got.view(np.uint64), per(l, grid, table).view(np.uint64)), (db, l)


def test_snr_margin_values():
    # PER target 1e-2: 3.3 dB margin for a_tilde=4, 10 dB for a_tilde=0.5
    assert 10 * math.log10(snr_margin_delta(1e-2, 4.0)) == pytest.approx(3.3, abs=0.05)
    assert 10 * math.log10(snr_margin_delta(1e-2, 0.5)) == pytest.approx(10.0, abs=0.15)
    with pytest.raises(ValueError):
        snr_margin_delta(0.0, 4.0)
    with pytest.raises(ValueError):
        snr_margin_delta(0.5, -1.0)


def test_margin_is_consistent_with_per():
    for a_tilde in (0.5, 4.0, 15.0):
        t = McsTable(rates=(1.5,), a_tilde=a_tilde)
        delta = snr_margin_delta(1e-3, a_tilde)
        assert per(1, delta * t.threshold(1), t) == pytest.approx(1e-3, rel=1e-9)


def test_mutual_information_roundtrip():
    for g in (0.0, 0.5, 3.0, 1e4):
        assert mutual_information_inv(mutual_information(g)) == pytest.approx(g, rel=1e-10, abs=1e-12)


def _ir_aggregate(snrs):
    """The IR aggregate SNR of rounds at snrs: their MI adds."""
    return mutual_information_inv(np.sum(mutual_information(snrs)))


def test_aggregate_snr_ir_is_mi_accumulation():
    got = _ir_aggregate([1.0, 3.0])
    assert got == pytest.approx((1 + 1.0) * (1 + 3.0) - 1.0, rel=1e-12)


def test_aggregate_snr_ir_no_overflow_at_high_snr():
    out = _ir_aggregate([1e8, 1e8, 1e8])
    assert math.isinf(out) or out > 1e20  # must not raise or go negative


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2, max_size=6))
@example([1e-8, 1e-8])
def test_ir_aggregate_dominates_rr(snrs):
    # what `harqlink verify` checks at two rounds of SNR 1; log1p and expm1
    # keep the gap at the smallest SNRs
    ir = _ir_aggregate(snrs)
    rr = float(np.sum(snrs))
    assert ir >= rr - 1e-9 * max(rr, 1.0)
    if sum(1 for s in snrs if s > 1e-9) >= 2:
        assert ir > rr


def test_nack_probability_uses_aggregate_not_product():
    # Two rounds each below threshold but jointly above it must decode
    # with high probability: the NACK probability is PER(aggregate), not
    # the product of per-round PERs (which would be 1 here).
    th = TABLE.threshold(2)
    g = th * 0.75
    assert per(2, g, TABLE) == 1.0
    got = per(2, g + g, TABLE)  # RR: the SNRs add
    assert got == pytest.approx(per(2, 2 * g, TABLE), rel=1e-12)
    assert got < 1.0


def test_nack_probability_monotone_in_rounds():
    snrs = [0.8, 0.3, 1.1, 0.6]
    for aggregate in (np.sum, _ir_aggregate):  # RR, IR
        vals = [per(3, aggregate(snrs[:k]), TABLE) for k in range(1, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_aggregate_snr_vl_reduces_to_equal_lengths():
    # the first round's aggregate is its own SNR; fold in a second round
    # of the same length
    got = _vl_aggregate(1.0, 0.5, 0.5, 3.0)
    assert got == pytest.approx(_ir_aggregate([1.0, 3.0]), rel=1e-12)


def test_aggregate_snr_vl_scales_partial_rounds():
    # a half-length retransmission contributes half of its MI
    full = _vl_aggregate(2.0, 1.0, 1.0, 2.0)
    half = _vl_aggregate(2.0, 0.5, 1.0, 2.0)
    assert half < full
    expect = mutual_information_inv(1.5 * mutual_information(2.0))
    assert half == pytest.approx(expect, rel=1e-12)


def test_aggregate_snr_vl_rejects_rr():
    # variable-length combining is defined for IR only
    with pytest.raises(ValueError):
        HarqConfig(combining=CombiningType.RR, max_rounds=4,
                   variant=HarqVariant.VARIABLE_LENGTH, lengths_primary=(1.0, 0.5))
