import math
import time
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from scipy.integrate import quad

from harqlink.amc import amc_thresholds_exact
from harqlink.channel import ChannelConfig, FadingMode
from harqlink.coding import CombiningType, McsTable, mutual_information, per
from harqlink.harq_analysis import (HarqConfig, HarqVariant, fast_throughput,
                                    slow_cascades, slow_throughput)
from harqlink.simulator import (_CHUNK, _SLOW_CYCLES_PER_DRAW, PacketState, SimResult,
                                simulate_packet_drop, simulate_plain, simulate_vl,
                                vl_schedule, vl_update)

TABLE = McsTable(rates=tuple(l * 0.75 for l in range(1, 6)), a_tilde=4.0)
REGIONS = amc_thresholds_exact(TABLE)


def _harq(combining=CombiningType.IR, K=4, variant=HarqVariant.PLAIN, **kw):
    return HarqConfig(combining=combining, max_rounds=K, variant=variant, **kw)


def _chan(avg, mode=FadingMode.FAST, seed=0):
    return ChannelConfig(avg_snr=avg, fading_mode=mode, seed=seed)


def test_blocks_floor_enforced():
    with pytest.raises(ValueError):
        simulate_plain(REGIONS, _harq(), TABLE, _chan(10.0), blocks=10_000)
    with pytest.raises(ValueError):
        simulate_packet_drop(REGIONS, _harq(variant=HarqVariant.PACKET_DROP),
                             TABLE, _chan(10.0), blocks=10_000)


def test_variant_guards():
    with pytest.raises(ValueError):
        simulate_plain(REGIONS, _harq(variant=HarqVariant.PACKET_DROP),
                       TABLE, _chan(10.0), blocks=10 ** 5)
    with pytest.raises(ValueError):
        simulate_packet_drop(REGIONS, _harq(), TABLE, _chan(10.0), blocks=10 ** 5)


def test_determinism_per_seed_and_stream():
    a = simulate_plain(REGIONS, _harq(), TABLE, _chan(10.0, seed=5), 10 ** 5)
    b = simulate_plain(REGIONS, _harq(), TABLE, _chan(10.0, seed=5), 10 ** 5)
    c = simulate_plain(REGIONS, _harq(), TABLE, _chan(10.0, seed=5), 10 ** 5,
                       stream_id=1)
    d = simulate_plain(REGIONS, _harq(), TABLE, _chan(10.0, seed=6), 10 ** 5)
    assert a == b
    assert a.throughput != c.throughput
    assert a.throughput != d.throughput


@pytest.mark.parametrize("combining", [CombiningType.RR, CombiningType.IR])
def test_fast_mc_matches_analytic(combining):
    res = simulate_plain(REGIONS, _harq(combining=combining), TABLE,
                         _chan(10.0), blocks=5 * 10 ** 5)
    want = fast_throughput(REGIONS, 4, combining, TABLE, 10.0).value
    assert abs(res.throughput - want) <= max(res.ci_half_width, 1e-3)
    assert res.blocks >= 5 * 10 ** 5
    assert res.acked_packets > 0


def test_slow_mc_matches_analytic():
    res = simulate_plain(REGIONS, _harq(), TABLE,
                         _chan(10.0, mode=FadingMode.SLOW), blocks=5 * 10 ** 5)
    want = slow_throughput(REGIONS, 4, CombiningType.IR, TABLE, 10.0).value
    assert abs(res.throughput - want) <= max(res.ci_half_width, 5e-3)


def test_nested_outcome_sampling_reproduces_cascade():
    # slow fading holds one SNR per draw, so a cycle fails its first k rounds
    # with probability f_k(gamma) and the engine's nested test v < f_k must
    # give drops / cycles -> E[f_K] and rounds / cycles -> 1 + sum_{k<K} E[f_k]
    K, avg = 3, 10.0 ** 0.3
    one_rate = McsTable(rates=(1.5,), a_tilde=4.0)
    kinks = sorted({one_rate.thresholds[0] / k for k in range(1, K + 1)}
                   | {2.0 ** (1.5 / k) - 1.0 for k in range(1, K + 1)})
    for combining in CombiningType:
        res = simulate_plain(amc_thresholds_exact(one_rate), _harq(combining, K), one_rate,
                             _chan(avg, mode=FadingMode.SLOW, seed=11), 10 ** 6)

        def mean(fn, combining=combining):  # E[fn(f_1..f_K)] over the SNR density
            return quad(lambda g: fn(slow_cascades(g, K, combining, one_rate)[0])
                        * math.exp(-g / avg) / avg, 0.0, 60.0 * avg, points=kinks,
                        limit=200, epsabs=1e-13)[0]

        cycles = res.acked_packets + res.drops
        draws = cycles / _SLOW_CYCLES_PER_DRAW  # each drawn SNR holds for that many cycles
        for got, stat, spread in ((res.drops / cycles, lambda f: f[K - 1], 1.0),
                                  (res.blocks / cycles, lambda f: 1.0 + f[:K - 1].sum(), K - 1.0)):
            want = mean(stat)
            # 4 sigma: the variance over SNR draws, plus at most spread^2 / 4
            # per cycle for the outcome's own spread at a fixed SNR
            sigma = math.sqrt((mean(lambda f: stat(f) ** 2) - want ** 2) / draws
                              + spread ** 2 / 4.0 / cycles)
            assert abs(got - want) <= 4.0 * sigma, (combining, got, want, sigma)


def test_packet_drop_slow_equals_plain_engine():
    pd = simulate_packet_drop(REGIONS, _harq(variant=HarqVariant.PACKET_DROP),
                              TABLE, _chan(10.0, mode=FadingMode.SLOW), 10 ** 5)
    plain = simulate_plain(REGIONS, _harq(), TABLE,
                           _chan(10.0, mode=FadingMode.SLOW), 10 ** 5)
    assert pd == plain
    assert pd.drops > 0  # cycles whose K rounds all fail


def test_packet_drop_fast_tracks_amc_at_high_snr():
    # at high SNR nearly every packet decodes in round one, so the
    # packet-dropping protocol approaches plain AMC throughput
    from harqlink.amc import amc_throughput
    avg = 10.0 ** 3
    res = simulate_packet_drop(REGIONS, _harq(variant=HarqVariant.PACKET_DROP),
                               TABLE, _chan(avg), blocks=2 * 10 ** 5)
    want = amc_throughput(REGIONS, TABLE, avg).value
    assert res.throughput == pytest.approx(want, rel=0.02)


def test_packet_drop_counts_are_consistent():
    res = simulate_packet_drop(REGIONS, _harq(variant=HarqVariant.PACKET_DROP),
                               TABLE, _chan(2.0), blocks=10 ** 5)
    assert res.drops > 0
    assert res.acked_packets > 0
    assert 0.0 < res.throughput < TABLE.rates[-1]


_RR, _IR, _INF = CombiningType.RR, CombiningType.IR, math.inf


@pytest.mark.parametrize("combining, K, snr_db, a_tilde, seed, want", [
    (_RR, 4, 16.0, 4.0, 1, SimResult(3.1039548276792943, 0.009499663051221071, 100017, 94889, 3510)),
    (_IR, 4, 16.0, 4.0, 2, SimResult(3.1178349680554307, 0.012151775380493134, 100017, 95176, 3356)),
    (_RR, 2, 16.0, _INF, 3, SimResult(3.3147739884219685, 0.009474362728286414, 100017, 98265, 1670)),
    (_IR, 2, 16.0, _INF, 4, SimResult(3.3109796334623116, 0.006700169897708803, 100017, 98302, 1637)),
    (_RR, 4, 0.0, _INF, 5, SimResult(0.5832658448063829, 0.0054364927638532335, 100017, 59347, 6710)),
    (_IR, 4, 0.0, _INF, 6, SimResult(0.5946564084105702, 0.00408359661965293, 100017, 60869, 6423)),
    (_RR, 2, 0.0, 4.0, 7, SimResult(0.45039593269144246, 0.004713047199324576, 100017, 48503, 18106)),
    (_IR, 2, 0.0, 4.0, 8, SimResult(0.4735669936110861, 0.00433516590142259, 100017, 51004, 15706)),
    (_IR, 3, 12.0, 2.5, 9, SimResult(2.331233690272654, 0.010918093506483921, 100017, 87632, 7409)),
])
def test_packet_drop_results_are_pinned(combining, K, snr_db, a_tilde, seed, want):
    # exact values from the block-by-block engine; 10^5 + 17 blocks is not
    # a multiple of any power-of-two chunk and crosses a 2^16 boundary
    assert _packet_drop_pin_run(combining, K, snr_db, a_tilde, seed) == want


@pytest.mark.parametrize("combining, snr_db, a_tilde, seed, want", [
    (_RR, 0.0, 4.0, 10, SimResult(0.3858019136746753, 0.0043227649793074014, 100017, 41115, 58902)),
    (_IR, 12.0, _INF, 11, SimResult(2.7971744803383425, 0.012081310937956688, 100017, 95703, 4314)),
])
def test_packet_drop_one_round_results_are_pinned(combining, snr_db, a_tilde, seed, want):
    # taken once a failed first round with K = 1 became a drop; they equal
    # the block-by-block engine with that fix
    assert _packet_drop_pin_run(combining, 1, snr_db, a_tilde, seed) == want


@pytest.mark.parametrize("combining, K, snr_db, seed, want", [
    (_RR, 1, -5.0, 20, SimResult(0.05639041362968295, 0.001915401460556518, 100017, 7453, 92564)),
    (_RR, 1, 0.0, 21, SimResult(0.38775158223102074, 0.004480060543618777, 100017, 41234, 58783)),
    (_RR, 1, 10.0, 22, SimResult(2.039150844356459, 0.012107562366309818, 100017, 85922, 14095)),
    (_RR, 2, -5.0, 23, SimResult(0.10242508773508503, 0.0022829779659158216, 100017, 13622, 38322)),
    (_RR, 2, 0.0, 24, SimResult(0.4258526050571403, 0.004345471781061292, 100017, 49236, 13638)),
    (_RR, 2, 10.0, 25, SimResult(1.9480488316986113, 0.014463229961470132, 100017, 86791, 912)),
    (_RR, 4, -5.0, 26, SimResult(0.17081346171150905, 0.0028909082721101866, 100017, 22744, 8964)),
    (_RR, 4, 0.0, 27, SimResult(0.44685653438915385, 0.00406396698787914, 100017, 52999, 742)),
    (_RR, 4, 10.0, 28, SimResult(1.9495335792915205, 0.013078065528172879, 100017, 86916, 17)),
    (_IR, 1, -5.0, 29, SimResult(0.05621044422448184, 0.001861190780776914, 100017, 7422, 92595)),
    (_IR, 1, 0.0, 30, SimResult(0.38741413959626864, 0.004699571517593876, 100017, 41285, 58732)),
    (_IR, 1, 10.0, 31, SimResult(2.048464261075617, 0.0126335434065468, 100017, 85987, 14030)),
    (_IR, 2, -5.0, 32, SimResult(0.12454632712438886, 0.0025949639463108266, 100017, 16558, 35354)),
    (_IR, 2, 0.0, 33, SimResult(0.44446444104502236, 0.004333586733825899, 100017, 51631, 11278)),
    (_IR, 2, 10.0, 34, SimResult(1.9657833168361378, 0.015040985117033265, 100017, 87373, 325)),
    (_IR, 4, -5.0, 35, SimResult(0.20408530549806533, 0.0018081435682116903, 100017, 27180, 6166)),
    (_IR, 4, 0.0, 36, SimResult(0.4650184468640331, 0.0034469089413560086, 100017, 55064, 353)),
    (_IR, 4, 10.0, 37, SimResult(1.9578796604577222, 0.013697920970098391, 100017, 87429, 0)),
])
def test_plain_fast_results_are_pinned(combining, K, snr_db, seed, want):
    # exact values of the cycle kernel as it stood when plain moved onto it;
    # at -5 dB most cycles span several blocks
    chan = _chan(10.0 ** (snr_db / 10.0), seed=seed)
    assert simulate_plain(REGIONS, _harq(combining=combining, K=K), TABLE, chan,
                          10 ** 5 + 17, 3) == want


@pytest.mark.parametrize("combining, K, snr_db, seed, blocks, want", [
    (_RR, 1, -5.0, 40, 10 ** 5, SimResult(0.06029319763183594, 0.031179624435778232, 131072, 10537, 120535)),
    (_RR, 1, 10.0, 41, 10 ** 5, SimResult(2.1761226654052734, 0.18456550535831726, 131072, 115749, 15323)),
    (_RR, 2, -5.0, 42, 10 ** 5, SimResult(0.139491770138174, 0.04965622096106502, 251376, 39511, 91561)),
    (_RR, 2, 10.0, 43, 10 ** 5, SimResult(2.0611636554957387, 0.2056578827939922, 154287, 123223, 7849)),
    (_RR, 4, -5.0, 44, 10 ** 5, SimResult(0.19630175249886714, 0.035307777247912696, 413917, 70824, 60248)),
    (_RR, 4, 10.0, 45, 10 ** 5, SimResult(2.089298773443388, 0.2340806638559979, 161836, 127728, 3344)),
    (_IR, 1, -5.0, 46, 10 ** 5, SimResult(0.07106781005859375, 0.03822544639700372, 131072, 12420, 118652)),
    (_IR, 1, 10.0, 47, 10 ** 5, SimResult(2.200990676879883, 0.16812936807116358, 131072, 114170, 16902)),
    (_IR, 2, -5.0, 48, 10 ** 5, SimResult(0.14775445036395346, 0.049235626766587236, 251448, 42436, 88636)),
    (_IR, 2, 10.0, 49, 10 ** 5, SimResult(2.0376154878917188, 0.21819287420318723, 153102, 126329, 4743)),
    (_IR, 4, -5.0, 50, 10 ** 5, SimResult(0.19458693305323133, 0.03456900727323825, 413993, 74456, 56616)),
    (_IR, 4, 10.0, 51, 10 ** 5, SimResult(2.1240742629614555, 0.19481737081837047, 151396, 128747, 2325)),
    # several 256-draw steps
    (_IR, 2, 10.0, 53, 5 * 10 ** 5, SimResult(2.1148986054926255, 0.09671648938728772, 601410, 500543, 23745)),
])
def test_plain_slow_results_are_pinned(combining, K, snr_db, seed, blocks, want):
    # exact values of the slow-fading run-ratio engine as it stood when it
    # drew each step's uniforms in one (256, 512) array
    chan = _chan(10.0 ** (snr_db / 10.0), mode=FadingMode.SLOW, seed=seed)
    assert simulate_plain(REGIONS, _harq(combining=combining, K=K), TABLE, chan,
                          blocks, 3) == want


def test_packet_drop_slow_result_is_pinned():
    harq = _harq(K=3, variant=HarqVariant.PACKET_DROP)
    chan = _chan(10.0 ** 0.6, mode=FadingMode.SLOW, seed=52)
    assert simulate_packet_drop(REGIONS, harq, TABLE, chan, 10 ** 5, 3) == SimResult(
        1.2966667838667134, 0.14170832937143044, 171714, 122877, 8195)


def _packet_drop_pin_run(combining, K, snr_db, a_tilde, seed):
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    harq = _harq(combining=combining, K=K, variant=HarqVariant.PACKET_DROP)
    chan = _chan(10.0 ** (snr_db / 10.0), seed=seed)
    return simulate_packet_drop(amc_thresholds_exact(table), harq, table, chan, 10 ** 5 + 17, 3)


def _packet_drop_block_loop(regions, harq, table, channel, blocks, stream_id):
    """Reference: packet-drop HARQ walked block by block on the scalar
    per_at and mutual_information_inv, with the same draws and sums; for
    the plain variant the index-rise drop is off."""
    from harqlink.amc import classify
    from harqlink.channel import draw_exponential, make_stream
    from harqlink.coding import mutual_information_inv, per_at
    gen = make_stream(channel.seed, stream_id)
    rr, K = harq.combining is CombiningType.RR, harq.max_rounds
    drop_on_rise = harq.variant is HarqVariant.PACKET_DROP
    gammas = draw_exponential(gen, channel.avg_snr, blocks)
    l_hats = classify(gammas, regions)
    p_fresh = per_at(gammas, np.asarray(table.thresholds)[l_hats - 1], table.a_tilde).tolist()
    h = (gammas if rr else mutual_information(gammas)).tolist()
    l_hats, u = l_hats.tolist(), gen.random(blocks).tolist()
    reward, acked, drops, active = 0.0, 0, 0, False
    batch_rewards, batch_size = np.zeros(50), blocks // 50
    for i in range(blocks):
        if active and drop_on_rise and l_hats[i] > l1:
            drops, active = drops + 1, False
        if active:
            k, hsum = k + 1, hsum + h[i]
            p = per_at(hsum if rr else mutual_information_inv(hsum), table.thresholds[l1 - 1],
                       table.a_tilde)
            fail = u[i] < (p / prev if prev > 0.0 else 0.0)
        else:
            l1, hsum, k, p, active = l_hats[i], h[i], 1, p_fresh[i], True
            fail = u[i] < p
        if not fail:
            reward += table.rates[l1 - 1]
            batch_rewards[min(i // batch_size, 49)] += table.rates[l1 - 1]
            acked, active = acked + 1, False
        elif k >= K:
            drops, active = drops + 1, False
        else:
            prev = p
    ci = 3.0 * float(np.std(batch_rewards / batch_size, ddof=1)) / math.sqrt(50)
    return SimResult(reward / blocks, ci, blocks, acked, drops)


_BLOCK_LOOP_CASES = [
    (_IR, 1, 4.0, 4.0, 10 ** 5),
    (_RR, 1, 20.0, _INF, 10 ** 5),
    (_RR, 6, -5.0, 4.0, 2 ** 17 + 2),   # a last chunk shorter than K - 1
    (_IR, 6, 8.0, 2.5, 2 ** 17 + 2),
    (_IR, 4, 12.0, _INF, 2 ** 17 + 1),
    (_RR, 6, -5.0, 2.5, 7 * _CHUNK + 1),  # a last chunk of one block, K - 1 = 5
    (_IR, 4, 0.0, _INF, 7 * _CHUNK + 3),  # uniforms start mid Philox counter step
]


@pytest.mark.parametrize("combining, K, snr_db, a_tilde, blocks, variant", [
    # packet-drop ids are the bare parameters; plain ids end in "-plain"
    pytest.param(*case, variant, id="-".join(map(str, case)) + suffix)
    for variant, suffix in ((HarqVariant.PACKET_DROP, ""), (HarqVariant.PLAIN, "-plain"))
    for case in _BLOCK_LOOP_CASES
])
def test_packet_drop_matches_block_loop(combining, K, snr_db, a_tilde, blocks, variant):
    table = McsTable(rates=TABLE.rates, a_tilde=a_tilde)
    args = (amc_thresholds_exact(table), _harq(combining=combining, K=K, variant=variant),
            table, _chan(10.0 ** (snr_db / 10.0), seed=K), blocks, 5)
    engine = simulate_plain if variant is HarqVariant.PLAIN else simulate_packet_drop
    assert engine(*args) == _packet_drop_block_loop(*args)


@pytest.mark.parametrize("table, K", [(TABLE, 1), (McsTable(rates=(1.5,), a_tilde=4.0), 4)],
                         ids=["one-round", "one-rate"])
def test_plain_is_packet_drop_where_no_rise_can_fire(table, K):
    # with one round, or one rate, no index rise can end a cycle, so plain
    # is packet drop with the rise test off, field for field
    regions, chan = amc_thresholds_exact(table), _chan(10.0 ** 0.5, seed=12)
    plain = simulate_plain(regions, _harq(K=K), table, chan, 10 ** 5, 2)
    pd = simulate_packet_drop(regions, _harq(K=K, variant=HarqVariant.PACKET_DROP),
                              table, chan, 10 ** 5, 2)
    assert plain == pd
    assert pd.drops > 0


@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_packet_drop_one_round_is_amc(snr_db):
    # with K = 1 a failed first round is a drop, so every block ends a
    # cycle and the protocol is single-shot AMC
    from harqlink.amc import amc_throughput
    avg = 10.0 ** (snr_db / 10.0)
    res = simulate_packet_drop(REGIONS, _harq(K=1, variant=HarqVariant.PACKET_DROP),
                               TABLE, _chan(avg, seed=9), 10 ** 6, 4)
    assert abs(res.throughput - amc_throughput(REGIONS, TABLE, avg).value) <= res.ci_half_width
    assert res.drops > 0
    assert res.acked_packets + res.drops == res.blocks
    rr = simulate_packet_drop(REGIONS, _harq(CombiningType.RR, K=1, variant=HarqVariant.PACKET_DROP),
                              TABLE, _chan(avg, seed=9), 10 ** 6, 4)
    assert rr == res  # one round combines nothing


VL_HARQ = HarqConfig(combining=CombiningType.IR, max_rounds=4,
                     variant=HarqVariant.VARIABLE_LENGTH,
                     lengths_primary=(1.0, 0.5, 0.25), lengths_aux=(0.125,))
VL_TABLE = McsTable(rates=(0.75, 1.5, 3.0), a_tilde=4.0)


def test_vl_schedule_respects_budget_and_is_exhaustive():
    from itertools import product
    from harqlink.simulator import _VlContext
    ctx = _VlContext(VL_HARQ, VL_TABLE)
    buffer = [
        PacketState(harq_count=1, first_len=1.0, snr_sigma=0.3),
        PacketState(harq_count=2, first_len=0.5, snr_sigma=1.0),
        PacketState(),
        PacketState(),
    ] + [PacketState() for _ in range(ctx.buffer_cap - 4)]
    for gamma in (0.4, 2.0, 20.0):
        assign = vl_schedule(buffer, gamma, VL_HARQ, VL_TABLE, ctx)
        assert sum(assign) <= 1.0 + 1e-9
        got = _expected_acks(buffer, assign, gamma, ctx, VL_TABLE)
        # brute force over every feasible assignment of the two pending
        # packets plus fresh multisets
        lengths = (0.0,) + ctx.retx_lengths
        best = -1.0
        for a0, a1 in product(lengths, repeat=2):
            used = a0 + a1
            if used > 1.0 + 1e-9:
                continue
            counts_m, costs_m, _ = ctx.fresh_sets
            for counts, cost in zip(counts_m, costs_m):
                if used + cost / ctx.unit > 1.0 + 1e-9:
                    continue
                cand = [a0, a1] + [0.0] * (len(buffer) - 2)
                fresh = sorted(length for length, n in zip(ctx.primary, counts)
                               for _ in range(n))
                for slot, length in zip(range(2, 2 + len(fresh)), fresh):
                    cand[slot] = length
                best = max(best, _expected_acks(buffer, cand, gamma, ctx, VL_TABLE))
        assert got == pytest.approx(best, abs=1e-9)


def test_vl_schedule_without_ctx_builds_one_context(monkeypatch):
    from harqlink import simulator
    ctx = simulator._VlContext(VL_HARQ, VL_TABLE)
    built = []

    class Counted(simulator._VlContext):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    simulator._vl_context.cache_clear()
    monkeypatch.setattr(simulator, "_VlContext", Counted)
    buffer = [PacketState(harq_count=1, first_len=1.0, snr_sigma=0.3),
              PacketState(), PacketState(), PacketState()]
    try:
        for gamma in (0.4, 20.0):
            assert (vl_schedule(buffer, gamma, VL_HARQ, VL_TABLE)
                    == vl_schedule(buffer, gamma, VL_HARQ, VL_TABLE, ctx))
    finally:
        simulator._vl_context.cache_clear()
    assert built == [(VL_HARQ, VL_TABLE)]


def _expected_acks(buffer, assign, gamma, ctx, table):
    total = 0.0
    for pkt, length in zip(buffer, assign):
        if length == 0.0:
            continue
        if pkt.harq_count == 0:  # first transmission: aggregate is the block SNR
            total += 1.0 - per(ctx.len_to_l[length], gamma, table)
        else:
            l = ctx.len_to_l[pkt.first_len]
            total += 1.0 - _oracle_failure_probs(pkt, (length,), gamma, table, l)[0]
    return total


def test_vl_update_semantics():
    from harqlink.simulator import _VlContext
    ctx = _VlContext(VL_HARQ, VL_TABLE)
    last = PacketState(harq_count=VL_HARQ.max_rounds - 1, first_len=1.0,
                       snr_sigma=0.2)
    mid = PacketState(harq_count=1, first_len=0.5, snr_sigma=0.4)
    buffer = [last, mid] + [PacketState() for _ in range(ctx.buffer_cap - 2)]
    assign = [0.5, 0.25, 1.0] + [0.0] * (ctx.buffer_cap - 3)
    outcomes = [False, True, False] + [False] * (ctx.buffer_cap - 3)
    new, acked, drops = vl_update(buffer, assign, 1.0, outcomes, VL_HARQ)
    assert acked == 1  # the ACKed packet leaves the buffer
    assert drops == 1  # the budget-exhausted packet is discarded
    assert len(new) == ctx.buffer_cap  # refilled with fresh packets
    survivors = [p for p in new if p.harq_count > 0]
    assert len(survivors) == 1
    s = survivors[0]
    assert s.harq_count == 1 and s.first_len == 1.0
    # the failed first round folds its full mutual information in
    assert mutual_information(s.snr_sigma) == pytest.approx(
        mutual_information(1.0), rel=1e-12)


def test_vl_update_validates_alignment():
    with pytest.raises(ValueError):
        vl_update([PacketState()], [1.0, 0.5], 1.0, [True], VL_HARQ)


def test_vl_update_rejects_an_overfull_buffer():
    size = VL_HARQ.max_rounds * len(VL_HARQ.lengths_primary) + 1
    with pytest.raises(ValueError, match="capacity"):
        vl_update([PacketState()] * size, [0.0] * size, 1.0, [False] * size, VL_HARQ)


def test_vl_simulation_runs_and_beats_nothing_scheduled():
    res = simulate_vl(VL_HARQ, VL_TABLE, _chan(10.0), blocks=10 ** 5)
    assert 0.0 < res.throughput <= VL_TABLE.rates[-1]
    assert res.acked_packets > 0
    with pytest.raises(ValueError):
        simulate_vl(VL_HARQ, VL_TABLE, _chan(10.0, mode=FadingMode.SLOW),
                    blocks=10 ** 5)


DEFAULT_VL_HARQ = HarqConfig(combining=CombiningType.IR, max_rounds=4,
                             variant=HarqVariant.VARIABLE_LENGTH,
                             lengths_primary=(1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5),
                             lengths_aux=(1 / 8, 1 / 12, 1 / 16))
VL_ONE_ROUND = HarqConfig(combining=CombiningType.IR, max_rounds=1,
                          variant=HarqVariant.VARIABLE_LENGTH,
                          lengths_primary=(1.0, 0.5, 0.25), lengths_aux=(0.125,))
VL_STEP_TABLE = McsTable(rates=(0.75, 1.5, 3.0), a_tilde=math.inf)


@pytest.mark.parametrize("harq, table, avg, seed, stream, want", [
    (DEFAULT_VL_HARQ, TABLE, 10.0 ** 2.0, 10, 6,
     SimResult(3.4749225, 0.006262102578126587, 10 ** 5, 463323, 0)),
    (DEFAULT_VL_HARQ, TABLE, 10.0, 10, 6,
     SimResult(2.098695, 0.009540433182310041, 10 ** 5, 279826, 0)),
    (DEFAULT_VL_HARQ, TABLE, 1.0, 10, 6,
     SimResult(0.43497, 0.004386862983583449, 10 ** 5, 57996, 5)),
    (VL_HARQ, VL_TABLE, 10.0, 1, 0,
     SimResult(1.87611, 0.009789120731397555, 10 ** 5, 250148, 0)),
    (VL_HARQ, VL_TABLE, 1.0, 3, 0,
     SimResult(0.4297425, 0.004229747197178671, 10 ** 5, 57299, 4)),
    (VL_HARQ, VL_STEP_TABLE, 10.0, 2, 0,
     SimResult(2.06709, 0.009320295743971963, 10 ** 5, 275612, 0)),
    (VL_ONE_ROUND, VL_TABLE, 10.0 ** 0.5, 4, 0,
     SimResult(0.94272, 0.006021176532600146, 10 ** 5, 125696, 13085)),
], ids=["default-20db", "default-10db", "default-0db", "vl-10db", "vl-0db-drops",
        "vl-step-decoding", "vl-one-round"])
def test_vl_results_are_pinned(harq, table, avg, seed, stream, want):
    # exact values from the block-by-block engine that scheduled every
    # block with vl_schedule and drew one uniform per call
    assert simulate_vl(harq, table, _chan(avg, seed=seed), 10 ** 5, stream) == want


def _traced_peak(engine, *args) -> int:
    """Peak bytes that numpy and Python allocate during one engine call."""
    tracemalloc.start()
    try:
        engine(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("engine, variant, mode", [
    (simulate_plain, HarqVariant.PLAIN, FadingMode.FAST),
    (simulate_packet_drop, HarqVariant.PACKET_DROP, FadingMode.FAST),
    (simulate_plain, HarqVariant.PLAIN, FadingMode.SLOW),
], ids=["plain-fast", "drop-fast", "plain-slow"])
def test_engine_memory_does_not_grow_with_blocks(engine, variant, mode):
    # the draws and passes work one chunk at a time (slow fading: one row
    # block of SNR draws), so a run four times as long peaks no higher
    args = (REGIONS, _harq(variant=variant), TABLE, _chan(10.0, mode=mode, seed=3))
    engine(*args, 10 ** 5)  # caches filled outside the trace
    peaks = [_traced_peak(engine, *args, blocks) for blocks in (10 ** 5, 4 * 10 ** 5)]
    assert abs(peaks[1] - peaks[0]) <= 0.5 * 2 ** 20, peaks


class _DrawRecorder:
    """A generator that records the size of every `random` draw."""

    def __init__(self, gen, sizes: list):
        self.gen, self.sizes = gen, sizes

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def random(self, size=None):
        self.sizes.append(size)
        return self.gen.random(size)


def _record_draws(monkeypatch) -> tuple[list, list]:
    """Sizes of the engines' SNR-stream and uniform-cursor draws."""
    from harqlink import channel, simulator
    snr_sizes, u_sizes = [], []
    monkeypatch.setattr(simulator, "make_stream",
                        lambda *a: _DrawRecorder(channel.make_stream(*a), snr_sizes))
    monkeypatch.setattr(simulator, "_cursor_after",
                        lambda gen, k: _DrawRecorder(channel._cursor_after(gen, k), u_sizes))
    return snr_sizes, u_sizes


@pytest.mark.parametrize("variant", [HarqVariant.PLAIN, HarqVariant.PACKET_DROP])
def test_cycle_draws_are_chunk_sized(monkeypatch, variant):
    snr_sizes, u_sizes = _record_draws(monkeypatch)
    K, blocks = 4, 4 * 10 ** 5 + 3
    engine = simulate_plain if variant is HarqVariant.PLAIN else simulate_packet_drop
    engine(REGIONS, _harq(K=K, variant=variant), TABLE, _chan(10.0, seed=3), blocks)
    assert max(snr_sizes + u_sizes) <= _CHUNK + K - 1
    assert sum(snr_sizes) == sum(u_sizes) == blocks


def test_vl_draws_are_chunk_sized(monkeypatch):
    # a chunk of blocks draws its SNRs at once; the uniforms are drawn a
    # chunk ahead of the packets that read them, at most every fresh packet
    # of a chunk of blocks plus one chunk
    from harqlink.simulator import _VL_CHUNK, _vl_context
    snr_sizes, u_sizes = _record_draws(monkeypatch)
    simulate_vl(VL_HARQ, VL_TABLE, _chan(100.0, seed=3), 10 ** 5 + 3)
    most_packets = int(_vl_context(VL_HARQ, VL_TABLE).fresh_sets[2].max())
    assert max(snr_sizes) <= _VL_CHUNK and sum(snr_sizes) == 10 ** 5 + 3
    assert max(u_sizes) <= (most_packets + 1) * _VL_CHUNK


def _fresh_choice_switches(ctx, grid):
    """Both neighbouring floats at each SNR where the precomputed fresh
    choice changes between grid points.  For smooth PERs these are the
    points where a lower-ranked multiset's value comes within the 1e-12
    tie margin of the best one, so a last-bit difference between per_at's
    array path and vl_schedule's scalar per would show here first."""
    _, choice = ctx.fresh_chunk(grid)
    out = []
    for k in np.flatnonzero(np.diff(choice)):
        lo, hi = grid[k], grid[k + 1]
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if ctx.fresh_chunk(np.array([mid]))[1][0] == choice[k]:
                lo = mid
            else:
                hi = mid
        out += [lo, hi]
    return np.array(out)


@pytest.mark.parametrize("harq, table", [
    (VL_HARQ, VL_TABLE), (VL_HARQ, VL_STEP_TABLE), (DEFAULT_VL_HARQ, TABLE),
    (DEFAULT_VL_HARQ, McsTable(rates=TABLE.rates, a_tilde=math.inf)),
    (VL_ONE_ROUND, VL_TABLE),
], ids=["a4", "step", "default-a4", "default-step", "one-round"])
def test_all_fresh_shortcut_matches_scheduler(harq, table):
    from harqlink.simulator import _VlContext
    ctx = _VlContext(harq, table)
    # a log grid, every decoding threshold (where step decoding ties) and
    # both sides of every switch of the precomputed choice
    gammas = np.concatenate([np.geomspace(1e-3, 1e4, 300), table.thresholds,
                             _fresh_choice_switches(ctx, np.geomspace(1e-2, 1e5, 2000))])
    per_rows, choice = ctx.fresh_chunk(gammas)
    assert per_rows.shape == (gammas.size, len(ctx.primary))
    fresh = [PacketState() for _ in range(ctx.buffer_cap)]
    for g, j in zip(gammas.tolist(), choice.tolist()):
        lengths = list(ctx.fresh_lengths[j])
        want = [0.0] * (ctx.buffer_cap - len(lengths)) + lengths
        assert vl_schedule(fresh, g, harq, table, ctx) == want


def test_best_fresh_tie_rule():
    from harqlink.simulator import _VlContext
    ctx = _VlContext(VL_HARQ, VL_TABLE)
    counts_m, costs_m, npkts_m = ctx.fresh_sets
    half = costs_m <= ctx.unit // 2
    # success 1, 1, 1/2 for lengths 1, 1/2, 1/4: within half a block
    # {1/2} and {1/4, 1/4} tie at 1.0, and fewer packets win
    values = counts_m @ np.array([1.0, 1.0, 0.5])
    assert ctx.fresh_lengths[ctx.best_fresh(values, half)] == (0.5,)
    # one packet at equal success: the shorter length wins
    values = counts_m @ np.array([1.0, 0.5, 0.5])
    assert ctx.fresh_lengths[ctx.best_fresh(values, half & (npkts_m <= 1))] == (0.25,)


def _oracle_levels(ctx, values, slots):
    """The rule fresh_levels replaces: per cost level, best_fresh over the
    multisets with cost <= level and npkts <= slots, and their maximum."""
    _, costs_m, npkts_m = ctx.fresh_sets
    levels = np.array(sorted(set(costs_m.tolist())))
    masks = (costs_m <= levels[:, None]) & (npkts_m <= slots)
    return ctx.best_fresh(values, masks).tolist(), np.where(masks, values, -1.0).max(axis=1).tolist()


def _level_cases(ctx, rng):
    """Values at most each multiset's packet count, as success probabilities
    make them: random ones, those of success probabilities (exact ties when
    these are 0 or 1), and near-ties, at and one ulp on either side of 1e-12
    below another multiset's value."""
    m, k, npkts = len(ctx.fresh_lengths), len(ctx.primary), ctx.fresh_sets[2]
    cases = [rng.random(m) * npkts for _ in range(10)]
    cases += [ctx.fresh_counts @ p for p in
              [rng.random(k), np.ones(k), np.zeros(k), (rng.random(k) < 0.5) * 1.0] * 3]
    for _ in range(30):
        values = rng.random(m) * npkts
        for j in rng.permutation(m)[:m // 2]:
            cut = values[rng.integers(m)] - 1e-12
            near = (cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf))[rng.integers(3)]
            values[j] = min(near, npkts[j])
        cases.append(values)
    return cases


@pytest.mark.parametrize("harq, table", [(DEFAULT_VL_HARQ, TABLE), (VL_HARQ, VL_TABLE)],
                         ids=["default", "vl"])
def test_fresh_levels_equal_the_masked_rule(harq, table):
    # fresh_levels solves a level from prefix maxima by cost and a scan by
    # rank; the masks over every level and free-slot count must agree
    from harqlink.simulator import _VlContext
    ctx = _VlContext(harq, table)
    for values in _level_cases(ctx, np.random.default_rng(7)):
        for slots in range(21):
            want, top = _oracle_levels(ctx, values, slots)
            vals, bound, best = ctx.fresh_levels(values, slots)
            assert vals == values.tolist() and bound == top
            assert [best(level) for level in range(len(bound))] == want, (values, slots)


# ---------------------------------------------------------------------------
# scheduler oracle: the plain depth-first search that vl_schedule replaced,
# kept as the reference its assignments must equal
# ---------------------------------------------------------------------------


def _oracle_failure_probs(pkt, lengths, gamma, table, l):
    """Conditional failure probabilities f(h) of a retransmission of pkt
    with each of `lengths`, from the scalar per and the MI-domain fold."""
    from harqlink.coding import mutual_information_inv
    p_now = per(l, pkt.snr_sigma, table)
    if p_now <= 0.0:
        return [0.0] * len(lengths)
    return [per(l, mutual_information_inv(mutual_information(pkt.snr_sigma) + (length / pkt.first_len)
                                          * mutual_information(gamma)), table) / p_now
            for length in lengths]


def _oracle_vl_schedule(buffer, gamma, table, ctx):
    """Branch and bound over every pending packet's options, building and
    comparing the full (-total, scheduled, assignment) key of every leaf."""
    from bisect import bisect_right
    nonfresh_idx = [i for i, p in enumerate(buffer) if p.harq_count > 0]
    fresh_idx = [i for i, p in enumerate(buffer) if p.harq_count == 0]

    succ = np.array([1.0 - per(ctx.len_to_l[length], gamma, table) for length in ctx.primary])
    counts_m, costs_m, npkts_m = ctx.fresh_sets
    fresh_values = counts_m @ succ

    options = []
    for i in nonfresh_idx:
        pkt = buffer[i]
        fails = _oracle_failure_probs(pkt, ctx.retx_lengths, gamma, table,
                                      ctx.len_to_l[pkt.first_len])
        options.append([(length, ctx.units[length], 1.0 - f)
                        for length, f in zip(ctx.retx_lengths, fails)])
    opt_best = [max((v for _, _, v in opts), default=0.0) for opts in options]
    suffix_best = [0.0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + opt_best[i]

    n_slots = len(fresh_idx)
    levels = sorted(set(costs_m.tolist()))
    level_masks = costs_m <= np.array(levels)[:, None]
    best = ctx.best_fresh(fresh_values, level_masks & (npkts_m <= n_slots))
    level_best, level_value = best.tolist(), fresh_values[best].tolist()

    def level_of(cap_units):
        return bisect_right(levels, cap_units) - 1

    best_key = None
    best_assign = None

    def consider(nf_lengths, cap_units, value):
        nonlocal best_key, best_assign
        level = level_of(cap_units)
        total = value + level_value[level]
        if best_key is not None and -total > best_key[0]:
            return
        fresh_lens = ctx.fresh_lengths[level_best[level]]
        assign = [0.0] * len(buffer)
        for idx, length in zip(nonfresh_idx, nf_lengths):
            assign[idx] = length
        pad = [0.0] * (n_slots - len(fresh_lens)) + list(fresh_lens)
        for idx, length in zip(fresh_idx, pad):
            assign[idx] = length
        scheduled = sum(1 for a in assign if a > 0)
        key = (-total, scheduled, tuple(assign))
        if best_key is None or key < best_key:
            best_key, best_assign = key, assign

    def dfs(i, nf_lengths, cap_units, value):
        if best_key is not None:
            bound = value + suffix_best[i] + level_value[level_of(cap_units)]
            if bound < -best_key[0] - 1e-12:
                return
        if i == len(options):
            consider(nf_lengths, cap_units, value)
            return
        dfs(i + 1, nf_lengths + [0.0], cap_units, value)
        for length, units, val in options[i]:
            if units <= cap_units:
                dfs(i + 1, nf_lengths + [length], cap_units - units, value + val)

    dfs(0, [], ctx.unit, 0.0)
    return best_assign


def _random_buffers(ctx, table, max_pending, count, seed):
    """count (buffer, gamma) pairs.  The pending counts run through 0 ..
    max_pending four times and then cycle through 0 .. min(max_pending, 4);
    pending packets sit at random slots with aggregate SNRs on a log grid
    over 1e-3 .. 1e2 or at a decoding threshold, and gamma runs over a log
    grid over 1e-3 .. 1e4 and every decoding threshold."""
    rng = np.random.default_rng(seed)
    gammas = np.concatenate([np.geomspace(1e-3, 1e4, 97), table.thresholds]).tolist()
    sigmas = np.concatenate([np.geomspace(1e-3, 1e2, 61), table.thresholds]).tolist()
    for n in range(count):
        pending = n % (max_pending + 1) if n < 4 * (max_pending + 1) else n % min(max_pending + 1, 5)
        size = ctx.buffer_cap if n % 4 else int(rng.integers(pending, ctx.buffer_cap + 1))
        buffer = [PacketState() for _ in range(size)]
        for i in rng.permutation(size)[:pending].tolist():
            buffer[i] = PacketState(harq_count=int(rng.integers(1, 4)),
                                    first_len=ctx.primary[int(rng.integers(len(ctx.primary)))],
                                    snr_sigma=sigmas[int(rng.integers(len(sigmas)))])
        yield buffer, gammas[n % len(gammas)]


# The oracle's search is exponential in the pending count, while
# vl_schedule's DP is linear in it, so the oracle bounds the cases: the
# default config stops at 6 (full buffers are checked against a value-only
# optimum below).  The pending counts the default config's searches see
# (10^5 blocks, seed 10, stream 6) are {1: 10644, 2: 603, 3: 8} at 0 dB,
# {1: 15431, 2: 2311, 3: 225, 4: 12} at 10 dB and
# {1: 4136, 2: 649, 3: 84, 4: 11} at 20 dB.
@pytest.mark.parametrize("harq, table, max_pending", [
    (DEFAULT_VL_HARQ, TABLE, 6), (VL_HARQ, VL_TABLE, 12), (VL_HARQ, VL_STEP_TABLE, 12),
    (VL_ONE_ROUND, VL_TABLE, 3),
], ids=["default", "a4", "step", "one-round"])
def test_vl_schedule_equals_search_oracle(harq, table, max_pending):
    from harqlink.simulator import _VlContext
    ctx = _VlContext(harq, table)
    assert max_pending <= ctx.buffer_cap
    for buffer, gamma in _random_buffers(ctx, table, max_pending, 2000, seed=max_pending):
        assert (vl_schedule(buffer, gamma, harq, table, ctx)
                == _oracle_vl_schedule(buffer, gamma, table, ctx)), (buffer, gamma)


def test_vl_schedule_keeps_ties_that_round_together():
    # every option has value 1.0 but slot 6's shortest, 1 - 2^-51.  Sending
    # the shortest length in slots 3, 5, 6 and 7 and in two fresh packets of
    # 0.25 totals 3 - 2^-51 after slot 6 and 6.0 in the end, as does sending
    # slot 1 in place of slot 6, with 3.0 after slot 6: the smaller vector
    # wins.  A DP that kept only the best partial per count of units left
    # would drop the winner at slot 6
    from harqlink.simulator import _VlContext
    ctx = _VlContext(VL_HARQ, VL_TABLE)
    buffer = [PacketState() for _ in range(ctx.buffer_cap)]
    buffer[1] = buffer[7] = PacketState(harq_count=3, first_len=0.25, snr_sigma=26.10157215682533)
    buffer[3] = PacketState(harq_count=1, first_len=1.0, snr_sigma=68.12920690579608)
    buffer[5] = PacketState(harq_count=1, first_len=0.5, snr_sigma=10.0)
    buffer[6] = PacketState(harq_count=2, first_len=1.0, snr_sigma=5.62341325190349)
    gamma = 177.82794100389228
    want = [0.0, 0.0, 0.0, 0.125, 0.0, 0.125, 0.125, 0.125, 0.0, 0.0, 0.25, 0.25]
    assert _oracle_vl_schedule(buffer, gamma, VL_TABLE, ctx) == want
    assert vl_schedule(buffer, gamma, VL_HARQ, VL_TABLE, ctx) == want


def _value_optimum(buffer, gamma, table, ctx):
    """The most expected ACKs of any schedule within the unit budget, by a
    memoized recursion over (pending packet, units left) whose leaves take
    the best fresh value of the masked rule (`_oracle_levels`), with no
    tie-break."""
    from functools import lru_cache
    pending = [pkt for pkt in buffer if pkt.harq_count]
    options = [[(ctx.units[length], 1.0 - f) for length, f in zip(
        ctx.retx_lengths, _oracle_failure_probs(pkt, ctx.retx_lengths, gamma, table,
                                                ctx.len_to_l[pkt.first_len]))]
               for pkt in pending]
    succ = np.array([1.0 - per(ctx.len_to_l[length], gamma, table) for length in ctx.primary])
    _, top = _oracle_levels(ctx, ctx.fresh_counts @ succ, len(buffer) - len(pending))
    levels = sorted(set(ctx.fresh_sets[1].tolist()))

    @lru_cache(maxsize=None)
    def best(i, cap):
        if i == len(pending):
            return top[bisect_right(levels, cap) - 1]
        return max([best(i + 1, cap)] + [value + best(i + 1, cap - units)
                                         for units, value in options[i] if units <= cap])
    return best(0, ctx.unit)


@pytest.mark.parametrize("pending", [12, 20])
def test_vl_schedule_is_fast_and_optimal_on_full_buffers(pending):
    # the exhaustive search took 2-15 s per call at 12 pending packets of the
    # default config; the DP over the units left takes milliseconds
    from harqlink.simulator import _VlContext
    ctx = _VlContext(DEFAULT_VL_HARQ, TABLE)
    rng = np.random.default_rng(pending)
    gammas = np.geomspace(1e-3, 1e4, 97).tolist()
    sigmas = np.geomspace(1e-3, 1e2, 61).tolist()
    for _ in range(5):
        buffer = [PacketState() for _ in range(ctx.buffer_cap)]
        for i in rng.permutation(ctx.buffer_cap)[:pending].tolist():
            buffer[i] = PacketState(harq_count=int(rng.integers(1, 4)),
                                    first_len=ctx.primary[int(rng.integers(len(ctx.primary)))],
                                    snr_sigma=sigmas[int(rng.integers(len(sigmas)))])
        gamma = gammas[int(rng.integers(len(gammas)))]
        start = time.perf_counter()
        assign = vl_schedule(buffer, gamma, DEFAULT_VL_HARQ, TABLE, ctx)
        assert time.perf_counter() - start < 0.5
        assert sum(ctx.units[length] for length in assign if length) <= ctx.unit
        assert _expected_acks(buffer, assign, gamma, ctx, TABLE) == pytest.approx(
            _value_optimum(buffer, gamma, TABLE, ctx), abs=1e-9)
