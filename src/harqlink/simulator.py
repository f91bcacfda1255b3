"""Monte Carlo engines: plain AMC/HARQ cycles, packet-dropping HARQ, and
variable-length HARQ with per-block exhaustive scheduling.

Per-round outcomes follow the backward-implication error model: given the
previous rounds failed, round k fails with probability f_k / f_{k-1},
where f_k = PER(aggregate SNR after k rounds).  One uniform per block
(fast fading) or per cycle against the nested cascade (slow) reproduces it.

Every engine draws from one Philox stream per (seed, stream id), and its
memory does not grow with `blocks`.  The fast-fading contract is "every
block's SNR, then the uniforms", and the engines keep its values exactly
while holding one chunk of each: the SNRs come from the stream's own
cursor, and the uniforms from a second cursor that starts `blocks` draws
ahead (`channel._cursor_after`, O(1) on a counter-based generator).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .amc import DecisionRegions, classify
from .channel import (ChannelConfig, FadingMode, _cursor_after, draw_exponential,
                      make_stream)
from .coding import (CombiningType, McsTable, mutual_information,
                     mutual_information_inv, per_at)
from .harq_analysis import HarqConfig, HarqVariant, slow_cascades

_N_BATCHES = 50
_CHUNK = 1 << 14  # rows of a vectorized pass: fast-fading cycle starts


@dataclass
class PacketState:
    """Variable-length HARQ buffer entry.

    harq_count = 0 with snr_sigma = 0 marks a fresh packet.
    """

    harq_count: int = 0
    first_len: float = 0.0
    snr_sigma: float = 0.0


@dataclass(frozen=True)
class SimResult:
    """One Monte Carlo estimate: `throughput` in rate units per block, its
    3-sigma batch-means `ci_half_width`, the `blocks` simulated (exactly the
    requested count on the fast paths, at least it on the slow path, which
    runs whole cycles), the `acked_packets`, and the `drops`: packets
    abandoned without an ACK, by a K-th failure or, for packet drop, by an
    index rise."""

    throughput: float
    ci_half_width: float
    blocks: int
    acked_packets: int
    drops: int = 0


def _ci(ratios: np.ndarray) -> float:
    """3-sigma half width of the mean of _N_BATCHES batch estimates."""
    return 3.0 * float(np.std(ratios, ddof=1)) / math.sqrt(_N_BATCHES)


_SLOW_CYCLES_PER_DRAW = 512
_SLOW_ROWS = 32  # drawn SNRs whose cycles are evaluated at a time


def _simulate_slow_ratio(regions: DecisionRegions, K: int, combining: CombiningType,
                         table: McsTable, channel: ChannelConfig, blocks: int,
                         stream_id: int) -> SimResult:
    """Slow fading: the SNR stays fixed over many consecutive cycles, so the
    long-run throughput is the fading average of per-SNR cycle ratios.  Each
    drawn SNR is held for a run of cycles; the run ratios are averaged.
    RNG contract: each step draws 256 SNRs, then a (256, 512) array of
    uniforms, one per cycle, from the same stream.  The uniforms are drawn
    and tested in row blocks of _SLOW_ROWS draws, which yields the same
    values and per-row sums, so a step holds one row block at a time."""
    gen = make_stream(channel.seed, stream_id)
    rates = np.asarray(table.rates)
    m = _SLOW_CYCLES_PER_DRAW

    ratio_chunks = []
    total_rounds = 0
    acked = 0
    while total_rounds < blocks:
        n = 256
        g = draw_exponential(gen, channel.avg_snr, n)
        l_hat = classify(g, regions)
        f = slow_cascades(g, K, combining, table)[np.arange(n), l_hat - 1]
        r = rates[l_hat - 1]
        run_ratios = np.empty(n)
        for s in range(0, n, _SLOW_ROWS):
            rows = slice(s, s + _SLOW_ROWS)
            v = gen.random((_SLOW_ROWS, m))
            n_fail = (v[:, :, None] < f[rows, None, :]).sum(axis=2)
            success = n_fail < K
            rounds = np.where(success, n_fail + 1, K)
            reward = np.where(success, r[rows, None], 0.0)
            run_ratios[rows] = reward.sum(axis=1) / rounds.sum(axis=1)
            total_rounds += int(rounds.sum())
            acked += int(success.sum())
        ratio_chunks.append(run_ratios)

    ratios = np.concatenate(ratio_chunks)
    cut = (ratios.size // _N_BATCHES) * _N_BATCHES
    means = ratios[:cut].reshape(_N_BATCHES, -1).mean(axis=1)
    return SimResult(
        throughput=float(ratios.mean()),
        ci_half_width=_ci(means),
        blocks=total_rounds,
        acked_packets=acked,
        drops=ratios.size * m - acked,  # every drawn SNR runs m cycles
    )


def simulate_plain(regions: DecisionRegions, harq: HarqConfig, table: McsTable,
                   channel: ChannelConfig, blocks: int, stream_id: int = 0) -> SimResult:
    """Plain AMC-HARQ cycle simulation; the oracle for the analytic paths.
    It is packet drop with the index-rise test off (see `_simulate_cycles`)."""
    if harq.variant is not HarqVariant.PLAIN:
        raise ValueError("simulate_plain requires the plain variant")
    return _simulate_cycles(regions, harq, table, channel, blocks, stream_id)


def simulate_packet_drop(regions: DecisionRegions, harq: HarqConfig, table: McsTable,
                         channel: ChannelConfig, blocks: int, stream_id: int = 0) -> SimResult:
    """Packet-dropping HARQ: a cycle is abandoned as soon as the observed
    MCS index exceeds the first-round index, and the fresh cycle starts in
    the same block; it is also dropped when its K-th round fails, and the
    fresh cycle starts in the next block.  In slow fading the index never
    changes, so this is distributionally identical to the plain protocol.
    The RNG contract is that of `_simulate_cycles`."""
    if harq.variant is not HarqVariant.PACKET_DROP:
        raise ValueError("simulate_packet_drop requires the packet-drop variant")
    return _simulate_cycles(regions, harq, table, channel, blocks, stream_id)


def _simulate_cycles(regions: DecisionRegions, harq: HarqConfig, table: McsTable,
                     channel: ChannelConfig, blocks: int, stream_id: int) -> SimResult:
    """Plain or packet-drop HARQ cycles; only packet drop runs the index-rise
    test.  Fast-fading RNG contract: all block SNRs are drawn first, then one
    uniform per block, from the same stream.  The values are those of that
    order, but both are drawn chunk by chunk through two cursors: each
    chunk draws the SNRs and uniforms of its blocks and of the K - 1
    blocks past it that are not drawn yet, the uniforms from a cursor
    `blocks` draws ahead, and keeps the K - 1 for the next chunk.  Every
    block consumes its uniform whatever the protocol state, so the cycle
    that would start fresh at block i has an outcome fixed by blocks
    i .. i+K-1.  That outcome is computed for every i in vectorized passes
    over the chunks; the first round, where every start is live, runs on
    whole-chunk masks.  A walk follows the next-start pointers from block
    0, one step per multi-block cycle.  Rewards are added in block order,
    as a block-by-block loop adds them, and a failed K-th round (the
    first, for K = 1) is a drop.  The passes run on the array paths of `per_at` and
    `mutual_information_inv`, which can differ from the scalar paths in the
    last bit, so the result equals that of a block loop on the scalar paths
    unless a decision u < p_k / p_{k-1} or an aggregate-SNR threshold test
    falls within an ulp.
    """
    if blocks < 10 ** 5:
        raise ValueError("blocks must be >= 1e5")
    K = harq.max_rounds
    if channel.fading_mode is FadingMode.SLOW:
        # the observed index never changes within a cycle, so no drop ever
        # fires and the packet-drop protocol reduces to the plain one
        return _simulate_slow_ratio(regions, K, harq.combining, table, channel,
                                    blocks, stream_id)
    gen = make_stream(channel.seed, stream_id)
    rr = harq.combining is CombiningType.RR
    drop_on_rise = harq.variant is HarqVariant.PACKET_DROP
    thresholds = np.asarray(table.thresholds)
    rates = np.asarray(table.rates)
    ugen = _cursor_after(gen, blocks)  # the uniforms follow every block's SNR
    g = u = np.empty(0)  # the SNRs and uniforms drawn for blocks from c0 on

    reward = 0.0
    acked = 0
    drops = 0
    batch_rewards = np.zeros(_N_BATCHES)
    batch_size = blocks // _N_BATCHES
    pos = 0  # the block where the next fresh cycle starts

    for c0 in range(0, blocks, _CHUNK):
        n = min(_CHUNK, blocks - c0)
        i = np.arange(n)
        # the cycles starting in this chunk, and the K - 1 blocks they reach past it
        new = min(n + K - 1, blocks - c0) - g.size
        g = np.concatenate((g, draw_exponential(gen, channel.avg_snr, new)))
        u = np.concatenate((u, ugen.random(new)))
        l_hat = classify(g, regions)
        th = thresholds[l_hat - 1]
        p = per_at(g, th, table.a_tilde)
        h = g if rr else mutual_information(g)
        # per start: the block of the ACK or drop (-1 while unfinished past
        # the last block), whether it is an ACK, and the next fresh start.
        # Every start is live in the first round, so it runs on whole-chunk
        # masks; later rounds gather the starts still live.
        fail = u[:n] < p[:n]
        stop = ~fail if K > 1 else np.ones(n, dtype=bool)
        end = np.where(stop, i, -1)
        ack = ~fail
        nxt = np.where(stop, i + 1, blocks - c0)
        live = np.flatnonzero(fail)
        hsum, prev = h[live], p[live]
        for k in range(1, K):
            on = live + k < g.size  # the others stay unfinished
            live, hsum, prev = live[on], hsum[on], prev[on]
            j = live + k
            if drop_on_rise:
                rise = l_hat[j] > l_hat[live]  # a drop, and a fresh start in this block
                end[live[rise]] = nxt[live[rise]] = j[rise]
                live, hsum, prev, j = live[~rise], hsum[~rise], prev[~rise], j[~rise]
            hsum = hsum + h[j]
            p_k = per_at(hsum if rr else mutual_information_inv(hsum), th[live], table.a_tilde)
            cond = np.divide(p_k, prev, out=np.zeros_like(p_k), where=prev > 0.0)
            fail = u[j] < cond
            stop = ~fail if k < K - 1 else np.ones_like(fail)
            end[live[stop]] = j[stop]
            ack[live[stop]] = ~fail[stop]
            nxt[live[stop]] = j[stop] + 1
            live, hsum, prev = live[fail], hsum[fail], p_k[fail]

        # the walk steps once per multi-block cycle (next start != i + 1);
        # every start between two of them is a one-block cycle, so visited
        first = memoryview(np.minimum.accumulate(np.where(nxt != i + 1, i, n)[::-1])[::-1])
        step = memoryview(nxt)
        s0 = s = pos - c0
        hops = []
        while s < n and (q := first[s]) < n:
            hops.append(q)
            s = step[q]
        pos = c0 + max(s, n)  # s < n: one-block cycles run to the chunk's end
        g, u = g[n:], u[n:]
        hops = np.array(hops, dtype=np.intp)
        # no cycle starts strictly inside a walked multi-block cycle
        inside = np.zeros(n + 1, dtype=np.int8)
        inside[hops + 1], inside[np.minimum(nxt[hops], n)] = 1, -1
        walk = np.flatnonzero(np.cumsum(inside[:n]) == 0)
        walk = walk[walk >= s0]
        won = walk[ack[walk]]
        r = rates[l_hat[won] - 1]
        acked += won.size
        drops += int(np.count_nonzero(end[walk] >= 0)) - won.size
        # left to right, in block order, as the block loop adds them; add.at
        # is unbuffered and in order, so a batch across chunks sums the same
        reward = float(np.cumsum(np.concatenate(([reward], r)))[-1])
        np.add.at(batch_rewards, np.minimum((c0 + end[won]) // batch_size, _N_BATCHES - 1), r)

    return SimResult(
        throughput=reward / blocks,
        ci_half_width=_ci(batch_rewards / batch_size),
        blocks=blocks,
        acked_packets=acked,
        drops=drops,
    )


# ---------------------------------------------------------------------------
# variable-length HARQ
# ---------------------------------------------------------------------------


class _VlContext:
    """Precomputed scheduling machinery for one (harq, table) pair."""

    def __init__(self, harq: HarqConfig, table: McsTable):
        if harq.variant is not HarqVariant.VARIABLE_LENGTH:
            raise ValueError("variable-length context requires the VL variant")
        self.table = table
        r1 = table.rates[0]
        self.primary = tuple(harq.lengths_primary)
        self.retx_lengths = tuple(sorted(set(self.primary) | set(harq.lengths_aux), reverse=True))
        # map primary length -> MCS index via l = R_1 / (length * R_1) = R_1/N_b ...
        self.len_to_l = {}
        for length in self.primary:
            target = r1 / length
            l = min(range(1, table.num_rates + 1), key=lambda j: abs(table.rates[j - 1] - target))
            if abs(table.rates[l - 1] - target) > 1e-9 * target:
                raise ValueError(f"primary length {length} matches no rate in the table")
            self.len_to_l[length] = l
        # integer capacity units
        denom = 1
        for length in self.retx_lengths:
            denom = math.lcm(denom, Fraction(length).limit_denominator(10 ** 6).denominator)
        self.unit = denom
        self.units = {length: round(length * denom) for length in self.retx_lengths}
        self.buffer_cap = harq.max_rounds * len(self.primary)
        # all fresh multisets (counts per primary length) fitting in one block
        cost = np.array([self.units[length] for length in self.primary])
        counts_m = np.array(list(product(*(range(self.unit // c + 1) for c in cost))))
        counts_m = counts_m[counts_m @ cost <= self.unit]
        costs_m, npkts_m = counts_m @ cost, counts_m.sum(axis=1)
        self.fresh_sets = (counts_m, costs_m, npkts_m)
        self.fresh_lengths = [tuple(sorted(length for length, n in zip(self.primary, c)
                                           for _ in range(n))) for c in counts_m]
        # tie-break rank: fewer packets, then the lexicographically smallest
        # sorted length list
        order = sorted(range(len(counts_m)), key=lambda j: (npkts_m[j], self.fresh_lengths[j]))
        self.fresh_rank = np.empty(len(order), dtype=np.intp)
        self.fresh_rank[order] = np.arange(len(order))
        self.primary_th = [table.thresholds[self.len_to_l[length] - 1] for length in self.primary]
        self.primary_thresholds = np.array(self.primary_th)
        self.full_mask = npkts_m <= self.buffer_cap  # every multiset fits the budget
        # the capacity left moves the best fresh multiset only at the
        # distinct multiset costs, its levels; per count of free buffer
        # slots, the multisets of each level that fit them
        self.cost_levels = sorted(set(costs_m.tolist()))
        level_masks = costs_m <= np.array(self.cost_levels)[:, None]
        self.slot_masks = [level_masks & (npkts_m <= slots) for slots in range(self.buffer_cap + 1)]
        self.retx_options = [(length, self.units[length]) for length in self.retx_lengths]
        self.retx_index = {length: k for k, length in enumerate(self.retx_lengths)}
        # the per_rows column of each primary length and, per multiset, of
        # each of its packets in the order of fresh_lengths, padded with 0
        self.primary_col = {length: c for c, length in enumerate(self.primary)}
        self.fresh_cols = np.zeros((len(counts_m), max(npkts_m.max(), 1)), dtype=np.intp)
        for j, lengths in enumerate(self.fresh_lengths):
            self.fresh_cols[j, :len(lengths)] = [self.primary_col[length] for length in lengths]

    def best_fresh(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Index of the best fresh multiset along the last axis of values
        among those in mask: the lowest rank within 1e-12 of the maximum."""
        vals = np.where(mask, values, -1.0)
        top = vals.max(axis=-1, keepdims=True)
        ranks = np.where(vals >= top - 1e-12, self.fresh_rank, len(self.fresh_rank))
        return ranks.argmin(axis=-1)

    def fresh_chunk(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-block PERs of the primary lengths, shape (blocks, primaries),
        and each block's best fresh multiset under the full block budget
        and buffer capacity."""
        per_rows = per_at(gammas[:, None], self.primary_thresholds, self.table.a_tilde)
        values = (1.0 - per_rows) @ self.fresh_sets[0].T
        return per_rows, self.best_fresh(values, self.full_mask)


@lru_cache(maxsize=8)
def _vl_context(harq: HarqConfig, table: McsTable) -> _VlContext:
    """The _VlContext of one (harq, table) pair, built once and shared; no
    caller modifies it."""
    return _VlContext(harq, table)


def _vl_aggregate(snr_sigma: float, length: float, first_len: float, gamma: float) -> float:
    """Aggregate SNR after folding a round of `length` at SNR gamma into
    snr_sigma: MI^{-1}(MI(sigma) + (length / first_len) MI(gamma))."""
    return mutual_information_inv(
        mutual_information(snr_sigma) + (length / first_len) * mutual_information(gamma))


def _vl_retx(buffer: list[PacketState], gamma: float, ctx: _VlContext) -> list:
    """Per buffer entry, None for a fresh packet; for a pending one, the
    aggregate SNR after a retransmission with each of ctx.retx_lengths at
    SNR gamma (as `_vl_aggregate` folds it) and the conditional failure
    probability f = PER(aggregate) / PER(now) of each, all 0 when the packet
    cannot fail.  MI(gamma) is taken once, MI(sigma) once per packet."""
    a_tilde, mi_gamma = ctx.table.a_tilde, mutual_information(gamma)

    def options(pkt: PacketState) -> tuple[list[float], list[float]]:
        th = ctx.table.thresholds[ctx.len_to_l[pkt.first_len] - 1]
        mi_sigma = mutual_information(pkt.snr_sigma)
        aggs = [mutual_information_inv(mi_sigma + (length / pkt.first_len) * mi_gamma)
                for length in ctx.retx_lengths]
        p_now = per_at(pkt.snr_sigma, th, a_tilde)
        if p_now <= 0.0:
            return aggs, [0.0] * len(aggs)
        return aggs, [per_at(x, th, a_tilde) / p_now for x in aggs]

    return [None if pkt.harq_count == 0 else options(pkt) for pkt in buffer]


def vl_schedule(buffer: list[PacketState], gamma: float, harq: HarqConfig,
                table: McsTable, ctx: _VlContext | None = None,
                retx: list | None = None) -> list[float]:
    """Length assignment maximizing the expected number of decoded packets
    this block, subject to the unit block budget.

    Exhaustive over retransmission candidates (branch and bound keeps it
    exact); interchangeable fresh packets are covered by enumerating all
    feasible fresh multisets.  Ties prefer fewer scheduled packets, then
    the lexicographically smallest assignment vector.  `retx` is
    `_vl_retx(buffer, gamma, ctx)`, when the caller has it already.
    """
    if ctx is None:
        ctx = _vl_context(harq, table)
    if len(buffer) > ctx.buffer_cap:
        raise ValueError("buffer exceeds its capacity")
    if retx is None:
        retx = _vl_retx(buffer, gamma, ctx)
    pending = [i for i, r in enumerate(retx) if r is not None]
    fresh_idx = [i for i, r in enumerate(retx) if r is None]

    a_tilde = ctx.table.a_tilde
    succ = np.array([1.0 - per_at(gamma, th, a_tilde) for th in ctx.primary_th])
    counts_m, _, npkts_m = ctx.fresh_sets
    fresh_values = counts_m @ succ
    # the best fresh multiset is a step function of the capacity left: it
    # changes only at the distinct multiset costs, so solve each level once
    best = ctx.best_fresh(fresh_values, ctx.slot_masks[len(fresh_idx)])
    level_best, level_value = best.tolist(), fresh_values[best].tolist()
    level_count = npkts_m[best].tolist()
    levels = ctx.cost_levels

    # per pending packet, the value 1 - f of each retransmission length
    values = [[1.0 - f for f in retx[i][1]] for i in pending]
    n = len(values)
    suffix_best = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + max(values[i])
    options = ctx.retx_options

    def assignment(nf_lengths, level: int) -> list[float]:
        assign = [0.0] * len(buffer)
        for idx, length in zip(pending, nf_lengths):
            assign[idx] = length
        fresh_lens = ctx.fresh_lengths[level_best[level]]
        for idx, length in zip(fresh_idx[len(fresh_idx) - len(fresh_lens):], fresh_lens):
            assign[idx] = length
        return assign

    # the best leaf so far: (-total, scheduled, pending packets' lengths,
    # fresh level).  An exact tie of the first two goes to the smaller
    # assignment vector; when both leaves take the same fresh multiset the
    # vectors differ only at the pending packets, in buffer order, so only
    # other ties build them
    top = None

    def leaf(nf_lengths, level: int, total: float, scheduled: int):
        """Keep a leaf whose total does not lose if it beats the best."""
        nonlocal top
        if top is not None:
            key = (-total, scheduled)
            if key > top[:2]:
                return
            if key == top[:2]:
                if level_best[level] == level_best[top[3]]:
                    if nf_lengths >= top[2]:
                        return
                elif assignment(nf_lengths, level) >= assignment(top[2], top[3]):
                    return
        top = (-total, scheduled, nf_lengths, level)

    def dfs(i: int, nf_lengths: list[float], cap_units: int, value: float, scheduled: int):
        if top is not None:
            bound = value + suffix_best[i] + level_value[bisect_right(levels, cap_units) - 1]
            if bound < -top[0] - 1e-12:
                return
        if i < n - 1:
            dfs(i + 1, nf_lengths + [0.0], cap_units, value, scheduled)  # unscheduled
            for (length, units), val in zip(options, values[i]):
                if units <= cap_units:
                    dfs(i + 1, nf_lengths + [length], cap_units - units, value + val,
                        scheduled + 1)
            return
        # the last pending packet, in one flat loop: a leaf's bound is its
        # total, so a leaf goes on only if its total does not lose
        level = bisect_right(levels, cap_units) - 1
        total = value + level_value[level]
        if top is None or total >= -top[0]:
            leaf(nf_lengths + [0.0], level, total, scheduled + level_count[level])
        for (length, units), val in zip(options, values[i]):
            if units <= cap_units:
                level = bisect_right(levels, cap_units - units) - 1
                total = value + val + level_value[level]
                if top is None or total >= -top[0]:
                    leaf(nf_lengths + [length], level, total, scheduled + 1 + level_count[level])

    if n:
        dfs(0, [], ctx.unit, 0.0, 0)
    else:
        level = bisect_right(levels, ctx.unit) - 1
        leaf([], level, level_value[level], level_count[level])
    best_assign = assignment(top[2], top[3])
    assert sum(best_assign) <= 1.0 + 1e-9
    return best_assign


def vl_update(buffer: list[PacketState], assignment: list[float], gamma: float,
              outcomes: list[bool], harq: HarqConfig,
              folded: list[float | None] | None = None) -> tuple[list[PacketState], int, int]:
    """Apply per-packet ACK/NACK outcomes; returns (new buffer, acked, drops).

    ACK removes the packet; NACK folds the round into the aggregate SNR
    and increments the round counter, discarding the packet once the round
    budget is spent.  The buffer is topped up with fresh packets, to
    max_rounds packets per primary length.  `folded` holds, per entry, the
    aggregate SNR after this round where the caller has it already (None
    elsewhere).
    """
    if not (len(assignment) == len(outcomes) == len(buffer)):
        raise ValueError("assignment/outcomes must align with the buffer")
    acked = 0
    drops = 0
    new_buffer: list[PacketState] = []
    for pkt, length, ack, snr_prime in zip(buffer, assignment, outcomes,
                                           folded or [None] * len(buffer)):
        if length == 0.0:
            new_buffer.append(pkt)
            continue
        if ack:
            acked += 1
            continue
        if pkt.harq_count < harq.max_rounds - 1:
            first_len = pkt.first_len if pkt.harq_count > 0 else length
            if snr_prime is None:
                snr_prime = _vl_aggregate(pkt.snr_sigma, length, first_len, gamma)
            new_buffer.append(PacketState(harq_count=pkt.harq_count + 1,
                                          first_len=first_len,
                                          snr_sigma=snr_prime))
        else:
            drops += 1
    cap = harq.max_rounds * len(harq.lengths_primary)
    new_buffer += [PacketState() for _ in range(cap - len(new_buffer))]
    return new_buffer, acked, drops


_VL_CHUNK = 1024


def simulate_vl(harq: HarqConfig, table: McsTable, channel: ChannelConfig,
                blocks: int, stream_id: int = 0) -> SimResult:
    """Variable-length HARQ over fast fading; throughput is R_1 bits per
    ACKed packet per block.

    RNG contract: all block SNRs are drawn first, then one uniform per
    scheduled packet, in buffer order, from the same stream.  The values
    are those of that order, but both are drawn through two cursors: the
    SNRs one chunk of blocks at a time, and the uniforms, from a cursor
    `blocks` draws ahead, into an array as needed; reading them from it
    yields the same values as one draw per packet.  A block whose buffer
    holds only fresh packets skips `vl_schedule`: with no retransmission
    candidates the schedule is the best fresh multiset under the full
    budget, which is precomputed for blocks in chunks.  A run of such
    blocks reads its uniforms at offsets that are a cumsum of the
    multisets' packet counts, so one compare of the run's uniforms against
    its packets' PERs finds the first NACK.  The blocks before it ACK every packet and are
    committed at once; the NACK block goes through `vl_update`, and each
    block after it that holds pending packets through `vl_schedule` and
    `vl_update`.  The precomputation runs on `per_at`'s array path, which
    can differ from `vl_schedule`'s scalar path in the last bit, so the two
    choices agree unless two fresh multisets' values fall within an ulp of
    the 1e-12 tie margin of each other.
    """
    if channel.fading_mode is not FadingMode.FAST:
        raise ValueError("variable-length HARQ is simulated for fast fading only")
    if blocks < 10 ** 5:
        raise ValueError("blocks must be >= 1e5")
    ctx = _vl_context(harq, table)
    gen = make_stream(channel.seed, stream_id)
    ugen = _cursor_after(gen, blocks)  # the uniforms follow every block's SNR
    u, upos = np.empty(0), 0  # the uniforms drawn so far, and the next unread one

    def ahead(m: int) -> np.ndarray:
        """The next m unread uniforms, drawn as needed; reading them does
        not consume them."""
        nonlocal u, upos
        if u.size - upos < m:
            u, upos = np.concatenate((u[upos:], ugen.random(m + _VL_CHUNK))), 0
        return u[upos:upos + m]

    r1 = table.rates[0]
    npkts_m = ctx.fresh_sets[2]
    fresh_buffer = [PacketState() for _ in range(ctx.buffer_cap)]
    # per fresh multiset: its full-buffer assignment, as vl_schedule pads it
    fresh_assign = [[0.0] * (ctx.buffer_cap - len(lengths)) + list(lengths)
                    for lengths in ctx.fresh_lengths]

    buffer = None  # None: every packet in the buffer is fresh
    drops = 0
    batch_acked = np.zeros(_N_BATCHES, dtype=np.int64)
    batch_size = blocks // _N_BATCHES

    for start in range(0, blocks, _VL_CHUNK):
        g_chunk = draw_exponential(gen, channel.avg_snr, min(_VL_CHUNK, blocks - start))
        n = g_chunk.size
        per_rows, choice = ctx.fresh_chunk(g_chunk)
        # the packets of every block's fresh multiset, flat in block order:
        # block b's are first[b] .. first[b + 1] - 1
        counts = npkts_m[choice]
        first = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(n), counts)
        fresh_pers = per_rows[owner, ctx.fresh_cols[choice[owner], np.arange(first[-1]) - first[owner]]]
        g_list, first, choice = g_chunk.tolist(), first.tolist(), choice.tolist()
        acked = np.zeros(n, dtype=np.int64)  # per block of the chunk
        b = 0
        while b < n:
            if buffer is None:
                # all fresh from block b: the run's packets read the next
                # uniforms in order, and the first NACK ends the run
                lo = first[b]
                run = first[n] - lo
                nack = ahead(run) < fresh_pers[lo:]
                k = int(nack.argmax()) if run else 0
                stop = int(owner[lo + k]) if run and nack[k] else n
                acked[b:stop] = counts[b:stop]
                if stop == n:
                    upos += run
                    break
                # the NACK block, whose schedule is the precomputed choice
                b = stop
                oks = (~nack[first[b] - lo:first[b + 1] - lo]).tolist()
                upos += first[b + 1] - lo
                outcomes = [False] * (ctx.buffer_cap - len(oks)) + oks
                buffer, n_acked, dropped = vl_update(fresh_buffer, fresh_assign[choice[b]],
                                                     g_list[b], outcomes, harq)
            else:
                g = g_list[b]
                retx = _vl_retx(buffer, g, ctx)
                assign = vl_schedule(buffer, g, harq, table, ctx, retx)
                scheduled = [i for i, length in enumerate(assign) if length != 0.0]
                fresh_per = per_rows[b].tolist()
                outcomes, folded = [False] * len(assign), [None] * len(assign)
                for i, v in zip(scheduled, ahead(len(scheduled)).tolist()):
                    length, r = assign[i], retx[i]
                    if r is None:
                        f = fresh_per[ctx.primary_col[length]]
                    else:  # the scheduler's failure probability and fold
                        k = ctx.retx_index[length]
                        f, folded[i] = r[1][k], r[0][k]
                    outcomes[i] = v >= f
                upos += len(scheduled)
                buffer, n_acked, dropped = vl_update(buffer, assign, g, outcomes, harq, folded)
            drops += dropped
            if not any([pkt.harq_count for pkt in buffer]):
                buffer = None
            acked[b] = n_acked
            b += 1
        # the last batch takes the remainder of the blocks
        np.add.at(batch_acked, np.minimum((start + np.arange(n)) // batch_size, _N_BATCHES - 1),
                  acked)

    acked_total = int(batch_acked.sum())
    return SimResult(
        throughput=r1 * acked_total / blocks,
        ci_half_width=_ci(r1 * batch_acked.astype(float) / batch_size),
        blocks=blocks,
        acked_packets=acked_total,
        drops=drops,
    )
