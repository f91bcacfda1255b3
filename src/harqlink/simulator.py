"""Monte Carlo engines: plain AMC/HARQ cycles, packet-dropping HARQ, and
variable-length HARQ with per-block optimal scheduling (a knapsack DP).

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
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .amc import DecisionRegions, classify
from .channel import (ChannelConfig, FadingMode, _cursor_after, draw_exponential,
                      make_stream)
from .coding import CombiningType, McsTable, mutual_information, mutual_information_inv, per_at
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
        self.fresh_counts = counts_m.astype(float)  # the products are counts_m's, bit for bit
        self.fresh_lengths = [tuple(sorted(length for length, n in zip(self.primary, c)
                                           for _ in range(n))) for c in counts_m]
        # tie-break rank: fewer packets, then the smallest sorted length list
        order = sorted(range(len(counts_m)), key=lambda j: (npkts_m[j], self.fresh_lengths[j]))
        self.order = np.array(order)
        self.fit = np.array([j for j in order if npkts_m[j] <= self.buffer_cap])  # by rank
        self.primary_th = [table.thresholds[self.len_to_l[length] - 1] for length in self.primary]
        # the best fresh multiset moves only at the multiset costs, its levels.  Per count of
        # free slots, the fitting multisets by cost with each level's last, and by rank per level
        levels = sorted(set(costs_m.tolist()))
        self.level_at = [bisect_right(levels, c) - 1 for c in range(self.unit + 1)]
        self.npkts, self.by_cost, self.level_end, self.by_rank = npkts_m.tolist(), [], [], []
        for slots in range(max(self.npkts) + 1):
            fit = [j for j in order if self.npkts[j] <= slots]
            self.by_cost.append(np.array(sorted(fit, key=lambda j: costs_m[j]), dtype=np.intp))
            self.level_end.append(np.searchsorted(costs_m[self.by_cost[-1]], levels, "right") - 1)
            self.by_rank.append([[[j for j in fit if costs_m[j] <= level and self.npkts[j] == k]
                                  for k in range(slots + 1)] for level in levels])
        # (length, units, scheduled): not sending a pending packet, then each length
        self.retx_options = [(0.0, 0, 0)] + [(x, self.units[x], 1) for x in self.retx_lengths]
        self.ratios = {first: [x / first for x in self.retx_lengths] for first in self.primary}
        # the per_rows column of each primary length and, per multiset, of
        # each of its packets in the order of fresh_lengths, padded with 0
        col = {length: c for c, length in enumerate(self.primary)}
        self.fresh_cols = np.zeros((len(counts_m), max(npkts_m.max(), 1)), dtype=np.intp)
        for j, lengths in enumerate(self.fresh_lengths):
            self.fresh_cols[j, :len(lengths)] = [col[length] for length in lengths]

    def best_fresh(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Index of the best fresh multiset along the last axis of values
        among those in mask: the lowest rank within 1e-12 of the maximum."""
        return self.order[_first_top(np.where(mask, values, -1.0)[..., self.order], -1)]

    def fresh_levels(self, fresh_values: np.ndarray, slots: int) -> tuple:
        """Per level, the maximum value (a prefix maximum by cost) of the multisets
        that fit `slots` free slots, and best(level): the first by rank within 1e-12
        of it, solved once from the packet counts that can reach it (values are <= counts)."""
        slots = min(slots, len(self.by_cost) - 1)
        bound = np.maximum.accumulate(fresh_values[self.by_cost[slots]])[self.level_end[slots]]
        vals, bound, by_rank, found = fresh_values.tolist(), bound.tolist(), self.by_rank[slots], {}

        def best(level: int) -> int:
            if level not in found:
                cut = bound[level] - 1e-12
                found[level] = next(j for group in by_rank[level][max(math.ceil(cut - 1e-9), 0):]
                                    for j in group if vals[j] >= cut)
            return found[level]
        return vals, bound, best

    def fresh_chunk(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-block PERs of the primary lengths, shape (blocks, primaries),
        and each block's best fresh multiset under the full budget and buffer
        capacity: `best_fresh`'s rule, on one row of values per multiset by rank."""
        per_rows = per_at(gammas[:, None], np.array(self.primary_th), self.table.a_tilde)
        return per_rows, self.fit[_first_top(self.fresh_counts[self.fit] @ (1.0 - per_rows).T, 0)]


def _first_top(by_rank: np.ndarray, axis: int) -> np.ndarray:
    """Along `axis` of values in rank order, the first within 1e-12 of the maximum."""
    return (by_rank >= by_rank.max(axis=axis, keepdims=True) - 1e-12).argmax(axis=axis)


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


class _Pending:
    """A pending packet with what changes only when a round is folded in:
    its threshold, MI and PER at its aggregate SNR, and length ratios."""

    def __init__(self, ctx: _VlContext, harq_count: int, first_len: float, snr_sigma: float):
        self.harq_count, self.first_len, self.snr_sigma = harq_count, first_len, snr_sigma
        self.th = ctx.table.thresholds[ctx.len_to_l[first_len] - 1]
        self.p_now = per_at(snr_sigma, self.th, ctx.table.a_tilde)  # checks snr_sigma >= 0
        self.mi, self.ratios = mutual_information(snr_sigma), ctx.ratios[first_len]

    def options(self, mi_gamma: float, a_tilde: float) -> tuple[list[float], list[float]]:
        """Per ctx.retx_lengths, the aggregate SNR after a round at MI(gamma) =
        mi_gamma and f = PER(aggregate) / PER(now), 0 if the packet cannot
        fail, on the scalar paths of `mutual_information_inv` and `per_at`
        (`_vl_aggregate`'s arithmetic; a fold past 1024 bits is inf)."""
        mi, th, p_now = self.mi, self.th, self.p_now
        aggs = [mutual_information_inv(mi + r * mi_gamma) for r in self.ratios]
        return aggs, [per_at(x, th, a_tilde) / p_now if p_now > 0.0 else 0.0 for x in aggs]


def _vl_slots(positions: list[int], lens: list[float], fresh_lens, size: int) -> list:
    """(slot, pending index or None, length), in buffer order, of the pending
    packets at `positions` with `lens` (0: unscheduled) and of the fresh
    packets of `fresh_lens`, which take the last free slots, in order."""
    out, k, x = [], len(positions) - 1, size - 1
    for length in reversed(fresh_lens):
        while k >= 0 and positions[k] == x:
            out.append((x, k, lens[k]))
            k, x = k - 1, x - 1
        out.append((x, None, length))
        x -= 1
    return [(positions[i], i, lens[i]) for i in range(k + 1)] + out[::-1]


def _vl_vector(positions: list[int], lens: list[float], fresh_lens, size: int) -> list[float]:
    """The length of every slot of the buffer under a schedule."""
    vector = [0.0] * size
    for x, _, length in _vl_slots(positions, lens, fresh_lens, size):
        vector[x] = length
    return vector


def _vl_search(ctx: _VlContext, fails: list[list[float]], positions: list[int], size: int,
               gamma: float) -> tuple[list[float], int]:
    """The schedule (a length per pending packet, 0 unscheduled, and a fresh
    multiset) of `size` slots with pending packets at `positions`, given f
    per ctx.retx_lengths: a multiple-choice knapsack DP over the pending
    packets and the units left, the fresh packets in the best multiset that
    fits what is left (`fresh_levels`, solved only where a leaf could win).

    Partials with the same units left get the same completions, fresh
    multiset included, so their tie-break on the vector compares the pending
    lengths.  Totals, summed in packet order, are at most `size`: the at
    most n + 1 roundings of a completion (n pending packets) cannot close a
    gap above `slack`, but within it two totals can round to one, so each
    count keeps its front."""
    succ = [1.0 - per_at(gamma, th, ctx.table.a_tilde) for th in ctx.primary_th]
    vals, bound, fresh = ctx.fresh_levels(ctx.fresh_counts.dot(succ), size - len(positions))
    npkts, level_at, options = ctx.npkts, ctx.level_at, ctx.retx_options
    slack = (len(fails) + 1) * math.ulp(size)
    # (units left, rank (-value, scheduled, lengths)) of the partials; a packet's value is
    # 1 - f, and not sending it adds 1.0 - 1.0 = 0.0.  neg - val is -(value + val) exactly
    partials = [(ctx.unit, (-0.0, 0, []))]
    for i, row in enumerate(fails):
        values = [0.0] + [1.0 - f for f in row]
        partials = [(cap - units, (neg - val, scheduled + s, lengths + [length]))
                    for cap, (neg, scheduled, lengths) in partials
                    for (length, units, s), val in zip(options, values) if units <= cap]
        if i < len(fails) - 1:  # the last packet's partials are the leaves
            # per count, the best and each partial within slack of it that schedules less
            # (scheduled, then lengths) than every one ranked before it
            fronts = {}
            for cap, rank in sorted(partials):
                front = fronts.setdefault(cap, [rank])
                if rank[0] - front[0][0] <= slack and rank[1:] < front[-1][1:]:
                    front.append(rank)
            partials = [(cap, rank) for cap, front in fronts.items() for rank in front]
    # the leaves, highest value plus level maximum first: only one whose sum reaches the
    # best total solves its level, and once one falls short so do all after it.  The
    # best leaf is the least in a total order, so the visiting order cannot change it
    # the best leaf, [(-total, scheduled), lengths, multiset, vector]
    top = [(math.inf, 0), None, None, None]
    leaves = sorted(((bound[level_at[cap]] - neg, cap, neg, scheduled, lengths)
                     for cap, (neg, scheduled, lengths) in partials), reverse=True)
    for reach, cap, neg, scheduled, lengths in leaves:
        if reach < -top[0][0]:
            break
        level, v = level_at[cap], -neg
        j = fresh(level)
        key, vector = (-(v + vals[j]), scheduled + npkts[j]), None
        if key > top[0]:
            continue
        if key == top[0]:  # the smaller vector wins (one multiset: the pending part)
            if j == top[2] and lengths >= top[1]:
                continue
            if j != top[2]:
                top[3] = top[3] or _vl_vector(positions, top[1], ctx.fresh_lengths[top[2]], size)
                vector = _vl_vector(positions, lengths, ctx.fresh_lengths[j], size)
                if vector >= top[3]:
                    continue
        top = [key, lengths, j, vector]
    return top[1], top[2]


def vl_schedule(buffer: list[PacketState], gamma: float, harq: HarqConfig,
                table: McsTable, ctx: _VlContext | None = None) -> list[float]:
    """Length assignment maximizing the expected number of decoded packets
    this block within the unit budget, exact over the pending packets
    (`_vl_search`) with the fresh ones in the best feasible multiset.  Ties
    prefer fewer scheduled packets, then the smallest assignment vector.
    The engine does not call it: it keeps each pending packet as a
    `_Pending` and searches directly."""
    ctx = ctx or _vl_context(harq, table)
    if len(buffer) > ctx.buffer_cap:
        raise ValueError("buffer exceeds its capacity")
    positions = [x for x, pkt in enumerate(buffer) if pkt.harq_count]
    fails = [_Pending(ctx, buffer[x].harq_count, buffer[x].first_len, buffer[x].snr_sigma)
             .options(mutual_information(gamma), ctx.table.a_tilde)[1] for x in positions]
    lens, j = _vl_search(ctx, fails, positions, len(buffer), gamma)
    best_assign = _vl_vector(positions, lens, ctx.fresh_lengths[j], len(buffer))
    assert sum(best_assign) <= 1.0 + 1e-9
    return best_assign


def _vl_commit(entries: list, gamma: float, max_rounds: int, make) -> tuple:
    """Apply outcomes to `entries`, (slot, packet or None if fresh, length,
    ack, aggregate SNR after the round or None) in buffer order: ACK removes
    a packet, NACK folds the round in (make(harq_count, first_len, snr_sigma))
    or drops it.  Returns the kept packets' slots, moved up, the packets, acked, drops."""
    kept, acked, drops = [], 0, 0
    for x, pkt, length, ack, fold in entries:
        if length == 0.0:
            kept.append((x - acked - drops, pkt))
        elif ack:
            acked += 1
        elif (count := pkt.harq_count if pkt else 0) < max_rounds - 1:
            first_len = pkt.first_len if pkt else length
            if fold is None:
                fold = _vl_aggregate(pkt.snr_sigma if pkt else 0.0, length, first_len, gamma)
            kept.append((x - acked - drops, make(count + 1, first_len, fold)))
        else:
            drops += 1
    return [x for x, _ in kept], [pkt for _, pkt in kept], acked, drops


def vl_update(buffer: list[PacketState], assignment: list[float], gamma: float,
              outcomes: list[bool], harq: HarqConfig) -> tuple[list[PacketState], int, int]:
    """Apply per-packet ACK/NACK outcomes (`_vl_commit`) and top the buffer
    up with fresh packets, to max_rounds per primary length; returns (new
    buffer, acked, drops)."""
    if not (len(assignment) == len(outcomes) == len(buffer)):
        raise ValueError("assignment/outcomes must align with the buffer")
    if len(buffer) > (cap := harq.max_rounds * len(harq.lengths_primary)):
        raise ValueError("buffer exceeds its capacity")
    slots, pend, acked, drops = _vl_commit(
        [(x, pkt if pkt.harq_count else None, length, ack, None)
         for x, (pkt, length, ack) in enumerate(zip(buffer, assignment, outcomes))
         if pkt.harq_count or length], gamma, harq.max_rounds, PacketState)
    kept = dict(zip(slots, pend))  # every other slot holds a fresh packet
    return [kept.get(x) or PacketState() for x in range(cap)], acked, drops


_VL_CHUNK = 1024


def simulate_vl(harq: HarqConfig, table: McsTable, channel: ChannelConfig,
                blocks: int, stream_id: int = 0) -> SimResult:
    """Variable-length HARQ over fast fading; throughput is R_1 bits per
    ACKed packet per block.

    RNG contract: all block SNRs are drawn first, then one uniform per
    scheduled packet, in buffer order, from the same stream.  Both are
    drawn through two cursors, which yields the same values: the SNRs a
    chunk of blocks at a time, the uniforms from a cursor `blocks` draws
    ahead, into an array as needed.

    The state is the pending packets (`_Pending`s) and their slots; other
    slots hold interchangeable fresh packets.  With none pending, a block
    takes the best fresh multiset, precomputed per chunk on `per_at`'s array
    path (agreeing with the scalar path unless two multisets' values fall
    within an ulp of the 1e-12 tie margin), and a run of such blocks reads
    its uniforms at a cumsum of their packet counts up to the first NACK.
    That block and each with pending packets update them (`_vl_slots`,
    `_vl_commit`); the latter are scheduled by `_vl_search`, whose DP is
    linear in their count.
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

    r1, size, npkts_m = table.rates[0], ctx.buffer_cap, ctx.fresh_sets[2]
    positions, pend, drops = [], [], 0  # the pending packets (none: all fresh) and their slots
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
            if not pend:
                # all fresh from block b: its packets read the next uniforms to the first NACK
                lo, run = first[b], first[n] - first[b]
                nack = ahead(run) < fresh_pers[lo:]
                k = int(nack.argmax()) if run else 0
                stop = int(owner[lo + k]) if run and nack[k] else n
                acked[b:stop] = counts[b:stop]
                if stop == n:
                    upos += run
                    break
                b = stop  # the NACK block: its packets take the last slots (`_vl_slots`)
                oks, upos = (~nack[first[b] - lo:first[b + 1] - lo]).tolist(), upos + first[b + 1] - lo
                entries = [(x, None, length, ok, None) for (x, _, length), ok in
                           zip(_vl_slots([], [], ctx.fresh_lengths[choice[b]], size), oks)]
            else:
                mi_gamma = mutual_information(g_list[b])
                opts = [pkt.options(mi_gamma, ctx.table.a_tilde) for pkt in pend]
                lens, j = _vl_search(ctx, [fails for _, fails in opts], positions, size, g_list[b])
                fresh_lens = ctx.fresh_lengths[j]
                fresh_per = dict(zip(ctx.primary, per_rows[b].tolist()))
                scheduled = len(fresh_lens) + len(lens) - lens.count(0.0)
                us, entries, upos = iter(ahead(scheduled).tolist()), [], upos + scheduled
                for x, i, length in _vl_slots(positions, lens, fresh_lens, size):
                    if length == 0.0:
                        entries.append((x, pend[i], 0.0, False, None))
                    elif i is None:
                        entries.append((x, None, length, next(us) >= fresh_per[length], None))
                    else:  # the scheduler's failure probability and fold
                        (aggs, fails), k = opts[i], ctx.retx_lengths.index(length)
                        entries.append((x, pend[i], length, next(us) >= fails[k], aggs[k]))
            positions, pend, acked[b], dropped = _vl_commit(entries, g_list[b], harq.max_rounds,
                                                            partial(_Pending, ctx))
            drops += dropped
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
