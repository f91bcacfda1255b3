"""Decision-region optimization.

Slow fading: the optimal regions are pointwise argmax sets of the per-rate
throughput curves and come out as unions of intervals, each boundary the
first float at which the winner changes (`amc.first_float_where`, the
bisection that also places the exact AMC thresholds).  Fast fading: the
throughput is the ratio N/C of a cycle's expected reward and duration.
The optimizer needs both as curves of each threshold, so it builds and
holds the FastFadingTables of its problem (`renewal_sums`), the only code
that does.  One term per threshold makes it an exact monotone DP over the
tables' grid (`_curve_diffs`, `_grid_argmax`) inside Dinkelbach's
iteration lambda <- N/C (W. Dinkelbach, Management Science 13(7), 1967).
One more step at the grid-optimal lambda moves each threshold off the grid
by the slow-fading rule: to the first float at which the higher rate's
renewal score wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amc import DecisionRegions, RegionKind, ThroughputEstimate, first_float_where
from .coding import CombiningType, McsTable
from .harq_analysis import FastFadingTables, _reward_cost, slow_throughput_at


@dataclass(frozen=True)
class DinkelbachState:
    """One outer iteration: lam, the grid maximizer gamma of
    F(., lam) = N - lam C, and F there."""

    lam: float
    gamma: tuple[float, ...]
    f_value: float


@dataclass(frozen=True)
class FastOptimizeResult:
    """`certificate` is the grid maximum of F(., eta) at the returned ratio
    eta, <= 0 up to rounding when no grid vector beats eta; `iterations`
    is the Dinkelbach lam trace."""

    regions: DecisionRegions
    throughput: ThroughputEstimate
    certificate: float
    iterations: tuple[DinkelbachState, ...]


# ---------------------------------------------------------------------------
# slow fading: pointwise argmax regions
# ---------------------------------------------------------------------------

def slow_optimal_regions(K: int, combining: CombiningType, table: McsTable) -> DecisionRegions:
    """Union-of-intervals regions maximizing the per-SNR throughput.

    Scans a log grid for the argmax rate, merges runs into intervals, and
    places every boundary at once by `first_float_where` in its grid cell:
    the first float at which the winner differs from the cell's left end.
    Argmax ties go to the larger rate; SNRs where every rate has zero
    throughput are assigned to rate 1 (the choice there carries no
    throughput).  A rate that wins at no grid point is not found.
    """
    def winners(grid):
        eta = slow_throughput_at(grid, K, combining, table)  # (n, L)
        w = table.num_rates - np.argmax(eta[:, ::-1], axis=1)  # ties -> larger l
        w[np.all(eta <= 0.0, axis=1)] = 1
        return w

    grid = np.logspace(-3.0, 4.5, 3000)
    w = winners(grid)
    cuts = np.flatnonzero(np.diff(w))  # last index of every run but the final one
    # one interval per run, each boundary the first float where the winner changes
    labels = w[np.append(0, cuts + 1)]
    bounds = first_float_where(lambda x: winners(x) != w[cuts], grid[cuts], grid[cuts + 1])
    edges = [0.0, *map(float, bounds), math.inf]

    L = table.num_rates
    per_l: list[list[tuple[float, float]]] = [[] for _ in range(L)]
    for lab, a, b in zip(labels, edges, edges[1:]):
        per_l[lab - 1].append((a, b))
    return DecisionRegions(RegionKind.INTERVALS, intervals=tuple(tuple(iv) for iv in per_l))


# ---------------------------------------------------------------------------
# fast fading: monotone grid DP + Dinkelbach update + one crossing step
# ---------------------------------------------------------------------------

def _curve_diffs(tables: FastFadingTables) -> tuple[np.ndarray, np.ndarray]:
    """Row l-2 holds N_{l-1} - N_l and C_{l-1} - C_l on tables.x: what
    threshold gamma_l at x adds to the reward and the duration, with N_l and
    C_l what rate l collects on [0, x) (`FastFadingTables.reward_cost`)."""
    d_reward = np.empty((tables.table.num_rates - 1, tables.x.size))
    d_cost = np.empty_like(d_reward)
    prev_reward, prev_cost = tables.reward_cost(1, tables.x)
    for r in range(len(d_reward)):  # one rate at a time keeps the memory small
        reward, cost = tables.reward_cost(r + 2, tables.x)
        np.subtract(prev_reward, reward, out=d_reward[r])
        np.subtract(prev_cost, cost, out=d_cost[r])
        prev_reward, prev_cost = reward, cost
    return d_reward, d_cost


def _grid_argmax(d_reward: np.ndarray, d_cost: np.ndarray, lam: float,
                 work: np.ndarray) -> list[int]:
    """Grid indices i_2 <= ... <= i_L maximizing sum_l D_l(i_l), with
    D = d_reward - lam * d_cost.  Row r of `work` becomes
    V_r(i) = D_r(i) + max_{j<=i} V_{r-1}(j); the indices are read back by
    prefix argmax, ties going to the lower index."""
    np.multiply(d_cost, -lam, out=work)
    work += d_reward
    for r in range(1, len(work)):
        work[r] += np.maximum.accumulate(work[r - 1])
    idx = []
    for r in range(len(work) - 1, -1, -1):
        idx.append(int(np.argmax(work[r, :idx[-1] + 1 if idx else None])))
    return idx[::-1]


def fast_optimize_regions(K: int, combining: CombiningType, table: McsTable,
                          avg_snr: float) -> FastOptimizeResult:
    """Throughput-maximizing threshold vector for fast fading.

    With gamma_1 = 0, F(gamma, lam) = N(gamma) - lam C(gamma) is a constant
    plus one term per threshold, so its maximum over 0 <= gamma_2 <= ... <=
    gamma_L on the table grid is an exact DP (`_grid_argmax`).  Dinkelbach's
    update lam <- N/C at that maximum, from lam = 0, stops when lam no longer
    increases, at the grid-optimal ratio.  One step at that lam then moves
    every threshold with non-empty regions on both sides, within two grid
    cells of its DP node and not past its neighbours' nodes, to the first
    float where the upper rate's renewal score (`cum_density`) reaches the
    lower's, if it loses at the window's low end and wins at its high end;
    the step is kept if the thresholds stay ordered and the ratio strictly
    increases.  A threshold equal to its neighbour gives a degenerate
    region.  The returned throughput is the ratio N/C at the returned
    thresholds on this call's tables.
    """
    tables = FastFadingTables(table, K, combining, avg_snr)
    x = tables.x
    d_reward, d_cost = _curve_diffs(tables)
    work = np.empty_like(d_reward)
    labels = np.arange(1, table.num_rates + 1)

    def grid_max(lam):
        idx = _grid_argmax(d_reward, d_cost, lam, work)
        gamma = np.concatenate([[0.0], x[idx]])
        return idx, gamma, tables.renewal_sums(labels, gamma, np.append(gamma[1:], math.inf))

    lam, idx, iterations = 0.0, None, []
    while True:
        new_idx, gamma, (reward, cost) = grid_max(lam)
        iterations.append(DinkelbachState(lam=lam, gamma=tuple(map(float, gamma)),
                                          f_value=reward - lam * cost))
        if idx is not None and reward / cost <= lam:
            break
        lam, idx = reward / cost, new_idx

    bounds = np.concatenate([[0.0], x[idx], [math.inf]])
    node, i, lower = bounds[1:-1], np.array(idx, dtype=int), labels[:-1]

    def upper_wins(v):  # s_l = R_l (1 - f_K) - lam (1 + sum_{k<K} f_k), times the pdf
        (r_lo, c_lo), (r_up, c_up) = (
            _reward_cost(np.asarray(table.rates)[l - 1], tables.cum_density(l, v), K)
            for l in (lower, lower + 1))
        return r_up - lam * c_up >= r_lo - lam * c_lo

    lo = np.maximum(x[np.maximum(i - 2, 0)], bounds[:-2])
    hi = np.minimum(x[np.minimum(i + 2, x.size - 1)], bounds[2:])
    moves = (bounds[:-2] < node) & (node < bounds[2:]) & ~upper_wins(lo) & upper_wins(hi)
    step = first_float_where(upper_wins, np.where(moves, lo, node), np.where(moves, hi, node))
    gamma = np.append(0.0, step)
    reward, cost = tables.renewal_sums(labels, gamma, np.append(step, math.inf))
    kept = reward / cost > lam and np.all(np.diff(gamma) >= 0.0)
    gamma, throughput = (gamma, reward / cost) if kept else (bounds[:-1], lam)
    _, _, (reward, cost) = grid_max(throughput)
    return FastOptimizeResult(
        regions=DecisionRegions(RegionKind.THRESHOLDS, thresholds=tuple(gamma)),
        throughput=ThroughputEstimate(value=throughput),
        certificate=reward - throughput * cost,
        iterations=tuple(iterations),
    )
