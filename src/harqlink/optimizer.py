"""Decision-region optimization.

Slow fading: the optimal regions are pointwise argmax sets of the per-rate
throughput curves and come out as unions of intervals.  Fast fading: the
throughput is a ratio of threshold-dependent sums, maximized by fractional
programming -- bisection on lambda with a constrained cyclic coordinate
(golden-section) maximization of F(gamma, lambda) at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amc import DecisionRegions, RegionKind, ThroughputEstimate
from .channel import exp_mass
from .coding import CombiningType, McsTable
from .harq_analysis import FastFadingTables, slow_throughput_at

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GridResolutionError(RuntimeError):
    """Raised when the argmax scan cannot resolve a region boundary."""


@dataclass(frozen=True)
class DinkelbachState:
    """Snapshot of the outer fractional-programming iteration."""

    lam: float
    gamma: tuple[float, ...]
    f_value: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class FastOptimizeResult:
    regions: DecisionRegions
    throughput: ThroughputEstimate
    kkt_residual: float
    kkt_ok: bool


# ---------------------------------------------------------------------------
# slow fading: pointwise argmax regions
# ---------------------------------------------------------------------------

def slow_optimal_regions(K: int, combining: CombiningType, table: McsTable,
                         snr_grid: np.ndarray | None = None) -> DecisionRegions:
    """Union-of-intervals regions maximizing the per-SNR throughput.

    Scans a log grid for the argmax rate, merges runs into intervals, and
    refines each boundary by bisection on the winner change to 1e-6
    relative.  Argmax ties go to the larger rate; SNRs where every rate
    has zero throughput are assigned to rate 1 (the choice there carries
    no throughput).
    """
    if snr_grid is None:
        snr_grid = np.logspace(-3.0, 4.5, 3000)
    snr_grid = np.asarray(snr_grid, dtype=float)
    if snr_grid.size < 2000:
        raise ValueError("snr_grid must have at least 2000 points")

    def winners(grid):
        eta = slow_throughput_at(grid, K, combining, table)  # (n, L)
        w = table.num_rates - np.argmax(eta[:, ::-1], axis=1)  # ties -> larger l
        w[np.all(eta <= 0.0, axis=1)] = 1
        return w

    grid = snr_grid
    w = winners(grid)
    for attempt in range(3):
        cuts = np.flatnonzero(np.diff(w))  # last index of every run but the final one
        ends = np.append(cuts, w.size - 1)
        single = ends[np.diff(ends, prepend=-1) == 1]  # runs of length one
        if not single.size:
            break
        if attempt == 2:
            raise GridResolutionError("argmax runs remain single-point after refinement")
        # single-point runs: densify locally and rescan
        inner = single[(single > 0) & (single < grid.size - 1)]
        grid = np.unique(np.concatenate(
            [grid] + [np.linspace(grid[i - 1], grid[i + 1], 20) for i in inner]))
        w = winners(grid)

    # one interval per run, with refined boundaries
    labels = w[np.append(0, cuts + 1)]
    edges = [0.0] + [_refine_boundary(grid[j], grid[j + 1], winners) for j in cuts] + [math.inf]

    L = table.num_rates
    per_l: list[list[tuple[float, float]]] = [[] for _ in range(L)]
    for lab, a, b in zip(labels, edges, edges[1:]):
        ivs = per_l[lab - 1]
        if ivs and ivs[-1][1] == a:
            ivs[-1] = (ivs[-1][0], b)
        else:
            ivs.append((a, b))
    return DecisionRegions(RegionKind.INTERVALS, intervals=tuple(tuple(iv) for iv in per_l))


def _refine_boundary(a: float, b: float, winners) -> float:
    wa = winners(np.array([a]))[0]
    while (b - a) > 1e-6 * max(b, 1e-12):
        mid = 0.5 * (a + b)
        if winners(np.array([mid]))[0] == wa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# fast fading: Dinkelbach bisection + coordinate search
# ---------------------------------------------------------------------------

def _reward_cost(tables: FastFadingTables, gamma: np.ndarray) -> tuple[float, float]:
    """Expected per-cycle reward and duration for a threshold vector."""
    t = tables.table
    K = tables.K
    L = t.num_rates
    bounds = list(gamma) + [math.inf]
    reward = 0.0
    cost = 0.0
    for l in range(1, L + 1):
        a, b = bounds[l - 1], bounds[l]
        if b <= a:
            continue
        p = exp_mass(a, b, tables.avg_snr)
        err_k = tables.cum_mass(K, l, a, b)
        reward += t.rate(l) * (p - err_k)
        cost += p
        for k in range(1, K):
            cost += tables.cum_mass(k, l, a, b)
    return reward, cost


def fast_F(gamma, lam: float, K: int, combining: CombiningType, table: McsTable,
           avg_snr: float, tables: FastFadingTables | None = None) -> float:
    """Dinkelbach objective: expected reward minus lambda * expected duration."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma[0] != 0.0 or np.any(np.diff(gamma) < 0):
        raise ValueError("threshold vector must be monotone with gamma_1 = 0")
    if tables is None:
        tables = FastFadingTables(table, K, combining, avg_snr)
    reward, cost = _reward_cost(tables, gamma)
    return reward - lam * cost


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [a, b], endpoints included."""
    best_x, best_v = a, f(a)
    vb = f(b)
    if vb > best_v:
        best_x, best_v = b, vb
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _line_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Global 1-D maximization on [lo, hi]: a coarse bracketing scan (log and
    linear spacing, since F need not be unimodal along a coordinate) followed
    by golden-section refinement inside the best bracket."""
    if hi - lo <= tol:
        va, vb = f(lo), f(hi)
        return (lo, va) if va >= vb else (hi, vb)
    span = hi - lo
    pts = np.unique(np.concatenate([
        [lo, hi],
        lo + span * np.logspace(-5.0, 0.0, 40),
        np.linspace(lo, hi, 24),
    ]))
    vals = np.array([f(x) for x in pts])
    i = int(np.argmax(vals))
    a = pts[max(i - 1, 0)]
    b = pts[min(i + 1, pts.size - 1)]
    x, v = _golden_max(f, float(a), float(b), tol)
    if vals[i] > v:
        return float(pts[i]), float(vals[i])
    return x, v


def _coordinate_max(tables: FastFadingTables, lam: float, start: np.ndarray,
                    x_cap: float, sweeps: int = 60,
                    tol_scale: float = 1e-6) -> tuple[np.ndarray, float]:
    gamma = start.copy()
    L = gamma.size

    def F_of(g):
        r, c = _reward_cost(tables, g)
        return r - lam * c

    best = F_of(gamma)
    for _ in range(sweeps):
        improved = False
        for l in range(1, L):  # gamma_2..gamma_L (0-based indices 1..L-1)
            lo = gamma[l - 1]
            hi = gamma[l + 1] if l + 1 < L else x_cap

            def f1(x, l=l):
                g = gamma.copy()
                g[l] = x
                r, c = _reward_cost(tables, g)
                return r - lam * c

            x, v = _line_max(f1, lo, hi, tol=tol_scale * max(hi, 1.0))
            if v > best + 1e-12:
                gamma[l] = x
                best = v
                improved = True
        if not improved:
            break
    return gamma, best


def fast_optimize_regions(K: int, combining: CombiningType, table: McsTable,
                          avg_snr: float, restarts: int = 5, seed: int = 0,
                          tables: FastFadingTables | None = None) -> FastOptimizeResult:
    """Throughput-maximizing threshold vector for fast fading.

    Outer bisection on lambda in [0, R_L] against the sign of
    max_gamma F(gamma, lambda); inner maximization by cyclic coordinate
    golden-section search with random monotone restarts.  Endpoint hits
    realize degenerate regions.  The interior stationarity residual is
    checked afterwards; a large residual only flags the result.
    """
    if tables is None:
        tables = FastFadingTables(table, K, combining, avg_snr)
    L = table.num_rates
    x_cap = float(tables.x[-1])
    r_top = table.rate(L)
    rng = np.random.default_rng(seed)

    amc_like = np.concatenate([[0.0], np.sort(np.minimum(
        np.asarray(table.thresholds[1:]), x_cap))]) if L > 1 else np.zeros(1)
    warm = amc_like.copy()

    def inner_max(lam):
        nonlocal warm
        starts = [warm.copy(), np.zeros(L), amc_like.copy()]
        for _ in range(restarts):
            starts.append(np.concatenate([[0.0], np.sort(
                rng.exponential(avg_snr, L - 1))]) if L > 1 else np.zeros(1))
        best_g, best_v = None, -math.inf
        for s in starts:
            np.clip(s, 0.0, x_cap, out=s)
            g, v = _coordinate_max(tables, lam, s, x_cap)
            if v > best_v:
                best_g, best_v = g, v
        warm = best_g.copy()
        return best_g, best_v

    lo, hi = 0.0, r_top
    gamma, f_val = inner_max(0.0)
    state = DinkelbachState(lam=0.0, gamma=tuple(gamma), f_value=f_val, bracket=(lo, hi))
    for _ in range(80):
        if abs(state.f_value) < 1e-8 or (hi - lo) < 1e-10:
            break
        lam = 0.5 * (lo + hi)
        gamma, f_val = inner_max(lam)
        if f_val > 0.0:
            lo = lam
        else:
            hi = lam
        state = DinkelbachState(lam=lam, gamma=tuple(gamma), f_value=f_val, bracket=(lo, hi))

    gamma = np.asarray(state.gamma)
    if np.any(np.diff(gamma) < 0):
        raise RuntimeError("internal error: non-monotone threshold vector")
    reward, cost = _reward_cost(tables, gamma)
    throughput = reward / cost
    # polish: re-maximize F at lambda = current ratio with a tight tolerance
    # (the ratio is a fixed point of this update at the optimum)
    for _ in range(3):
        gamma, _ = _coordinate_max(tables, throughput, gamma, x_cap, tol_scale=1e-10)
        reward, cost = _reward_cost(tables, gamma)
        new = reward / cost
        if abs(new - throughput) < 1e-12:
            throughput = new
            break
        throughput = new

    resid = _kkt_residual(tables, gamma, throughput)
    regions = DecisionRegions(RegionKind.THRESHOLDS, thresholds=tuple(gamma))
    return FastOptimizeResult(
        regions=regions,
        throughput=ThroughputEstimate(value=throughput),
        kkt_residual=resid,
        kkt_ok=resid < 1e-4,
    )


def _kkt_residual(tables: FastFadingTables, gamma: np.ndarray, lam: float) -> float:
    """Max relative stationarity residual over interior, non-degenerate
    thresholds: R_{l-1}(1-f_{K,l-1}(g)) - R_l(1-f_{K,l}(g)) =
    lam (T_{K,l-1}(g) - T_{K,l}(g)) at g = gamma_l."""
    t = tables.table
    K = tables.K
    L = t.num_rates
    worst = 0.0
    bounds = list(gamma) + [math.inf]
    for l in range(2, L + 1):
        g = gamma[l - 1]
        if g <= bounds[l - 2] or g >= bounds[l]:
            continue  # boundary/degenerate threshold: no stationarity claim
        f_hi = tables.cascade_at(l, g)
        f_lo = tables.cascade_at(l - 1, g)
        t_hi = 1.0 + f_hi[:K - 1].sum()
        t_lo = 1.0 + f_lo[:K - 1].sum()
        lhs = t.rate(l - 1) * (1.0 - f_lo[K - 1]) - t.rate(l) * (1.0 - f_hi[K - 1])
        rhs = lam * (t_lo - t_hi)
        scale = max(abs(lhs), abs(rhs), lam, 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
