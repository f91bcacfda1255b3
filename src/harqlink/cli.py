"""Command-line interface: sweeps, threshold dumps, and self-verification.

dB <-> linear SNR conversion happens here and nowhere else.  Output CSV is
deterministic for a fixed spec: rows are sorted by (scheme, snr) and each
sweep point derives its RNG stream from (seed, point index).

Exit codes: 0 on success, 2 for bad input (an unknown or malformed flag,
config line or value, or an unwritable output), 3 for a numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from . import amc as amc_mod
from .amc import DecisionRegions, RegionKind
from .channel import ChannelConfig, FadingMode, db_to_linear, linear_to_db
from .coding import CombiningType, McsTable
from .harq_analysis import (HarqConfig, HarqVariant, fast_throughput, slow_throughput,
                            two_round_bound)
from .optimizer import FastOptimizeResult, fast_optimize_regions, slow_optimal_regions
from .simulator import simulate_packet_drop, simulate_vl

SCHEMES = ("amc", "harq-rr", "harq-ir", "harq-2r-bound", "pd-harq", "vl-harq")
REGION_SOURCES = ("amc-exact", "amc-closed-form", "per-target", "optimized")
FADINGS = ("fast", "slow")
CSV_HEADER = "snr_avg_db,scheme,combining,a_tilde,K,region_source,throughput,ci_half_width,blocks"

DEFAULT_RATES = tuple(l * 0.75 for l in range(1, 6))
DEFAULT_VL_PRIMARY = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5)
DEFAULT_VL_AUX = (1 / 8, 1 / 12, 1 / 16)


@dataclass(frozen=True)
class SweepSpec:
    snr_db_start: float
    snr_db_stop: float
    snr_db_step: float
    schemes: tuple[str, ...]
    region_source: str = "amc-exact"
    a_tilde: float = 4.0
    K: int = 4
    mc_blocks: int = 10 ** 5
    seed: int = 0
    fading: str = "fast"
    rates: tuple[float, ...] = DEFAULT_RATES
    per_target_ploss: float = 0.1
    per_target_rounds: int = 1
    output: str = "-"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.snr_db_start, self.snr_db_step, self.snr_db_stop))):
            raise ValueError("--snr-db start, step and stop must be finite")
        if self.snr_db_step <= 0:
            raise ValueError("snr step must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if self.region_source not in REGION_SOURCES:
            raise ValueError(f"unknown region source {self.region_source}")
        if self.fading not in FADINGS:
            raise ValueError(f"unknown fading {self.fading}")
        mc = {"pd-harq", "vl-harq"} & set(self.schemes)
        if mc and self.mc_blocks < 10 ** 5:
            raise ValueError("mc_blocks must be >= 1e5 for Monte Carlo schemes")

    def snr_points_db(self) -> list[float]:
        n = int(round((self.snr_db_stop - self.snr_db_start) / self.snr_db_step))
        return [self.snr_db_start + i * self.snr_db_step for i in range(n + 1)
                if self.snr_db_start + i * self.snr_db_step <= self.snr_db_stop + 1e-9]


def _combining_for(scheme: str) -> CombiningType | None:
    if scheme in ("harq-rr",):
        return CombiningType.RR
    if scheme in ("harq-ir", "vl-harq"):
        return CombiningType.IR
    return None


def _slow_regions(spec: SweepSpec) -> dict[CombiningType, DecisionRegions]:
    """The slow-fading optimized regions of every combining type the
    schemes use (harq-2r-bound uses harq-ir's).  They do not depend on the
    average SNR, so a sweep makes them once and hands them to its points;
    other sweeps get none."""
    if spec.region_source != "optimized" or spec.fading != "slow":
        return {}
    table = McsTable(rates=spec.rates, a_tilde=spec.a_tilde)
    combinings = {CombiningType.IR if s == "harq-2r-bound" else _combining_for(s)
                  for s in spec.schemes if s in ("harq-rr", "harq-ir", "harq-2r-bound")}
    return {c: slow_optimal_regions(spec.K, c, table) for c in combinings}


class _SnrPoint:
    """What the schemes of a sweep at one average SNR share: the MCS table,
    the amc-exact, amc-closed-form or per-target regions and, per combining
    type, the optimized regions, each made once (harq-2r-bound reuses
    harq-ir's regions).  Fast-fading optimized regions come as the whole
    FastOptimizeResult, whose ratio is the throughput of its regions, so
    harq-rr and harq-ir report it without computing it again.  Slow-fading
    optimized regions come from the sweep, as `slow_regions`."""

    def __init__(self, spec: SweepSpec, snr_db: float,
                 slow_regions: dict[CombiningType, DecisionRegions]):
        self.spec, self.snr_db = spec, snr_db
        self.table = McsTable(rates=spec.rates, a_tilde=spec.a_tilde)
        self.avg = db_to_linear(snr_db)
        self._slow = slow_regions
        self._fast: dict[CombiningType, FastOptimizeResult] = {}

    def optimized(self, combining: CombiningType) -> FastOptimizeResult:
        """The fast-fading optimization for `combining`, made once."""
        if combining not in self._fast:
            self._fast[combining] = fast_optimize_regions(self.spec.K, combining, self.table,
                                                          self.avg)
        return self._fast[combining]

    def regions(self, combining: CombiningType | None) -> DecisionRegions:
        # optimized regions need a combining type; schemes without one use amc-exact
        if self.spec.region_source != "optimized" or combining is None:
            return self._fixed_regions
        if combining in self._slow:
            return self._slow[combining]
        return self.optimized(combining).regions

    @cached_property
    def _fixed_regions(self) -> DecisionRegions:
        spec, table = self.spec, self.table
        if spec.region_source == "amc-closed-form":
            return amc_mod.amc_thresholds_closed_form(table)
        if spec.region_source == "per-target":
            return amc_mod.amc_thresholds_per_target(table, spec.per_target_ploss,
                                                     spec.per_target_rounds)
        return amc_mod.amc_thresholds_exact(table)


def _sweep_point(point: _SnrPoint, scheme: str, point_idx: int) -> dict:
    spec, table, avg = point.spec, point.table, point.avg
    combining = _combining_for(scheme)
    fading = FadingMode.SLOW if spec.fading == "slow" else FadingMode.FAST
    row = {
        "snr_avg_db": point.snr_db, "scheme": scheme,
        "combining": combining.value if combining else "",
        "a_tilde": spec.a_tilde, "K": spec.K,
        "region_source": spec.region_source,
        "ci_half_width": "", "blocks": "",
    }
    if scheme == "amc":
        row["throughput"] = amc_mod.amc_throughput(point.regions(None), table, avg).value
    elif scheme in ("harq-rr", "harq-ir"):
        regions = point.regions(combining)
        if fading is FadingMode.SLOW:
            row["throughput"] = slow_throughput(regions, spec.K, combining, table, avg).value
        elif spec.region_source == "optimized":
            row["throughput"] = point.optimized(combining).throughput.value
        else:
            row["throughput"] = fast_throughput(regions, spec.K, combining, table, avg).value
    elif scheme == "harq-2r-bound":
        row["throughput"] = two_round_bound(point.regions(CombiningType.IR), table, avg)
    elif scheme == "pd-harq":
        comb = CombiningType.IR  # combining used for aggregation in the sim
        harq = HarqConfig(combining=comb, max_rounds=spec.K, variant=HarqVariant.PACKET_DROP)
        res = simulate_packet_drop(point.regions(None), harq, table,
                                   ChannelConfig(avg, fading, spec.seed),
                                   spec.mc_blocks, stream_id=point_idx)
        row.update(throughput=res.throughput, ci_half_width=res.ci_half_width,
                   blocks=res.blocks, combining="ir")
    elif scheme == "vl-harq":
        harq = HarqConfig(combining=CombiningType.IR, max_rounds=spec.K,
                          variant=HarqVariant.VARIABLE_LENGTH,
                          lengths_primary=DEFAULT_VL_PRIMARY, lengths_aux=DEFAULT_VL_AUX)
        res = simulate_vl(harq, table, ChannelConfig(avg, FadingMode.FAST, spec.seed),
                          spec.mc_blocks, stream_id=point_idx)
        row.update(throughput=res.throughput, ci_half_width=res.ci_half_width,
                   blocks=res.blocks)
    return row


def _sweep_snr(spec: SweepSpec, slow_regions: dict, j: int) -> list[dict]:
    """Every scheme's row at the j-th SNR.  A row's point index, its MC
    stream id, is its position in the (sorted scheme, SNR) enumeration."""
    snrs = spec.snr_points_db()
    point = _SnrPoint(spec, snrs[j], slow_regions)
    return [_sweep_point(point, scheme, i * len(snrs) + j)
            for i, scheme in enumerate(sorted(spec.schemes))]


def _fmt(x) -> str:
    if x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _pool_pays(spec: SweepSpec) -> bool:
    """Whether some point of the sweep does grid, optimizer or Monte Carlo
    work, which alone repays forking a process pool: the Monte Carlo
    schemes, fast harq-ir, and, on fast-fading optimized regions, every
    scheme that optimizes them.  Slow-fading points take closed forms and
    quadratures, and slow-optimized regions come made (`_slow_regions`)."""
    working = {"pd-harq", "vl-harq"}
    if spec.fading == "fast":
        working.add("harq-ir")
        if spec.region_source == "optimized":
            working |= {"harq-rr", "harq-2r-bound"}
    return not working.isdisjoint(spec.schemes)


def run_sweep(spec: SweepSpec) -> list[str]:
    """All sweep rows as CSV lines (header included), sorted by (scheme, snr).
    One task runs each SNR, in a process pool when there are several tasks
    and workers and the sweep can pay for the pool (`_pool_pays`)."""
    tasks = range(len(spec.snr_points_db()))
    slow_regions = _slow_regions(spec)
    workers = int(os.environ.get("HARQLINK_WORKERS", os.cpu_count() or 1))
    if workers > 1 and len(tasks) > 1 and _pool_pays(spec):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_snr = list(pool.map(_sweep_snr, [spec] * len(tasks),
                                    [slow_regions] * len(tasks), tasks))
    else:
        per_snr = [_sweep_snr(spec, slow_regions, j) for j in tasks]
    rows = sorted((r for rows in per_snr for r in rows),
                  key=lambda r: (r["scheme"], r["snr_avg_db"]))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CSV_HEADER.split(",")))
    return lines


def emit_thresholds(spec: SweepSpec) -> list[str]:
    """Per-snr threshold vectors (or interval unions) as CSV lines.

    harq-2r-bound and vl-harq get no rows: vl-harq schedules without
    decision regions."""
    lines = ["snr_avg_db,scheme,l,gamma_l_db,degenerate"]
    schemes = [s for s in sorted(spec.schemes) if s not in ("harq-2r-bound", "vl-harq")]
    slow_regions = _slow_regions(spec)
    for snr_db in spec.snr_points_db():
        point = _SnrPoint(spec, snr_db, slow_regions)
        table = point.table
        for scheme in schemes:
            regions = point.regions(_combining_for(scheme))
            if regions.kind is RegionKind.THRESHOLDS:
                t = regions.thresholds + (math.inf,)
                for l in range(1, table.num_rates + 1):
                    deg = 1 if t[l] <= t[l - 1] else 0
                    lines.append(f"{_fmt(float(snr_db))},{scheme},{l},"
                                 f"{_db_str(t[l - 1])},{deg}")
            else:
                for l in range(1, table.num_rates + 1):
                    ivs = regions.intervals_for(l)
                    ser = ";".join(f"{_db_str(a)}..{_db_str(b)}" for a, b in ivs)
                    deg = 1 if not ivs else 0
                    lines.append(f"{_fmt(float(snr_db))},{scheme},{l},{ser},{deg}")
    return lines


def _db_str(x: float) -> str:
    if x == 0.0:
        return "-inf"
    if math.isinf(x):
        return "inf"
    return f"{linear_to_db(x):.12g}"


def _verify() -> int:
    """Fast self-checks of the core invariants; one line per check."""
    from .coding import mutual_information, mutual_information_inv, per, snr_margin_delta
    from .harq_analysis import slow_throughput_at

    table = McsTable(rates=DEFAULT_RATES, a_tilde=4.0)
    checks = []
    d = 10 * math.log10(snr_margin_delta(1e-2, 4.0))
    checks.append(("snr margin 3.3 dB at a=4", abs(d - 3.3) < 0.05))
    regions = amc_mod.amc_thresholds_exact(table)
    pers = [per(l, regions.thresholds[l - 1], table) for l in range(2, 6)]
    checks.append(("AMC boundary PERs ~ 1-R_{l-1}/R_l",
                   all(abs(p - (1 - (l - 1) / l)) < 0.01 for p, l in zip(pers, range(2, 6)))))
    checks.append(("IR aggregate beats RR",
                   mutual_information_inv(2.0 * mutual_information(1.0)) > 1.0 + 1.0))
    eta = [slow_throughput_at(2.0, k, CombiningType.IR, table)[2] for k in range(1, 7)]
    checks.append(("slow throughput non-decreasing in K",
                   all(b >= a - 1e-12 for a, b in zip(eta, eta[1:]))))
    th = amc_mod.amc_throughput(regions, table, 10.0).value
    checks.append(("AMC throughput within (0, R_L)", 0.0 < th < DEFAULT_RATES[-1]))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return 0 if ok else 1


class _ConfigLineParser(argparse.ArgumentParser):
    """The subcommands' flags, raising ValueError where argparse would exit."""

    def error(self, message):
        raise ValueError(message)


def _config_args(path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` tokens, each
    checked against the flags' names, types and choices; an error names the
    file and line."""
    check = _ConfigLineParser(add_help=False)
    _add_common(check)
    out = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            token = f"--{key.strip()}={val.strip()}"
            try:
                if not eq:
                    raise ValueError(f"want key = value, got {line!r}")
                parsed, unknown = check.parse_known_args([token])
                if unknown:
                    raise ValueError(f"unknown key {key.strip()!r}")
                if parsed.config is not None:
                    raise ValueError("a config file cannot read another")
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            out.append(token)
    return out


def _rates(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want a comma list of rates, got {text!r}") from None


def _build_spec(args) -> SweepSpec:
    try:
        start, step, stop = (float(x) for x in args.snr_db.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad --snr-db spec {args.snr_db!r} (want start:step:stop)") from exc
    return SweepSpec(
        snr_db_start=start, snr_db_step=step, snr_db_stop=stop,
        schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        region_source=args.regions, a_tilde=args.a_tilde, K=args.k,
        mc_blocks=args.mc_blocks, seed=args.seed, fading=args.fading, rates=args.rates,
        per_target_ploss=args.per_target_ploss, per_target_rounds=args.per_target_rounds,
        output=args.out,
    )


def _write(lines: list[str], output: str):
    text = "\n".join(lines) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_common(p):
    p.add_argument("--snr-db", default="-5:1:30", help="start:step:stop in dB")
    p.add_argument("--schemes", default="amc", help=f"comma list of {','.join(SCHEMES)}")
    p.add_argument("--regions", default=SweepSpec.region_source, choices=REGION_SOURCES,
                   help="decision regions (default %(default)s); every scheme but vl-harq, "
                        "which needs none, uses amc-closed-form and per-target as given; "
                        "with optimized, harq-rr and harq-ir use regions optimized for "
                        "their combining, harq-2r-bound the IR-optimized regions, and amc "
                        "and pd-harq the amc-exact thresholds; pd-harq always combines "
                        "with IR")
    p.add_argument("--a-tilde", type=float, default=SweepSpec.a_tilde,
                   help="PER decay (number or 'inf')")
    p.add_argument("--k", type=int, default=SweepSpec.K, help="max HARQ rounds")
    p.add_argument("--mc-blocks", type=int, default=SweepSpec.mc_blocks)
    p.add_argument("--seed", type=int, default=SweepSpec.seed)
    p.add_argument("--fading", default=SweepSpec.fading, choices=FADINGS)
    p.add_argument("--rates", type=_rates, default=SweepSpec.rates,
                   help="comma list of rates (bits/symbol)")
    p.add_argument("--per-target-ploss", type=float, default=SweepSpec.per_target_ploss)
    p.add_argument("--per-target-rounds", type=int, default=SweepSpec.per_target_rounds)
    p.add_argument("--config", default=None, help="key=value config file; flags override")
    p.add_argument("--out", default=SweepSpec.output, help="output CSV path ('-' for stdout)")


def _bind_snr_db(argv: list[str]) -> list[str]:
    """Attach the token after --snr-db, or after one of its unambiguous
    prefixes --sn ... --snr-d, to the flag: argparse would read a negative
    start such as -5:1:30 as an option."""
    tokens = iter(argv)
    return [f"--snr-db={next(tokens, '')}" if len(tok) > 3 and "--snr-db".startswith(tok)
            else tok for tok in tokens]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="harqlink")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("sweep", help="throughput sweep to CSV"))
    _add_common(sub.add_parser("thresholds", help="decision-region dump to CSV"))
    sub.add_parser("verify", help="run quick self-checks")
    argv = _bind_snr_db(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)

    if args.command == "verify":
        return _verify()
    try:
        if args.config:
            # config tokens go before the command line's, so flags win
            args = parser.parse_args(argv[:1] + _config_args(args.config) + argv[1:])
        spec = _build_spec(args)
        lines = run_sweep(spec) if args.command == "sweep" else emit_thresholds(spec)
        _write(lines, spec.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
