import math
import resource
import shlex
from collections import Counter
from pathlib import Path

import pytest

from harqlink import cli
from harqlink.amc import (amc_throughput, amc_thresholds_closed_form,
                          amc_thresholds_exact, amc_thresholds_per_target)
from harqlink.channel import ChannelConfig, FadingMode, db_to_linear, linear_to_db
from harqlink.cli import (CSV_HEADER, DEFAULT_RATES, SweepSpec,
                          emit_thresholds, main, run_sweep)
from harqlink.coding import CombiningType, McsTable
from harqlink.harq_analysis import (FastFadingTables, HarqConfig, HarqVariant,
                                    two_round_bound)
from harqlink.simulator import simulate_packet_drop, simulate_vl


def _spec(**kw):
    base = dict(snr_db_start=0.0, snr_db_stop=10.0, snr_db_step=5.0,
                schemes=("amc",))
    base.update(kw)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(snr_db_step=0.0)
    with pytest.raises(ValueError):
        _spec(schemes=("amc", "nope"))
    with pytest.raises(ValueError):
        _spec(region_source="nope")
    with pytest.raises(ValueError):
        _spec(schemes=("pd-harq",), mc_blocks=10)
    with pytest.raises(ValueError):
        _spec(fading="slwo")


def test_snr_points_inclusive():
    assert _spec().snr_points_db() == [0.0, 5.0, 10.0]
    assert _spec(snr_db_stop=9.0, snr_db_step=5.0).snr_points_db() == [0.0, 5.0]


def test_sweep_csv_shape_and_determinism(monkeypatch):
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    spec = _spec(schemes=("amc", "harq-ir", "harq-2r-bound"))
    lines = run_sweep(spec)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3
    cols = CSV_HEADER.split(",")
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == len(cols)
        eta = float(fields[cols.index("throughput")])
        assert 0.0 < eta < 3.75
    # schemes sorted, snr ascending within a scheme
    keys = [(r.split(",")[1], float(r.split(",")[0])) for r in lines[1:]]
    assert keys == sorted(keys)
    assert run_sweep(spec) == lines  # byte-identical rerun


def test_sweep_parallel_matches_serial(monkeypatch):
    spec = _spec(schemes=("amc", "harq-rr", "harq-ir"))  # harq-ir: the sweep makes a pool
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    serial = run_sweep(spec)
    monkeypatch.setenv("HARQLINK_WORKERS", "4")
    parallel = run_sweep(spec)
    assert serial == parallel


def test_warm_fast_ir_sweep_takes_few_page_faults(monkeypatch):
    # the IR region masses keep every work array in one block that outlives
    # the call (harq_analysis._work_arrays): a second README-grid harq-ir
    # sweep in one process takes single-digit minor faults, against 121k
    # when the 2n-point arrays were made afresh in every call
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    spec = _spec(snr_db_start=-5.0, snr_db_stop=30.0, snr_db_step=1.0, schemes=("harq-ir",))
    run_sweep(spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_sweep(spec)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 10_000


def test_sweep_builds_one_table_and_one_optimization_per_snr_and_combining(monkeypatch):
    # harq-2r-bound reuses the IR regions that harq-ir optimized, and the
    # harq-rr and harq-ir rows are the optimizer's own ratio: the sweep
    # computes no throughput of optimized regions again
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    tables, optimized, eta = Counter(), Counter(), {}
    build, optimize = FastFadingTables.__init__, cli.fast_optimize_regions
    throughput, evaluated = cli.fast_throughput, []

    def counted_build(self, table, K, combining, avg_snr, **kw):
        tables[(avg_snr, combining)] += 1
        build(self, table, K, combining, avg_snr, **kw)

    def counted_optimize(K, combining, table, avg_snr, **kw):
        optimized[(avg_snr, combining)] += 1
        res = optimize(K, combining, table, avg_snr, **kw)
        eta[(avg_snr, combining)] = res.throughput.value
        return res

    def counted_throughput(*args, **kw):
        evaluated.append(args)
        return throughput(*args, **kw)

    monkeypatch.setattr(FastFadingTables, "__init__", counted_build)
    monkeypatch.setattr(cli, "fast_optimize_regions", counted_optimize)
    monkeypatch.setattr(cli, "fast_throughput", counted_throughput)
    lines = run_sweep(_spec(schemes=("harq-ir", "harq-rr", "harq-2r-bound"),
                            region_source="optimized", snr_db_stop=5.0))
    assert len(lines) == 1 + 3 * 2
    keys = {(db_to_linear(g), c) for g in (0.0, 5.0) for c in CombiningType}
    assert tables == optimized == Counter(dict.fromkeys(keys, 1))
    assert evaluated == []
    cols = CSV_HEADER.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    got = {(db_to_linear(float(r["snr_avg_db"])), CombiningType(r["combining"])): r["throughput"]
           for r in rows if r["scheme"] in ("harq-rr", "harq-ir")}
    assert got == {key: cli._fmt(value) for key, value in eta.items()}


@pytest.mark.parametrize("region_source", ["amc-exact", "amc-closed-form", "per-target"])
def test_fixed_region_sweep_builds_no_tables(monkeypatch, region_source):
    # the throughput of fixed regions comes from spectral region masses, so
    # neither a fast sweep nor its thresholds dump builds FastFadingTables
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    tables = Counter()
    build = FastFadingTables.__init__

    def counted_build(self, table, K, combining, avg_snr, **kw):
        tables[(avg_snr, combining)] += 1
        build(self, table, K, combining, avg_snr, **kw)

    monkeypatch.setattr(FastFadingTables, "__init__", counted_build)
    spec = _spec(schemes=("amc", "harq-ir", "harq-rr", "harq-2r-bound"),
                 region_source=region_source)
    lines, dump = run_sweep(spec), emit_thresholds(spec)
    assert len(lines) == 1 + 4 * 3 and len(dump) == 1 + 3 * 3 * 5
    assert tables == Counter()


def test_sweep_pools_only_points_with_grid_optimizer_or_mc_work(monkeypatch):
    # forking workers costs more than the closed forms and quadratures of
    # slow-fading points and of fast amc, harq-rr and the bound take
    monkeypatch.setenv("HARQLINK_WORKERS", "2")
    pools = []
    pool = cli.ProcessPoolExecutor

    def counted(*args, **kwargs):
        pools.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", counted)
    readme = ("amc", "harq-rr", "harq-ir", "harq-2r-bound")
    run_sweep(_spec(schemes=readme, fading="slow"))
    run_sweep(_spec(schemes=("amc", "harq-rr", "harq-2r-bound")))
    assert pools == []
    run_sweep(_spec(schemes=readme))
    assert pools == [{"max_workers": 2}]
    assert cli._pool_pays(_spec(schemes=("harq-rr",), region_source="optimized"))
    assert cli._pool_pays(_spec(schemes=("pd-harq",), fading="slow"))
    assert not cli._pool_pays(_spec(schemes=readme, region_source="optimized", fading="slow"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_slow_sweep_optimizes_regions_once_per_combining(monkeypatch, workers):
    # slow-fading optimal regions do not depend on the average SNR, so the
    # sweep and the thresholds dump make them once per combining type and
    # every point gets the same regions
    monkeypatch.setenv("HARQLINK_WORKERS", workers)
    spec = _spec(schemes=("harq-ir", "harq-rr", "harq-2r-bound", "amc"),
                 region_source="optimized", fading="slow", snr_db_step=2.5)
    made = Counter()
    optimize = cli.slow_optimal_regions

    def counted(K, combining, table):
        made[combining] += 1
        return optimize(K, combining, table)

    monkeypatch.setattr(cli, "slow_optimal_regions", counted)
    lines, dump = run_sweep(spec), emit_thresholds(spec)
    assert made == Counter(dict.fromkeys(CombiningType, 2))
    monkeypatch.setattr(cli, "slow_optimal_regions", optimize)
    table = McsTable(rates=DEFAULT_RATES, a_tilde=4.0)
    ir = optimize(4, CombiningType.IR, table)
    cols = CSV_HEADER.split(",")
    for row in (dict(zip(cols, r.split(","))) for r in lines[1:]):
        if row["scheme"] == "harq-2r-bound":
            want = two_round_bound(ir, table, db_to_linear(float(row["snr_avg_db"])))
            assert row["throughput"] == f"{want:.12g}"
    assert len(lines) == 1 + 4 * 5 and len(dump) == 1 + 3 * 5 * 5


def test_pd_harq_rows_keep_their_streams_across_worker_counts(monkeypatch):
    # each row's MC stream id is its index in the (sorted scheme, SNR)
    # enumeration, whichever worker runs its SNR
    spec = _spec(schemes=("pd-harq", "amc"), snr_db_stop=5.0, mc_blocks=10 ** 5, seed=3)
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    serial = run_sweep(spec)
    monkeypatch.setenv("HARQLINK_WORKERS", "2")
    assert run_sweep(spec) == serial
    table = McsTable(rates=DEFAULT_RATES, a_tilde=4.0)
    harq = HarqConfig(CombiningType.IR, 4, HarqVariant.PACKET_DROP)
    cols = CSV_HEADER.split(",")
    pd_rows = [dict(zip(cols, r.split(","))) for r in serial[1:] if ",pd-harq," in r]
    for j, fields in enumerate(pd_rows):
        channel = ChannelConfig(db_to_linear(float(fields["snr_avg_db"])), FadingMode.FAST, 3)
        res = simulate_packet_drop(amc_thresholds_exact(table), harq, table, channel,
                                   10 ** 5, stream_id=2 + j)
        assert fields["throughput"] == f"{res.throughput:.12g}"


def test_mc_scheme_rows_carry_ci_and_blocks(monkeypatch):
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    spec = _spec(schemes=("pd-harq",), snr_db_stop=0.0, snr_db_step=1.0,
                 mc_blocks=10 ** 5, seed=3)
    lines = run_sweep(spec)
    cols = CSV_HEADER.split(",")
    fields = lines[1].split(",")
    assert fields[cols.index("combining")] == "ir"
    assert float(fields[cols.index("ci_half_width")]) > 0.0
    assert int(fields[cols.index("blocks")]) >= 10 ** 5


def test_thresholds_dump_format():
    spec = _spec(schemes=("amc", "harq-ir"), snr_db_stop=0.0, snr_db_step=1.0)
    lines = emit_thresholds(spec)
    assert lines[0] == "snr_avg_db,scheme,l,gamma_l_db,degenerate"
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[2] == "1"
    assert first[3] == "-inf"  # the lowest region always starts at zero SNR
    assert first[4] in ("0", "1")


def test_thresholds_dump_has_no_vl_harq_rows():
    # simulate_vl takes no decision regions, so none are dumped for it
    spec = _spec(schemes=("harq-ir", "vl-harq"), region_source="optimized",
                 fading="slow", snr_db_stop=0.0)
    rows = [line.split(",") for line in emit_thresholds(spec)[1:]]
    assert [r[1] for r in rows] == ["harq-ir"] * 5


def test_cli_sweep_writes_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--snr-db", "0:5:10", "--schemes", "amc",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    assert text.endswith("\n")


def test_cli_snr_db_negative_start_as_separate_token(tmp_path, monkeypatch):
    # the README form and argparse's unambiguous prefixes of the flag:
    # argparse must not read -5:5:5 as an option
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    out = tmp_path / "sweep.csv"
    for flag in ("--snr-db", "--snr-d", "--snr-", "--snr", "--sn"):
        assert main(["sweep", flag, "-5:5:5", "--schemes", "amc", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-5.0, 0.0, 5.0]


def test_regionless_schemes_use_the_labelled_region_source(monkeypatch):
    # amc and harq-2r-bound rows labelled amc-closed-form or per-target must
    # be computed on those thresholds, not on the amc-exact ones
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    table = McsTable(rates=DEFAULT_RATES, a_tilde=4.0)
    sources = {"amc-closed-form": amc_thresholds_closed_form(table),
               "per-target": amc_thresholds_per_target(table, 0.1, 1)}
    cols = CSV_HEADER.split(",")
    for source, regions in sources.items():
        lines = run_sweep(_spec(schemes=("amc", "harq-2r-bound"), region_source=source))
        for row in lines[1:]:
            fields = dict(zip(cols, row.split(",")))
            assert fields["region_source"] == source
            avg = db_to_linear(float(fields["snr_avg_db"]))
            if fields["scheme"] == "amc":
                want = amc_throughput(regions, table, avg).value
            else:
                want = two_round_bound(regions, table, avg)
            assert float(fields["throughput"]) == pytest.approx(want, rel=1e-11)
        dump = emit_thresholds(_spec(region_source=source, snr_db_stop=0.0))
        want_db = ["-inf"] + [f"{linear_to_db(t):.12g}" for t in regions.thresholds[1:]]
        assert [r.split(",")[3] for r in dump[1:]] == want_db


def test_cli_config_file_with_flag_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep config\nsnr-db = 0:5:10\nschemes = amc\nk = 2\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--snr-db", "0:5:5",
                 "--out", str(out2)]) == 0
    assert len(out1.read_text().splitlines()) == 4
    assert len(out2.read_text().splitlines()) == 3  # flag overrides config
    # a flag before --config still wins over the file
    assert main(["sweep", "--k", "3", "--config", str(cfg), "--out", str(out2)]) == 0
    assert {r.split(",")[4] for r in out2.read_text().splitlines()[1:]} == {"3"}
    # config values go through the flag's type: inf is step decoding
    cfg.write_text("snr-db = 0:5:5\na-tilde = inf\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert {r.split(",")[3] for r in out1.read_text().splitlines()[1:]} == {"inf"}


def test_readme_config_example_runs_as_written(tmp_path, monkeypatch):
    # the README's heredoc writes run.cfg, and its sweep line reads it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("cat > run.cfg <<'EOF'")
    end = lines.index("EOF", start)
    command = next(line for line in lines[end:] if line.startswith("harqlink sweep --config"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    (tmp_path / "run.cfg").write_text("\n".join(lines[start + 1:end]) + "\n")
    argv = shlex.split(command)[1:]
    assert main(argv) == 0
    rows = [r.split(",") for r in (tmp_path / argv[argv.index("--out") + 1]).read_text().splitlines()]
    assert rows[0] == CSV_HEADER.split(",")
    assert {(r[1], r[4]) for r in rows[1:]} == {(s, "3") for s in ("amc", "harq-rr", "harq-ir")}
    assert len(rows) == 1 + 3 * 5


def test_cli_bad_input_exit_code(tmp_path, monkeypatch, capsys):
    assert main(["sweep", "--snr-db", "garbage", "--schemes", "amc"]) == 2
    assert main(["sweep", "--snr-db", "0:1:5", "--schemes", "nope"]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["sweep", "--config", str(missing)]) == 2
    assert main(["sweep", "--snr-db", "0:1:5", "--schemes", "amc", "--seed", "-1"]) == 2
    assert main(["sweep", "--snr-db", "0:5:5", "--schemes", "harq-ir", "--k", "0"]) == 2
    # two SNR points of a fast harq-ir sweep, so with two workers the
    # errors come from pool tasks
    base = ["sweep", "--snr-db", "0:5:5", "--schemes", "harq-ir",
            "--out", str(tmp_path / "x.csv")]
    cfg = tmp_path / "run.cfg"
    for workers in ("1", "2"):
        monkeypatch.setenv("HARQLINK_WORKERS", workers)
        # unknown key, bad choice, bad types, no '=' and a nested config, on line 2
        for line in ("shemes = harq-ir", "fading = slwo", "k = two", "rates = 2,a",
                     "snr-db 10:1:10", f"config = {cfg}"):
            cfg.write_text("# run\n" + line + "\n")
            capsys.readouterr()
            assert main(base + ["--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cfg}:2: ") and "_rates" not in err
        # a flag that argparse rejects exits 2, naming the flag but not its type
        with pytest.raises(SystemExit) as exc:
            main(base + ["--rates", "2,a"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--rates: want a comma list of rates, got '2,a'" in err and "_rates" not in err
        for flags in (["--a-tilde", "-1"], ["--rates", "2,1"],
                      ["--regions", "per-target", "--per-target-ploss", "2"]):
            assert main(base + flags) == 2
            assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_cli_unwritable_output_exit_code(tmp_path):
    rc = main(["sweep", "--snr-db", "0:5:10", "--schemes", "amc",
               "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 2


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_step_decoding_flag():
    spec = _spec(a_tilde=math.inf)
    lines = run_sweep(spec)
    assert "inf" in lines[1]


def test_vl_harq_rows_are_simulate_vl_on_their_streams(monkeypatch):
    # a vl-harq row is simulate_vl with the default VL lengths, the spec's
    # seed and the row's point index as its stream, with either worker count
    spec = _spec(schemes=("vl-harq",), snr_db_start=20.0, snr_db_stop=25.0,
                 mc_blocks=10 ** 5, seed=5)
    monkeypatch.setenv("HARQLINK_WORKERS", "1")
    serial = run_sweep(spec)
    monkeypatch.setenv("HARQLINK_WORKERS", "2")
    assert run_sweep(spec) == serial
    table = McsTable(rates=DEFAULT_RATES, a_tilde=4.0)
    harq = HarqConfig(CombiningType.IR, 4, HarqVariant.VARIABLE_LENGTH,
                      lengths_primary=cli.DEFAULT_VL_PRIMARY, lengths_aux=cli.DEFAULT_VL_AUX)
    cols = CSV_HEADER.split(",")
    rows = [dict(zip(cols, r.split(","))) for r in serial[1:]]
    assert [r["snr_avg_db"] for r in rows] == ["20", "25"]
    for j, fields in enumerate(rows):
        channel = ChannelConfig(db_to_linear(float(fields["snr_avg_db"])), FadingMode.FAST, 5)
        res = simulate_vl(harq, table, channel, 10 ** 5, stream_id=j)
        assert (fields["scheme"], fields["combining"]) == ("vl-harq", "ir")
        assert fields["throughput"] == f"{res.throughput:.12g}"
        assert fields["ci_half_width"] == f"{res.ci_half_width:.12g}"
        assert fields["blocks"] == str(res.blocks)
