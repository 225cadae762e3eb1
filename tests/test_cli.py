import hashlib
import io
import json
import math

import numpy as np
import pytest

from decaystream.bench import (
    ExperimentConfig,
    build_mechanism,
    checkpoints,
    make_stream,
    run_bench,
)
from decaystream.bounds import allwindow_query_profile, utility_delta, worst_noise_profile
from decaystream.cli import main
from decaystream.mechanisms import DecaySpec
from decaystream.noise import SCHEDULE_BETA, RandomSource, level_epsilons


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_is_deterministic(capsys):
    argv = ["run", "--mech", "window", "--W", "8", "--eps", "1", "--seed", "7",
            "--T", "64"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_exponential_ones_matches_geometric_series(capsys):
    code, out, err = run_cli(capsys, [
        "run", "--mech", "exp", "--alpha", "0.9", "--no-noise",
        "--source", "ones", "--T", "20",
    ])
    assert code == 0
    assert "NOT private" in err
    lines = out.strip().splitlines()
    assert lines[0] == "t,estimate"
    for row in lines[1:]:
        t_s, est_s = row.split(",")
        j, est = int(t_s), float(est_s)
        assert est == pytest.approx((1 - 0.9**j) / (1 - 0.9), abs=1e-9)


def test_run_window_takes_any_size(capsys):
    # W = 6 is read over blocks of 8 positions, and exact with the noise off
    code, out, _ = run_cli(capsys, ["run", "--mech", "window", "--W", "6", "--T", "40",
                                    "--no-noise", "--with-exact"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 40
    assert all(float(r[3]) <= 1e-9 for r in rows)


def test_run_reads_file_and_reports_exact(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("1\n0\n1\n1\n")
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "window", "--W", "2", "--no-noise",
        "--input", str(path), "--with-exact",
    ])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [1.0, 1.0, 1.0, 2.0]
    assert all(float(r[3]) == 0.0 for r in rows)  # abs_error column


def test_run_parse_error_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1\nnope\n0\n")
    code, _, err = run_cli(capsys, [
        "run", "--mech", "running", "--input", str(path),
    ])
    assert code == 3
    assert "line 2" in err


def test_run_out_of_range_value_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n1.5\n")
    code, _, err = run_cli(capsys, [
        "run", "--mech", "running", "--input", str(path),
    ])
    assert code == 3
    assert "line 2" in err


def test_run_ndjson_round_trip(capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "running", "--T", "5", "--format", "ndjson",
        "--no-noise", "--source", "ones", "--with-exact",
    ])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["estimate"] for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(r["abs_error"] == 0.0 for r in records)


def test_run_histogram_mode(tmp_path, capsys):
    path = tmp_path / "keyed.csv"
    path.write_text("a,1\nb,1\na,0\nb,1\n")
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "window", "--W", "2", "--histogram", "--no-noise",
        "--input", str(path), "--with-exact",
    ])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[1], float(r[2])) for r in rows] == [
        ("a", 1.0), ("b", 1.0), ("a", 1.0), ("b", 2.0)]
    # --beta is the slack of poly, which histogram mode reads
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "poly", "--c", "2", "--beta", "0.25", "--histogram",
        "--input", str(path),
    ])
    assert code == 0 and len(out.strip().splitlines()) == 5


def test_run_rr_requires_bits(tmp_path, capsys):
    path = tmp_path / "frac.txt"
    path.write_text("0.25\n")
    code, _, err = run_cli(capsys, ["run", "--mech", "rr", "--input", str(path)])
    assert code == 3
    assert "binary" in err


def test_run_rr_and_oracle_mechs(capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "oracle", "--W", "4", "--source", "ones", "--T", "6",
    ])
    assert code == 0
    assert [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]] == [
        1.0, 2.0, 3.0, 4.0, 4.0, 4.0]
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "rr", "--W", "4", "--source", "bernoulli:0.5",
        "--T", "16", "--seed", "2", "--eps", "1",
    ])
    assert code == 0
    assert len(out.strip().splitlines()) == 17


def test_run_blocks_source_alternates(capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--mech", "oracle", "--W", "2", "--source", "blocks:2", "--T", "8",
    ])
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
    assert vals == [1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]


def test_bench_reports_raw_rr_below_unit_budget(capsys):
    code, out, _ = run_cli(capsys, [
        "bench", "--mech", "window", "--W", "8", "--eps", "0.5", "--seed", "3",
        "--T", "32", "--trials", "30",
    ])
    assert code == 0
    series = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert {"window", "rr_matched", "rr_raw", "running_diff"} <= series


def test_bench_small_table(capsys):
    code, out, _ = run_cli(capsys, [
        "bench", "--mech", "window", "--W", "8", "--eps", "1", "--seed", "3",
        "--T", "64", "--trials", "40",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["series", "j", "trials"]
    rows = [line.split(",") for line in lines[1:]]
    series = {r[0] for r in rows}
    assert series == {"window", "rr_matched", "running_diff"}
    # rigorous bound dominates the measured quantile for the mechanism rows
    for r in rows:
        if r[0] == "window":
            assert float(r[5]) <= float(r[6])


def test_bench_allwindow_bound_dominates(capsys):
    code, out, _ = run_cli(capsys, [
        "bench", "--mech", "allwindow", "--W", "5", "--eps", "1", "--seed", "4",
        "--T", "128", "--trials", "60",
    ])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        r = line.split(",")
        if r[0] == "allwindow":
            assert float(r[5]) <= float(r[6])


def test_bench_poly_bound_dominates():
    cfg = ExperimentConfig(
        mech="poly", c=2.0, beta=0.25, epsilon=1.0, T=512, trials=30, seed=5,
        source="bernoulli:0.5",
    )
    rows = [r for r in run_bench(cfg) if r.series == "poly"]
    assert [r.j for r in rows] == checkpoints(512)
    for r in rows:
        assert r.q_err <= r.delta_theory, r


def test_bench_deterministic_and_parallel_invariant(capsys):
    argv = ["bench", "--mech", "exp", "--alpha", "0.9", "--seed", "11",
            "--T", "32", "--trials", "32"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    code3, out3, _ = run_cli(capsys, argv + ["--jobs", "2"])
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


@pytest.mark.parametrize("mech", [["running"], ["window", "--W", "8"]])
def test_bench_theory_rows_follow_the_input_length(capsys, tmp_path, mech):
    # with --input the stream length, not --T, is the horizon of every
    # theory row (the mechanism's and the running difference's)
    path = tmp_path / "bits.txt"
    gen = np.random.default_rng(8)
    path.write_text("".join(f"{int(b)}\n" for b in gen.random(2000) < 0.5))
    argv = ["bench", "--mech", *mech, "--input", str(path), "--trials", "30", "--seed", "2"]
    outs = [run_cli(capsys, argv + T)[1] for T in ([], ["--T", "2000"], ["--T", "16"])]
    assert outs[0] == outs[1] == outs[2]
    rows = [line.split(",") for line in outs[0].strip().splitlines()[1:]]
    last = {r[0]: float(r[6]) for r in rows if r[1] == "1024"}
    if mech[0] == "running":
        profile = worst_noise_profile(DecaySpec.running(), 1.0, 2000)
        assert last["running"] == utility_delta(profile, 0.05)


@pytest.mark.parametrize("mech", [["running"], ["allwindow", "--W", "5"]], ids=lambda m: m[0])
def test_bench_theory_row_is_bound_delta_gamma(capsys, mech):
    # the theory row of the mechanism is bound's delta_gamma at the same horizon
    argv = ["--mech", *mech, "--T", "64"]
    code, out, _ = run_cli(capsys, ["bench", *argv, "--trials", "30"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    (theory,) = [float(r[6]) for r in rows if r[0] == mech[0] and r[1] == "64"]
    _, out, _ = run_cli(capsys, ["bound", *argv])
    table = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert theory == float(table["delta_gamma"])


def test_bench_rejects_too_few_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--mech", "window", "--W", "8", "--trials", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_bench_rejects_fewer_than_one_job(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--mech", "window", "--W", "8", "--trials", "30", "--T", "16",
              "--jobs", jobs])
    assert exc.value.code == 2
    assert "job" in capsys.readouterr().err


def test_bench_refuses_stdin_and_run_reads_it(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n0\n" * 20))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--mech", "running", "--trials", "30", "--input", "-"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "stdin" in err
    code, out, _ = run_cli(capsys, ["run", "--mech", "running", "--no-noise", "--input", "-"])
    assert code == 0
    assert out.splitlines()[-1] == "40,20.0"


@pytest.mark.parametrize("mech", [
    ["window", "--W", "8"],
    ["allwindow", "--W", "6"],
    ["exp", "--alpha", "0.9"],
    ["poly", "--c", "2", "--beta", "0.25"],
    ["running"],
], ids=lambda m: m[0])
def test_bench_refuses_a_stream_file_with_no_values(mech, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n  \n")
    code, out, err = run_cli(
        capsys, ["bench", "--mech", *mech, "--trials", "30", "--input", str(path)]
    )
    assert code == 3
    assert out == "" and "no values" in err


def test_bench_parses_its_input_file_once(tmp_path, capsys, monkeypatch):
    from decaystream import bench

    calls = []
    parse = bench.parse_stream
    monkeypatch.setattr(bench, "parse_stream", lambda *a: calls.append(a) or parse(*a))
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("1\n0\n" * 20)
    bad.write_text("1\nnope\n")
    argv = ["bench", "--mech", "exp", "--alpha", "0.9", "--trials", "30", "--input"]
    code, out, _ = run_cli(capsys, argv + [str(good)])
    assert code == 0 and out.startswith("series,")
    assert len(calls) == 1
    code, out, err = run_cli(capsys, argv + [str(bad)])
    assert (code, out) == (3, "") and "line 2" in err
    # a bad config (no --W, or gamma outside (0, 1)) is refused before the
    # file is read
    calls.clear()
    for config in (["window"], ["window", "--W", "8", "--gamma", "0"],
                   ["exp", "--alpha", "0.9", "--gamma", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mech", *config, "--trials", "30", "--input", str(bad)])
        assert exc.value.code == 2
    assert calls == []


@pytest.mark.parametrize("histogram", [False, True], ids=["plain", "histogram"])
def test_run_refuses_a_stream_file_with_no_values(histogram, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n  \n")
    argv = ["run", "--mech", "window", "--W", "8", "--input", str(path)]
    code, out, err = run_cli(capsys, argv + ["--histogram"] * histogram)
    assert code == 3
    assert out == "" and "holds no values" in err


STREAM_OPTIONS = [["--seed", "1"], ["--input", "/nonexistent"], ["--source", "ones"],
                  ["--no-noise"], ["--format", "csv"], ["--rr-flip", "0.5"]]
BUDGET_OPTIONS = [["--eps", "1"], ["--gamma", "0.1"], ["--T", "64"]]


@pytest.mark.parametrize("command, option", [
    *(("bound", o) for o in STREAM_OPTIONS),
    *(("lbverify", o) for o in STREAM_OPTIONS + BUDGET_OPTIONS),
    ("bench", ["--rr-flip", "0.5"]),  # the baselines' flip follows --eps
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_bound_and_lbverify_refuse_options_they_do_not_read(command, option, capsys):
    # and bench refuses --rr-flip, which only run reads
    argv = {
        "bench": ["bench", "--mech", "running", "--T", "64", "--trials", "30"],
        "bound": ["bound", "--mech", "running", "--T", "64"],
        "lbverify": ["lbverify", "--mech", "window", "--W", "8", "--q", "4", "--D", "8",
                     "--delta", "3.5"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bound_window(capsys):
    # the estimator's scale: log2 W' + 1 levels of a block of W' = 2**ceil(log2 W)
    for W, eps, levels in (("4", "1", 3.0), ("6", "1", 4.0), ("100", "0.5", 8.0)):
        code, out, _ = run_cli(capsys, [
            "bound", "--mech", "window", "--W", W, "--eps", eps, "--gamma", "0.05",
        ])
        assert code == 0
        table = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert float(table["counter_scale"]) == levels / float(eps)
        assert float(table["sensitivity"]) == levels
        assert "delta_gamma" in table and "delta_lb_ref" in table
        assert "utility_branch" in table


def test_bound_exponential_and_poly(capsys):
    code, out, _ = run_cli(capsys, [
        "bound", "--mech", "exp", "--alpha", "0.9",
    ])
    table = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(table["sensitivity"]) == pytest.approx(6.545858, abs=1e-5)

    code, out, _ = run_cli(capsys, [
        "bound", "--mech", "poly", "--c", "2", "--beta", "0.5", "--T", "1024",
    ])
    assert code == 0
    table = dict(line.split(",", 1) for line in out.strip().splitlines())
    # the all-window tree's one level schedule, whatever the tiling slack --beta
    assert float(table["sensitivity_per_level"]) == 1.0
    eps_k = level_epsilons(1.0, 2.0, 11)
    assert [float(table[f"level_{k}_scale"]) for k in range(1, 12)] == pytest.approx(
        [1.0 / e for e in eps_k], rel=1e-12
    )
    assert "level_12_scale" not in table
    profile = worst_noise_profile(DecaySpec.polynomial(2.0, 0.5), 1.0, 1024)
    assert float(table["sigma_worst"]) == pytest.approx(profile.sigma, rel=1e-12)
    assert float(table["delta_gamma"]) == pytest.approx(
        utility_delta(profile, 0.05), rel=1e-12
    )


@pytest.mark.parametrize("mech", ["running", "allwindow"])
def test_bound_profile_uses_the_schedule_exponent(capsys, mech):
    # the one level schedule eps_k = 6 eps / (pi**2 k**2)
    argv = ["bound", "--mech", mech, "--T", "1024"]
    if mech == "allwindow":
        argv += ["--W", "5"]
        profile = allwindow_query_profile(1.0, 1024)
    else:
        profile = worst_noise_profile(DecaySpec.running(), 1.0, 1024)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    table = dict(line.split(",", 1) for line in out.strip().splitlines())
    eps_k = level_epsilons(1.0, SCHEDULE_BETA, 11)
    assert [float(table[f"level_{k}_scale"]) for k in range(1, 12)] == [1.0 / e for e in eps_k]
    assert "level_12_scale" not in table
    assert eps_k == pytest.approx([6.0 / (math.pi**2 * k * k) for k in range(1, 12)],
                                  rel=1e-12)
    assert float(table["sigma_worst"]) == pytest.approx(profile.sigma, rel=1e-12)
    assert float(table["delta_gamma"]) == pytest.approx(
        utility_delta(profile, 0.05), rel=1e-12
    )


@pytest.mark.parametrize("command", [
    ["bound", "--T", "64"],
    ["bench", "--T", "64", "--trials", "30"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("mech", ["rr", "oracle"])
def test_bound_and_bench_refuse_mechs_without_a_tree(command, mech, capsys):
    # rr and oracle have no tree, so no tree figures and no tree series
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--mech", mech, "--W", "8", *command[1:]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err


def test_bound_rejects_bad_window(capsys):
    # and a horizon below 1, which is not read as "no horizon"
    for argv in (["window", "--W", "0"], ["running", "--T", "0"], ["running", "--T", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--mech", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_lbverify_pass_and_fail(capsys):
    base = ["lbverify", "--mech", "window", "--W", "8", "--q", "4", "--D", "8"]
    code, out, _ = run_cli(capsys, base + ["--delta", "3.5"])
    assert code == 0
    assert "independence,PASS" in out
    assert "closeness_vs_zero,PASS" in out
    assert "framework_threshold" in out

    code, out, _ = run_cli(capsys, base + ["--delta", "7.0"])
    assert code == 1
    assert "independence,FAIL" in out
    assert any(line.endswith("False") for line in out.splitlines())


def test_lbverify_refuses_a_bad_eps_grid_before_printing(capsys):
    # the grid is read last, so a bad value found there would follow the
    # whole report
    for grid, message in (("1,0", "epsilon must be finite and positive"),
                          ("1,x", "could not convert")):
        with pytest.raises(SystemExit) as exc:
            main(["lbverify", "--mech", "window", "--W", "8", "--q", "4", "--D", "8",
                  "--delta", "3.5", "--eps-grid", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_stream_round_trip_matches_memory(capsys):
    # records printed by run, re-parsed, equal the estimates of the config's
    # estimator (bench trial 0's noise) pushed over the config's stream
    cases = [
        (["window", "--W", "4"], dict(W=4)),
        (["window", "--W", "6"], dict(W=6)),
        (["allwindow", "--W", "6"], dict(W=6)),
        (["exp", "--alpha", "0.9"], dict(alpha=0.9)),
        (["poly", "--c", "2", "--beta", "0.25"], dict(c=2.0, beta=0.25)),
        (["running"], {}),
    ]
    for mech, kw in cases:
        argv = ["run", "--mech", *mech, "--eps", "1", "--seed", "5", "--T", "32"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        got = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        cfg = ExperimentConfig(mech=mech[0], epsilon=1.0, T=32, seed=5, **kw)
        est = build_mechanism(cfg, RandomSource(5).child(1).child(0).child(0))
        want = [est.push(x) for x in make_stream(cfg)]
        assert got == want, mech


def test_run_refuses_a_bad_config_before_reading_its_file(tmp_path, capsys, monkeypatch):
    from decaystream import bench

    calls = []
    monkeypatch.setattr(bench, "parse_stream", lambda *a: calls.append(a))
    path = tmp_path / "stream.txt"
    path.write_text("1\nnope\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mech", "window", "--input", str(path)])
    assert exc.value.code == 2
    assert "--W is required" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["--mech", "window", "--W", "8", "--rr-flip", "7"],
    ["--mech", "exp", "--alpha", "0.9", "--rr-flip", "0.5"],
    ["--histogram", "--mech", "running", "--beta", "1.5"],
    ["--histogram", "--mech", "window", "--W", "8", "--beta", "1.5"],
    ["--mech", "window", "--W", "8", "--alpha", "0.5", "--c", "3"],
    ["--mech", "exp", "--alpha", "0.9", "--beta", "7"],
    ["--mech", "running", "--beta", "1.5"],
    ["--mech", "allwindow", "--W", "5", "--beta", "1.5"],
    ["--mech", "oracle", "--W", "4", "--alpha", "0.9"],
    ["--mech", "rr", "--alpha", "0.9", "--c", "2", "--beta", "0.5"],
], ids=["window-rr-flip", "exp-rr-flip", "histogram-running-beta", "histogram-window-beta",
        "window-alpha-c", "exp-beta", "running-beta", "allwindow-beta", "oracle-two-decays",
        "rr-two-decays"])
def test_run_refuses_options_its_mech_does_not_read(argv, tmp_path, capsys, monkeypatch):
    # --rr-flip is read only by rr, --beta only as the slack of poly, each
    # decay option only by its own mech, and rr and oracle read the options
    # of at most one decay; each is refused before the file is read
    from decaystream import bench

    calls = []
    monkeypatch.setattr(bench, "parse_stream", lambda *a: calls.append(a))
    path = tmp_path / "keyed.csv"
    path.write_text("a,1\nb,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv, "--input", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert calls == []


@pytest.mark.parametrize("mech", ["allwindow", "rr", "oracle"])
def test_run_histogram_refuses_mechs_it_does_not_build(mech, tmp_path, capsys, monkeypatch):
    # histogram mode builds each key's estimator from the decay alone
    from decaystream import bench

    calls = []
    monkeypatch.setattr(bench, "parse_stream", lambda *a: calls.append(a))
    path = tmp_path / "keyed.csv"
    path.write_text("a,1\nb,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--histogram", "--mech", mech, "--W", "4", "--input", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert calls == []


# Each case: the file's lines, its line ending, and the parsed values, or
# None when line 2 must be rejected.  Keyed runs prefix every non-blank line
# with "k,".
STREAM_FILE_CASES = {
    "nan": (["0.5", "nan"], "\n", None),
    "inf": (["0.5", "inf"], "\n", None),
    "negative": (["0.5", "-0.1"], "\n", None),
    "above_one": (["0.5", "1.5"], "\n", None),
    "text": (["0.5", "abc"], "\n", None),
    "comma_in_key": (["0.5", "b,0.5"], "\n", None),
    "crlf": (["0.5", "1"], "\r\n", [0.5, 1.0]),
    "blank_lines": (["0.5", "", "  ", "1", ""], "\n", [0.5, 1.0]),
}


@pytest.mark.parametrize("command", ["run", "bench", "histogram"])
@pytest.mark.parametrize("case", sorted(STREAM_FILE_CASES))
def test_stream_file_validation(command, case, tmp_path, capsys):
    lines, end, want = STREAM_FILE_CASES[case]
    keyed = command == "histogram"
    path = tmp_path / "stream.txt"
    path.write_bytes("".join(
        ("k," + line if keyed and line.strip() else line) + end for line in lines
    ).encode())
    argv = {
        "run": ["run", "--mech", "running", "--no-noise"],
        "histogram": ["run", "--mech", "running", "--no-noise", "--histogram"],
        "bench": ["bench", "--mech", "running", "--trials", "30"],
    }[command] + ["--input", str(path)]
    code, out, err = run_cli(capsys, argv)
    if want is None:
        assert code == 3
        assert "error: line 2:" in err
        assert out == ""
        return
    assert code == 0
    if command != "bench":
        estimates = [float(row.split(",")[-1]) for row in out.strip().splitlines()[1:]]
        assert estimates == list(np.cumsum(want))


@pytest.mark.parametrize("eps", ["inf", "0", "-1", "nan"])
@pytest.mark.parametrize("command", ["run", "histogram", "bench", "bound"])
def test_every_command_refuses_an_epsilon_that_is_not_finite_and_positive(
    command, eps, tmp_path, capsys, monkeypatch
):
    # --eps inf would publish the exact sums, without the --no-noise warning;
    # each bad budget is refused with exit 2 before the input is read
    from decaystream import bench

    calls = []
    monkeypatch.setattr(bench, "parse_stream", lambda *a: calls.append(a))
    path = tmp_path / "stream.txt"
    path.write_text("a,1\nb,0\n" if command == "histogram" else "1\n0\n")
    argv = {
        "run": ["run", "--mech", "window", "--W", "4", "--with-exact", "--input", str(path)],
        "histogram": ["run", "--histogram", "--mech", "window", "--W", "4", "--input",
                      str(path)],
        "bench": ["bench", "--mech", "window", "--W", "4", "--trials", "30", "--input",
                  str(path)],
        "bound": ["bound", "--mech", "window", "--W", "4"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--eps", eps])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon must be finite and positive" in captured.err
    assert calls == []


class CountingOut:
    """A stdout that counts its write calls."""

    def __init__(self):
        self.buffer = io.StringIO()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self.buffer.write(text)


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
def test_run_writes_its_records_in_blocks(fmt, monkeypatch):
    # unbuffered stdout makes each write a syscall: 10,000 rows go out in
    # ceil(10000 / block) writes plus the header, with the bytes of one
    # write per row
    from decaystream import cli

    T = 10_000
    out = CountingOut()
    monkeypatch.setattr(cli.sys, "stdout", out)
    assert main(["run", "--mech", "window", "--W", "8", "--T", str(T), "--seed", "2",
                 "--format", fmt]) == 0
    assert out.writes <= math.ceil(T / cli._BLOCK) + 1
    cfg = ExperimentConfig(mech="window", W=8, T=T, seed=2)
    est = build_mechanism(cfg, RandomSource(2).child(1).child(0).child(0))
    rows = [(t, est.push(x)) for t, x in enumerate(make_stream(cfg), 1)]
    if fmt == "csv":
        want = "t,estimate\n" + "".join(f"{t},{v!r}\n" for t, v in rows)
    else:
        want = "".join(json.dumps({"t": t, "estimate": v}) + "\n" for t, v in rows)
    assert out.buffer.getvalue() == want


@pytest.mark.parametrize("decay", [
    ["--c", "2", "--beta", "1e-17"],
    ["--c", "1e300", "--beta", "0.25"],
    ["--c", "inf", "--beta", "0.25"],
], ids=["beta 1e-17", "c 1e300", "c inf"])
@pytest.mark.parametrize("command", [
    ["run", "--T", "4"],
    ["bench", "--T", "4", "--trials", "30"],
    ["bound", "--T", "4"],
], ids=lambda c: c[0])
def test_poly_refuses_a_slack_whose_rho_rounds_to_zero(command, decay, capsys):
    # rho = (1 - beta)**(-1/c) - 1 rounds to 0, so no node longer than a
    # leaf is ever admitted: refused before the header, not half-way through
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--mech", "poly", *decay, *command[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rounds to 0" in captured.err


# Seeded output pinned by the SHA-256 of each command's stdout.  Only
# commands that draw no Laplace noise are pinned (noise off, randomized
# response, the oracle): with numpy's AVX-512 loops switched off
# (NPY_DISABLE_CPU_FEATURES), np.log in the Laplace transform rounds some
# draws differently and a noisy bench's np.mean reduction moves in its last
# bits, so a noisy digest would hold on one kind of host only.
PINNED_OUTPUT = [
    ("bench --mech window --W 600 --T 300 --eps 0.5 --no-noise --trials 30 --jobs 1 --seed 3",
     "0c7268942a010506736daed81f32786137271a288bb4eae8ee5441e0c575c5e8"),
    ("bench --mech allwindow --W 8 --T 256 --no-noise --trials 30 --jobs 1 --seed 5",
     "c4cd5115599542ae2ec86bd8509077fb307a41abbad4c7629734e74a1b16bb60"),
    ("bench --mech exp --alpha 0.9 --T 256 --no-noise --trials 30 --jobs 1 --seed 6",
     "a5ae07211ebc1213531fb202add4c01ad4f75429620c118e52b317bde8e69751"),
    ("bench --mech poly --c 2 --beta 0.25 --T 128 --no-noise --trials 30 --jobs 1 --seed 7",
     "fa0322308bb02945b043c2b3c4d098a5cd42254d57adac098767b1ad7a9e63d5"),
    ("bench --mech running --T 256 --no-noise --trials 30 --jobs 1 --seed 8",
     "f7f177d8420616780974395ecc0e49f8a58c98d82fdaab5a1ab64d38039d200d"),
    # long enough that the growing tree's checkpoint reads cross many
    # levels, and the all-window view reads block nodes below its root
    ("bench --mech running --T 5000 --eps 0.5 --no-noise --trials 30 --jobs 1 --seed 17",
     "1703bb13021fa5a4976e37571289cad477f1dc6dd2719ebb13964e48424cc8b6"),
    ("bench --mech allwindow --W 1000 --T 5000 --no-noise --trials 30 --jobs 1 --seed 18",
     "1f62cc9164690bd6d0a1b96dea661d4965733e0ea3cc7cbc633703eb2bf42a22"),
    ("run --mech window --W 8 --T 64 --no-noise --with-exact --seed 9",
     "19c2c0eb0a923e754bc7ddec28c5a92fd32842264d2e6e74c1209651b3053a3c"),
    ("run --mech allwindow --W 8 --T 64 --no-noise --with-exact --seed 10",
     "1a9cf27d7808acfe8a8136c4d1bcdcbb06b470c2eedf33b7389c02d57000336b"),
    ("run --mech exp --alpha 0.9 --T 64 --no-noise --with-exact --seed 11",
     "96ab9d4d44bed8794cf30f88b09c7fc364d7ff729d538ffa64c33e3edeca98f4"),
    # at alpha = 0.7 a weight falls below _TINY_WEIGHT at age 1937, so
    # from step 4097 on the stream closes left nodes longer than that
    ("run --mech exp --alpha 0.7 --T 5000 --no-noise --with-exact --seed 16",
     "52a053e4e07cf6ce1e70dcf2ea63accaf07fd301ad3d8fbefbfb01e93f93930f"),
    ("run --mech poly --c 2 --beta 0.25 --T 64 --no-noise --with-exact --seed 12",
     "c94c241dc31a70e198fd78c1a57a8c32974452f53ee43d152f148e63c60ca7a6"),
    ("run --mech running --T 64 --no-noise --with-exact --seed 13",
     "eefbd2ef0dc21d18e22ed1a8dce9f378fccf437be367a07a42e240328d567a0e"),
    ("run --mech rr --W 8 --T 64 --with-exact --seed 14",
     "073d558cdcb350152e9c19d81bbc029dcaa806f8b337a5e8ef69f0f7d830067a"),
    ("run --mech oracle --W 8 --T 64 --seed 15",
     "9390347a0fb346d8615ce6ab5c3d2fe884723d2c382dfa81c269a8a33806eeef"),
]


@pytest.mark.parametrize("command, digest", PINNED_OUTPUT, ids=[c for c, _ in PINNED_OUTPUT])
def test_seeded_output_matches_its_pinned_digest(command, digest, capsys):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
