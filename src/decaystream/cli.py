"""Command-line harness: parses argv and prints.

Commands:
  run       stream input through one estimator and print per-step records
  bench     Monte-Carlo error summary against the oracle and baselines
  bound     print the theory numbers for a configuration
  lbverify  build and check the lower-bound instance family

``run`` and ``lbverify`` take all seven ``--mech`` values, ``bench`` and
``bound`` the five tree mechanisms.  What a mech and its options mean is read
by :class:`~decaystream.bench.ExperimentConfig` alone; ``run``, ``bench`` and
``bound`` build their estimator from it before they read any stream.

Exit codes: 0 success, 2 usage error, 3 data error.  Output is CSV by default
(NDJSON with --format ndjson) and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import fields

from .baselines import ExactOracle, RandomizedResponse, rr_flip_parameter
from .bench import (
    MECHS,
    TREE_MECHS,
    DataError,
    ExperimentConfig,
    build_mechanism,
    make_stream,
    read_stream,
    run_bench,
    theory_profile,
)
from .bounds import (
    LowerBoundFamily,
    check_closeness,
    check_independence,
    framework_threshold,
    reference_delta,
    utility_delta,
    worst_noise_profile,
)
from .extensions import DecayedHistogram
from .mechanisms import DecaySpec
from .noise import RandomSource, check_epsilon

USAGE_EXIT = 2
DATA_EXIT = 3
# histogram mode builds each key's estimator from the decay alone
HISTOGRAM_MECHS = ("window", "exp", "poly", "running")
_BLOCK = 4096  # output rows per write: unbuffered stdout makes each write a syscall


def _add_decay(p: argparse.ArgumentParser, mechs) -> None:
    """The mechanism and its decay parameters (every command)."""
    p.add_argument("--mech", required=True, choices=mechs)
    p.add_argument("--W", type=int, help="window size")
    p.add_argument("--alpha", type=float, help="exponential decay base")
    p.add_argument("--c", type=float, help="polynomial decay exponent")
    p.add_argument("--beta", type=float, help="polynomial multiplicative slack (poly only)")


def _add_budget(p: argparse.ArgumentParser, gamma: bool = True) -> None:
    """Privacy budget, horizon and, where the command reads it (bench,
    bound; not run), the error probability."""
    p.add_argument("--eps", dest="epsilon", metavar="EPS", type=float, default=1.0,
                   help="privacy budget")
    if gamma:
        p.add_argument("--gamma", type=float, default=0.05, help="error probability")
    p.add_argument("--T", type=int, default=1024,
                   help="generated stream length (bound: the horizon)")


def _add_stream(p: argparse.ArgumentParser) -> None:
    """The input stream, the noise and the output format (run, bench)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="stream file (run also reads - as stdin)")
    p.add_argument("--source", default="bernoulli:0.5",
                   help="generator: bernoulli:p | ones | blocks:<period>")
    p.add_argument("--no-noise", dest="noisy", action="store_false",
                   help="disable privacy noise (NOT private; for testing)")
    p.add_argument("--format", choices=["csv", "ndjson"], default="csv")


def _eps_grid(text: str) -> list[float]:
    """--eps-grid: comma-separated epsilons, refused unless finite and positive."""
    try:
        grid = [float(v) for v in text.split(",")]
        for eps in grid:
            check_epsilon(eps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return grid


def _config(args) -> ExperimentConfig:
    """The config whose fields the options' dests name (defaults for the rest)."""
    opts = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
            if hasattr(args, f.name)}
    return ExperimentConfig(**opts)


def _emit(records, header, fmt, out):
    """Write the records as CSV rows after a header, or as NDJSON, joining
    each block of ``_BLOCK`` rows into one write."""
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        lines = (",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                          for v in rec) for rec in records)
    else:
        lines = (json.dumps(dict(zip(header, rec))) for rec in records)
    while block := list(itertools.islice(lines, _BLOCK)):
        block.append("")
        out.write("\n".join(block))


def _build_runner(args, cfg: ExperimentConfig):
    """The estimator ``run`` pushes its input through; building it refuses a
    bad configuration before any input is read."""
    rng, decay = RandomSource(cfg.seed), cfg.decay()
    if args.rr_flip is not None and cfg.mech != "rr":
        raise ValueError(f"--rr-flip is read only by --mech rr, not {cfg.mech!r}")
    if args.histogram:
        if cfg.mech not in HISTOGRAM_MECHS:
            raise ValueError(f"histogram mode takes --mech {'|'.join(HISTOGRAM_MECHS)}, "
                             f"not {cfg.mech!r}")
        # build one key's estimator, as the histogram will (child() is stateless)
        build_mechanism(cfg, rng)
        return DecayedHistogram(decay, cfg.epsilon, rng, noisy=cfg.noisy)
    if cfg.mech == "oracle":
        return ExactOracle(decay)
    if cfg.mech == "rr":
        flip = args.rr_flip if args.rr_flip is not None else rr_flip_parameter(cfg.epsilon)
        return RandomizedResponse(decay, flip, rng)
    # same noise stream as bench trial 0 of the same seed
    return build_mechanism(cfg, rng.child(1).child(0).child(0))


def cmd_run(args) -> int:
    cfg = _config(args)
    runner = _build_runner(args, cfg)
    decay = cfg.decay()
    exact_cols = ["exact", "abs_error"] if args.with_exact else []
    # input is parsed and validated in full first; records are then written
    # as they are produced
    if args.histogram:
        if cfg.input_path is None:
            raise DataError("histogram mode requires --input with key,value lines")
        rows = read_stream(cfg.input_path, keyed=True)
        oracles: dict = {}

        def keyed_records():
            for t, (key, x) in enumerate(rows, 1):
                _, est = runner.push(key, x)
                rec = [t, key, est]
                if args.with_exact:
                    oracle = oracles.get(key)
                    if oracle is None:
                        oracle = oracles[key] = ExactOracle(decay)
                    exact = oracle.push(x)
                    rec += [exact, abs(est - exact)]
                yield rec

        _emit(keyed_records(), ["t", "key", "estimate"] + exact_cols, args.format, sys.stdout)
        return 0
    xs = make_stream(cfg)
    if args.mech == "rr" and any(x not in (0.0, 1.0) for x in xs):
        raise DataError("randomized response requires a binary stream")
    oracle = ExactOracle(decay) if args.with_exact else None

    def records():
        for t, x in enumerate(xs, 1):
            est = runner.push(x)
            rec = [t, est]
            if oracle is not None:
                exact = oracle.push(x)
                rec += [exact, abs(est - exact)]
            yield rec

    _emit(records(), ["t", "estimate"] + exact_cols, args.format, sys.stdout)
    return 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    if cfg.input_path == "-":
        raise ValueError("bench cannot read its stream from stdin (--input -); "
                         "give a stream file")
    rows = run_bench(cfg)  # refuses a bad config before it reads the stream
    header = ["series", "j", "trials", "mean_err", "sd_err",
              f"q{100 * (1 - cfg.gamma):g}_abs_err", "delta_theory", "delta_lb_ref"]
    records = [
        [r.series, r.j, r.trials, r.mean_err, r.sd_err, r.q_err,
         r.delta_theory, r.delta_lb_ref]
        for r in rows
    ]
    _emit(records, header, args.format, sys.stdout)
    return 0


def cmd_bound(args) -> int:
    cfg = _config(args)
    est = build_mechanism(cfg, RandomSource(cfg.seed))  # refuses a bad config
    decay, eps, gamma = cfg.decay(), cfg.epsilon, cfg.gamma
    if cfg.mech in ("window", "exp"):
        # one noise scale on every counter
        if cfg.mech == "window":
            what, r = "W", decay.W
        else:
            what, r = "range", decay.alpha / (1.0 - decay.alpha)
        rows = [("sensitivity", est.sensitivity), ("counter_scale", est.counter_scale)]
        cmp = ">=" if math.log2(r) >= math.log2(1.0 / gamma) else "<"
        branch = f"log2({what}) {cmp} log2(1/gamma)"
    else:
        # allwindow / running / poly: one scale per level of the grown tree
        levels = worst_noise_profile(DecaySpec.running(), eps, cfg.T).scales
        rows = [("sensitivity_per_level", 1.0)]
        rows += [(f"level_{k}_scale", b) for k, b in enumerate(levels, 1)]
        branch = "per-level budgets eps_k = 6 eps / (pi**2 k**2)"
        if cfg.mech == "poly":
            branch += "; the age tiling is post-processing of the all-window tree"
    profile = theory_profile(cfg, cfg.T)
    rows.append(("sigma_worst", profile.sigma))
    rows.append(("delta_gamma", utility_delta(profile, gamma)))
    rows.append(("delta_lb_ref", reference_delta(decay, gamma, eps)))
    for name, value in rows:
        print(f"{name},{value!r}")
    print(f"utility_branch,{branch}")
    return 0


def cmd_lbverify(args) -> int:
    decay = _config(args).decay()
    family = LowerBoundFamily(args.q, args.D)
    ok_ind, table = check_independence(family, decay, args.delta)
    ok_close, all_pairs = check_closeness(family, args.D)
    print(f"family,q={family.q},D={family.D},T={family.T}")
    print("pair_a,pair_b,probe_j,gap,separated")
    for w in table:
        print(f"{w.a},{w.b},{w.probe},{w.gap!r},{w.separated}")
    print(f"independence,{'PASS' if ok_ind else 'FAIL'},delta={args.delta!r}")
    print(f"closeness_vs_zero,{'PASS' if ok_close else 'FAIL'},all_pairs_max={all_pairs}")
    for eps in args.eps_grid:
        print(f"framework_threshold,eps={eps!r},D_must_exceed="
              f"{framework_threshold(family.q, eps)!r}")
    return 0 if (ok_ind and ok_close) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaystream",
        description="Differentially private decayed sums on streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream through one estimator")
    _add_decay(p_run, MECHS)
    _add_budget(p_run, gamma=False)
    _add_stream(p_run)
    p_run.add_argument("--rr-flip", type=float,
                       help="explicit randomized-response keep bias in (0,1) (--mech rr only)")
    p_run.add_argument("--with-exact", action="store_true",
                       help="also print the exact value and absolute error")
    p_run.add_argument("--histogram", action="store_true",
                       help="input is key,value records; one estimator per key "
                            f"(--mech {'|'.join(HISTOGRAM_MECHS)})")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="Monte-Carlo benchmark")
    _add_decay(p_bench, TREE_MECHS)
    _add_budget(p_bench)
    _add_stream(p_bench)
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes (output identical for any value)")
    p_bench.set_defaults(func=cmd_bench)

    p_bound = sub.add_parser("bound", help="print theory numbers")
    _add_decay(p_bound, TREE_MECHS)
    _add_budget(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    # without abbreviations, --eps is refused instead of read as --eps-grid
    p_lb = sub.add_parser("lbverify", help="verify the lower-bound family",
                          allow_abbrev=False)
    _add_decay(p_lb, MECHS)
    p_lb.add_argument("--q", type=int, required=True, help="number of probe blocks")
    p_lb.add_argument("--D", type=int, required=True, help="block length")
    p_lb.add_argument("--delta", type=float, required=True,
                      help="target additive error to separate against")
    p_lb.add_argument("--eps-grid", type=_eps_grid,
                      default=[0.1, 0.5, 1.0, 2.0],
                      help="comma-separated epsilons for the threshold table")
    p_lb.set_defaults(func=cmd_lbverify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "noisy", True):
        print("WARNING: --no-noise disables privacy noise; output is NOT private.",
              file=sys.stderr)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (ValueError, OSError) as exc:
        parser.exit(USAGE_EXIT, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
