"""Command-line harness.

Commands:
  run       stream input through one estimator and print per-step records
  bench     Monte-Carlo error summary against the oracle and baselines
  bound     print the theory numbers for a configuration
  lbverify  build and check the lower-bound instance family

Exit codes: 0 success, 2 usage error, 3 data error.  Output is CSV by default
(NDJSON with --format ndjson) and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .baselines import ExactOracle, RandomizedResponse, rr_flip_parameter
from .bench import (
    DataError,
    ExperimentConfig,
    build_mechanism,
    make_stream,
    parse_stream,
    run_bench,
)
from .bounds import (
    LowerBoundFamily,
    allwindow_query_profile,
    check_closeness,
    check_independence,
    framework_threshold,
    reference_delta,
    utility_delta,
    worst_noise_profile,
)
from .extensions import DecayedHistogram
from .mechanisms import DecaySpec, exp_decay_sensitivity
from .noise import DEFAULT_SCHEDULE_BETA, RandomSource, level_epsilons

USAGE_EXIT = 2
DATA_EXIT = 3


def _add_decay(p: argparse.ArgumentParser) -> None:
    """The mechanism and its decay parameters (every command)."""
    p.add_argument("--mech", required=True,
                   choices=["window", "allwindow", "exp", "poly", "running", "rr", "oracle"])
    p.add_argument("--W", type=int, help="window size")
    p.add_argument("--alpha", type=float, help="exponential decay base")
    p.add_argument("--c", type=float, help="polynomial decay exponent")
    p.add_argument("--beta", type=float,
                   help="polynomial multiplicative slack / level schedule exponent")


def _add_budget(p: argparse.ArgumentParser) -> None:
    """Privacy budget, error probability and horizon (run, bench, bound)."""
    p.add_argument("--eps", type=float, default=1.0, help="privacy budget")
    p.add_argument("--gamma", type=float, default=0.05, help="error probability")
    p.add_argument("--T", type=int, default=1024,
                   help="generated stream length (bound: the horizon)")


def _add_stream(p: argparse.ArgumentParser) -> None:
    """The input stream, the noise and the output format (run, bench)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="stream file (run also reads - as stdin)")
    p.add_argument("--source", default="bernoulli:0.5",
                   help="generator: bernoulli:p | ones | blocks:<period>")
    p.add_argument("--no-noise", action="store_true",
                   help="disable privacy noise (NOT private; for testing)")
    p.add_argument("--format", choices=["csv", "ndjson"], default="csv")
    p.add_argument("--rr-flip", type=float,
                   help="explicit randomized-response keep bias in (0,1)")


def _decay_from_args(args) -> DecaySpec:
    mech = args.mech
    if mech in ("window", "allwindow", "rr", "oracle") and args.W is not None:
        return DecaySpec.window(args.W)
    if mech == "exp" or (mech in ("rr", "oracle") and args.alpha is not None):
        if args.alpha is None:
            raise ValueError("--alpha is required for exponential decay")
        return DecaySpec.exponential(args.alpha)
    if mech == "poly" or (mech in ("rr", "oracle") and args.c is not None):
        if args.c is None or args.beta is None:
            raise ValueError("--c and --beta are required for polynomial decay")
        return DecaySpec.polynomial(args.c, args.beta)
    if mech in ("window", "allwindow"):
        raise ValueError(f"--W is required for mech {mech!r}")
    return DecaySpec.running()


def _schedule_beta(args) -> float:
    """Level-schedule exponent: --beta on the growing-tree routes (running,
    allwindow), else the default (poly's --beta is its slack)."""
    if args.mech in ("running", "allwindow") and args.beta is not None:
        return args.beta
    return DEFAULT_SCHEDULE_BETA


def _emit(records, header, fmt, out):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for rec in records:
            out.write(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                               for v in rec) + "\n")
    else:
        for rec in records:
            out.write(json.dumps(dict(zip(header, rec))) + "\n")


def _read_input(args, keyed):
    fh = sys.stdin if args.input == "-" else open(args.input)
    try:
        rows = parse_stream(fh, keyed)
    finally:
        if fh is not sys.stdin:
            fh.close()
    if not rows:
        raise DataError(f"stream file {args.input!r} holds no values")
    return rows


def _read_stream(args):
    if args.input is None:
        cfg = ExperimentConfig(
            mech="running", T=args.T, seed=args.seed, source=args.source,
            W=args.W,
        )
        return make_stream(cfg)
    return _read_input(args, keyed=False)


def _read_keyed_stream(args):
    if args.input is None:
        raise DataError("histogram mode requires --input with key,value lines")
    return _read_input(args, keyed=True)


def _build_runner(args, decay, noisy):
    rng = RandomSource(args.seed)
    mech = args.mech
    if mech == "oracle":
        return ExactOracle(decay)
    if mech == "rr":
        flip = args.rr_flip if args.rr_flip is not None else rr_flip_parameter(args.eps)
        return RandomizedResponse(decay, flip, rng)
    cfg = ExperimentConfig(
        mech=mech, epsilon=args.eps, gamma=args.gamma, T=args.T, seed=args.seed,
        W=args.W, alpha=args.alpha, c=args.c, beta=args.beta,
        schedule_beta=_schedule_beta(args), noisy=noisy,
    )
    # same noise stream as bench trial 0 of the same seed
    return build_mechanism(cfg, rng.child(1).child(0).child(0))


def cmd_run(args) -> int:
    noisy = not args.no_noise
    if not noisy:
        print("WARNING: --no-noise disables privacy noise; output is NOT private.",
              file=sys.stderr)
    decay = _decay_from_args(args)
    exact_cols = ["exact", "abs_error"] if args.with_exact else []
    # input is parsed and validated in full first; records are then written
    # as they are produced
    if args.histogram:
        rows = _read_keyed_stream(args)
        hist = DecayedHistogram(decay, args.eps, RandomSource(args.seed), noisy=noisy)
        oracles: dict = {}

        def keyed_records():
            for t, (key, x) in enumerate(rows, 1):
                _, est = hist.push(key, x)
                rec = [t, key, est]
                if args.with_exact:
                    exact = oracles.setdefault(key, ExactOracle(decay)).push(x)
                    rec += [exact, abs(est - exact)]
                yield rec

        _emit(keyed_records(), ["t", "key", "estimate"] + exact_cols, args.format, sys.stdout)
        return 0
    xs = _read_stream(args)
    if args.mech == "rr" and any(x not in (0.0, 1.0) for x in xs):
        raise DataError("randomized response requires a binary stream")
    runner = _build_runner(args, decay, noisy)
    oracle = ExactOracle(decay) if args.with_exact else None

    def records():
        for t, x in enumerate(xs, 1):
            est = runner.push(int(x) if args.mech == "rr" else x)
            rec = [t, est]
            if oracle is not None:
                exact = oracle.push(x)
                rec += [exact, abs(est - exact)]
            yield rec

    _emit(records(), ["t", "estimate"] + exact_cols, args.format, sys.stdout)
    return 0


def cmd_bench(args) -> int:
    if args.no_noise:
        print("WARNING: --no-noise disables privacy noise; output is NOT private.",
              file=sys.stderr)
    if args.input == "-":
        raise ValueError("bench cannot read its stream from stdin (--input -); "
                         "give a stream file")
    if args.mech in ("rr", "oracle"):
        raise DataError("bench compares a tree mechanism against baselines; "
                        "pick --mech window|allwindow|exp|poly|running")
    cfg = ExperimentConfig(
        mech=args.mech, epsilon=args.eps, gamma=args.gamma, trials=args.trials,
        T=args.T, seed=args.seed, source=args.source, input_path=args.input,
        W=args.W, alpha=args.alpha, c=args.c, beta=args.beta,
        schedule_beta=_schedule_beta(args), noisy=not args.no_noise, jobs=args.jobs,
    )
    cfg.decay()  # validate parameters before spending any work
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
    decay = _decay_from_args(args)
    eps, gamma = args.eps, args.gamma
    sched_beta = _schedule_beta(args)
    rows = []
    if decay.kind == "window" and args.mech == "window":
        if decay.W & (decay.W - 1):
            raise ValueError(
                f"window size {decay.W} is not a power of two; use --mech allwindow")
        lam = math.log2(decay.W) + 1.0
        rows.append(("sensitivity", lam))
        rows.append(("counter_scale", lam / eps))
        branch = "log2(W) >= log2(1/gamma)" if math.log2(decay.W) >= math.log2(1.0 / gamma) \
            else "log2(W) < log2(1/gamma)"
    elif decay.kind == "exponential":
        lam = exp_decay_sensitivity(decay.alpha)
        rows.append(("sensitivity", lam))
        rows.append(("counter_scale", lam / eps))
        r = decay.alpha / (1.0 - decay.alpha)
        branch = "log2(range) >= log2(1/gamma)" if math.log2(r) >= math.log2(1.0 / gamma) \
            else "log2(range) < log2(1/gamma)"
    else:
        # allwindow / running / poly: per-level schedule
        h = (1 << max(args.T - 1, 1).bit_length()).bit_length()
        eps_k = level_epsilons(eps, sched_beta, h)
        rows.append(("sensitivity_per_level", 1.0))
        for k, e in enumerate(eps_k, 1):
            rows.append((f"level_{k}_scale", 1.0 / e))
        branch = "per-level budgets eps_k = eps / (zeta(beta) k**beta)"
        if decay.kind == "polynomial":
            branch += "; the age tiling is post-processing of the all-window tree"
    if args.mech == "allwindow":
        profile = allwindow_query_profile(eps, args.T, schedule_beta=sched_beta)
    else:
        profile = worst_noise_profile(decay, eps, args.T, schedule_beta=sched_beta)
    rows.append(("sigma_worst", profile.sigma))
    rows.append(("delta_gamma", utility_delta(profile, gamma)))
    rows.append(("delta_lb_ref", reference_delta(decay, gamma, eps)))
    for name, value in rows:
        print(f"{name},{value!r}")
    print(f"utility_branch,{branch}")
    return 0


def cmd_lbverify(args) -> int:
    decay = _decay_from_args(args)
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
    for add in (_add_decay, _add_budget, _add_stream):
        add(p_run)
    p_run.add_argument("--with-exact", action="store_true",
                       help="also print the exact value and absolute error")
    p_run.add_argument("--histogram", action="store_true",
                       help="input is key,value records; one estimator per key")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="Monte-Carlo benchmark")
    for add in (_add_decay, _add_budget, _add_stream):
        add(p_bench)
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes (output identical for any value)")
    p_bench.set_defaults(func=cmd_bench)

    p_bound = sub.add_parser("bound", help="print theory numbers")
    _add_decay(p_bound)
    _add_budget(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    # without abbreviations, --eps is refused instead of read as --eps-grid
    p_lb = sub.add_parser("lbverify", help="verify the lower-bound family",
                          allow_abbrev=False)
    _add_decay(p_lb)
    p_lb.add_argument("--q", type=int, required=True, help="number of probe blocks")
    p_lb.add_argument("--D", type=int, required=True, help="block length")
    p_lb.add_argument("--delta", type=float, required=True,
                      help="target additive error to separate against")
    p_lb.add_argument("--eps-grid", type=lambda s: [float(v) for v in s.split(",")],
                      default=[0.1, 0.5, 1.0, 2.0],
                      help="comma-separated epsilons for the threshold table")
    p_lb.set_defaults(func=cmd_lbverify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (ValueError, OSError) as exc:
        parser.exit(USAGE_EXIT, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
