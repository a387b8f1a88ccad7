"""Command-line interface.

Batch subcommands::

    repro run          # one experiment: topology + event + variant -> metrics
                       # (--metrics: telemetry table + timeline exports)
    repro figure       # regenerate one committed result and check its claim
    repro sweep        # journaled, resumable Tdown clique sweep
    repro topology     # generate a topology and dump it as an edge list
    repro list         # available results, variants, topology kinds
    repro lint         # determinism lint pass over the simulator's sources
    repro determinism  # dual-run reproducibility check on one scenario
    repro stability    # static safety certification of the bundled scenarios

Service subcommands (the always-on sweep job service)::

    repro serve        # run the daemon for one state directory
    repro submit       # queue a sweep / figure / bench job
    repro jobs         # list the queue's jobs and their states
    repro watch        # stream one job's per-trial progress live
    repro cancel       # cancel a queued or running job

Also reachable as ``python -m repro``.  Every command is deterministic for
a given ``--seed`` — and ``repro determinism`` proves it.  ``figure``,
``sweep``, and ``determinism`` accept ``--retries``/``--trial-timeout`` to
set how the supervised worker pool behind ``--jobs N`` treats a dead or hung
worker (restart and retry with backoff, watchdog timeouts — results
unchanged; without them the first dead worker aborts the command).
The service verbs wrap the same machinery: a sweep submitted to the
daemon produces bit-identical per-trial digests to the equivalent
foreground ``repro sweep`` — even across a ``kill -9`` and restart.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import __version__
from .bgp import VARIANT_NAMES, variant
from .core import LoopStatistics
from .errors import ReproError
from .experiments import (
    RunSettings,
    custom_tdown,
    run_experiment,
    tcrash_clique,
    tdown_clique,
    tdown_internet,
    tflap_bclique,
    tlong_bclique,
    tlong_internet,
    treset_clique,
    with_session_timers,
)
from .experiments.figures import CLAIMS
from .topology import (
    b_clique,
    clique,
    dumps_edge_list,
    internet_like,
    named_generator,
)

TOPOLOGY_KINDS = ("clique", "b-clique", "chain", "ring", "star", "internet")


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help=(
            "retry trials lost to worker death or timeout up to N times "
            "with capped, deterministically-jittered backoff (default: no "
            "retries, a dead worker aborts; needs --jobs > 1)"
        ),
    )
    parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "kill and retry any single trial running longer than this "
            "(default: no watchdog; needs --jobs > 1 to preempt)"
        ),
    )


def _policy_of(args):
    """A :class:`ResiliencePolicy` from CLI flags, or ``None`` when the
    resilience flags were not used (no retries, no supervision report)."""
    retries = getattr(args, "retries", None)
    trial_timeout = getattr(args, "trial_timeout", None)
    if retries is None and trial_timeout is None:
        return None
    from .experiments import ResiliencePolicy

    kwargs = {}
    if retries is not None:
        kwargs["max_retries"] = retries
    if trial_timeout is not None:
        kwargs["trial_timeout"] = trial_timeout
    return ResiliencePolicy(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BGP path-vector transient-loop simulator "
            "(reproduction of Pei et al., ICDCS 2004)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment and print metrics")
    run.add_argument(
        "--topology", choices=TOPOLOGY_KINDS, default="clique",
        help="topology family (default: clique)",
    )
    run.add_argument("--size", type=int, default=10, help="topology size parameter")
    run.add_argument(
        "--event",
        choices=("tdown", "tlong", "treset", "tcrash", "tflap"),
        default="tdown",
        help="failure event (default: tdown)",
    )
    run.add_argument(
        "--variant", choices=VARIANT_NAMES, default="standard",
        help="protocol variant (default: standard)",
    )
    run.add_argument("--mrai", type=float, default=30.0, help="MRAI seconds")
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--rate", type=float, default=10.0, help="packets/s per source AS"
    )
    run.add_argument(
        "--loop-stats", action="store_true",
        help="also print per-loop statistics (size/duration distributions)",
    )
    run.add_argument(
        "--verbose", action="store_true",
        help="full report: metrics, update churn, and individual loops",
    )
    run.add_argument(
        "--damping-half-life", type=float, default=None, metavar="SECONDS",
        help="enable RFC 2439 route-flap damping with this half-life",
    )
    run.add_argument(
        "--sessions", action="store_true",
        help=(
            "enable the keepalive/hold-timer session layer with ConnectRetry "
            "(hold 9s, keepalive 3s); implied defaults for churn events"
        ),
    )
    run.add_argument(
        "--restart-after", type=float, default=30.0, metavar="SECONDS",
        help="tcrash only: seconds the crashed node stays down (default: 30)",
    )
    run.add_argument(
        "--flap-period", type=float, default=15.0, metavar="SECONDS",
        help="tflap only: one full down/up cycle length (default: 15)",
    )
    run.add_argument(
        "--flap-count", type=int, default=3,
        help="tflap only: number of down/up cycles (default: 3)",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help=(
            "run under the runtime sanitizer suite (causality, channel "
            "FIFO, RIB coherence invariants checked on every event)"
        ),
    )
    run.add_argument(
        "--metrics", action="store_true",
        help=(
            "trace the run (telemetry and timeline on) and print its metric "
            "table and harness wall-clock after the run's own lines"
        ),
    )
    run.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help=(
            "with --metrics: export the run's timeline as Chrome trace-event "
            "JSON (loadable in Perfetto / chrome://tracing)"
        ),
    )
    run.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="with --metrics: export the run's timeline as JSON Lines",
    )

    figure = commands.add_parser(
        "figure",
        help=(
            "regenerate one committed result and check its claim "
            "(exit 1 if it no longer holds)"
        ),
    )
    figure.add_argument("id", choices=sorted(CLAIMS), help="result identifier")
    figure.add_argument(
        "--quick", action="store_true",
        help=(
            "tiny sizes and short MRAI (seconds instead of minutes); checks "
            "are reported, not enforced"
        ),
    )
    figure.add_argument(
        "--plot", action="store_true", help="also draw an ASCII chart"
    )
    figure.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "run sweep trials on N worker processes (0 = one per CPU); "
            "results are bit-identical to --jobs 1 (default)"
        ),
    )
    figure.add_argument(
        "--metrics", action="store_true",
        help=(
            "run the sweep with telemetry enabled and print the aggregated "
            "metric table after the figure (digests are unaffected)"
        ),
    )
    _add_resilience_arguments(figure)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="journaled, resumable Tdown clique sweep (crash-safe)",
    )
    sweep_cmd.add_argument(
        "--sizes", default="3,4,5", metavar="N,N,...",
        help="comma-separated clique sizes to sweep (default: 3,4,5)",
    )
    sweep_cmd.add_argument(
        "--trials", type=int, default=2, metavar="N",
        help="seeded trials per size (seeds 0..N-1; default: 2)",
    )
    sweep_cmd.add_argument(
        "--mrai", type=float, default=2.0, help="MRAI seconds (default: 2)"
    )
    sweep_cmd.add_argument(
        "--variant", choices=VARIANT_NAMES, default="standard",
        help="protocol variant (default: standard)",
    )
    sweep_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = one per CPU; default: 1)",
    )
    sweep_cmd.add_argument(
        "--journal", required=True, metavar="PATH",
        help=(
            "CRC-checked JSONL trial journal; every finished trial is "
            "durably appended, so a crashed sweep re-runs only what's "
            "missing"
        ),
    )
    sweep_cmd.add_argument(
        "--fresh", action="store_true",
        help=(
            "discard any existing journal and start over (default: resume "
            "from it)"
        ),
    )
    _add_resilience_arguments(sweep_cmd)

    topo = commands.add_parser("topology", help="generate and print a topology")
    topo.add_argument("--kind", choices=TOPOLOGY_KINDS, default="internet")
    topo.add_argument("--size", type=int, default=29)
    topo.add_argument("--seed", type=int, default=0, help="seed (internet only)")

    commands.add_parser("list", help="show available figures and variants")

    lint = commands.add_parser(
        "lint",
        help="run the determinism lint pass over simulator sources",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help=(
            "output format; json additionally lists findings neutralized "
            "by lint:allow comments (flagged suppressed) so CI can diff "
            "the full picture"
        ),
    )

    stability = commands.add_parser(
        "stability",
        help=(
            "statically certify policy stability (dispute wheels, "
            "Gao-Rexford structure) for the bundled scenario suite"
        ),
    )
    stability.add_argument(
        "names", nargs="*",
        help="suite scenarios to certify (default: the whole suite)",
    )
    stability.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    stability.add_argument(
        "--check", metavar="PATH", default=None,
        help=(
            "compare verdicts against a committed expected-verdicts JSON "
            "file and exit 1 on any mismatch (the CI gate)"
        ),
    )
    stability.add_argument(
        "--observe", action="store_true",
        help=(
            "additionally simulate each UNSAFE scenario to a fixed horizon "
            "and report the dynamic classification (converged / "
            "persistent-oscillation), cross-checking the static verdict"
        ),
    )
    stability.add_argument(
        "--seed", type=int, default=0,
        help="root RNG seed for --observe runs (default: 0)",
    )

    determinism = commands.add_parser(
        "determinism",
        help="run one scenario repeatedly under one seed and diff digests",
    )
    determinism.add_argument(
        "--size", type=int, default=5, help="clique size (default: 5)"
    )
    determinism.add_argument(
        "--mrai", type=float, default=2.0, help="MRAI seconds (default: 2)"
    )
    determinism.add_argument("--seed", type=int, default=0, help="root RNG seed")
    determinism.add_argument(
        "--variant", choices=VARIANT_NAMES, default="standard",
        help="protocol variant (default: standard)",
    )
    determinism.add_argument(
        "--runs", type=int, default=2, help="number of repetitions (default: 2)"
    )
    determinism.add_argument(
        "--sanitize", action="store_true",
        help="also enable the runtime sanitizer suite for every run",
    )
    determinism.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "run repetitions 1..N-1 in worker processes while run 0 stays "
            "in-process, so identical digests also certify cross-process "
            "equivalence (0 = one worker per CPU)"
        ),
    )
    determinism.add_argument(
        "--metrics", action="store_true",
        help=(
            "additionally repeat the check with telemetry enabled and "
            "verify the digest matches the untraced one (proves telemetry "
            "is purely observational)"
        ),
    )
    _add_resilience_arguments(determinism)

    serve = commands.add_parser(
        "serve",
        help="run the sweep job service daemon (Unix-socket, durable queue)",
    )
    serve.add_argument(
        "--state", required=True, metavar="DIR",
        help="service state directory (socket, job queue, journals, artifacts)",
    )
    serve.add_argument(
        "--bench-interval", type=float, default=None, metavar="SECONDS",
        help=(
            "submit a benchmarks/e2e bench job every N seconds (skipped while "
            "one is still queued or running), recording the per-commit perf "
            "trajectory under benchmarks/results/"
        ),
    )
    serve.add_argument(
        "--bench-repeat", type=int, default=1, metavar="N",
        help="run.py --repeat of each scheduled bench cycle (default: 1)",
    )

    submit = commands.add_parser(
        "submit", help="queue a job on the sweep service daemon"
    )
    submit.add_argument(
        "--state", required=True, metavar="DIR",
        help="state directory of the daemon to talk to",
    )
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--sweep", metavar="FAMILY", dest="sweep_family",
        help="sweep family: tdown, tlong, treset, tcrash, or tflap",
    )
    what.add_argument(
        "--figure", metavar="ID", dest="figure_id",
        help="render one paper figure into the job's artifact directory",
    )
    what.add_argument(
        "--bench", action="store_true",
        help=(
            "run one benchmarks/e2e cycle, gated against this machine's "
            "last passing cycle"
        ),
    )
    submit.add_argument(
        "--xs", default=None, metavar="X,X,...",
        help="sweep x values (sizes, or flap periods for tflap)",
    )
    submit.add_argument(
        "--trials", type=int, default=1, metavar="N",
        help="seeded trials per x (seeds 0..N-1; default: 1)",
    )
    submit.add_argument(
        "--variant", choices=VARIANT_NAMES, default="standard",
        help="protocol variant (default: standard)",
    )
    submit.add_argument(
        "--mrai", type=float, default=2.0, help="MRAI seconds (default: 2)"
    )
    submit.add_argument(
        "--size", type=int, default=None,
        help="topology size for families that sweep something else (tflap)",
    )
    submit.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes inside the job (0 = one per CPU; default: 1)",
    )
    submit.add_argument(
        "--quick", action="store_true",
        help="figure jobs: tiny sizes and short MRAI",
    )
    submit.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="bench jobs: run.py --repeat, runs per workload (default: 1)",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stay attached and stream the job's events (like repro watch)",
    )
    _add_resilience_arguments(submit)

    jobs_cmd = commands.add_parser(
        "jobs", help="list the sweep service's jobs and their states"
    )
    jobs_cmd.add_argument(
        "--state", required=True, metavar="DIR",
        help="state directory of the daemon to talk to",
    )
    jobs_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    watch = commands.add_parser(
        "watch", help="stream one job's per-trial progress from the daemon"
    )
    watch.add_argument(
        "--state", required=True, metavar="DIR",
        help="state directory of the daemon to talk to",
    )
    watch.add_argument("job", metavar="JOB", help="job id (e.g. job-3)")

    cancel = commands.add_parser(
        "cancel", help="cancel a queued or running sweep service job"
    )
    cancel.add_argument(
        "--state", required=True, metavar="DIR",
        help="state directory of the daemon to talk to",
    )
    cancel.add_argument("job", metavar="JOB", help="job id (e.g. job-3)")

    return parser


def _tdown_on_generator(args):
    """Tdown at AS 0 of the named generator's topology."""
    return custom_tdown(named_generator(args.topology)(args.size), destination=0)


#: ``--event`` -> ``--topology`` -> the scenario family, over the parsed args.
_SCENARIOS: Dict[str, Dict[str, Callable]] = {
    "tdown": {
        "clique": lambda args: tdown_clique(args.size),
        "internet": lambda args: tdown_internet(args.size, seed=args.seed),
        "b-clique": _tdown_on_generator,
        "chain": _tdown_on_generator,
        "ring": _tdown_on_generator,
        "star": _tdown_on_generator,
    },
    "tlong": {
        "b-clique": lambda args: tlong_bclique(args.size),
        "internet": lambda args: tlong_internet(args.size, seed=args.seed),
    },
    "treset": {"clique": lambda args: treset_clique(args.size)},
    "tcrash": {
        "clique": lambda args: tcrash_clique(
            args.size, restart_after=args.restart_after
        ),
    },
    "tflap": {
        "b-clique": lambda args: tflap_bclique(
            args.size, period=args.flap_period, count=args.flap_count
        ),
    },
}


def _make_scenario(args):
    families = _SCENARIOS[args.event]
    build = families.get(args.topology)
    if build is None:
        raise ReproError(
            f"{args.event} is defined for {' and '.join(families)} "
            f"topologies, not {args.topology!r}"
        )
    return build(args)


def _cmd_run(args) -> int:
    from .telemetry import PhaseProfiler

    if (args.chrome_trace or args.jsonl) and not args.metrics:
        raise ReproError(
            "--chrome-trace and --jsonl export a traced run; add --metrics"
        )
    scenario = _make_scenario(args)
    config = variant(args.variant, mrai=args.mrai)
    if args.sessions or scenario.needs_sessions:
        config = with_session_timers(config)
    if args.damping_half_life is not None:
        from dataclasses import replace

        from .bgp import DampingConfig

        config = replace(
            config,
            damping=DampingConfig(
                half_life=args.damping_half_life,
                max_suppress_time=5 * args.damping_half_life,
            ),
        )
    settings = RunSettings(
        packet_rate=args.rate,
        sanitize=args.sanitize,
        telemetry=args.metrics,
        timeline=args.metrics,
    )
    print(
        f"running {scenario.name} / {config.variant_name} / MRAI {args.mrai}s "
        f"/ seed {args.seed}"
    )
    profiler = PhaseProfiler()
    with profiler.phase("simulate"):
        run = run_experiment(
            scenario,
            config,
            settings=settings,
            seed=args.seed,
            keep_network=args.verbose,
        )
    if args.verbose:
        from .experiments.report import describe_run

        print()
        print(describe_run(run))
    else:
        _print_run_lines(args, run)
    if args.metrics:
        _print_traced_run(args, run, profiler)
    return 0


def _print_run_lines(args, run) -> None:
    result = run.result
    print(f"  convergence time        : {result.convergence_time:10.2f} s")
    print(f"  overall looping duration: {result.overall_looping_duration:10.2f} s")
    print(f"  TTL exhaustions         : {result.ttl_exhaustions:10d}")
    print(f"  packets sent            : {result.packets_sent:10d}")
    print(f"  looping ratio           : {result.looping_ratio:10.1%}")
    print(f"  updates sent            : {result.convergence.update_count:10d}")
    if args.loop_stats:
        stats = LoopStatistics.from_intervals(
            result.loop_intervals, failure_time=run.failure_time
        )
        print()
        for line in stats.describe().splitlines():
            print(f"  {line}")


def _print_traced_run(args, run, profiler) -> None:
    """``run --metrics``: the telemetry table, the timeline and its exports,
    and the harness wall-clock."""
    from .telemetry import validate_chrome_trace

    assert run.metrics is not None and run.timeline is not None
    print()
    print("telemetry:")
    print(run.metrics.render())
    print()
    print(
        f"timeline : {len(run.timeline)} records across categories "
        f"{', '.join(run.timeline.categories())}"
    )
    with profiler.phase("export"):
        if args.chrome_trace:
            events = validate_chrome_trace(run.timeline.to_chrome_trace())
            run.timeline.write_chrome_trace(args.chrome_trace)
            print(
                f"wrote {args.chrome_trace} ({events} trace events, "
                f"schema-validated; load in Perfetto or chrome://tracing)"
            )
        if args.jsonl:
            run.timeline.write_jsonl(args.jsonl)
            print(f"wrote {args.jsonl} ({len(run.timeline)} JSONL records)")
    print()
    print("harness wall-clock:")
    print(profiler.render())


def _cmd_figure(args) -> int:
    import inspect

    claim = CLAIMS[args.id]
    kwargs = dict(claim.quick or {}) if args.quick else {}
    parameters = inspect.signature(claim.driver).parameters
    if "jobs" in parameters:
        kwargs["jobs"] = args.jobs
    elif args.jobs != 1:
        print(
            f"note: {args.id} does not sweep and runs single-process; "
            f"--jobs ignored",
            file=sys.stderr,
        )
    policy = _policy_of(args)
    if policy is not None:
        if "policy" in parameters:
            kwargs["policy"] = policy
        else:
            print(
                f"note: {args.id} does not sweep; "
                f"--retries/--trial-timeout ignored",
                file=sys.stderr,
            )
    if args.metrics:
        if "settings" in parameters:
            kwargs["settings"] = RunSettings(telemetry=True)
        else:
            print(
                f"note: {args.id} does not accept run settings; "
                f"--metrics ignored",
                file=sys.stderr,
            )
    result = claim.driver(**kwargs)
    print(result.render())
    telemetry = getattr(result, "telemetry", None)
    if args.metrics and telemetry is not None:
        print("\naggregated telemetry (all trials):")
        print(telemetry.render())
    elif args.metrics and "settings" in parameters:
        print(
            f"note: {args.id} ran with telemetry but attaches no aggregate "
            f"(non-sweep driver)",
            file=sys.stderr,
        )
    if args.plot:
        if hasattr(result, "plot"):
            print()
            print(result.plot())
        else:
            print(f"note: {args.id} is a table; --plot ignored", file=sys.stderr)
    if args.quick:
        failures = [check for check in result.checks if not check.holds]
        if failures:
            print("\nshape checks NOT satisfied at these parameters:")
            for check in failures:
                print(f"  {check}")
        return 0
    problems = claim.problems(result.checks)
    for line in problems:
        print(f"{args.id}: {line}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_sweep(args) -> int:
    from .experiments import (
        SweepJournal,
        checkpointed_sweep,
        clique_tdown_trial,
        constant_config,
        factory_ref,
    )

    sizes = [int(value) for value in args.sizes.split(",") if value.strip()]
    if not sizes:
        raise ReproError(f"--sizes needs at least one size, got {args.sizes!r}")
    if args.trials < 1:
        raise ReproError(f"--trials must be >= 1, got {args.trials}")
    seeds = tuple(range(args.trials))
    config = variant(args.variant, mrai=args.mrai)
    policy = _policy_of(args)
    journal = SweepJournal(args.journal)
    reports: List = []
    summaries = checkpointed_sweep(
        sizes,
        clique_tdown_trial,
        factory_ref(constant_config, config=config),
        journal=journal,
        seeds=seeds,
        settings=RunSettings(),
        jobs=args.jobs,
        policy=policy,
        fresh=args.fresh,
        on_report=reports.append,
    )
    journal.close()
    print(journal.recovery.render())
    header = f"{'size':>6} {'ok':>4} {'fail':>5} {'timeout':>8}  metrics"
    print(header)
    for summary in summaries:
        metrics = ", ".join(
            f"{key}={value:.2f}" for key, value in sorted(summary.metrics.items())
        )
        print(
            f"{summary.x:>6g} {summary.succeeded:>4} {summary.failed:>5} "
            f"{summary.timeouts:>8}  {metrics or '-'}"
        )
    if policy is not None and reports:
        supervision = reports[0]
        for extra in reports[1:]:
            supervision = supervision.merged(extra)
        print(supervision.render())
    if any(summary.succeeded == 0 for summary in summaries):
        return 1
    return 0


def _cmd_topology(args) -> int:
    if args.kind == "internet":
        topo = internet_like(args.size, seed=args.seed)
    elif args.kind == "clique":
        topo = clique(args.size)
    elif args.kind == "b-clique":
        topo = b_clique(args.size)
    else:
        topo = named_generator(args.kind)(args.size)
    sys.stdout.write(dumps_edge_list(topo))
    return 0


def _cmd_list(_args) -> int:
    print("figures :", " ".join(sorted(CLAIMS)))
    print("variants:", " ".join(VARIANT_NAMES))
    print("topology:", " ".join(TOPOLOGY_KINDS))
    return 0


def _cmd_lint(args) -> int:
    import json

    from .analysis import lint_paths

    paths = args.paths
    if not paths:
        # Default to the installed package sources: works from a source
        # checkout (src/repro) and from anywhere else via __file__.
        checkout = Path("src") / "repro"
        paths = [str(checkout if checkout.is_dir() else Path(__file__).parent)]
    as_json = args.format == "json"
    violations = lint_paths(paths, keep_suppressed=as_json)
    unsuppressed = [v for v in violations if not v.suppressed]
    if as_json:
        payload = {
            "paths": list(paths),
            "violations": [v.to_json() for v in violations],
            "unsuppressed": len(unsuppressed),
            "suppressed": len(violations) - len(unsuppressed),
        }
        print(json.dumps(payload, indent=2))
    else:
        for violation in violations:
            print(violation.render())
        if unsuppressed:
            print(f"\n{len(unsuppressed)} determinism violation(s) found")
        else:
            print(
                f"lint clean: no determinism violations in {', '.join(paths)}"
            )
    return 1 if unsuppressed else 0


def _cmd_stability(args) -> int:
    import json

    from .analysis.stability import Verdict, certify_scenario
    from .experiments import observe_oscillation, stability_suite

    suite = stability_suite()
    by_name = {entry.name: entry for entry in suite}
    names = list(args.names) or [entry.name for entry in suite]
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise ReproError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"available: {', '.join(entry.name for entry in suite)}"
        )
    reports = []
    for name in names:
        entry = by_name[name]
        reports.append(
            (
                entry,
                certify_scenario(
                    entry.scenario, policy_factory=entry.policy_factory
                ),
            )
        )
    observations = {}
    if args.observe:
        for entry, report in reports:
            if report.verdict is Verdict.UNSAFE:
                observations[entry.name] = observe_oscillation(
                    entry, seed=args.seed, certify=False
                )
    if args.format == "json":
        payload = {
            "verdicts": {report.name: report.to_json() for _, report in reports}
        }
        if observations:
            payload["observations"] = {
                name: observations[name].to_json()
                for name in sorted(observations)
            }
        print(json.dumps(payload, indent=2))
    else:
        for entry, report in reports:
            print(report.render())
            observed = observations.get(entry.name)
            if observed is not None:
                for line in observed.render().splitlines():
                    print(f"  {line}")
    if args.check:
        expected = json.loads(Path(args.check).read_text())
        mismatches = []
        for _, report in reports:
            want = expected.get(report.name)
            if want is None:
                mismatches.append(f"{report.name}: not present in {args.check}")
            elif (
                want.get("verdict") != report.verdict.value
                or want.get("method") != report.method
            ):
                mismatches.append(
                    f"{report.name}: expected "
                    f"{want.get('verdict')}[{want.get('method')}], got "
                    f"{report.verdict.value}[{report.method}]"
                )
        if mismatches:
            print(f"\nverdict drift against {args.check}:")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print(f"\nall {len(reports)} verdict(s) match {args.check}")
    return 0


def _cmd_determinism(args) -> int:
    from .analysis import check_determinism

    scenario = tdown_clique(args.size)
    config = variant(args.variant, mrai=args.mrai)
    settings = RunSettings(sanitize=args.sanitize)
    policy = _policy_of(args)
    report = check_determinism(
        scenario,
        config,
        settings=settings,
        seed=args.seed,
        runs=args.runs,
        jobs=args.jobs,
        policy=policy,
    )
    print(report.render())
    if not report.identical:
        return 1
    if args.metrics:
        from dataclasses import replace

        traced = check_determinism(
            scenario,
            config,
            settings=replace(settings, telemetry=True),
            seed=args.seed,
            runs=args.runs,
            jobs=args.jobs,
            policy=policy,
        )
        print(traced.render())
        if not traced.identical:
            return 1
        if traced.digest != report.digest:
            print(
                "  TELEMETRY PERTURBED THE RUN — digest changed when "
                "telemetry was enabled"
            )
            return 1
        print("  telemetry on/off digests MATCH — instrumentation is inert")
    return 0


def _cmd_serve(args) -> int:
    from .service import ServiceState, serve

    state = ServiceState(args.state)
    print(f"sweep service: state {state.root}, socket {state.socket_path}")
    if args.bench_interval:
        print(f"bench scheduler: every {args.bench_interval:g}s")
    serve(
        args.state,
        bench_interval=args.bench_interval,
        bench_repeat=args.bench_repeat,
    )
    print("sweep service stopped")
    return 0


def _stream_job(client, job_id: str) -> int:
    """Print a job's event stream; exit 0 iff it ended well."""
    from .service.events import snapshot_from_json

    final = "unknown"
    for event in client.watch(job_id):
        kind = event.get("event")
        if kind == "trial":
            status = "ok" if event.get("ok") else "FAILED"
            if event.get("error"):
                status += f" ({event['error']})"
            print(f"trial x={event['x']:g} seed={event['seed']}: {status}")
        elif kind == "point":
            stats = event.get("stats", {})
            metrics = stats.get("metrics") or {}
            rendered = ", ".join(
                f"{key}={value:.2f}" for key, value in sorted(metrics.items())
            )
            line = (
                f"point x={event['x']:g}: {stats.get('succeeded', 0)} ok, "
                f"{stats.get('failed', 0)} failed"
            )
            print(f"{line}  {rendered}" if rendered else line)
        elif kind == "snapshot":
            snapshot = snapshot_from_json(event.get("metrics", {}))
            if not snapshot.empty:
                print("aggregated telemetry (all trials):")
                print(snapshot.render())
        elif kind == "state":
            detail = event.get("detail") or {}
            suffix = f" ({detail})" if detail else ""
            print(f"state: {event.get('state')}{suffix}")
        elif kind == "log":
            print(f"# {event.get('message')}")
        elif kind == "end":
            final = event.get("state", "unknown")
            print(f"job {job_id} finished: {final}")
    # "queued" means the daemon shut down politely mid-job; the job is
    # intact and resumes on the next daemon start — not a failure here.
    return 0 if final in ("done", "queued") else 1


def _cmd_submit(args) -> int:
    from .service import ServiceClient

    if args.sweep_family is not None:
        if not args.xs:
            raise ReproError("--sweep needs --xs (e.g. --xs 3,4,5)")
        xs = [float(value) for value in args.xs.split(",") if value.strip()]
        params: Dict = {
            "family": args.sweep_family,
            "xs": xs,
            "trials": args.trials,
            "variant": args.variant,
            "mrai": args.mrai,
            "jobs": args.jobs,
        }
        if args.size is not None:
            params["size"] = args.size
        retries = getattr(args, "retries", None)
        trial_timeout = getattr(args, "trial_timeout", None)
        if retries is not None:
            params["retries"] = retries
        if trial_timeout is not None:
            params["trial_timeout"] = trial_timeout
        spec = {"kind": "sweep", "params": params}
    elif args.figure_id is not None:
        spec = {
            "kind": "figure",
            "params": {
                "id": args.figure_id,
                "quick": args.quick,
                "jobs": args.jobs,
            },
        }
    else:
        spec = {"kind": "bench", "params": {"repeat": args.repeat}}

    client = ServiceClient(args.state)
    job_id = client.submit(spec)
    print(f"submitted {job_id} ({spec['kind']})")
    if args.follow:
        return _stream_job(client, job_id)
    return 0


def _cmd_jobs(args) -> int:
    import json

    from .service import ServiceClient

    summaries = ServiceClient(args.state).jobs()
    if args.format == "json":
        print(json.dumps(summaries, indent=2, sort_keys=True))
        return 0
    if not summaries:
        print("no jobs")
        return 0
    header = f"{'job':<10} {'kind':<8} {'state':<10} detail"
    print(header)
    print("-" * len(header))
    for summary in summaries:
        detail = summary.get("detail") or {}
        notes = []
        for key in ("points", "trials", "ok", "failed", "error"):
            if key in detail:
                notes.append(f"{key}={detail[key]}")
        if detail.get("resumed"):
            notes.append("resumed")
        if detail.get("interrupted"):
            notes.append("interrupted")
        print(
            f"{summary['job']:<10} {summary['kind']:<8} "
            f"{summary['state']:<10} {' '.join(notes)}"
        )
    return 0


def _cmd_watch(args) -> int:
    from .service import ServiceClient

    return _stream_job(ServiceClient(args.state), args.job)


def _cmd_cancel(args) -> int:
    from .service import ServiceClient

    reply = ServiceClient(args.state).cancel(args.job)
    if reply.get("cancelling"):
        print(f"{args.job} is running; cancelling at the next trial boundary")
    else:
        print(f"{args.job} cancelled")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "topology": _cmd_topology,
        "list": _cmd_list,
        "lint": _cmd_lint,
        "determinism": _cmd_determinism,
        "stability": _cmd_stability,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited early; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
