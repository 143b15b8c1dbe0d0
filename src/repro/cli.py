"""Command-line interface.

Subcommands::

    repro-lang-eqn solve  --blif FILE --x-latches a,b [--method ...]
    repro-lang-eqn info   --blif FILE
    repro-lang-eqn reach  --blif FILE
    repro-lang-eqn bench  [--smoke] [--baseline F] [...]
    repro-lang-eqn stg    --blif FILE [--kiss-out F] [--dot-out F]
    repro-lang-eqn serve  --cache-dir DIR [--host H] [--port P]
    repro-lang-eqn submit --blif FILE --x-latches a,b [--url U] [...]
    repro-lang-eqn jobs   [--url U] [--job ID] [--cancel ID] [--shutdown]

``solve`` computes the CSF of the selected latches of a BLIF circuit
(optionally synthesising a replacement circuit with ``--implement-out``)
and can export the result as KISS2/DOT; ``info`` prints circuit
statistics; ``reach`` runs symbolic reachability; ``bench`` runs the
recorded benchmark suites (all flags forwarded to
:mod:`repro.bench.driver`; ``bench --only table1`` reproduces the
paper's Table 1); ``stg`` extracts the state transition graph;
``serve`` runs the persistent job server (:mod:`repro.serve`) with its
content-addressed solve cache, and ``submit`` / ``jobs`` are its
clients.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from repro._version import __version__
from repro.eqn.config import REACH_FLAGS, ConfigError, SolveConfig, add_config_flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lang-eqn",
        description=(
            "Language-equation solving with partitioned representations "
            "(reproduction of Mishchenko et al., DATE 2005)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--trace",
            metavar="FILE",
            help="write a Chrome trace-event JSON span trace to this file",
        )
        cmd.add_argument(
            "--log-level",
            default="warning",
            choices=("debug", "info", "warning", "error"),
            help="structured-log threshold for repro.* loggers",
        )
        cmd.add_argument(
            "--log-json",
            action="store_true",
            help="emit structured logs as JSON lines",
        )

    def add_problem_flags(cmd: argparse.ArgumentParser) -> None:
        """The problem (circuit, split, budgets) plus every solver knob."""
        cmd.add_argument("--blif", required=True, help="input circuit (BLIF)")
        cmd.add_argument(
            "--x-latches",
            required=True,
            help="comma-separated latch output names moved to the unknown",
        )
        cmd.add_argument(
            "--u-signals",
            help=(
                "comma-separated original signals exposed to the unknown on "
                "the u wires (default: all inputs plus all kept latches)"
            ),
        )
        cmd.add_argument("--max-seconds", type=float, default=None)
        cmd.add_argument("--max-nodes", type=int, default=None)
        add_config_flags(cmd)

    solve = sub.add_parser("solve", help="compute the CSF of a latch split")
    add_obs_flags(solve)
    add_problem_flags(solve)
    solve.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "directory for the solve's spill log, kept after the solve "
            "(default: a private temporary directory, removed after the solve)"
        ),
    )
    solve.add_argument("--no-verify", action="store_true", help="skip formal checks")
    solve.add_argument("--kiss-out", help="write the CSF as KISS2 to this file")
    solve.add_argument("--dot-out", help="write the CSF as Graphviz dot")
    solve.add_argument(
        "--implement-out",
        help="extract a sub-solution FSM and write its circuit (BLIF)",
    )

    info = sub.add_parser("info", help="print circuit statistics")
    info.add_argument("--blif", required=True)

    reach = sub.add_parser("reach", help="symbolic reachability analysis")
    add_obs_flags(reach)
    reach.add_argument("--blif", required=True)
    add_config_flags(reach, REACH_FLAGS)

    # ``bench`` forwards everything to repro.bench.driver's own parser
    # (main() intercepts it before this parser runs; registering it here
    # keeps it in the --help subcommand listing).
    sub.add_parser(
        "bench",
        help="run the benchmark suites (repro.bench.driver)",
        add_help=False,
    )

    serve = sub.add_parser("serve", help="run the persistent job server")
    serve.add_argument(
        "--cache-dir",
        required=True,
        help="root of the content-addressed result cache",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="LRU-evict cached results beyond this count (default: unbounded)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold for repro.* loggers",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines",
    )

    submit = sub.add_parser("submit", help="submit a solve to a running server")
    submit.add_argument("--url", default="http://127.0.0.1:8642")
    add_problem_flags(submit)
    submit.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="persist a resumable frontier checkpoint every N batches",
    )
    submit.add_argument(
        "--checkpoint-seconds",
        type=float,
        default=0.0,
        help=(
            "also checkpoint every S seconds of wall clock (whichever "
            "cadence fires first; 0 disables)"
        ),
    )
    submit.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore any persisted checkpoint for this problem",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without polling",
    )
    submit.add_argument(
        "--kiss-out", help="write the resulting CSF as KISS2 to this file"
    )

    jobs = sub.add_parser("jobs", help="inspect or control a running server")
    jobs.add_argument("--url", default="http://127.0.0.1:8642")
    jobs.add_argument("--job", help="show one job (with its event stream)")
    jobs.add_argument("--cancel", metavar="ID", help="cancel a job")
    jobs.add_argument(
        "--cache", action="store_true", help="show cache statistics"
    )
    jobs.add_argument(
        "--metrics",
        action="store_true",
        help="dump the server's Prometheus /metrics exposition",
    )
    jobs.add_argument(
        "--shutdown", action="store_true", help="gracefully stop the server"
    )

    stg = sub.add_parser("stg", help="extract the state transition graph")
    stg.add_argument("--blif", required=True)
    stg.add_argument("--max-states", type=int, default=100_000)
    stg.add_argument("--kiss-out", help="write the automaton as KISS2")
    stg.add_argument("--dot-out", help="write the automaton as Graphviz dot")
    stg.add_argument(
        "--complete", action="store_true", help="add the DC completion state"
    )
    return parser


def _setup_obs(args: argparse.Namespace):
    """Configure logging and (optionally) install a tracer for a command."""
    from repro.obs.log import configure
    from repro.obs.trace import install_tracer

    configure(args.log_level, json_lines=args.log_json)
    return install_tracer() if args.trace else None


def _export_trace(tracer, path: str) -> None:
    from repro.obs.trace import uninstall_tracer

    tracer.export(path)
    uninstall_tracer()
    print(f"  trace written to {path} ({len(tracer)} events)")


def _config(args: argparse.Namespace) -> SolveConfig | None:
    """The command line's solver config, or ``None`` after reporting why
    it is invalid."""
    try:
        return SolveConfig.from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _names(csv: str | None) -> list[str] | None:
    """A comma-separated name list (``None`` when not given)."""
    return [name for name in csv.split(",") if name] if csv else None


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.network.blif import read_blif
    from repro.eqn.solver import solve_latch_split, verify_solution
    from repro.util.limits import ResourceLimit

    config = _config(args)
    if config is None:
        return 2
    tracer = _setup_obs(args)
    net = read_blif(args.blif)
    limit = None
    if args.max_seconds is not None or args.max_nodes is not None:
        limit = ResourceLimit(max_seconds=args.max_seconds, max_nodes=args.max_nodes)
    result = solve_latch_split(
        net,
        _names(args.x_latches),
        config,
        u_signals=_names(args.u_signals),
        limit=limit,
        spill_dir=args.spill_dir,
    )
    print(result.summary())
    if result.stats is not None:
        for group, counters in result.stats.summary():
            values = " ".join(f"{name}={value}" for name, value in counters.items())
            print(f"  {group}: {values}")
        if config.compose and not result.options.get("compose"):
            print("  compose: not applicable (solved directly)")
    if tracer is not None:
        _export_trace(tracer, args.trace)
    if not args.no_verify:
        report = verify_solution(result)
        print(f"  verification: {report.summary()}")
        if not report.ok:
            return 1
    if args.kiss_out:
        from repro.automata.kiss import write_kiss

        with open(args.kiss_out, "w", encoding="utf-8") as handle:
            handle.write(write_kiss(result.csf))
        print(f"  CSF written to {args.kiss_out} (KISS2)")
    if args.dot_out:
        from repro.automata.dot import automaton_to_dot

        with open(args.dot_out, "w", encoding="utf-8") as handle:
            handle.write(automaton_to_dot(result.csf))
        print(f"  CSF written to {args.dot_out} (dot)")
    if args.implement_out:
        from repro.eqn.implement import implement_csf
        from repro.network.blif import save_blif

        impl = implement_csf(
            result.csf,
            result.problem.u_names,
            result.problem.v_names,
            name=f"{net.name}_impl",
        )
        save_blif(impl.network, args.implement_out)
        print(
            f"  implementation ({impl.state_count} states, "
            f"{impl.network.num_latches} latches) written to {args.implement_out}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.network.blif import read_blif

    net = read_blif(args.blif)
    print(f"model:   {net.name}")
    print(f"i/o/cs:  {net.stats()}")
    print(f"inputs:  {' '.join(net.inputs)}")
    print(f"outputs: {' '.join(net.outputs)}")
    print(f"latches: {' '.join(net.latch_names())}")
    print(f"nodes:   {len(net.nodes)}")
    return 0


def _cmd_reach(args: argparse.Namespace) -> int:
    from repro.bdd.backends import create_manager
    from repro.network.bddbuild import build_network_bdds
    from repro.network.blif import read_blif
    from repro.symb.reach import network_reachable_states

    config = _config(args)
    if config is None:
        return 2
    tracer = _setup_obs(args)
    net = read_blif(args.blif)
    mgr = create_manager(config.backend)
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs, ns = {}, {}
    for name in net.latches:
        cs[name] = mgr.add_var(name)
        ns[name] = mgr.add_var(f"{name}'")
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    result = network_reachable_states(
        bdds, ns_vars=ns, schedule=config.schedule, shards=config.shards
    )
    stats = mgr.stats
    print(f"model:            {net.name} ({net.stats()})")
    print(f"reachable states: {result.state_count} of {2 ** net.num_latches}")
    print(f"iterations:       {result.iterations}")
    print(f"BDD nodes:        {len(mgr)} (peak {stats['peak_live_nodes']})")
    if stats["gc_runs"]:
        print(
            f"kernel:           gc_runs={stats['gc_runs']} "
            f"reclaim_ratio_avg={stats['reclaim_ratio_avg']:.2f}"
        )
    if tracer is not None:
        _export_trace(tracer, args.trace)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.log import configure
    from repro.serve.server import serve

    configure(args.log_level, json_lines=args.log_json)
    return serve(
        args.host,
        args.port,
        cache_dir=args.cache_dir,
        max_entries=args.max_entries,
        verbose=args.verbose,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    config = _config(args)
    if config is None:
        return 2
    with open(args.blif, encoding="utf-8") as handle:
        blif_text = handle.read()
    body = {
        "blif": blif_text,
        "x_latches": _names(args.x_latches),
        **asdict(config),
    }
    if args.u_signals:
        body["u_signals"] = _names(args.u_signals)
    if args.max_seconds is not None:
        body["max_seconds"] = args.max_seconds
    if args.max_nodes is not None:
        body["max_nodes"] = args.max_nodes
    if args.checkpoint_every:
        body["checkpoint_every"] = args.checkpoint_every
    if args.checkpoint_seconds:
        body["checkpoint_seconds"] = args.checkpoint_seconds
    if args.no_resume:
        body["resume"] = False
    client = ServeClient(args.url)
    job = client.submit(body)
    print(f"{job['id']}: {job['status']} (cache_key {job['cache_key'][:16]}…)")
    if args.no_wait:
        return 0

    def on_event(event: dict) -> None:
        kind = event.get("type")
        if kind == "progress":
            print(
                f"  batch {event['batches']}: subsets={event['subsets']} "
                f"edges={event['edges']} frontier={event['frontier']} "
                f"live_nodes={event['live_nodes']}"
            )
        elif kind == "checkpoint":
            print(f"  checkpoint @ batch {event['batches']} persisted")
        elif kind == "resume":
            print(f"  resumed from checkpoint @ batch {event['batches']}")
        elif kind == "cache_hit":
            print("  served from cache")

    done = client.wait(job["id"], on_event=on_event)
    if done["status"] != "done":
        print(f"{job['id']}: {done['status']}: {done.get('error') or ''}")
        return 1
    result = client.result(job["id"])
    source = "cache" if result["cached"] else "solver"
    print(
        f"{job['id']}: done csf_states={result['csf_states']} "
        f"time={result['seconds']:.3f}s ({source})"
    )
    if args.kiss_out:
        with open(args.kiss_out, "w", encoding="utf-8") as handle:
            handle.write(result["kiss"])
        print(f"  CSF written to {args.kiss_out} (KISS2)")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url)
    if args.cancel:
        job = client.cancel(args.cancel)
        print(f"{job['id']}: cancel requested (status {job['status']})")
        return 0
    if args.shutdown:
        client.shutdown()
        print("server shutting down")
        return 0
    if args.cache:
        stats = client.cache()
        print(
            f"cache: {stats['entries']} entries, {stats['bytes']} bytes, "
            f"{stats['checkpoints']} checkpoints "
            f"(max_entries={stats['max_entries']})"
        )
        return 0
    if args.metrics:
        print(client.metrics(), end="")
        return 0
    if args.job:
        job = client.job(args.job)
        print(
            f"{job['id']}: {job['status']} cached={job['cached']} "
            f"resumed={job['resumed']} events={job['events']}"
        )
        if job.get("error"):
            print(f"  error: {job['error']}")
        if job.get("result"):
            print(f"  result: {job['result']}")
        if job.get("metrics"):
            parts = ", ".join(
                f"{key}={value}" for key, value in sorted(job["metrics"].items())
            )
            print(f"  metrics: {parts}")
        for event in client.events(args.job)["events"]:
            print(f"  [{event['seq']}] {event}")
        return 0
    listing = client.jobs()
    if not listing:
        print("no jobs")
        return 0
    for job in listing:
        summary = job.get("result") or {}
        print(
            f"{job['id']}: {job['status']} cached={job['cached']} "
            f"csf_states={summary.get('csf_states', '-')}"
        )
    return 0


def _cmd_stg(args: argparse.Namespace) -> int:
    from repro.network.blif import read_blif
    from repro.automata.ops import complete
    from repro.automata.stg import network_to_automaton

    net = read_blif(args.blif)
    aut = network_to_automaton(net, max_states=args.max_states)
    if args.complete:
        aut = complete(aut)
    print(f"model:  {net.name} ({net.stats()})")
    print(f"states: {aut.num_states}  edges: {aut.num_edges()}")
    print(f"deterministic: {aut.is_deterministic()}  complete: {aut.is_complete()}")
    if args.kiss_out:
        from repro.automata.kiss import write_kiss

        with open(args.kiss_out, "w", encoding="utf-8") as handle:
            handle.write(write_kiss(aut))
        print(f"automaton written to {args.kiss_out} (KISS2)")
    if args.dot_out:
        from repro.automata.dot import automaton_to_dot

        with open(args.dot_out, "w", encoding="utf-8") as handle:
            handle.write(automaton_to_dot(aut))
        print(f"automaton written to {args.dot_out} (dot)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "bench":
        # Forward verbatim: the driver owns its (large) flag surface.
        from repro.bench.driver import main as bench_main

        return bench_main(argv[1:])
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "info": _cmd_info,
        "reach": _cmd_reach,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "stg": _cmd_stg,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
