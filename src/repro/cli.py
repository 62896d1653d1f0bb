"""Command-line interface.

Lets a user run the paper's algorithms on an edge-list file (or a bundled synthetic
dataset) without writing Python::

    python -m repro coreness --dataset collab-small --epsilon 0.5 --top 10
    python -m repro coreness --input graph.edges --rounds 8 --output values.tsv
    python -m repro coreness --dataset social-ba --epsilon 0.5 --engine sharded:4
    python -m repro coreness --dataset social-ba --epsilon 0.5 --engine sharded:shards=4,workers=2
    python -m repro orientation --dataset caveman --weighted --epsilon 0.5
    python -m repro densest --input graph.edges --epsilon 1.0
    python -m repro batch --dataset caveman --dataset communities --epsilon 0.5 --rounds 4
    python -m repro batch --dataset caveman --problem orientation --epsilon 0.5 --json -
    python -m repro batch --dataset social-ba --rounds 8 --store ./cache
    python -m repro cache ls --store ./cache
    python -m repro cache info --store ./cache
    python -m repro cache purge --store ./cache [--fingerprint HEX]
    python -m repro serve --host 127.0.0.1 --port 8080 --store ./cache --workers 4
    python -m repro serve --port 8080 --access-log access.ndjson
    python -m repro coreness --dataset caveman --epsilon 0.5 --trace run.trace
    python -m repro trace summarize --input run.trace
    python -m repro trace export --input run.trace --chrome --output run.json
    python -m repro engines
    python -m repro problems
    python -m repro datasets

Edge-list files use the same format as :mod:`repro.graph.io` (``u v [w]`` per line,
``#`` comments allowed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.analysis.tables import format_table
from repro.engine import BatchRunner, available_engines, get_engine, sweep_jobs
from repro.errors import ReproError
from repro.graph.datasets import dataset_info, list_datasets, load_dataset
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.problems import available_problems, get_problem
from repro.session import Session
from repro.store import ArtifactStore


def _count(text: str) -> int:
    """An argparse type for a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed approximate k-core decomposition, min-max edge "
                    "orientation and weak densest subsets (Chan, Sozio, Sun; IPDPS 2019).")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_graph_arguments(sub: argparse.ArgumentParser) -> None:
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", type=Path, help="edge-list file (u v [w] per line)")
        source.add_argument("--dataset", choices=list_datasets(),
                            help="bundled synthetic stand-in dataset")
        sub.add_argument("--weighted", action="store_true",
                         help="layer integer weights onto a bundled dataset")
        budget = sub.add_mutually_exclusive_group(required=True)
        budget.add_argument("--epsilon", type=float, help="target ratio 2(1+epsilon)")
        budget.add_argument("--rounds", type=int, help="explicit round budget T")
        sub.add_argument("--output", type=Path, default=None,
                         help="write per-node results as TSV instead of a table")
        add_trace_argument(sub)

    def add_trace_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--trace", type=Path, default=None, metavar="PATH",
                         help="enable repro.obs tracing for this run and "
                              "append span records (JSONL) to PATH; inspect "
                              "with the 'trace' subcommand")

    def add_engine_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--engine", default="vectorized", metavar="SPEC",
                         help="execution engine spec, e.g. 'vectorized', 'faithful', "
                              "'sharded:4', 'sharded:shards=4,workers=2' "
                              "(see the 'engines' subcommand)")

    coreness_parser = subparsers.add_parser(
        "coreness", help="approximate coreness / maximal density per node (Theorem I.1)")
    add_graph_arguments(coreness_parser)
    add_engine_argument(coreness_parser)
    coreness_parser.add_argument("--top", type=_count, default=10,
                                 help="number of top nodes to print (default 10)")
    coreness_parser.add_argument("--lam", type=float, default=0.0,
                                 help="Lambda-grid parameter for message-size reduction")

    orientation_parser = subparsers.add_parser(
        "orientation", help="approximate min-max edge orientation (Theorem I.2)")
    add_graph_arguments(orientation_parser)
    add_engine_argument(orientation_parser)

    densest_parser = subparsers.add_parser(
        "densest", help="weak densest subset collection (Theorem I.3)")
    add_graph_arguments(densest_parser)

    batch_parser = subparsers.add_parser(
        "batch", help="run a batch of problem jobs (graphs x budgets x lambdas) "
                      "through one engine with shared per-graph sessions")
    batch_parser.add_argument("--input", type=Path, action="append", default=[],
                              help="edge-list file; repeatable")
    batch_parser.add_argument("--dataset", choices=list_datasets(), action="append",
                              default=[], help="bundled dataset; repeatable")
    batch_parser.add_argument("--weighted", action="store_true",
                              help="layer integer weights onto the bundled datasets")
    batch_parser.add_argument("--problem", choices=available_problems(),
                              default="coreness",
                              help="registered problem every job runs (default: coreness)")
    batch_parser.add_argument("--epsilon", type=float, action="append", default=[],
                              help="budget variant: target ratio 2(1+epsilon); repeatable")
    batch_parser.add_argument("--rounds", type=int, action="append", default=[],
                              help="budget variant: explicit round budget T; repeatable")
    batch_parser.add_argument("--lam", type=float, action="append", default=[],
                              help="Lambda-grid variant, coreness only "
                                   "(default: 0.0 only); repeatable")
    batch_parser.add_argument("--output", type=Path, default=None,
                              help="write per-job stats as TSV in addition to the table")
    batch_parser.add_argument("--json", default=None, metavar="PATH",
                              help="write per-job results as JSON (each result's "
                                   "to_dict()); '-' prints pure JSON to stdout, "
                                   "suppressing the table")
    batch_parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                              help="persistent artifact store: sessions resume "
                                   "bit-identically from (and extend) this cache")
    add_engine_argument(batch_parser)
    add_trace_argument(batch_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or purge a persistent artifact store")
    cache_parser.add_argument("action", choices=("ls", "info", "purge"),
                              help="ls: per-graph artifacts; info: store totals; "
                                   "purge: delete artifacts")
    cache_parser.add_argument("--store", type=Path, required=True, metavar="DIR",
                              help="store root directory")
    cache_parser.add_argument("--fingerprint", default=None, metavar="HEX",
                              help="restrict ls/purge to one graph fingerprint")

    serve_parser = subparsers.add_parser(
        "serve", help="serve jobs over HTTP/JSON (graph uploads, submission, "
                      "long-polling, /metrics) until SIGTERM/SIGINT")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="TCP port; 0 picks an ephemeral port "
                                   "(default 8080)")
    serve_parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                              help="persistent artifact store backing the "
                                   "served sessions (resumed across restarts)")
    serve_parser.add_argument("--workers", type=int, default=2, metavar="N",
                              help="job worker threads (default 2)")
    serve_parser.add_argument("--max-pending", type=int, default=None,
                              metavar="N",
                              help="backpressure bound: submissions beyond N "
                                   "queued-or-running jobs get HTTP 429 "
                                   "(default: unbounded)")
    serve_parser.add_argument("--quota-rate", type=float, default=None,
                              metavar="R",
                              help="per-tenant request quota: R requests/s "
                                   "token-bucket refill (default: no quotas)")
    serve_parser.add_argument("--quota-burst", type=float, default=None,
                              metavar="B",
                              help="token-bucket burst size (default: "
                                   "max(1, quota-rate))")
    serve_parser.add_argument("--engine", default="vectorized", metavar="SPEC",
                              help="execution engine spec for every served job "
                                   "(default: vectorized)")
    serve_parser.add_argument("--access-log", type=Path, default=None,
                              metavar="PATH",
                              help="append one NDJSON access-log line per "
                                   "request (method, path, status, tenant, "
                                   "duration, job id) to PATH; default: no "
                                   "access logging")
    add_trace_argument(serve_parser)

    delta_parser = subparsers.add_parser(
        "delta", help="apply a graph delta against a running repro serve "
                      "instance (POST /graphs/<fp>/deltas); prints the child "
                      "version's fingerprint")
    delta_parser.add_argument("--host", default="127.0.0.1",
                              help="server address (default 127.0.0.1)")
    delta_parser.add_argument("--port", type=int, default=8080,
                              help="server TCP port (default 8080)")
    delta_parser.add_argument("--fingerprint", required=True, metavar="HEX",
                              help="parent graph fingerprint (a root content "
                                   "fingerprint or a delta chain fingerprint)")
    delta_parser.add_argument("--delta", type=Path, required=True,
                              metavar="PATH",
                              help="delta document (repro-graph-delta/1 JSON, "
                                   "see GraphDelta.to_dict)")
    delta_parser.add_argument("--max-frontier-fraction", type=float,
                              default=None, metavar="F",
                              help="finish with full rounds once the dirty "
                                   "frontier exceeds F*n nodes "
                                   "(default: the server's 0.25)")
    delta_parser.add_argument("--tenant", default=None,
                              help="X-Repro-Tenant header value")

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a JSONL span trace recorded with --trace")
    trace_parser.add_argument("action", choices=("export", "summarize"),
                              help="export: re-emit the trace as JSON "
                                   "(--chrome renders Chrome trace-event "
                                   "format); summarize: per-span-name "
                                   "latency table")
    trace_parser.add_argument("--input", type=Path, required=True,
                              metavar="PATH", help="JSONL trace file")
    trace_parser.add_argument("--chrome", action="store_true",
                              help="export as Chrome trace-event JSON "
                                   "(openable in Perfetto / chrome://tracing)")
    trace_parser.add_argument("--output", type=Path, default=None,
                              metavar="PATH",
                              help="write the export to PATH instead of stdout")

    subparsers.add_parser("engines", help="list the registered execution engines")
    subparsers.add_parser("problems", help="list the registered problems")
    subparsers.add_parser("datasets", help="list the bundled synthetic datasets")
    return parser


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input is not None:
        return read_edge_list(args.input)
    return load_dataset(args.dataset, weighted=args.weighted)


def _budget_kwargs(args: argparse.Namespace) -> dict:
    if args.epsilon is not None:
        return {"epsilon": args.epsilon}
    return {"rounds": args.rounds}


def _command_datasets(out) -> int:
    rows = []
    for name in list_datasets():
        spec = dataset_info(name)
        graph = load_dataset(name)
        rows.append([name, spec.category, graph.num_nodes, graph.num_edges, spec.description])
    print(format_table(["name", "category", "n", "m", "description"], rows), file=out)
    return 0


def _command_engines(out) -> int:
    rows = [[name, get_engine(name).describe()] for name in available_engines()]
    print(format_table(["name", "description"], rows), file=out)
    print("# specs may carry options, e.g. 'sharded:4' or "
          "'sharded:shards=4,workers=2'\n"
          "# (shards on 2 threads); pass them with --engine SPEC",
          file=out)
    return 0


def _command_problems(out) -> int:
    rows = [[name, get_problem(name).describe()] for name in available_problems()]
    print(format_table(["name", "description"], rows), file=out)
    print("# run a problem over many graphs/budgets with: repro batch --problem NAME ...",
          file=out)
    return 0


def _command_cache(args: argparse.Namespace, out) -> int:
    store = ArtifactStore(args.store)
    if args.action == "purge":
        removed = store.purge(args.fingerprint)
        print(f"# purged {removed} file(s) from {store.root}", file=out)
        return 0
    info = store.info(args.fingerprint)
    if args.action == "ls":
        # Full fingerprints: `purge`/`info --fingerprint` require the exact
        # 64-char address, so ls must print something copy-pasteable.
        rows = [[row["fingerprint"], row["files"], row["bytes"],
                 row["traj_bytes"], ",".join(row["kinds"])]
                for row in info["graphs"]]
        if rows:
            print(format_table(["fingerprint", "files", "bytes", "traj_bytes",
                                "kinds"], rows), file=out)
        else:
            print("(store is empty)", file=out)
    print(f"# store={info['root']} graphs={len(info['graphs'])} "
          f"files={info['files']} bytes={info['bytes']}", file=out)
    return 0


def _command_serve(args: argparse.Namespace, out,
                   ready: Optional[threading.Event] = None,
                   stop: Optional[threading.Event] = None) -> int:
    """Run the HTTP server until SIGTERM/SIGINT, then drain gracefully.

    ``ready``/``stop`` exist for in-process tests (and embedding): ``ready``
    is set once the socket is bound, ``stop`` requests the same graceful
    drain a signal would.  Signal handlers are installed only on the main
    thread (the only place Python allows them).
    """
    from repro.serve.http import ReproHTTPServer

    server = ReproHTTPServer(
        args.host, args.port, engine=get_engine(args.engine),
        store=args.store, workers=args.workers, max_pending=args.max_pending,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        access_log=args.access_log)
    stop = stop if stop is not None else threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda _s, _f: stop.set())
    server.start()
    print(f"# repro-serve {__version__} listening on "
          f"http://{server.host}:{server.port} "
          f"(engine={args.engine}, workers={args.workers}, "
          f"store={args.store if args.store is not None else '-'})",
          file=out, flush=True)
    if ready is not None:
        ready.set()
    stop.wait()
    print("# draining: finishing in-flight jobs, flushing the store",
          file=out, flush=True)
    server.drain()
    print("# drained; bye", file=out, flush=True)
    return 0


def _command_batch(args: argparse.Namespace, out) -> int:
    graphs = {}
    for path in args.input:
        graphs[str(path)] = read_edge_list(path)
    for name in args.dataset:
        graphs[name] = load_dataset(name, weighted=args.weighted)
    if not graphs:
        raise ReproError("batch needs at least one --input or --dataset")
    problem = get_problem(args.problem)
    if any(args.lam) and "lam" not in problem.batch_params:
        raise ReproError(f"--lam only applies to problems that take a Lambda grid "
                         f"(problem {problem.name!r} does not)")
    jobs = sweep_jobs(graphs, epsilons=args.epsilon, rounds=args.rounds,
                      lams=args.lam or (0.0,), problem=args.problem)
    store = ArtifactStore(args.store) if args.store is not None else None
    runner = BatchRunner(args.engine, store=store)
    results = runner.run(jobs)
    header = ["job", "engine", "problem", "n", "m", "rounds", "seconds", "converged",
              "objective"]
    json_to_stdout = args.json == "-"
    rows = []
    if not json_to_stdout or args.output is not None:
        for result in results:
            stats = result.stats
            rows.append([stats.job, stats.engine, stats.problem, stats.num_nodes,
                         stats.num_edges, stats.rounds, f"{stats.seconds:.4f}",
                         stats.converged_round if stats.converged_round is not None
                         else "-",
                         f"{stats.objective:.6g}"])
    if not json_to_stdout:  # keep stdout pure JSON for `--json -` pipelines
        engine_desc = runner.engine.describe()
        if problem.forced_engine:
            engine_desc = f"{problem.forced_engine} (forced by the problem)"
        print(f"# engine={engine_desc} problem={problem.name} "
              f"jobs={len(results)} graphs={runner.cached_graphs}", file=out)
        if store is not None:
            totals = runner.aggregate_stats()
            print(f"# store={store.root} disk_hits={totals['disk_hits']} "
                  f"disk_misses={totals['disk_misses']} "
                  f"disk_writes={totals['disk_writes']}", file=out)
        print(format_table(header, rows), file=out)
    if args.output is not None:
        lines = ["\t".join(str(cell) for cell in row) for row in rows]
        args.output.write_text("\n".join(["\t".join(header)] + lines) + "\n",
                               encoding="utf-8")
        if not json_to_stdout:
            print(f"# per-job stats written to {args.output}", file=out)
    if args.json is not None:
        payload = [{"job": r.stats.job, "problem": r.stats.problem,
                    "engine": r.stats.engine, "rounds": r.stats.rounds,
                    "seconds": r.stats.seconds, "objective": r.stats.objective,
                    "result": r.result.to_dict()} for r in results]
        text = json.dumps(payload, indent=2)
        if json_to_stdout:
            print(text, file=out)
        else:
            Path(args.json).write_text(text + "\n", encoding="utf-8")
            print(f"# per-job results written to {args.json}", file=out)
    return 0


def _command_coreness(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    result = Session(graph, engine=args.engine, lam=args.lam).coreness(
        **_budget_kwargs(args))
    print(f"# n={graph.num_nodes} m={graph.num_edges} rounds={result.rounds} "
          f"guarantee={result.guarantee:.4g}", file=out)
    if args.output is not None:
        lines = [f"{v}\t{result.values[v]:.10g}" for v in graph.nodes()]
        args.output.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"# per-node values written to {args.output}", file=out)
        return 0
    rows = [[v, f"{result.values[v]:.6g}"] for v in result.top_nodes(args.top)]
    print(format_table(["node", "approx coreness"], rows), file=out)
    return 0


def _command_orientation(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    result = Session(graph, engine=args.engine).orientation(**_budget_kwargs(args))
    print(f"# n={graph.num_nodes} m={graph.num_edges} rounds={result.rounds} "
          f"guarantee={result.guarantee:.4g}", file=out)
    print(f"max weighted in-degree: {result.max_in_weight:.6g}", file=out)
    print(f"conflicts resolved: {result.orientation.conflicts}; "
          f"uncovered edges: {result.orientation.violations}", file=out)
    if args.output is not None:
        lines = [f"{u}\t{v}\t{owner}" for (u, v), owner in sorted(
            result.orientation.assignment.items(), key=lambda kv: repr(kv[0]))]
        args.output.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"# edge assignment written to {args.output}", file=out)
    return 0


def _command_densest(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    result = Session(graph).densest(**_budget_kwargs(args))
    print(f"# n={graph.num_nodes} m={graph.num_edges} rounds_total={result.rounds_total} "
          f"gamma={result.gamma:.4g}", file=out)
    rows = [[str(leader), len(members),
             f"{result.reported_densities.get(leader, float('nan')):.6g}",
             f"{result.actual_densities[leader]:.6g}"]
            for leader, members in sorted(result.subsets.items(), key=lambda kv: -len(kv[1]))]
    if rows:
        print(format_table(["leader", "size", "announced density", "true density"], rows),
              file=out)
    else:
        print("(no subset was announced)", file=out)
    if args.output is not None:
        lines = [f"{v}\t{leader if leader is not None else '-'}"
                 for v, leader in result.node_assignment.items()]
        args.output.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"# per-node subset assignment written to {args.output}", file=out)
    return 0


def _command_delta(args: argparse.Namespace, out) -> int:
    """Apply a GraphDelta to a served graph; print the child fingerprint."""
    from repro.graph.delta import GraphDelta
    from repro.serve.client import ServeClient

    try:
        payload = json.loads(args.delta.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read delta document {args.delta}: {exc}") from exc
    delta = GraphDelta.from_dict(payload)   # validate before going on the wire
    with ServeClient(args.host, args.port, tenant=args.tenant) as client:
        doc = client.apply_delta(args.fingerprint, delta,
                                 max_frontier_fraction=args.max_frontier_fraction)
    print(f"# {doc['delta']} on {args.fingerprint[:12]}... -> "
          f"n={doc['n']} m={doc['m']} "
          f"created={doc['created']} content={doc['content_fingerprint'][:12]}...",
          file=out)
    print(doc["fingerprint"], file=out)
    return 0


def _command_trace(args: argparse.Namespace, out) -> int:
    """Inspect a JSONL span trace: per-name latency table or re-export."""
    from repro.obs import trace as obs_trace

    records = obs_trace.read_jsonl(args.input)
    if args.action == "summarize":
        rows = [[row["name"], row["count"], f"{row['total_seconds']:.6g}",
                 f"{row['mean_seconds']:.6g}", f"{row['p50_seconds']:.6g}",
                 f"{row['p95_seconds']:.6g}", f"{row['max_seconds']:.6g}"]
                for row in obs_trace.summarize(records)]
        if rows:
            print(format_table(["span", "count", "total_s", "mean_s",
                                "p50_s", "p95_s", "max_s"], rows), file=out)
        else:
            print("(trace is empty)", file=out)
        print(f"# spans={len(records)} input={args.input}", file=out)
        return 0
    payload = obs_trace.chrome_trace(records) if args.chrome else records
    text = json.dumps(payload, indent=2)
    if args.output is None:
        print(text, file=out)
    else:
        args.output.write_text(text + "\n", encoding="utf-8")
        kind = "chrome trace" if args.chrome else "trace records"
        print(f"# {kind} ({len(records)} span(s)) written to {args.output}",
              file=out)
    return 0


_COMMANDS = {
    "batch": _command_batch,
    "cache": _command_cache,
    "serve": _command_serve,
    "delta": _command_delta,
    "trace": _command_trace,
    "coreness": _command_coreness,
    "orientation": _command_orientation,
    "densest": _command_densest,
}

_PLAIN_COMMANDS = {
    "datasets": _command_datasets,
    "engines": _command_engines,
    "problems": _command_problems,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        from repro.obs import trace as obs_trace
        obs_trace.enable(jsonl_path=trace_path)
    try:
        if args.command in _PLAIN_COMMANDS:
            code = _PLAIN_COMMANDS[args.command](out)
        else:
            code = _COMMANDS[args.command](args, out)
        # Flush inside the handler's reach: a downstream reader that quit
        # (broken pipe) usually only surfaces when buffered output is flushed,
        # which would otherwise happen during interpreter shutdown — as an
        # unhandled BrokenPipeError traceback and exit code 120.
        if hasattr(out, "flush"):
            out.flush()
        return code
    except ReproError as exc:
        # Covers InvalidLambdaError too (a non-finite --lam rejected at the
        # boundary): it is a ReproError first, a ValueError second — so
        # arbitrary internal ValueErrors still surface as tracebacks.  The
        # bracketed code is the same stable identifier the HTTP error bodies
        # carry (the repro.errors wire protocol).
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error [not-found]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed stdout early (`repro cache ls | head -1`, or a
        # `grep -q` that matched and quit): a normal end of conversation, not
        # a crash.  Point stdout at devnull so interpreter shutdown does not
        # die flushing the dead pipe, and exit 0 — the command did its work;
        # failing here would break `set -o pipefail` pipelines whose readers
        # legitimately stop early.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if trace_path is not None:
            obs_trace.disable()  # flush + close the JSONL exporter


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
