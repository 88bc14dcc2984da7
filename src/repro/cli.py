"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``color``    color a graph file (edge list) with the Rothko heuristic and
             print coloring statistics;
``update``   maintain a coloring incrementally under a churn scenario or
             a recorded update trace, reporting repair statistics;
``stream``   consume an update trace from stdin (or a file) and emit one
             stats row per batch — the anytime view of maintenance;
``solve``    run the unified compress–solve–lift pipeline for one task
             (max-flow / LP / centrality) on a registry dataset, at one
             color budget or progressively across a whole schedule of
             budgets off a single coloring run;
``verify``   check an on-disk edge store's structure and checksums
             before trusting it for a long run;
``datasets`` print the Tables 2/3 dataset inventory;
``tables``   regenerate one of the paper's experiment tables at a chosen
             scale (the pytest benchmarks wrap the same drivers);
``profile``  run any other command under the observability tracer and
             print the per-span summary afterwards.

Every workload verb also takes ``--trace-out FILE`` to dump the
recorded spans and metrics as JSONL (see :mod:`repro.obs.export`)
without the summary table.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError
from repro.obs import trace as _trace
from repro.utils.tables import render_rows


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _seed(text: str) -> int:
    """argparse type for rng seeds, which must be non-negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _bad_stopping_rule(command: str, *rules) -> bool:
    """Report the first bad ``(n_colors, tolerance, name)`` stopping
    rule as one ``repro <command>: ...`` line on stderr; ``True`` if
    there was one."""
    from repro.core.rothko import check_stopping_rule

    try:
        for n_colors, tolerance, name in rules:
            check_stopping_rule(n_colors, tolerance, name)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return True
    return False


TABLE_CHOICES = (
    "fig2", "fig2-dynamic", "fig7-maxflow", "fig7-lp", "fig7-centrality",
    "table1-centrality", "table1-lp", "table4", "table5", "table6",
)


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.exceptions import GraphError
    from repro.graphs import edgestore

    if (args.edgelist is None) == (args.synthetic is None):
        raise SystemExit("ingest needs exactly one of --edgelist/--synthetic")
    if args.synthetic is not None and (args.n_nodes is not None
                                       or args.undirected):
        raise SystemExit(
            "--n-nodes and --undirected apply to --edgelist only "
            "(--synthetic N,OUT_DEGREE is a directed graph on N nodes)"
        )
    start = time.perf_counter()
    try:
        if args.edgelist is not None:
            store = edgestore.ingest_edgelist(
                args.out,
                args.edgelist,
                directed=not args.undirected,
                n_nodes=args.n_nodes,
                chunk_arcs=args.chunk_arcs,
                overwrite=args.overwrite,
                resume=args.resume,
            )
        else:
            try:
                n_nodes, out_degree = (
                    int(part) for part in args.synthetic.split(",")
                )
            except ValueError as exc:
                raise SystemExit(
                    f"--synthetic must be 'N,OUT_DEGREE', "
                    f"got {args.synthetic!r}"
                ) from exc
            store = edgestore.ingest_uniform_random(
                args.out,
                n_nodes,
                out_degree,
                seed=args.seed,
                chunk_arcs=args.chunk_arcs,
                overwrite=args.overwrite,
                resume=args.resume,
            )
    except (GraphError, OSError) as exc:
        raise SystemExit(str(exc)) from exc
    rows = [
        {
            "nodes": store.n_nodes,
            "arcs": store.n_arcs,
            "directed": store.directed,
            "index_dtype": store.index_dtype.name,
            "disk_mb": round(store.array_nbytes() / 1e6, 1),
            "seconds": round(time.perf_counter() - start, 3),
        }
    ]
    print(render_rows(rows, title=f"Edge store at {store.path}"))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.graphs.edgestore import verify_store

    # StoreError propagates to main()'s error mapping: one line on
    # stderr, exit 2 — corruption details included.
    report = verify_store(args.path)
    rows = [
        {
            "nodes": report["n_nodes"],
            "arcs": report["n_arcs"],
            "directed": report["directed"],
            "files": len(report["checked"]),
            "checksums": (
                "verified" if report["checksums_verified"]
                else "absent (pre-checksum store)"
            ),
        }
    ]
    print(render_rows(rows, title=f"Verified edge store at {args.path}"))
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    from repro.core.qerror import q_error_report
    from repro.core.rothko import eps_color, q_color
    from repro.graphs.io import read_edgelist

    if _bad_stopping_rule(
        "color", (args.colors, args.q, "q"), (None, args.eps, "eps")
    ):
        return 2
    if args.mmap:
        from repro.graphs.digraph import WeightedDiGraph

        # PATH is an edge-store directory; the CSR/CSC snapshots stay
        # memmap-backed, so the coloring streams edges from disk.
        graph = WeightedDiGraph.from_edgestore(args.path, mmap=True)
    else:
        graph = read_edgelist(args.path, directed=args.directed)
    if args.eps is not None:
        result = eps_color(graph, n_colors=args.colors, eps=args.eps)
    else:
        result = q_color(graph, n_colors=args.colors, q=args.q)
    report = q_error_report(graph.to_csr(), result.coloring)
    rows = [
        {
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
            "colors": report.n_colors,
            "max_q": report.max_q,
            "mean_q": report.mean_q,
            "compression": f"{report.compression_ratio:.1f}:1",
            "seconds": result.elapsed,
        }
    ]
    print(render_rows(rows, title=f"Quasi-stable coloring of {args.path}"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for index, label in enumerate(result.coloring.labels.tolist()):
                handle.write(f"{graph.label_of(index)} {label}\n")
        print(f"per-node colors written to {args.out}")
    return 0


def _load_update_graph(args: argparse.Namespace):
    """Graph for the update/stream commands: a file path or a registry name."""
    if args.dataset is not None:
        from repro.datasets.registry import load_graph

        scale = args.scale if args.scale is not None else 1.0
        return load_graph(args.dataset, scale=scale)
    if args.path is None:
        raise SystemExit("update needs a graph PATH or --dataset NAME")
    from repro.graphs.io import read_edgelist

    return read_edgelist(args.path, directed=args.directed)


def _apply_batch_row(dynamic, index: int, batch: list) -> dict:
    """Apply one update batch; return its per-batch stats deltas.

    ``max_q`` comes from the engine's kept block bounds — ``O(k^2)``
    plus the entries the batch made stale — rather than rebuilding the
    CSR adjacency per batch.
    """
    before_splits = dynamic.stats.splits
    before_merges = dynamic.stats.merges
    before_rebuilds = dynamic.stats.rebuilds
    before_repair_s = dynamic.stats.repair_seconds
    dynamic.apply_batch(batch)
    return {
        "batch": index,
        "updates": len(batch),
        "colors": dynamic.snapshot().n_colors,
        "max_q": dynamic.max_q_err(),
        "splits": dynamic.stats.splits - before_splits,
        "merges": dynamic.stats.merges - before_merges,
        "rebuilds": dynamic.stats.rebuilds - before_rebuilds,
        "repair_s": dynamic.stats.repair_seconds - before_repair_s,
    }


def _chunk(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _dynamic_coloring(args: argparse.Namespace, graph):
    """The update/stream engine, or ``None`` once a bad tolerance or
    drift budget has been reported as one line."""
    from repro.dynamic import DynamicColoring

    try:
        return DynamicColoring(
            graph,
            q_tolerance=args.q,
            drift_budget=args.drift_budget,
            split_mean=args.split_mean,
        )
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return None


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.datasets.churn import churn_scenario
    from repro.dynamic import read_updates

    from repro.exceptions import GraphError

    graph = _load_update_graph(args)
    if args.trace is not None:
        try:
            updates = list(read_updates(args.trace))
        except (GraphError, OSError) as exc:
            # main() reports it as one line and exits 2
            raise GraphError(f"bad trace {args.trace}: {exc}") from exc
    else:
        updates = churn_scenario(
            args.scenario, graph, args.n_updates, seed=args.seed
        )
    dynamic = _dynamic_coloring(args, graph)
    if dynamic is None:
        return 2
    rows = [
        _apply_batch_row(dynamic, index, batch)
        for index, batch in enumerate(_chunk(updates, args.batch))
    ]
    dynamic.detach()
    source = args.trace or f"{args.scenario} churn"
    print(render_rows(rows, title=f"Incremental maintenance under {source}"))
    stats = dynamic.stats
    print(
        f"totals: {stats.updates} updates, {stats.splits} splits, "
        f"{stats.merges} merges, {stats.rebuilds} rebuilds, "
        f"{stats.repair_seconds:.3f}s repairing"
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.dynamic import parse_update
    from repro.exceptions import GraphError

    graph = _load_update_graph(args)
    dynamic = _dynamic_coloring(args, graph)
    if dynamic is None:
        return 2

    def flush_batch(batch_index: int, batch: list) -> None:
        row = _apply_batch_row(dynamic, batch_index, batch)
        print(
            " ".join(f"{key}={value:.3f}" if isinstance(value, float)
                     else f"{key}={value}" for key, value in row.items()),
            flush=True,
        )

    handle = open(args.trace, "r", encoding="utf-8") if args.trace else sys.stdin
    try:
        batch = []
        batch_index = 0
        for line in handle:
            try:
                update = parse_update(line)
            except GraphError as exc:
                # main() reports it as one line and exits 2
                raise GraphError(f"bad trace line: {exc}") from exc
            if update is None:
                continue
            batch.append(update)
            if len(batch) >= args.batch:
                flush_batch(batch_index, batch)
                batch = []
                batch_index += 1
        if batch:
            flush_batch(batch_index, batch)
    finally:
        if handle is not sys.stdin:
            handle.close()
        dynamic.detach()
    return 0


#: default dataset scale per task kind (matching the ``tables`` presets)
_SOLVE_SCALES = {"maxflow": 0.01, "lp": 0.04, "centrality": 0.015}


def _load_solve_store(args: argparse.Namespace):
    """``--mmap`` problem loading: DATASET is an edge-store directory.

    Mirrors ``repro color --mmap`` — the CSR/CSC snapshots stay
    memmap-backed, so coloring and solving stream edges from disk.
    Max-flow additionally needs ``--source``/``--sink`` node ids
    (defaulting to ``0`` and ``n - 1``); LPs are not edge stores.
    """
    from repro.exceptions import FlowError, GraphError
    from repro.graphs.digraph import WeightedDiGraph

    if args.task == "lp":
        raise SystemExit(
            "--mmap applies to the graph tasks (maxflow/centrality); "
            "LPs are loaded from the registry"
        )
    try:
        graph = WeightedDiGraph.from_edgestore(args.dataset, mmap=True)
    except (GraphError, OSError) as exc:
        raise SystemExit(f"bad edge store {args.dataset}: {exc}") from exc
    if args.task == "maxflow":
        from repro.flow.network import FlowNetwork

        source = args.source if args.source is not None else 0
        sink = args.sink if args.sink is not None else graph.n_nodes - 1
        try:
            return FlowNetwork(graph, source, sink)
        except FlowError as exc:
            raise SystemExit(str(exc)) from exc
    return graph


def _parse_budgets(text: str | None) -> list[int] | None:
    """``--colors`` of ``repro solve``: one budget or a comma-separated
    schedule (``None`` when the flag is absent)."""
    if text is None:
        return None
    try:
        budgets = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise SystemExit(
            f"--colors must be a comma-separated list of ints, got {text!r}"
        ) from exc
    if not budgets:
        raise SystemExit("--colors must name at least one budget")
    return budgets


def _cmd_solve(args: argparse.Namespace) -> int:
    # The lazy imports are a real chunk of the command's wall time
    # (scipy optimize, dataset generators), so they get their own span.
    with _trace.span("cli.imports"):
        from repro.datasets.registry import load_flow, load_graph, load_lp
        from repro.exceptions import DatasetError
        from repro.flow.approx import flow_bracket
        from repro.pipeline import progressive_sweep, run_task, task_for
        from repro.solvers.betweenness import resolve_workers

    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:  # a bad REPRO_WORKERS value
        print(f"repro solve: {exc}", file=sys.stderr)
        return 2
    budgets = _parse_budgets(args.colors)
    if _bad_stopping_rule(
        "solve",
        *[(budget, args.q, "q") for budget in budgets or [None]],
        (None, args.certify, "eps"),
    ):
        return 2
    scale = args.scale if args.scale is not None else _SOLVE_SCALES[args.task]
    task_options = {
        "maxflow": {},
        "lp": {"mode": args.mode},
        "centrality": {"seed": args.seed},
    }
    options = task_options[args.task]
    if args.mmap:
        with _trace.span(
            "cli.load_store", store=args.dataset, task=args.task
        ):
            problem = _load_solve_store(args)
    else:
        try:
            with _trace.span(
                "cli.load_dataset", dataset=args.dataset, task=args.task,
                scale=scale,
            ):
                loaders = {
                    "maxflow": load_flow,
                    "lp": load_lp,
                    "centrality": load_graph,
                }
                problem = loaders[args.task](args.dataset, scale=scale)
        except DatasetError as exc:
            raise SystemExit(str(exc)) from exc
    options["workers"] = workers
    task = task_for(args.task, problem, **options)

    if args.certify is not None:
        if args.colors is not None or args.q is not None:
            raise SystemExit(
                "--certify picks its own color budgets; drop --colors/--q"
            )
        from repro.pipeline import run_certified

        certified = run_certified(
            task, args.certify, max_colors=args.max_colors
        )
        rows = [
            {
                "colors": record.n_colors,
                "value": record.value,
                "rel_error": record.error,
                "compression": f"{record.compression_ratio:.1f}:1",
                "seconds": record.seconds,
            }
            for record in certified.rounds
        ]
        print(
            render_rows(
                rows,
                title=(
                    f"certified {args.task} on {args.dataset}: "
                    f"eps={args.certify:g}"
                ),
            )
        )
        verdict = "CERTIFIED" if certified.certified else "NOT certified"
        print(
            f"{verdict}: achieved relative error "
            f"{certified.achieved_error:.6g} (target {certified.eps:g}) "
            f"at {certified.n_colors} colors "
            f"({certified.compression_ratio:.1f}:1 compression)"
        )
        return 0 if certified.certified else 1

    if budgets is not None:
        # --q composes with --colors exactly as in run_task: each
        # checkpoint also stops early once the q target is met.
        results = progressive_sweep(task, budgets, q=args.q)
    elif args.q is not None:
        results = [run_task(task, q=args.q)]
    else:
        raise SystemExit("solve needs --colors, --q, or --certify")

    with _trace.span("cli.report"):
        rows = []
        for result in results:
            row = {
                "colors": result.n_colors,
                "max_q": result.max_q_err,
                "value": result.value,
            }
            if args.task == "maxflow":
                bracket = flow_bracket(
                    problem, result.coloring, result.reduced, result.solution
                )
                row.update(lb=bracket.lb, ub=bracket.ub, gap=bracket.gap)
            row.update(
                coloring_s=result.timings.coloring,
                reduce_s=result.timings.reduce,
                solve_s=result.timings.solve,
                total_s=result.timings.total,
            )
            rows.append(row)
        print(
            render_rows(
                rows,
                title=(
                    f"{args.task} pipeline on "
                    + (
                        f"edge store {args.dataset}"
                        if args.mmap
                        else f"{args.dataset} (scale {scale})"
                    )
                    + f" (one coloring, {len(results)} checkpoint(s))"
                ),
            )
        )
    return 0


def _run_traced(args: argparse.Namespace, command: str):
    """Run ``args.func`` under a fresh recorder; returns ``(code, recorder)``.

    The whole command executes inside a ``cli.<command>`` root span, so
    the exported trace always has a parentless root covering the run.
    """
    from repro.obs import Recorder, recording

    recorder = Recorder()
    with recording(recorder):
        with _trace.span(f"cli.{command}"):
            code = args.func(args)
    return code, recorder


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import render_summary, write_jsonl

    rest = list(args.rest)
    while rest and rest[0] == "--":
        rest.pop(0)
    if not rest:
        raise SystemExit(
            "profile needs a command to wrap, e.g. "
            "`repro profile solve --task maxflow --dataset dblp --colors 32`"
        )
    if rest[0] == "profile":
        raise SystemExit("profile cannot wrap itself")
    parser = build_parser()
    inner = parser.parse_args(rest)
    _validate(parser, inner)
    code, recorder = _run_traced(inner, inner.command)
    print()
    print(render_summary(recorder, title=f"profile: repro {' '.join(rest)}"))
    trace_out = getattr(inner, "trace_out", None) or args.trace_out
    if trace_out:
        lines = write_jsonl(recorder, trace_out)
        print(f"trace written to {trace_out} ({lines} lines)")
    return code


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.registry import table2_rows, table3_rows

    print(render_rows(table2_rows(), title="Table 2: graphs"))
    print()
    print(render_rows(table3_rows(), title="Table 3: linear programs"))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    scale = args.scale
    which = args.which
    if which == "fig2":
        from repro.experiments.fig2_robustness import run_fig2

        rows = run_fig2()
        title = "Fig. 2: robustness to edge perturbation"
    elif which == "fig2-dynamic":
        from repro.experiments.fig2_robustness import run_fig2_incremental

        rows = run_fig2_incremental()
        title = "Fig. 2 (dynamic): incremental repair vs recoloring"
    elif which == "fig7-maxflow":
        from repro.experiments.fig7_tradeoff import maxflow_tradeoff

        rows = maxflow_tradeoff(scale=scale or 0.004)
        title = "Fig. 7(a): max-flow speed-accuracy"
    elif which == "fig7-lp":
        from repro.experiments.fig7_tradeoff import lp_tradeoff

        rows = lp_tradeoff(scale=scale or 0.04)
        title = "Fig. 7(b): LP speed-accuracy"
    elif which == "fig7-centrality":
        from repro.experiments.fig7_tradeoff import centrality_tradeoff

        rows = centrality_tradeoff(scale=scale or 0.015)
        title = "Fig. 7(c): centrality speed-accuracy"
    elif which == "table1-centrality":
        from repro.experiments.table1_runtime import centrality_runtime_rows

        rows = centrality_runtime_rows(scale=scale or 0.015)
        title = "Table 1 (top): centrality runtime to target"
    elif which == "table1-lp":
        from repro.experiments.table1_runtime import lp_runtime_rows

        rows = lp_runtime_rows(scale=scale or 0.04)
        title = "Table 1 (bottom): LP runtime to target"
    elif which == "table4":
        from repro.experiments.table4_compression import compression_rows

        rows = compression_rows(scale=scale or 0.06)
        title = "Table 4: compression vs stable coloring"
    elif which == "table5":
        from repro.experiments.table5_lp import lp_compression_rows

        rows = lp_compression_rows(scale=scale or 0.04)
        title = "Table 5: compressed LP characteristics"
    elif which == "table6":
        from repro.experiments.table6_responsiveness import responsiveness_rows

        rows = responsiveness_rows()
        title = "Table 6: anytime-loop responsiveness"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown table {which!r}")
    print(render_rows(rows, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quasi-stable coloring for graph compression "
        "(VLDB 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser(
        "ingest",
        help="build an on-disk edge store (out-of-core, memmap-ready)",
    )
    ingest.add_argument("out", help="target store directory")
    ingest.add_argument("--edgelist", default=None,
                        help="text edge list: 'src dst [weight]' lines "
                             "with integer node ids")
    ingest.add_argument("--synthetic", default=None, metavar="N,OUT_DEGREE",
                        help="stream-generate a uniform random digraph "
                             "instead of reading a file")
    ingest.add_argument("--seed", type=_seed, default=0,
                        help="rng seed (with --synthetic)")
    ingest.add_argument("--undirected", action="store_true",
                        help="store both directions of every edge "
                             "(with --edgelist)")
    ingest.add_argument("--n-nodes", type=int, default=None,
                        help="declared node count (with --edgelist; "
                             "default: max id + 1)")
    ingest.add_argument("--chunk-arcs", type=int, default=8_000_000,
                        help="arcs buffered per sorted run before it "
                             "spills to disk")
    ingest.add_argument("--overwrite", action="store_true",
                        help="replace an existing store at OUT")
    ingest.add_argument("--resume", action="store_true",
                        help="resume an interrupted ingest from its "
                             "journal (same input and options required; "
                             "already-sorted runs are not redone)")
    ingest.set_defaults(func=_cmd_ingest)

    verify = sub.add_parser(
        "verify",
        help="check an edge store's structure and checksums",
    )
    verify.add_argument("path", help="edge-store directory to verify")
    verify.set_defaults(func=_cmd_verify)

    color = sub.add_parser("color", help="color an edge-list graph file")
    color.add_argument("path",
                       help="edge-list file: 'u v [weight]' lines "
                            "(or an edge-store directory with --mmap)")
    color.add_argument("--mmap", action="store_true",
                       help="PATH is a `repro ingest` edge-store "
                            "directory; color it out-of-core off "
                            "memmapped snapshots (directedness comes "
                            "from the store)")
    color.add_argument("--colors", type=int, default=None,
                       help="color budget")
    color.add_argument("--q", type=float, default=None,
                       help="target maximum q-error")
    color.add_argument("--eps", type=float, default=None,
                       help="target relative error (eps-relative mode)")
    color.add_argument("--directed", action="store_true",
                       help="treat edges as directed")
    color.add_argument("--out", default=None,
                       help="write 'label color' lines to this file")
    color.add_argument("--trace-out", default=None,
                       help="dump the recorded trace/metrics as JSONL")
    color.set_defaults(func=_cmd_color)

    for name, help_text in (
        ("update", "maintain a coloring under churn; print repair stats"),
        ("stream", "consume an update trace (stdin/file) batch by batch"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", nargs="?", default=None,
                         help="edge-list file: 'u v [weight]' lines")
        cmd.add_argument("--dataset", default=None,
                         help="registry dataset name instead of a file")
        cmd.add_argument("--scale", type=float, default=None,
                         help="dataset scale (with --dataset)")
        cmd.add_argument("--q", type=float, required=True,
                         help="q-error tolerance to maintain")
        cmd.add_argument("--directed", action="store_true",
                         help="treat file edges as directed")
        cmd.add_argument("--split-mean", choices=("arithmetic", "geometric"),
                         default="arithmetic")
        cmd.add_argument("--drift-budget", type=float, default=0.25,
                         help="fallback-to-rebuild budget (fraction)")
        cmd.add_argument("--batch", type=_positive_int, default=10,
                         help="updates per repair batch")
        cmd.add_argument("--trace", default=None,
                         help="update trace file ('+/-/~ u v [w]' lines)")
        cmd.add_argument("--trace-out", default=None,
                         help="dump the recorded trace/metrics as JSONL")
        if name == "update":
            cmd.add_argument("--scenario", choices=("random", "hub", "jitter"),
                             default="random",
                             help="churn generator when no --trace is given")
            cmd.add_argument("--n-updates", type=_positive_int, default=100)
            cmd.add_argument("--seed", type=_seed, default=0)
            cmd.set_defaults(func=_cmd_update)
        else:
            cmd.set_defaults(func=_cmd_stream)

    solve = sub.add_parser(
        "solve",
        help="run the compress-solve-lift pipeline on a registry dataset",
    )
    solve.add_argument("--task", required=True,
                       choices=("maxflow", "lp", "centrality"))
    solve.add_argument("--dataset", required=True,
                       help="registry dataset name (see `repro datasets`), "
                            "or a `repro ingest` edge-store directory "
                            "with --mmap")
    solve.add_argument("--mmap", action="store_true",
                       help="DATASET is an edge-store directory; solve it "
                            "off memmapped snapshots (maxflow/centrality; "
                            "--scale does not apply)")
    solve.add_argument("--source", type=int, default=None,
                       help="maxflow with --mmap: source node id "
                            "(default 0)")
    solve.add_argument("--sink", type=int, default=None,
                       help="maxflow with --mmap: sink node id "
                            "(default n - 1)")
    solve.add_argument("--scale", type=float, default=None,
                       help="dataset scale (1.0 = paper size)")
    solve.add_argument("--colors", default=None,
                       help="color budget, or comma-separated schedule for "
                            "a progressive multi-k sweep (one coloring run)")
    solve.add_argument("--q", type=float, default=None,
                       help="target maximum q-error (instead of --colors)")
    solve.add_argument("--certify", type=float, default=None, metavar="EPS",
                       help="certified mode: grow the color budget until "
                            "the measured relative error vs an exact "
                            "solve is <= EPS (exit 1 if unreachable); "
                            "replaces --colors/--q")
    solve.add_argument("--max-colors", type=_positive_int, default=None,
                       help="certified mode: color-budget cap "
                            "(default: the problem size)")
    solve.add_argument("--mode", choices=("sqrt", "grohe"), default="sqrt",
                       help="lp: reduction weight mode")
    solve.add_argument("--seed", type=_seed, default=0,
                       help="centrality: pivot sampling seed")
    solve.add_argument("--workers", type=_positive_int, default=None,
                       help="threads that centrality's Brandes source "
                            "batches fan out over "
                            "(default: REPRO_WORKERS or 1)")
    solve.add_argument("--trace-out", default=None,
                       help="dump the recorded trace/metrics as JSONL")
    solve.set_defaults(func=_cmd_solve)

    datasets = sub.add_parser("datasets", help="print the dataset registry")
    datasets.set_defaults(func=_cmd_datasets)

    profile = sub.add_parser(
        "profile",
        help="run another repro command under the tracer and print a "
             "per-span summary",
    )
    profile.add_argument("--trace-out", default=None,
                         help="dump the recorded trace/metrics as JSONL "
                              "(also honored on the wrapped command)")
    profile.add_argument("rest", nargs=argparse.REMAINDER,
                         help="the command to wrap, with its own flags")
    profile.set_defaults(func=_cmd_profile)

    tables = sub.add_parser("tables", help="regenerate a paper table/figure")
    tables.add_argument("which", choices=TABLE_CHOICES)
    tables.add_argument("--scale", type=float, default=None,
                        help="dataset scale (1.0 = paper size)")
    tables.set_defaults(func=_cmd_tables)
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-flag checks argparse cannot express (shared with profile)."""
    if args.command == "color" and args.colors is None and args.q is None \
            and args.eps is None:
        parser.error("color needs --colors, --q, or --eps")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        if getattr(args, "trace_out", None) and args.command != "profile":
            from repro.obs.export import write_jsonl

            code, recorder = _run_traced(args, args.command)
            lines = write_jsonl(recorder, args.trace_out)
            print(f"trace written to {args.trace_out} ({lines} lines)")
            return code
        return args.func(args)
    except (ReproError, OSError) as exc:
        # Every library/filesystem failure a command didn't translate
        # itself becomes one line on stderr, never a traceback.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
