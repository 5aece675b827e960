"""Command-line interface for the library.

The CLI covers the everyday workflows of a downstream user without writing
any Python:

* ``repro-mbb solve`` — load an edge list (or a built-in dataset stand-in)
  and print its maximum balanced biclique, as text or as a JSON
  :class:`~repro.api.SolveReport`;
* ``repro-mbb batch`` — run a JSON file of solve requests through the
  engine's fault-tolerant worker processes and emit the reports as
  JSON; failed requests are summarised per cell on stderr and make the
  command exit nonzero, and ``--max-retries``/``--no-retry``/
  ``--in-process-fallback`` tune the engine's worker-crash
  :class:`~repro.api.RetryPolicy`;
* ``repro-mbb sweep`` — expand "these dataset stand-ins x these backends"
  into a batch request file, so a fleet-style sweep is
  ``repro-mbb sweep ... | repro-mbb batch -``;
* ``repro-mbb backends`` — list the registered solver backends and their
  capabilities;
* ``repro-mbb generate`` — write a synthetic bipartite graph to an edge list;
* ``repro-mbb datasets`` — list the built-in KONECT stand-ins;
* ``repro-mbb bench`` — regenerate one of the paper's tables or figures;
* ``repro-mbb lint`` — run *reprolint*, the repository's AST-based
  invariant analyzer (budget checkpoints, determinism, kernel parity,
  worker-process safety and the cross-file rules), against the source
  tree — what the CI ``invariants`` job executes; every finding fails
  the run.

Solver choices are derived from the :mod:`repro.api` backend registry, so
a backend registered at runtime (or added in a later version) shows up in
``--backend`` without touching this module.  Every command prints plain
text (or JSON where requested) to stdout and returns a conventional exit
code, so the CLI composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import textwrap
from typing import Optional, Sequence

from repro import __version__
from repro.api import (
    STATUS_OK,
    GraphSpec,
    MBBEngine,
    RetryPolicy,
    SolveRequest,
    available_backends,
    backend_infos,
    sweep_requests,
)
from repro.exceptions import ReproError
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.graph.io import write_edge_list
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS
from repro.workloads.datasets import DATASETS, TOUGH_DATASETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mbb",
        description="Exact maximum balanced biclique search in bipartite graphs "
        "(reproduction of Chen et al., SIGMOD 2021).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve the MBB problem on a graph")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file (KONECT-style, 'left right' per line)")
    source.add_argument("--dataset", help="name of a built-in dataset stand-in")
    solve.add_argument(
        "--backend",
        "--method",
        dest="backend",
        default="auto",
        choices=available_backends(),
        help="registered solver backend (default: auto; see 'repro-mbb backends')",
    )
    solve.add_argument(
        "--kernel",
        default=KERNEL_BITS,
        choices=[KERNEL_BITS, KERNEL_SETS],
        help="branch-and-bound inner loop: indexed bitsets (default) or adjacency sets",
    )
    solve.add_argument(
        "--node-budget", type=int, default=None, help="search nodes before giving up"
    )
    solve.add_argument("--time-budget", type=float, default=None, help="seconds before giving up")
    solve.add_argument(
        "--seed", type=int, default=0, help="seed for randomised backends (default: 0)"
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="emit the SolveReport as JSON instead of human-readable text",
    )
    solve.add_argument("--show-vertices", action="store_true", help="print the biclique's vertices")

    batch = subparsers.add_parser(
        "batch", help="run a JSON file of solve requests through the engine"
    )
    batch.add_argument(
        "requests",
        help="JSON file holding an array of solve requests ('-' reads stdin)",
    )
    batch.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: CPU count)"
    )
    batch.add_argument(
        "--serial",
        action="store_true",
        help="run the batch serially in-process instead of in worker processes",
    )
    batch.add_argument(
        "--output", default=None, help="write the JSON reports to a file instead of stdout"
    )
    retry = batch.add_mutually_exclusive_group()
    retry.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-submit a request at most N times after a worker crash "
        "(default: engine retry policy, 2 retries)",
    )
    retry.add_argument(
        "--no-retry",
        action="store_true",
        help="fail a request on the first worker crash instead of retrying",
    )
    batch.add_argument(
        "--in-process-fallback",
        action="store_true",
        help="re-run a request that exhausted its crash retries in-process "
        "(recovers reproducible crashers, but a genuine segfault/OOM then "
        "takes the whole batch down)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="expand datasets x backends into a batch request file",
    )
    sweep.add_argument(
        "--datasets",
        default="all",
        help="'all', 'tough', or a comma-separated list of stand-in names "
        "(default: all)",
    )
    sweep.add_argument(
        "--backends",
        default="sparse",
        help="comma-separated registered backend names (default: sparse)",
    )
    sweep.add_argument(
        "--kernel",
        default=KERNEL_BITS,
        choices=[KERNEL_BITS, KERNEL_SETS],
        help="kernel recorded in every generated request",
    )
    sweep.add_argument(
        "--node-budget", type=int, default=None, help="per-request node budget"
    )
    sweep.add_argument(
        "--time-budget", type=float, default=None, help="per-request seconds budget"
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="seed recorded in every request"
    )
    sweep.add_argument(
        "--output",
        default=None,
        help="write the request file here instead of stdout (feed either to "
        "'repro-mbb batch')",
    )

    backends = subparsers.add_parser(
        "backends", help="list the registered solver backends"
    )
    backends.add_argument(
        "--json", action="store_true", help="emit the backend list as JSON"
    )

    generate = subparsers.add_parser("generate", help="generate a synthetic bipartite graph")
    generate.add_argument("output", help="edge-list file to write")
    generate.add_argument("--left", type=int, required=True, help="number of left vertices")
    generate.add_argument("--right", type=int, required=True, help="number of right vertices")
    generate.add_argument("--density", type=float, default=None, help="uniform edge density")
    generate.add_argument(
        "--avg-degree", type=float, default=None, help="power-law average degree (sparse model)"
    )
    generate.add_argument("--seed", type=int, default=0, help="random seed")

    subparsers.add_parser("datasets", help="list the built-in KONECT stand-ins")

    lint = subparsers.add_parser(
        "lint",
        help="run the reprolint invariant analyzer over the source tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: src tests benchmarks "
        "examples, resolved under --root)",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="project root used to resolve paths and scope rules (default: .)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated subset of rule codes to run (default: all)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of human-readable text",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="CODES",
        help="print the rationale and an example for the given "
        "comma-separated rule codes (or 'all') and exit",
    )

    bench = subparsers.add_parser("bench", help="regenerate a paper table or figure")
    bench.add_argument(
        "artefact",
        choices=["table4", "table5", "table6", "figure4", "figure5", "figure6"],
        help="which table/figure to regenerate",
    )
    bench.add_argument("--time-budget", type=float, default=5.0, help="per-run budget in seconds")
    return parser


def _command_solve(args: argparse.Namespace) -> int:
    if args.dataset:
        spec = GraphSpec.dataset(args.dataset)
        label = f"dataset stand-in {args.dataset!r}"
    else:
        spec = GraphSpec.from_path(args.input)
        label = args.input
    request = SolveRequest(
        graph=spec,
        backend=args.backend,
        kernel=args.kernel,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        seed=args.seed,
    )
    engine = MBBEngine()
    if args.json:
        print(engine.solve(request).to_json())
        return 0
    # Materialise once: print the load confirmation before the (possibly
    # long) solve starts, then hand the same graph to the engine.
    graph = spec.materialise()
    print(f"loaded {label}: |L|={graph.num_left} |R|={graph.num_right} |E|={graph.num_edges}")
    report = engine.solve(request, graph=graph)
    print(f"backend: {report.backend} (kernel: {report.kernel})")
    status = "optimal" if report.optimal else "best effort (budget exhausted)"
    print(f"maximum balanced biclique side size: {report.side_size} ({status})")
    if report.terminated_at:
        print(f"terminated at step {report.terminated_at}")
    print(
        f"search nodes: {report.stats.get('nodes', 0)}, "
        f"elapsed: {report.elapsed_seconds:.3f}s"
    )
    if args.show_vertices:
        print(f"left : {list(report.left)}")
        print(f"right: {list(report.right)}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    try:
        if args.requests == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.requests, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        print(f"error: requests file is not valid JSON: {error}", file=sys.stderr)
        return 2
    if isinstance(payload, dict) and "requests" in payload:
        payload = payload["requests"]
    if not isinstance(payload, list):
        print("error: requests file must hold a JSON array of solve requests", file=sys.stderr)
        return 2
    requests = [SolveRequest.from_dict(entry) for entry in payload]
    if args.no_retry:
        policy: Optional[RetryPolicy] = RetryPolicy.none()
    elif args.max_retries is not None:
        if args.max_retries < 0:
            print("error: --max-retries must be >= 0", file=sys.stderr)
            return 2
        policy = RetryPolicy(max_attempts=args.max_retries + 1)
    else:
        policy = None
    if args.in_process_fallback:
        policy = dataclasses.replace(
            policy if policy is not None else RetryPolicy(),
            in_process_fallback=True,
        )
    engine = MBBEngine(max_workers=args.workers)
    reports = engine.solve_many(
        requests, parallel=not args.serial, retry_policy=policy
    )
    document = json.dumps([report.to_dict() for report in reports], indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(f"wrote {len(reports)} reports to {args.output}")
    else:
        print(document)
    # Per-request failure summary on stderr: stdout stays pure JSON for
    # pipelines, but a failed cell is still visible (and CI-fatal) even
    # when nobody inspects the report document.
    failed = [
        (index, report)
        for index, report in enumerate(reports)
        if report.status != STATUS_OK
    ]
    if failed:
        counts = {}
        for report in reports:
            counts[report.status] = counts.get(report.status, 0) + 1
        summary = ", ".join(
            f"{counts[status]} {status}" for status in sorted(counts)
        )
        print(f"batch finished with failures: {summary}", file=sys.stderr)
        for index, report in failed:
            tag = report.request.tag or f"#{index}"
            error = report.error
            detail = (
                f"{error.kind}: {error.message} (attempts={error.attempts})"
                if error is not None
                else "no error detail"
            )
            print(f"  [{index}] {tag} {report.status} — {detail}", file=sys.stderr)
        return 1
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.datasets == "all":
        datasets = list(DATASETS)
    elif args.datasets == "tough":
        datasets = list(TOUGH_DATASETS)
    else:
        datasets = [name.strip() for name in args.datasets.split(",") if name.strip()]
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    requests = sweep_requests(
        datasets,
        backends,
        kernel=args.kernel,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        seed=args.seed,
    )
    document = json.dumps(
        {"requests": [request.to_dict() for request in requests]}, indent=2
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(
            f"wrote {len(requests)} requests ({len(datasets)} datasets x "
            f"{len(backends)} backends) to {args.output}"
        )
    else:
        print(document)
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    infos = backend_infos()
    if args.json:
        print(json.dumps([info.to_dict() for info in infos], indent=2))
        return 0
    header = f"{'name':<18}{'exact':<7}{'kernels':<12}{'budgets':<9}{'seed':<6}description"
    print(header)
    print("-" * len(header))
    for info in infos:
        kernels = ",".join(info.kernels) if info.kernels else "-"
        print(
            f"{info.name:<18}{'yes' if info.exact else 'no':<7}{kernels:<12}"
            f"{'yes' if info.supports_budgets else 'no':<9}"
            f"{'yes' if info.supports_seed else 'no':<6}{info.description}"
        )
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if (args.density is None) == (args.avg_degree is None):
        print("error: provide exactly one of --density or --avg-degree", file=sys.stderr)
        return 2
    if args.density is not None:
        graph = random_bipartite(args.left, args.right, args.density, seed=args.seed)
    else:
        graph = random_power_law_bipartite(
            args.left, args.right, args.avg_degree, seed=args.seed
        )
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.output}: |L|={graph.num_left} |R|={graph.num_right} "
        f"|E|={graph.num_edges} (density {graph.density:.5f})"
    )
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    header = f"{'name':<28}{'|L|':>7}{'|R|':>7}{'planted':>9}  {'paper |L|':>10}{'paper |R|':>10}{'paper opt':>10}"
    print(header)
    print("-" * len(header))
    for name, spec in DATASETS.items():
        tough = " *" if spec.tough else ""
        print(
            f"{name + tough:<28}{spec.n_left:>7}{spec.n_right:>7}{spec.planted_size:>9}  "
            f"{spec.paper_left:>10}{spec.paper_right:>10}{spec.paper_optimum:>10}"
        )
    print("\n(* = tough dataset used by Table 6 and Figures 4-6)")
    return 0


def _explain_rules(codes_argument: str) -> int:
    """Print the rationale and an example for rule codes."""
    from repro.devtools.lint import RULE_REGISTRY, all_rules

    rules = all_rules()  # populates the registry, deterministic order
    if codes_argument.strip().lower() != "all":
        wanted = {
            token.strip().upper()
            for token in codes_argument.split(",")
            if token.strip()
        }
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            print(
                f"error: unknown rule codes {sorted(unknown)}; "
                f"registered: {sorted(RULE_REGISTRY)}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.code in wanted]
    blocks = []
    for rule in rules:
        lines = [
            f"{rule.code} — {rule.name}",
            f"  {rule.description}",
            "",
            "  Why:",
        ]
        lines.extend(f"    {line}" for line in textwrap.wrap(rule.rationale, 72))
        lines.append("")
        lines.append("  Example:")
        lines.extend(f"    {line}" for line in rule.example.splitlines())
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is devtooling and the solve/batch
    # paths should not pay for it.
    from repro.devtools.lint import (
        DEFAULT_LINT_PATHS,
        render_json,
        render_text,
        rule_table,
        run_lint,
    )

    if args.list_rules:
        for code, name, description in rule_table():
            print(f"{code}  {name:<20}{description}")
        return 0
    if args.explain is not None:
        return _explain_rules(args.explain)
    root = os.path.abspath(args.root)
    paths = list(args.paths)
    if not paths:
        paths = [
            path
            for path in DEFAULT_LINT_PATHS
            if os.path.exists(os.path.join(root, path))
        ]
        if not paths:
            print(
                f"error: none of {DEFAULT_LINT_PATHS} exist under {root}; "
                "pass explicit paths",
                file=sys.stderr,
            )
            return 2
    rules = [] if args.rules is None else args.rules.split(",")
    try:
        result = run_lint(paths, root=root, rules=rules)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_json(result) if args.json else render_text(result))
    return result.exit_code


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench import figure4, figure5, figure6, table4, table5, table6

    budget = args.time_budget
    if args.artefact == "table4":
        print(table4.format_table4(table4.run_table4(time_budget=budget, instances=1)))
    elif args.artefact == "table5":
        print(table5.format_table5(table5.run_table5(time_budget=budget)))
    elif args.artefact == "table6":
        print(table6.format_table6(table6.run_table6(time_budget=budget)))
    elif args.artefact == "figure4":
        print(figure4.format_figure4(figure4.run_figure4(time_budget=budget)))
    elif args.artefact == "figure5":
        print(figure5.format_figure5(figure5.run_figure5(time_budget=budget)))
    else:
        print(figure6.format_figure6(figure6.run_figure6()))
    return 0


_COMMANDS = {
    "solve": _command_solve,
    "batch": _command_batch,
    "sweep": _command_sweep,
    "backends": _command_backends,
    "generate": _command_generate,
    "datasets": _command_datasets,
    "bench": _command_bench,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-mbb`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Every command's unreadable input or unwritable output file: a
        # usage error, not a failure of the graph or the solver.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
