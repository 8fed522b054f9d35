"""Command-line entry point: ``python -m repro``.

Six subcommands expose the unified experiment API headlessly:

* ``python -m repro run config.json``       — execute an experiment config
  and print its Table-style summary (``--output report.json`` writes the
  full report, ``--timings`` includes wall-clock stage timings;
  ``--trace`` prints the hierarchical span tree and ``--trace-out t.json``
  exports it in Chrome ``trace_event`` format — load in ``chrome://tracing``
  or Perfetto; ``--backend``/``--workers`` override the config's
  execution section, e.g. ``--backend process --workers 4`` for sharded
  multi-process execution — bitwise identical to serial;
  ``--cache`` / ``--cache-dir`` serve repeated runs from the
  content-addressed result store);
* ``python -m repro sweep sweep.json``      — expand a declarative grid
  over dotted config fields, run every point with result caching on by
  default (``--no-cache`` disables it), and print a summary table plus a
  structural diff of each point's deterministic report vs. the first;
* ``python -m repro serve --model SPEC``    — fit (or load) a persistent
  single-frame scoring model and expose it over HTTP: ``SPEC`` is either a
  metaseg config JSON path (fit once, persist to the store when caching is
  on) or the hex content key of a previously fitted model (load, no refit);
  see :mod:`repro.serve`;
* ``python -m repro cache info|clear|prune`` — inspect, evict or bound the
  result store (``--cache-dir`` / ``$REPRO_CACHE_DIR`` pick the root;
  ``prune`` evicts least-recently-used entries down to ``--max-entries`` /
  ``--max-bytes``);
* ``python -m repro list``                  — show every registry and its
  entries (``--json`` for machine-readable output);
* ``python -m repro describe KIND [NAME]``  — document one registry or one
  entry (e.g. ``python -m repro describe networks mobilenetv2``).

Reports are deterministic: the same config (and therefore the same single
seed) produces bitwise-identical ``--output`` files — whether computed or
served from cache — which makes sharded, swept and scripted reproduction
runs diffable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.config import ConfigError, ExperimentConfig
from repro.api.registry import RegistryError, all_registries


def _resolve_store(args: argparse.Namespace):
    """The ResultStore selected by the caching flags, or ``None``.

    ``--cache-dir PATH`` implies caching at PATH; bare ``--cache`` uses the
    default root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    """
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir and not getattr(args, "cache", False):
        return None
    from repro.store import ResultStore

    return ResultStore(cache_dir or None)


def _write_output_json(path_text: str, text: str, what: str) -> Optional[int]:
    """Write a JSON document, creating parent directories; 2 on failure.

    Shared by ``run`` and ``sweep`` so both honour the same contract: a
    missing parent directory is created, any I/O failure is a one-line
    diagnostic + exit code 2, never a traceback.
    """
    output = Path(path_text)
    try:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {what} {output}: {exc}", file=sys.stderr)
        return 2
    print(f"{what} written to {output}")
    return None


def _emit_trace(tracer, show_tree: bool, trace_out: Optional[str]) -> Optional[int]:
    """Print and/or export a collected trace; 2 on a write failure.

    The export is Chrome ``trace_event`` JSON (written atomically), loadable
    in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    from repro.obs import format_span_tree, trace_to_chrome, write_json

    if show_tree:
        print(f"trace {tracer.trace_id}:")
        for line in format_span_tree(tracer.records()):
            print("  " + line)
    if trace_out:
        try:
            write_json(trace_out, trace_to_chrome(tracer))
        except OSError as exc:
            print(f"error: cannot write trace {trace_out}: {exc}", file=sys.stderr)
            return 2
        print(f"trace written to {trace_out} (chrome://tracing / ui.perfetto.dev)")
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.runner import Runner

    path = Path(args.config)
    try:
        # Deferred validation: a CLI override must be able to fix the very
        # field it overrides (e.g. --workers 4 over a bad config value).
        config = ExperimentConfig.from_json(path.read_text(), validate=False)
    except OSError as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: invalid config {path}: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.seed = args.seed
    if args.backend is not None:
        config.execution.backend = args.backend
    if args.workers is not None:
        config.execution.workers = args.workers
    try:
        config.validate()
    except ConfigError as exc:
        print(f"error: invalid config {path}: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    report = Runner(store=_resolve_store(args), tracer=tracer).run(config)
    print("\n".join(report.summary_rows()))
    if report.cache:
        hit = "hit" if report.cache.get("hit") else "miss"
        print(f"cache: {hit} ({str(report.cache.get('key'))[:12]})")
    if args.output:
        failed = _write_output_json(
            args.output, report.to_json(include_timings=args.timings) + "\n", "report"
        )
        if failed is not None:
            return failed
    elif args.timings:
        for stage, seconds in report.timings.items():
            print(f"timing {stage}: {seconds:.3f}s")
    if tracer is not None:
        failed = _emit_trace(tracer, args.trace, args.trace_out)
        if failed is not None:
            return failed
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepConfig, run_sweep

    path = Path(args.config)
    try:
        sweep = SweepConfig.from_file(path)
    except OSError as exc:
        print(f"error: cannot read sweep config {path}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: invalid sweep config {path}: {exc}", file=sys.stderr)
        return 2
    store = None
    if not args.no_cache:
        from repro.store import ResultStore

        store = ResultStore(args.cache_dir or None)
    tracer = None
    if args.trace or args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    result = run_sweep(
        sweep,
        store=store,
        no_cache=args.no_cache,
        backend=args.backend,
        workers=args.workers,
        tracer=tracer,
    )
    print("\n".join(result.summary_rows()))
    if args.output:
        failed = _write_output_json(
            args.output,
            result.to_json(include_run_info=args.timings) + "\n",
            "sweep result",
        )
        if failed is not None:
            return failed
    if tracer is not None:
        failed = _emit_trace(tracer, args.trace, args.trace_out)
        if failed is not None:
            return failed
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.cache_dir or None)
    if args.action == "info":
        stats = store.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries: {stats['n_entries']}  payload bytes: {stats['payload_bytes']}")
        for meta in store.entries():
            provenance = meta.get("provenance", {})
            print(
                f"  {str(meta.get('key'))[:12]}  {meta.get('codec'):<6}  "
                f"{int(meta.get('size_bytes', 0)):>9}B  "
                f"{provenance.get('type', '?')}/{provenance.get('kind', '?')}"
            )
        return 0
    if args.action == "prune":
        if args.max_entries is None and args.max_bytes is None:
            print(
                "error: cache prune needs --max-entries and/or --max-bytes",
                file=sys.stderr,
            )
            return 2
        removed = store.prune(max_entries=args.max_entries, max_bytes=args.max_bytes)
        stats = store.stats()
        print(
            f"pruned {removed} cache entr{'y' if removed == 1 else 'ies'}; "
            f"{stats['n_entries']} kept ({stats['payload_bytes']} payload bytes) "
            f"in {store.root}"
        )
        return 0
    removed = store.clear()
    print(f"evicted {removed} cache entr{'y' if removed == 1 else 'ies'} from {store.root}")
    return 0


def _is_store_key(text: str) -> bool:
    """True when the model spec looks like a content key, not a file path."""
    return len(text) >= 8 and all(ch in "0123456789abcdef" for ch in text)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.fitted import FittedModel
    from repro.api.runner import Runner
    from repro.serve import DEFAULT_MAX_REQUEST_BYTES, ScoringServer, ScoringService

    store = _resolve_store(args)
    spec = args.model
    if _is_store_key(spec):
        if store is None:
            from repro.store import ResultStore

            store = ResultStore(None)
        from repro.store import StoreError

        try:
            state = store.get(spec, codec="json")
            model = None if state is None else FittedModel.from_state(state)
        except (StoreError, ValueError) as exc:  # ValueError: stale model state
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if model is None:
            print(
                f"error: no fitted model under key {spec!r} in {store.root}",
                file=sys.stderr,
            )
            return 2
        print(f"model: loaded from store ({spec[:12]})")
    else:
        path = Path(spec)
        try:
            config = json.loads(path.read_text())
        except OSError as exc:
            print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: invalid config {path}: {exc}", file=sys.stderr)
            return 2
        model = Runner(store=store).fit(config)
        if model.cache:
            hit = "hit" if model.cache.get("hit") else "miss"
            print(f"model: cache {hit} ({str(model.cache.get('key'))[:12]})")
        else:
            print("model: fitted (uncached; use --cache to persist)")
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    service = ScoringService(model)
    server = ScoringServer(
        service,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_request_bytes=(
            args.max_request_bytes
            if args.max_request_bytes is not None
            else DEFAULT_MAX_REQUEST_BYTES
        ),
        verbose=args.verbose,
        tracer=tracer,
    )
    # The smoke script parses this line for the (possibly ephemeral) port.
    print(
        f"serving on {server.url} "
        f"(workers={args.workers}, queue={args.queue_depth})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if tracer is not None:
            failed = _emit_trace(tracer, show_tree=False, trace_out=args.trace_out)
            if failed is not None:
                return failed
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    registries = all_registries()
    if args.json:
        payload = {kind: registry.available() for kind, registry in registries.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for kind, registry in registries.items():
        print(f"{kind} — {registry.description}")
        for name in registry.available():
            print(f"  {name:<24s} {registry.describe(name)}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    registries = all_registries()
    if args.registry not in registries:
        print(
            f"error: unknown registry {args.registry!r}; "
            f"available: {', '.join(registries)}",
            file=sys.stderr,
        )
        return 2
    registry = registries[args.registry]
    if args.name is None:
        print(f"{registry.kind} — {registry.description}")
        for name in registry.available():
            print(f"  {name:<24s} {registry.describe(name)}")
        return 0
    try:
        entry = registry.get(args.name)
    except RegistryError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"{registry.kind}/{args.name}")
    doc = getattr(entry, "__doc__", None) if callable(entry) else None
    if doc:
        print(doc.strip())
    else:
        print(repr(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment CLI of the Rottmann et al. (DATE 2020) reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config (JSON)")
    run.add_argument("config", help="path to an ExperimentConfig JSON file")
    run.add_argument("--output", help="write the full report JSON to this path")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--timings", action="store_true", help="include wall-clock stage timings"
    )
    run.add_argument(
        "--backend", default=None, metavar="NAME",
        help="override the execution backend (serial/process; "
             "both bitwise identical)",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override the worker / shard count of the execution backend "
             "(above 1 needs the process backend)",
    )
    run.add_argument(
        "--cache", action="store_true",
        help="serve/store this run through the content-addressed result "
             "store (bitwise identical to a fresh run)",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result-store root (implies --cache; default "
             "$REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="collect hierarchical stage spans and print the span tree "
             "(telemetry only; the report payload is unchanged)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the collected trace as Chrome trace_event JSON "
             "(chrome://tracing / ui.perfetto.dev); implies tracing",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="expand a declarative config grid and run every point (cached)",
    )
    sweep.add_argument("config", help="path to a SweepConfig JSON file")
    sweep.add_argument(
        "--output", help="write the full sweep result JSON to this path"
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point instead of using the result store",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result-store root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    sweep.add_argument(
        "--backend", default=None, metavar="NAME",
        help="override the execution backend of every point (serial/"
             "process; both bitwise identical)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override the worker / shard count of every point "
             "(above 1 needs the process backend)",
    )
    sweep.add_argument(
        "--timings", action="store_true",
        help="include run info (wall-clock, cache hits) in --output",
    )
    sweep.add_argument(
        "--trace", action="store_true",
        help="collect per-point spans and print the span tree",
    )
    sweep.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the collected sweep trace as Chrome trace_event JSON; "
             "implies tracing",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="serve a fitted scoring model over HTTP (fit once, score many)",
    )
    serve.add_argument(
        "--model", required=True, metavar="SPEC",
        help="metaseg config JSON path (fit, persist when caching is on) or "
             "the hex content key of an already-fitted model in the store",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8000, metavar="N",
        help="bind port (0 picks an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="handler threads, each paired with its own scoring process",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="bound on accepted-but-unhandled connections; beyond it new "
             "requests get an immediate 503 (backpressure)",
    )
    serve.add_argument(
        "--max-request-bytes", type=int, default=None, metavar="N",
        help="cap on a request body and on the bytes it decodes to "
             "(413 beyond it; default 64 MiB)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="per-request logging"
    )
    serve.add_argument(
        "--cache", action="store_true",
        help="fit/load the model through the content-addressed result store",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result-store root (implies --cache; default "
             "$REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record one span per request and write the Chrome trace_event "
             "JSON on shutdown (live metrics are always at GET /metrics)",
    )
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect, evict or bound the content-addressed result store"
    )
    cache.add_argument("action", choices=("info", "clear", "prune"), help="what to do")
    cache.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result-store root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="prune: evict least-recently-used entries beyond this count",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="prune: evict least-recently-used entries until payload bytes fit",
    )
    cache.set_defaults(func=_cmd_cache)

    lst = sub.add_parser("list", help="list every registry and its entries")
    lst.add_argument("--json", action="store_true", help="machine-readable output")
    lst.set_defaults(func=_cmd_list)

    describe = sub.add_parser("describe", help="document a registry or one entry")
    describe.add_argument("registry", help="registry kind (see `list`)")
    describe.add_argument("name", nargs="?", default=None, help="entry name")
    describe.set_defaults(func=_cmd_describe)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["analyze"]:
        # The linter is a repository tool (tools/analysis), not a subcommand.
        print(
            "error: `python -m repro analyze` was removed; run "
            "`python -m tools.analysis [PATHS]` from the repository root",
            file=sys.stderr,
        )
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegistryError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        # One-line diagnostic instead of a traceback: config errors
        # (ConfigError is a ValueError) and I/O failures both land here.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
