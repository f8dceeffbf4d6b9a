"""Command-line interface, mirroring ProvMark's ``fullAutomation.py``.

A thin client of :class:`repro.api.BenchmarkService`: every command
constructs typed requests (:class:`~repro.api.RunRequest`,
:class:`~repro.api.BatchRequest`, :class:`~repro.api.ToolQuery`) and
renders the responses — no pipeline internals are touched here.  Lookup
failures (unknown tool/benchmark/profile) exit with code 2 and the same
one-line message the HTTP service sends as 404/400.

Examples::

    provmark run --tool spade --benchmark open
    provmark batch --tool camflow --trials 5 --result-type rh --out results.html
    provmark bench validate my_benchmark.json
    provmark bench add my_benchmark.json --store .provmark-store
    provmark synth --seed 7 --count 20 --store .provmark-store
    provmark serve --port 8321
    provmark table2
    provmark figures
    provmark list --tags synth --store .provmark-store
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.figures import generate_figures
from repro.analysis.table2 import generate_table2
from repro.analysis.table3 import generate_table3
from repro.analysis.loc import generate_table4
from repro.api.errors import (
    ApiError,
    NotFoundError,
    ValidationError,
    render_error,
)
from repro.api.http import DEFAULT_PORT, make_server
from repro.api.service import BenchmarkService
from repro.api.specs import (
    BenchmarkSpec,
    compile_spec,
    persist_spec,
    remove_persisted_spec,
    spec_digest,
)
from repro.api.types import (
    API_VERSION,
    BatchRequest,
    RunRequest,
    SynthConfig,
    ToolQuery,
)
from repro.capture.registry import registered_tools
from repro.config import default_config_ini
from repro.core.regression import RegressionStore
from repro.core.report import render_text, write_html
from repro.graph.dot import graph_to_dot
from repro.storage.artifacts import ArtifactError, ArtifactStore
from repro.suite import TABLE2_ORDER, get_benchmark


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tool", choices=registered_tools(), default="spade",
        help="provenance capture tool to benchmark "
        "(see 'provmark list --tools')",
    )
    parser.add_argument(
        "--profile", default=None,
        help="tool profile (spg/spn/opu/cam or one from --config), "
        "overrides --tool",
    )
    parser.add_argument(
        "--config", default=None, help="path to a config.ini with profiles",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="recording trials per program variant (default: tool profile)",
    )
    parser.add_argument(
        "--engine", choices=("native", "asp"), default="native",
        help="graph matching engine (asp runs the paper's Listing 3/4)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--filtergraphs", action="store_true", default=None,
        help="drop obviously incomplete graphs before generalization",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-benchmark wall-clock budget, enforced at stage "
        "boundaries (overruns fail permanently; default: unbounded)",
    )


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", dest="artifact_store", default=None, metavar="DIR",
        help="persistent artifact store: cache stage outputs under DIR "
        "and reuse them on later runs",
    )
    parser.add_argument(
        "--resume", action="store_true", default=False,
        help="with --store: serve already-completed benchmarks from the "
        "store instead of re-running them",
    )
    parser.add_argument(
        "--no-cache", dest="no_cache", action="store_true", default=False,
        help="with --store: recompute every stage (artifacts are still "
        "refreshed on disk)",
    )


def _request_kwargs(args: argparse.Namespace) -> dict:
    """Shared RunRequest/BatchRequest fields from parsed CLI options."""
    return dict(
        tool=args.tool,
        profile=args.profile,
        config_path=args.config,
        trials=args.trials,
        filtergraphs=args.filtergraphs,
        engine=args.engine,
        seed=args.seed,
        store_path=getattr(args, "artifact_store", None),
        resume=getattr(args, "resume", False),
        cache=not getattr(args, "no_cache", False),
        deadline=getattr(args, "deadline", None),
    )


def _run_request(args: argparse.Namespace, benchmark: str) -> RunRequest:
    return RunRequest(benchmark=benchmark, **_request_kwargs(args))


def _store_summary(results) -> str:
    """One line aggregating the run's artifact-store traffic."""
    hits = sum(r.timings.store_hits for r in results)
    misses = sum(r.timings.store_misses for r in results)
    return f"artifact store: {hits} stage hits, {misses} misses"


def _warn_unseeded_store(args: argparse.Namespace) -> None:
    if getattr(args, "artifact_store", None) and args.seed is None:
        print(
            "note: --store is ignored for unseeded runs (results are "
            "nondeterministic); pass --seed to enable caching",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    _warn_unseeded_store(args)
    with BenchmarkService() as service:
        response = service.run(_run_request(args, args.benchmark))
    result = response.result
    print(result.summary())
    if args.show_graph and not result.target_graph.is_empty():
        print(graph_to_dot(result.target_graph), end="")
    return 0 if result.classification.value != "failed" else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    _warn_unseeded_store(args)
    request = BatchRequest(
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        tags=tuple(args.tags) if args.tags else None,
        **_request_kwargs(args),
    )
    with BenchmarkService() as service:
        responses = service.run_batch(request)
    results = [response.result for response in responses]
    if args.result_type == "rh":
        path = write_html(results, args.out or "finalResult/index.html")
        print(f"wrote {path}")
    else:
        print(render_text(results), end="")
    if args.artifact_store:
        print(_store_summary(results))
    failed = sum(1 for r in results if r.classification.value == "failed")
    return 1 if failed else 0


def _make_serve_scheduler(args: argparse.Namespace):
    """The :class:`~repro.sched.SchedulerConfig` behind ``provmark serve``.

    ``--scheduler CONFIG.json`` loads priority classes, quotas, fair
    share, and aging; ``--workers-min``/``--workers-max`` fold into (or
    stand up) the autoscale policy — CLI flags win over the file so an
    operator can resize a fleet without editing config.  Returns ``None``
    when nothing scheduler-related was asked for.
    """
    import dataclasses

    from repro.sched import (
        AutoscalePolicy,
        SchedulerConfig,
        load_scheduler_config,
    )

    sched = (
        load_scheduler_config(args.scheduler)
        if getattr(args, "scheduler", None) else None
    )
    workers_min = getattr(args, "workers_min", None)
    workers_max = getattr(args, "workers_max", None)
    if workers_min is None and workers_max is None:
        return sched
    if args.workers <= 0:
        raise ValidationError(
            "--workers-min/--workers-max require --workers (autoscaling "
            "resizes the supervised worker fleet)"
        )
    base = (
        sched.autoscale if sched is not None and sched.autoscale is not None
        else AutoscalePolicy()
    )
    auto = dataclasses.replace(
        base,
        min_workers=(
            int(workers_min) if workers_min is not None else base.min_workers
        ),
        max_workers=(
            int(workers_max) if workers_max is not None else base.max_workers
        ),
    )
    if sched is None:
        return SchedulerConfig(autoscale=auto)
    return sched.with_autoscale(auto)


def _load_fault_plan(path: str):
    """The ``--faults PLAN.json`` of ``serve`` and ``agent``; an unreadable
    or malformed plan exits 2 like every other config error."""
    from repro.faults import FaultError, FaultPlan

    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read fault plan: {exc}") from None
    except ValueError as exc:
        raise ValidationError(
            f"fault plan {path} is not valid JSON: {exc}"
        ) from None
    try:
        return FaultPlan.from_payload(payload)
    except FaultError as exc:
        raise ValidationError(f"invalid fault plan {path}: {exc}") from None


def _make_serve_jobs(args: argparse.Namespace):
    """The job manager behind ``provmark serve``: a process fleet over a
    durable queue with ``--workers`` (and, with ``--cluster``, a TCP
    coordinator arbitrating that queue for remote agents), else
    in-memory thread slots."""
    from repro.exec import FleetJobManager

    cluster_port = getattr(args, "cluster", None)
    fleet = args.workers > 0 or cluster_port is not None
    faults = None
    if getattr(args, "faults", None):
        if not fleet:
            raise ValidationError(
                "--faults requires --workers or --cluster (fault plans "
                "are installed into the supervised worker processes and "
                "the coordinator)"
            )
        faults = _load_fault_plan(args.faults)
    scheduler = _make_serve_scheduler(args)
    if fleet and not args.queue:
        raise ValidationError(
            "--workers/--cluster require --queue DIR (the "
            "execution-plane root holding the shared store and the "
            "durable spool)"
        )
    if args.queue and not fleet:
        # in-memory slots keep nothing on disk: a --queue that only they
        # would see would silently not be durable
        raise ValidationError("--queue requires --workers or --cluster")
    return FleetJobManager(
        args.queue or None,
        workers=args.workers if fleet else BenchmarkService.JOB_SLOTS,
        capacity=args.capacity, faults=faults, scheduler=scheduler,
        cluster_port=cluster_port,
        cluster_host=getattr(args, "cluster_host", "127.0.0.1"),
        cluster_token=getattr(args, "cluster_token", "") or "",
    )


def _make_serve_chain(args: argparse.Namespace):
    """The middleware chain behind ``provmark serve --middleware``.

    ``--response-cache-max`` bounds the idempotent response cache with
    LRU eviction; it needs an ``idempotency`` section on the chain to
    have anything to bound.
    """
    cache_max = getattr(args, "response_cache_max", None)
    if not getattr(args, "middleware", None):
        if cache_max is not None:
            raise ValidationError(
                "--response-cache-max requires --middleware with an "
                "'idempotency' section (there is no response cache to "
                "bound otherwise)"
            )
        return None
    from repro.middleware import build_chain, load_config

    config_path = Path(args.middleware)
    chain = build_chain(load_config(config_path), base_dir=config_path.parent)
    if cache_max is not None:
        if int(cache_max) < 1:
            raise ValidationError(
                f"--response-cache-max must be >= 1, got {cache_max}"
            )
        bounded = False
        for mw in chain.middlewares:
            if mw.name == "idempotency":
                mw.max_entries = int(cache_max)
                bounded = True
        if not bounded:
            raise ValidationError(
                "--response-cache-max requires an 'idempotency' section "
                "in the middleware config"
            )
    return chain


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    # the chain is validated *before* the manager exists: a malformed
    # --middleware config must exit 2 without ever spawning (and then
    # killing) a worker fleet
    chain = _make_serve_chain(args)
    manager = _make_serve_jobs(args)
    service = BenchmarkService(jobs=manager)
    server = make_server(
        service, host=args.host, port=args.port, chain=chain,
    )
    host, port = server.server_address[:2]

    # First SIGINT/SIGTERM starts a graceful drain (finish in-flight
    # jobs, refuse new ones); a second escalates to cancellation.
    stop = threading.Event()
    signals_seen = []

    def _on_signal(signum: int, frame: object) -> None:
        signals_seen.append(signum)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    print(
        f"provmark api v{API_VERSION} serving on http://{host}:{port}/v1 "
        "(Ctrl-C to stop)",
        flush=True,
    )
    coordinator = manager.coordinator
    if coordinator is not None:
        print(
            f"cluster coordinator on {coordinator.address} "
            "(join with: provmark agent --coordinator "
            f"{coordinator.address} --workers N)",
            flush=True,
        )
    serving = threading.Thread(
        target=server.serve_forever, name="provmark-serve", daemon=True
    )
    serving.start()
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    server.shutdown()
    server.server_close()
    serving.join(timeout=5.0)

    print(
        f"draining: letting in-flight jobs finish "
        f"(up to {args.drain_timeout:g}s)...",
        flush=True,
    )
    drained = manager.drain(args.drain_timeout)
    if drained and len(signals_seen) <= 1:
        manager.shutdown(wait=False)
        print("drained cleanly; all in-flight jobs finished", flush=True)
    else:
        manager.shutdown(wait=False, cancel=True)
        print("drain cut short; cancelled remaining jobs", flush=True)
    service.close()
    return 0 if drained else 1


def _cmd_agent(args: argparse.Namespace) -> int:
    """``provmark agent``: join a coordinator as a remote worker node."""
    import signal
    import threading

    faults = _load_fault_plan(args.faults) if args.faults else None
    if args.workers < 1:
        raise ValidationError(
            f"agent --workers must be >= 1, got {args.workers}"
        )

    from repro.cluster import run_agent

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    return run_agent(
        args.coordinator,
        workers=args.workers,
        plane=args.plane,
        node_id=args.node_id,
        token=args.token,
        poll_interval=args.poll,
        faults=faults,
        drain_timeout=args.drain_timeout,
        stop_event=stop,
        log=lambda msg: print(msg, flush=True),
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    table = generate_table2(seed=args.seed if args.seed is not None else 2019)
    print(table.render())
    mismatches = table.mismatches()
    print(
        f"\nagreement with paper Table 2: {table.agreement:.0%}"
        f" ({len(mismatches)} mismatches)"
    )
    return 0 if not mismatches else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    figures = generate_figures()
    print(figures.render())
    return 0 if all(holds for _, holds in figures.claims()) else 1


def _cmd_table3(args: argparse.Namespace) -> int:
    print(generate_table3().render())
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    print(generate_table4().render())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    service = BenchmarkService()
    if args.tools:
        if args.tags is not None or getattr(args, "artifact_store", None):
            raise ValidationError(
                "--tags/--store filter benchmarks and cannot be "
                "combined with --tools"
            )
        for info in service.tools(ToolQuery()):
            flags = (
                f"trials={info.trials} "
                f"filtergraphs={str(info.filtergraphs).lower()} "
                f"format={info.output_format}"
            )
            detail = f" — {info.description}" if info.description else ""
            print(f"{info.name:<14} {flags}{detail}")
        return 0
    if getattr(args, "artifact_store", None):
        service.load_spec_store(args.artifact_store)
    wanted = set(args.tags or ())
    listed = 0
    for info in service.benchmarks():
        if wanted and not wanted <= set(info.tags):
            continue
        listed += 1
        tags = ",".join(info.tags) or "-"
        print(f"{info.name:<14} group {info.group} ({info.group_name}) "
              f"[{tags}]"
              + (f" — {info.description}" if info.description else ""))
    if wanted and not listed:
        raise NotFoundError(f"no benchmarks match tags {sorted(wanted)}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        program = get_benchmark(args.benchmark)
    except KeyError as exc:
        # the registry's KeyError carries the exact uniform message
        raise NotFoundError(str(exc.args[0])) from None
    print(program.to_c_source(), end="")
    return 0


# -- synth: coverage-guided benchmark synthesis ------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        count=args.count,
        seed=args.seed,
        tools=tuple(args.tools),
        tags=tuple(args.tags or ()),
        max_ops=args.max_ops,
        mutation_rate=args.mutation_rate,
        name_prefix=args.name_prefix,
        trials=args.trials,
        engine=args.engine,
        register=not args.no_register,
        store_path=args.artifact_store,
    )
    with BenchmarkService() as service:
        report = service.synthesize(config)
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        return 0
    coverage = report.coverage
    print(
        f"synthesized {report.requested} candidates (seed {report.seed}, "
        f"{report.generated} generated + {report.mutated} mutated): "
        f"{len(report.kept)} kept, {report.duplicates} duplicate, "
        f"{report.no_gain} no-gain, {report.failed} failed"
    )
    print(
        f"coverage: syscalls {coverage.syscalls_before} -> "
        f"{coverage.syscalls_after}, arg shapes "
        f"{coverage.arg_shapes_before} -> {coverage.arg_shapes_after}, "
        f"graph motifs {coverage.motifs_before} -> {coverage.motifs_after}"
    )
    if coverage.new_syscalls:
        print(f"newly covered syscalls: {', '.join(coverage.new_syscalls)}")
    for spec, digest in zip(report.specs, report.digests):
        targets = "+".join(dict.fromkeys(
            op.call for op in spec.program.ops if op.target
        ))
        print(
            f"kept {spec.name} ({len(spec.program.ops)} ops; "
            f"targets {targets}) digest {digest[:12]}"
        )
    if report.persisted:
        print(f"persisted {report.persisted} spec(s) -> "
              f"{args.artifact_store}")
    return 0


# -- bench: declarative benchmark specs --------------------------------------


def _load_spec_file(path: str) -> BenchmarkSpec:
    """Read, decode, and semantically validate one spec JSON file."""
    try:
        raw = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read spec file ({exc})") from None
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    return BenchmarkSpec.from_payload(payload).validate()


def _cmd_bench_validate(args: argparse.Namespace) -> int:
    for path in args.files:
        spec = _load_spec_file(path)
        program = compile_spec(spec)
        print(
            f"{path}: ok — {spec.name} "
            f"({len(program.ops)} ops, {len(program.setup)} setup, "
            f"{len(program.target_ops())} target) "
            f"digest {spec_digest(spec)[:12]}"
        )
    return 0


def _cmd_bench_add(args: argparse.Namespace) -> int:
    service = BenchmarkService()
    store = _spec_store(args.artifact_store)
    for path in args.files:
        spec = _load_spec_file(path)
        info = service.register_benchmark(spec)
        try:
            digest = persist_spec(store, spec)
        except (ArtifactError, OSError) as exc:
            raise ValidationError(
                f"cannot persist {spec.name!r} to {args.artifact_store}: "
                f"{exc}"
            ) from None
        print(
            f"registered {info.name} (tags: {', '.join(info.tags) or '-'}) "
            f"digest {digest[:12]} -> {args.artifact_store}"
        )
    return 0


def _cmd_bench_show(args: argparse.Namespace) -> int:
    service = BenchmarkService()
    if args.artifact_store:
        service.load_spec_store(args.artifact_store)
    spec = service.benchmark_spec(args.benchmark)
    print(json.dumps(spec.to_payload(), indent=2, sort_keys=True))
    return 0


def _cmd_bench_rm(args: argparse.Namespace) -> int:
    store = _spec_store(args.artifact_store)
    removed = remove_persisted_spec(store, args.benchmark)
    if not removed:
        raise NotFoundError(
            f"no persisted spec named {args.benchmark!r} in "
            f"{args.artifact_store}"
        )
    print(f"removed {removed} persisted spec(s) named {args.benchmark!r}")
    return 0


def _spec_store(path: str) -> ArtifactStore:
    try:
        return ArtifactStore(path)
    except ArtifactError as exc:
        raise ValidationError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provmark",
        description="ProvMark: provenance expressiveness benchmarking "
        "(Middleware 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single benchmark")
    _add_pipeline_options(run)
    _add_store_options(run)
    run.add_argument("--benchmark", required=True)
    run.add_argument("--show-graph", action="store_true")
    run.set_defaults(func=_cmd_run)

    batch = sub.add_parser("batch", help="run many benchmarks (runTests.sh)")
    _add_pipeline_options(batch)
    _add_store_options(batch)
    batch.add_argument("--benchmarks", nargs="*", default=None)
    batch.add_argument(
        "--tags", nargs="*", default=None,
        help="select every registered benchmark carrying all these tags "
        "(instead of --benchmarks)",
    )
    batch.add_argument(
        "--result-type", choices=("rb", "rh"), default="rb",
        help="rb: text summary; rh: HTML page",
    )
    batch.add_argument("--out", default=None, help="HTML output path")
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve the typed JSON API over HTTP (repro.api v1)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port; 0 picks a free one (default: {DEFAULT_PORT})",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run jobs on N supervised worker processes over a durable "
        "queue (0: four in-process thread slots; default: 0)",
    )
    serve.add_argument(
        "--queue", default=None, metavar="DIR",
        help="execution-plane root for --workers or --cluster: holds the "
        "shared artifact store and the durable job spool",
    )
    serve.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="cap on active (queued+running) jobs; a saturated queue "
        "answers 429 with Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGINT/SIGTERM, let in-flight jobs finish for this "
        "long before cancelling them (default: 30)",
    )
    serve.add_argument(
        "--middleware", default=None, metavar="CONFIG.json",
        help="middleware-chain config (auth tokens, rate limits, "
        "idempotent response cache, metrics, access log); see "
        "repro.middleware.config for the schema",
    )
    serve.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault-injection plan installed into worker processes "
        "(requires --workers); see repro.faults.FaultPlan",
    )
    serve.add_argument(
        "--scheduler", default=None, metavar="CONFIG.json",
        help="scheduler config (priority classes, per-client/per-role "
        "quotas, fair-share weights, aging, autoscaling); see "
        "repro.sched.SchedulerConfig for the schema",
    )
    serve.add_argument(
        "--workers-min", type=int, default=None, metavar="N",
        help="with --workers: autoscaler floor on live worker processes "
        "(overrides the scheduler config's autoscale.min_workers)",
    )
    serve.add_argument(
        "--workers-max", type=int, default=None, metavar="N",
        help="with --workers: autoscaler ceiling on live worker "
        "processes (overrides autoscale.max_workers)",
    )
    serve.add_argument(
        "--response-cache-max", type=int, default=None, metavar="N",
        help="LRU-bound the idempotent response cache to N entries "
        "(requires --middleware with an 'idempotency' section)",
    )
    serve.add_argument(
        "--cluster", type=int, default=None, metavar="PORT",
        help="start a cluster coordinator on this TCP port (0 picks a "
        "free one): remote 'provmark agent' nodes then claim jobs from "
        "this plane's queue (requires --queue; --workers may be 0 for "
        "a coordinator-only node)",
    )
    serve.add_argument(
        "--cluster-host", default="127.0.0.1", metavar="HOST",
        help="coordinator bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--cluster-token", default="", metavar="TOKEN",
        help="shared auth token every cluster message must carry "
        "(default: none)",
    )
    serve.set_defaults(func=_cmd_serve)

    agent = sub.add_parser(
        "agent",
        help="run remote worker processes against a cluster coordinator "
        "(the multi-host half of 'serve --cluster')",
    )
    agent.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT",
        help="the coordinator started by 'provmark serve --cluster'",
    )
    agent.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="supervised worker processes on this node (default: 2)",
    )
    agent.add_argument(
        "--plane", default=".provmark-agent", metavar="DIR",
        help="agent plane root: DIR/store is the (shared) artifact "
        "store results ship through (default: .provmark-agent)",
    )
    agent.add_argument(
        "--node-id", default="", metavar="ID",
        help="stable node name in the fleet registry (default: "
        "<hostname>-<pid>)",
    )
    agent.add_argument(
        "--token", default="", metavar="TOKEN",
        help="cluster auth token (must match the coordinator's)",
    )
    agent.add_argument(
        "--poll", type=float, default=0.05, metavar="SECONDS",
        help="idle claim poll interval (default: 0.05)",
    )
    agent.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault-injection plan installed into this node's workers "
        "and its coordinator connection (chaos testing)",
    )
    agent.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGINT/SIGTERM, let in-flight jobs finish for this "
        "long before killing workers (default: 30)",
    )
    agent.set_defaults(func=_cmd_agent)

    table2 = sub.add_parser("table2", help="regenerate paper Table 2")
    table2.add_argument("--seed", type=int, default=None)
    table2.set_defaults(func=_cmd_table2)

    table3 = sub.add_parser("table3", help="regenerate paper Table 3")
    table3.set_defaults(func=_cmd_table3)

    table4 = sub.add_parser("table4", help="regenerate paper Table 4")
    table4.set_defaults(func=_cmd_table4)

    figures = sub.add_parser(
        "figures", help="regenerate paper Figures 5-10 and check their shape"
    )
    figures.set_defaults(func=_cmd_figures)

    listing = sub.add_parser("list", help="list available benchmarks")
    listing.add_argument(
        "--tools", action="store_true", default=False,
        help="list registered capture backends with their profiles instead",
    )
    listing.add_argument(
        "--tags", nargs="*", default=None,
        help="only list benchmarks carrying all these registry tags "
        "(e.g. --tags synth)",
    )
    listing.add_argument(
        "--store", dest="artifact_store", default=None, metavar="DIR",
        help="also list benchmark specs persisted in this artifact store",
    )
    listing.set_defaults(func=_cmd_list)

    synth = sub.add_parser(
        "synth",
        help="synthesize new benchmarks: generate/mutate candidate specs, "
        "run them through the pipeline, keep the ones that add coverage",
    )
    synth.add_argument(
        "--seed", type=int, default=0,
        help="synthesis seed; the same seed always yields the same specs, "
        "digests, and coverage report (default: 0)",
    )
    synth.add_argument(
        "--count", type=int, default=20,
        help="candidate specs to generate before curation (default: 20)",
    )
    synth.add_argument(
        "--tags", nargs="*", default=None,
        help="extra registry tags for surviving benchmarks "
        "(the 'synth' tag is always added)",
    )
    synth.add_argument(
        "--tools", nargs="*", default=("spade", "opus", "camflow"),
        help="capture tools every candidate is evaluated under "
        "(default: spade opus camflow)",
    )
    synth.add_argument(
        "--max-ops", type=int, default=6,
        help="largest generated program, in ops (default: 6)",
    )
    synth.add_argument(
        "--mutation-rate", type=float, default=0.4,
        help="fraction of candidates derived by mutating builtin or "
        "earlier candidates instead of fresh generation (default: 0.4)",
    )
    synth.add_argument(
        "--name-prefix", default="synth",
        help="name prefix of emitted benchmarks (default: synth)",
    )
    synth.add_argument(
        "--trials", type=int, default=None,
        help="recording trials per candidate variant (default: tool "
        "profile)",
    )
    synth.add_argument(
        "--engine", choices=("native", "asp"), default="native",
        help="graph matching engine for candidate evaluation",
    )
    synth.add_argument(
        "--store", dest="artifact_store", default=None, metavar="DIR",
        help="persist surviving specs (and cache candidate runs) in this "
        "artifact store, so later --store sweeps cover them",
    )
    synth.add_argument(
        "--no-register", action="store_true", default=False,
        help="report survivors without registering them in the suite "
        "registry",
    )
    synth.add_argument(
        "--json", action="store_true", default=False,
        help="print the full SynthReport as JSON",
    )
    synth.set_defaults(func=_cmd_synth)

    show = sub.add_parser("show", help="show a benchmark's C source")
    show.add_argument("--benchmark", required=True)
    show.set_defaults(func=_cmd_show)

    bench = sub.add_parser(
        "bench",
        help="author declarative benchmark specs (JSON in, suite entry out)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_validate = bench_sub.add_parser(
        "validate", help="validate spec JSON files (full-path errors)"
    )
    bench_validate.add_argument("files", nargs="+", metavar="SPEC.json")
    bench_validate.set_defaults(func=_cmd_bench_validate)

    bench_add = bench_sub.add_parser(
        "add",
        help="validate spec files and persist them into an artifact "
        "store, making them runnable by name with --store",
    )
    bench_add.add_argument("files", nargs="+", metavar="SPEC.json")
    bench_add.add_argument(
        "--store", dest="artifact_store", required=True, metavar="DIR",
        help="artifact store the specs persist in (the same DIR later "
        "run/batch --store commands use)",
    )
    bench_add.set_defaults(func=_cmd_bench_add)

    bench_show = bench_sub.add_parser(
        "show", help="print a registered benchmark as its JSON spec"
    )
    bench_show.add_argument("--benchmark", required=True)
    bench_show.add_argument(
        "--store", dest="artifact_store", default=None, metavar="DIR",
        help="also load specs persisted in this artifact store",
    )
    bench_show.set_defaults(func=_cmd_bench_show)

    bench_rm = bench_sub.add_parser(
        "rm", help="remove a persisted spec from an artifact store"
    )
    bench_rm.add_argument("--benchmark", required=True)
    bench_rm.add_argument(
        "--store", dest="artifact_store", required=True, metavar="DIR",
    )
    bench_rm.set_defaults(func=_cmd_bench_rm)

    regress = sub.add_parser(
        "regress", help="regression-test a recorder against stored baselines"
    )
    _add_pipeline_options(regress)
    regress.add_argument("--store", required=True, help="baseline directory")
    regress.add_argument("--benchmarks", nargs="*", default=None)
    regress.add_argument(
        "--accept", action="store_true",
        help="accept detected changes as the new baselines",
    )
    regress.set_defaults(func=_cmd_regress)

    config = sub.add_parser(
        "config", help="print the default config.ini (paper appendix A.4)"
    )
    config.set_defaults(func=_cmd_config)

    coverage = sub.add_parser(
        "coverage", help="per-tool, per-group coverage over the suite"
    )
    coverage.add_argument("--seed", type=int, default=2019)
    coverage.add_argument("--benchmarks", nargs="*", default=None)
    coverage.set_defaults(func=_cmd_coverage)

    return parser


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import (
        blind_spot_overlap,
        render_group_coverage,
    )
    names = args.benchmarks or list(TABLE2_ORDER)
    service = BenchmarkService()
    results = []
    for tool in ("spade", "opus", "camflow"):
        for name in names:
            request = RunRequest(benchmark=name, tool=tool, seed=args.seed)
            results.append(service.run(request).result)
    print(render_group_coverage(results))
    universal = blind_spot_overlap(results)
    if universal:
        print(f"\nblind everywhere: {', '.join(universal)}")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    service = BenchmarkService()
    store = RegressionStore(args.store)
    names = args.benchmarks or list(TABLE2_ORDER)
    changed = 0
    for name in names:
        result = service.run(_run_request(args, name)).result
        report = store.check_and_update(result, accept_changes=args.accept)
        detail = f"  ({report.detail})" if report.detail else ""
        print(f"{name:<14} {report.status}{detail}")
        changed += report.changed
    if changed and not args.accept:
        print(f"\n{changed} benchmark(s) changed; re-run with --accept "
              "if the changes are expected")
        return 1
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    print(default_config_ini(), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and dispatch; typed-API failures become one-line exits.

    Unknown tools, benchmarks, and profiles — whether raised by command
    code here or deep in the service façade — print
    ``provmark: <message>`` (no traceback) and exit with code 2, the
    exact message the HTTP service pairs with its 404/400 responses.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ApiError as error:
        print(f"provmark: {render_error(error)}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
