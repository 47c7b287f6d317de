"""Command-line interface.

Six subcommands cover the workflow around the library:

* ``generate`` — synthesize the demo city's data sets and region
  hierarchies into files (``.npz`` tables + ``.geojson`` regions);
* ``query``    — run a query in the paper's SQL dialect against those
  files — or, with ``--url``, against a running query server — and
  print (or CSV-export) the per-region results;
* ``compare``  — run one query through several backends and report
  latencies and agreement;
* ``session``  — replay a scripted interactive session and print the
  per-gesture latency log;
* ``serve``    — host data sets behind the concurrent query service
  (admission control, coalescing, progressive streaming); serves
  in-memory tables, out-of-core stores (``--store``), or a whole
  ``datasets.json`` manifest of lazily-mounted stores;
* ``store``    — build, inspect, and query out-of-core dataset stores
  (``store build`` / ``store inspect`` / ``store query``).

Run ``python -m repro <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .core import (
    METHODS,
    RegionSet,
    SpatialAggregation,
    SpatialAggregationEngine,
    parse_query,
)
from .errors import ExecutionError, ReproError
from .geometry import read_geojson, write_geojson
from .table import load_npz, save_npz


def _load_regions(path: Path, name: str | None = None) -> RegionSet:
    geometries, props = read_geojson(path)
    names = [p.get("name", f"region-{i}") for i, p in enumerate(props)]
    return RegionSet(name or path.stem, geometries, names)


# -- generate -----------------------------------------------------------------


def _cmd_generate(args) -> int:
    from .data import load_demo_workload

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = load_demo_workload(
        seed=args.seed, taxi_rows=args.taxi_rows,
        complaint_rows=args.complaint_rows, crime_rows=args.crime_rows,
        months=args.months)
    for name, table in workload.datasets.items():
        path = out_dir / f"{name}.npz"
        save_npz(table, path)
        print(f"wrote {path}  ({len(table):,} rows)")
    for name, regions in workload.regions.items():
        path = out_dir / f"{name}.geojson"
        props = [{"name": n} for n in regions.region_names]
        write_geojson(path, list(regions.geometries), props)
        print(f"wrote {path}  ({len(regions)} regions)")
    return 0


# -- query --------------------------------------------------------------------


def _remote_query(args) -> int:
    """``repro query --url``: run the SQL against a query server."""
    from .serve import ServeClient

    client = ServeClient(args.url)
    t0 = time.perf_counter()
    result = client.query(None, None, sql=args.sql,
                          method=args.method,
                          deadline_ms=args.deadline_ms,
                          trace=bool(args.trace))
    elapsed = time.perf_counter() - t0
    print(f"-- remote {args.url}")
    print(f"-- method={result.method} regions={len(result.region_names)} "
          f"latency={elapsed * 1000:.1f}ms (network included)")
    if args.trace:
        from .obs import render

        trace_ref = result.stats.get("trace") or {}
        request_id = trace_ref.get("request_id")
        if request_id:
            payload = client.trace(request_id)
            print(f"-- trace {request_id}:")
            print(render(payload["trace"]))
    plan = result.stats.get("plan") or {}
    degraded = plan.get("degraded")
    if degraded and degraded.get("applied"):
        steps = ", ".join(s["step"] for s in degraded["steps"])
        print(f"-- degraded: {steps}")
    order = sorted(range(len(result.region_names)),
                   key=lambda i: -result.values[i])[:args.top]
    width = max((len(result.region_names[i]) for i in order), default=10)
    for i in order:
        print(f"{result.region_names[i]:<{width}}  "
              f"{float(result.values[i]):,.3f}")
    return 0


def _cmd_query(args) -> int:
    if args.url:
        return _remote_query(args)
    if not args.data or not args.regions:
        raise ReproError("--data and --regions are required "
                         "(or pass --url for a remote server)")
    parsed = parse_query(args.sql)
    table = load_npz(Path(args.data))
    regions = _load_regions(Path(args.regions), name=parsed.regions)
    engine = SpatialAggregationEngine(
        default_resolution=args.resolution,
        max_canvas_resolution=max(args.resolution, 4096),
        kernel=args.kernel)

    trace_root = None
    t0 = time.perf_counter()
    if args.trace:
        from .obs import Tracer

        # Entering the root span makes it the current context span, so
        # engine spans nest under it on this (the only) thread.
        trace_root = Tracer().start("query", sql=args.sql)
        with trace_root:
            result = engine.execute(table, regions, parsed.aggregation,
                                    method=args.method)
    else:
        result = engine.execute(table, regions, parsed.aggregation,
                                method=args.method)
    elapsed = time.perf_counter() - t0

    print(f"-- {parsed.describe()}")
    print(f"-- method={result.method} rows={len(table):,} "
          f"regions={len(regions)} latency={elapsed * 1000:.1f}ms")
    plan = result.stats.get("plan", {})
    decision = plan.get("decision") or {}
    if decision.get("planned"):
        inputs = plan.get("inputs") or {}
        print(f"-- plan: chosen={decision['chosen']} "
              f"(points={inputs.get('n_points'):,}, "
              f"regions={inputs.get('n_regions')}, "
              f"epsilon={inputs.get('epsilon')}, "
              f"exact={inputs.get('exact')})")
    degraded = plan.get("degraded")
    if degraded and degraded.get("applied"):
        steps = ", ".join(s["step"] for s in degraded["steps"])
        print(f"-- degraded: {steps} "
              f"(deadline={degraded['deadline_ms']:.0f}ms, "
              f"predicted={degraded['predicted_ms']:.1f}ms)")
    kern = plan.get("kernel") or {}
    if kern:
        print(f"-- kernel: {kern.get('selected')} "
              f"(requested={kern.get('requested')}, "
              f"numba_available={kern.get('numba_available')})")
    acc = result.stats.get("accurate")
    if acc:
        print(f"-- accurate: {acc.get('full_pixels'):,} full / "
              f"{acc.get('partial_pixels'):,} partial px "
              f"({acc.get('partial_runs'):,} runs); "
              f"pip tested={acc.get('pip_points_tested'):,}, "
              f"skipped={acc.get('pip_points_skipped'):,}")
    cache = result.stats.get("cache", {})
    if cache:
        print(f"-- cache: {cache.get('query_hits', 0)} hits / "
              f"{cache.get('query_misses', 0)} misses this query, "
              f"{cache.get('entries', 0)} entries, "
              f"{cache.get('bytes', 0):,} bytes resident")
        blocks = cache.get("blocks", {})
        if blocks.get("hits", 0) or blocks.get("misses", 0) \
                or blocks.get("derived", 0):
            print(f"-- blocks: {blocks.get('hits', 0)} reused / "
                  f"{blocks.get('derived', 0)} derived / "
                  f"{blocks.get('misses', 0)} scattered, "
                  f"{blocks.get('reuse_fraction', 0.0) * 100:.0f}% of "
                  f"pixels assembled from cache")
    if trace_root is not None:
        from .obs import render

        print("-- trace:")
        print(render(trace_root))
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            header = ["region", "value"]
            if result.has_bounds:
                header += ["lower", "upper"]
            writer.writerow(header)
            for i, name in enumerate(regions.region_names):
                row = [name, repr(float(result.values[i]))]
                if result.has_bounds:
                    row += [repr(float(result.lower[i])),
                            repr(float(result.upper[i]))]
                writer.writerow(row)
        print(f"wrote {args.csv}")
    else:
        shown = result.top_k(args.top)
        width = max((len(n) for n, __ in shown), default=10)
        for name, value in shown:
            print(f"{name:<{width}}  {value:,.3f}")
    return 0


# -- compare --------------------------------------------------------------------


def _cmd_compare(args) -> int:
    parsed = parse_query(args.sql)
    table = load_npz(Path(args.data))
    regions = _load_regions(Path(args.regions), name=parsed.regions)
    engine = SpatialAggregationEngine(default_resolution=args.resolution,
                                      kernel=args.kernel)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    results = {}
    print(f"-- {parsed.describe()}")
    print(f"{'method':<12} {'latency':>10}  note")
    for method in methods:
        try:
            engine.execute(table, regions, parsed.aggregation,
                           method=method)
            t0 = time.perf_counter()
            result = engine.execute(table, regions, parsed.aggregation,
                                    method=method)
            elapsed = time.perf_counter() - t0
        except ExecutionError as exc:
            # e.g. the cube cannot answer an unanticipated query — a
            # comparison data point in itself, not a failed run.
            print(f"{method:<12} {'n/a':>10}  cannot answer: {exc}")
            continue
        results[method] = result
        note = "exact" if result.exact else (
            f"bounds +/- {result.max_bound_width() / 2:.1f}"
            if result.has_bounds else "approximate")
        print(f"{method:<12} {elapsed * 1000:>8.1f}ms  {note}")

    exact = next((r for r in results.values() if r.exact), None)
    if exact is not None:
        for method, result in results.items():
            if result is exact or result.exact:
                continue
            err = result.compare_to(exact)["max_rel_error"]
            contained = (result.bounds_contain(exact)
                         if result.has_bounds else "n/a")
            print(f"-- {method}: max rel error "
                  f"{err * 100:.3f}% vs exact; bounds contain exact: "
                  f"{contained}")
    return 0


# -- session --------------------------------------------------------------------


def _cmd_session(args) -> int:
    from .urbane import DataManager, InteractiveSession

    table = load_npz(Path(args.data))
    regions = _load_regions(Path(args.regions))
    manager = DataManager(SpatialAggregationEngine(
        default_resolution=args.resolution))
    manager.add_dataset(table, "data")
    manager.add_region_set(regions, "regions")

    session = InteractiveSession(manager, "data", "regions",
                                 method=args.method,
                                 resolution=args.resolution)
    tvals = (table.values("t") if table.has_column("t") else None)
    if tvals is not None and len(tvals):
        t0, t1 = int(tvals.min()), int(tvals.max()) + 1
        third = max((t1 - t0) // 3, 1)
        if third > 86400:
            # Snap brush edges to the day, as Urbane's timeline widget
            # does — aligned gestures are what the temporal cube serves.
            third = third // 86400 * 86400
            t0 = t0 // 86400 * 86400
        # A sweep on one cube key: the first brush re-scatters, the
        # second builds the temporal cube, the third hits it.
        session.brush_time(t0, t0 + third)
        session.brush_time(t0 + third, t0 + 2 * third)
        session.brush_time(t0, t0 + 2 * third)
        session.clear_time_brush()
    numeric = [c for c in table.column_names
               if table.column(c).kind == "numeric"]
    if numeric:
        session.set_aggregation(SpatialAggregation.avg_of(numeric[0]))
        session.set_aggregation(SpatialAggregation.count())
    # Map gestures: a short pan/zoom ladder over the canvas pyramid.
    # The first pan scatters blocks; every later gesture assembles
    # mostly (or entirely) from the cache.
    session.pan(0, 0)
    step = max(1, args.resolution // 8)
    session.pan(step, 0)
    session.pan(0, -step)
    session.zoom(2.0)
    session.zoom(0.5)
    session.pan(-step, step)
    print(session.report())
    cache = manager.cache_stats()
    print(f"-- engine cache: {cache['hits']} hits, {cache['misses']} "
          f"misses, {cache['evictions']} evictions, "
          f"{cache['bytes']:,} bytes resident")
    blocks = cache.get("blocks", {})
    print(f"-- block reuse: {blocks.get('hits', 0)} reused, "
          f"{blocks.get('derived', 0)} derived, "
          f"{blocks.get('misses', 0)} scattered "
          f"({blocks.get('reuse_fraction', 0.0) * 100:.0f}% of pixels "
          f"assembled)")
    return 0


# -- serve --------------------------------------------------------------------


def _parse_named(spec: str, default_name: str | None = None
                 ) -> tuple[str, Path]:
    """``name=path`` or bare ``path`` (name defaults to the file stem)."""
    if "=" in spec:
        name, _, path = spec.partition("=")
        return name, Path(path)
    path = Path(spec)
    return default_name or path.stem, path


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import QueryServer, QueryService
    from .urbane import DataManager

    manager = DataManager(SpatialAggregationEngine(
        default_resolution=args.resolution, kernel=args.kernel))
    budget = (None if args.store_budget_mb is None
              else int(args.store_budget_mb * 1024 * 1024))
    for spec in args.data or ():
        name, path = _parse_named(spec)
        table = load_npz(path)
        manager.add_dataset(table, name)
        print(f"dataset {name!r}: {len(table):,} rows from {path}")
    for spec in args.store or ():
        name, path = _parse_named(spec)
        manager.add_store(path, name=name, memory_budget_bytes=budget)
        print(f"store {name!r}: lazy mount of {path}")
    for spec in args.regions or ():
        name, path = _parse_named(spec)
        regions = _load_regions(path, name=name)
        manager.add_region_set(regions, name)
        print(f"regions {name!r}: {len(regions)} regions from {path}")
    if args.datasets_json:
        from .serve import mount_datasets

        for line in mount_datasets(manager, args.datasets_json):
            print(line)
    if not manager.dataset_names or not manager.region_set_names:
        raise ReproError(
            "nothing to serve: give --data/--store and --regions "
            "(or a --datasets-json manifest providing them)")

    service = QueryService(
        manager, max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        slow_query_ms=args.slow_query_ms)
    server = QueryServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        print(f"serving on {server.url}  "
              f"(concurrency={args.max_concurrency}, "
              f"queue={args.max_queue})")
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
    return 0


# -- store --------------------------------------------------------------------


def _cmd_store_build(args) -> int:
    from .store import DatasetWriter, build_store_from_csv

    t0 = time.perf_counter()
    kwargs = dict(partition_rows=args.partition_rows, grid=args.grid,
                  time_column=args.time_column,
                  time_bucket_seconds=args.time_bucket_seconds,
                  name=args.name)
    if args.csv:
        dataset = build_store_from_csv(Path(args.csv), Path(args.out),
                                       chunk_rows=args.chunk_rows,
                                       **kwargs)
    else:
        table = load_npz(Path(args.data))
        with DatasetWriter(Path(args.out), **kwargs) as writer:
            writer.write_table(table)
        from .store import Dataset

        dataset = Dataset.open(Path(args.out))
    elapsed = time.perf_counter() - t0
    rate = len(dataset) / elapsed if elapsed > 0 else float("inf")
    print(f"built {dataset.describe()}")
    print(f"  {dataset.total_nbytes:,} column bytes in "
          f"{dataset.num_partitions} partitions; "
          f"{elapsed:.2f}s ({rate:,.0f} rows/s)")
    return 0


def _cmd_store_inspect(args) -> int:
    from .store import Dataset

    dataset = Dataset.open(Path(args.path))
    manifest = dataset.manifest
    print(dataset.describe())
    print(f"  partition_rows={manifest.partition_rows} "
          f"grid={manifest.grid_nx}x{manifest.grid_ny} "
          f"time_column={manifest.time_column!r} "
          f"bucket_s={manifest.time_bucket_seconds}")
    print(f"  {dataset.total_nbytes:,} column bytes on disk")
    if args.partitions:
        for info in manifest.partitions:
            bbox = ("none" if info.bbox is None else
                    f"({info.bbox.xmin:.4g},{info.bbox.ymin:.4g})-"
                    f"({info.bbox.xmax:.4g},{info.bbox.ymax:.4g})")
            print(f"  {info.file}: rows={info.rows:,} "
                  f"key={info.key} bbox={bbox} bytes={info.nbytes:,}")
    if args.check:
        from .store.format import check_partition

        problems = [problem for info in manifest.partitions
                    for problem in check_partition(dataset.path, info)]
        for problem in problems:
            print(f"  BAD {problem}")
        print(f"  check: {dataset.num_partitions} partitions, "
              f"{len(problems)} problems")
        return 1 if problems else 0
    return 0


def _cmd_store_query(args) -> int:
    from .store import Dataset

    parsed = parse_query(args.sql)
    budget = (None if args.budget_mb is None
              else int(args.budget_mb * 1024 * 1024))
    dataset = Dataset.open(Path(args.path), memory_budget_bytes=budget)
    regions = _load_regions(Path(args.regions), name=parsed.regions)
    engine = SpatialAggregationEngine(
        default_resolution=args.resolution,
        max_canvas_resolution=max(args.resolution, 4096),
        kernel=args.kernel)

    t0 = time.perf_counter()
    result = engine.execute(dataset, regions, parsed.aggregation,
                            method=args.method)
    elapsed = time.perf_counter() - t0

    store = result.stats["store"]
    parts = store["partitions"]
    print(f"-- {parsed.describe()}")
    print(f"-- method={result.method} rows={len(dataset):,} "
          f"regions={len(regions)} latency={elapsed * 1000:.1f}ms")
    print(f"-- partitions: {parts['scanned']}/{parts['total']} scanned "
          f"({parts['pruned']} pruned: "
          f"{store['pruned_by']['viewport']} viewport, "
          f"{store['pruned_by']['filter']} filter, "
          f"{store['pruned_by']['empty']} empty); "
          f"{store['rows']['scanned']:,} rows, "
          f"{store['bytes_scanned']:,} bytes")
    mounted = store["mounted"]
    print(f"-- mounts: {mounted['mounts']} mapped "
          f"({mounted['hits']} hits, {mounted['evictions']} evictions, "
          f"{mounted['mapped_bytes']:,} bytes resident)")
    shown = result.top_k(args.top)
    width = max((len(n) for n, __ in shown), default=10)
    for name, value in shown:
        print(f"{name:<{width}}  {value:,.3f}")
    return 0


# -- entry point ------------------------------------------------------------------


def _add_kernel_arg(parser) -> None:
    parser.add_argument("--kernel", default="auto",
                        choices=("auto", "numpy", "numba"),
                        help="scatter/gather kernel implementation "
                             "('auto' uses numba when installed, NumPy "
                             "otherwise; results are identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Urbane / Raster Join reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize demo data to files")
    gen.add_argument("--out-dir", default="demo-data")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--taxi-rows", type=int, default=500_000)
    gen.add_argument("--complaint-rows", type=int, default=120_000)
    gen.add_argument("--crime-rows", type=int, default=80_000)
    gen.add_argument("--months", type=int, default=3)
    gen.set_defaults(func=_cmd_generate)

    qry = sub.add_parser("query",
                         help="run a SQL query against files or a server")
    qry.add_argument("sql", help="query in the paper's SQL dialect")
    qry.add_argument("--data", help="point table .npz")
    qry.add_argument("--regions", help="regions .geojson")
    qry.add_argument("--url", default=None,
                     help="query a running 'repro serve' endpoint instead "
                          "of local files (FROM clause names the served "
                          "dataset and region set)")
    qry.add_argument("--deadline-ms", type=float, default=None,
                     help="per-query latency budget; the planner degrades "
                          "precision to honor it")
    qry.add_argument("--method", default="auto", choices=METHODS,
                     help="execution backend; 'auto' runs the cost-based "
                          "planner (default)")
    qry.add_argument("--resolution", type=int, default=512)
    _add_kernel_arg(qry)
    qry.add_argument("--trace", action="store_true",
                     help="record and print a hierarchical span tree "
                          "for the query (works locally and via --url)")
    qry.add_argument("--top", type=int, default=10,
                     help="print the top-N regions")
    qry.add_argument("--csv", help="write full results to this CSV")
    qry.set_defaults(func=_cmd_query)

    cmp_ = sub.add_parser("compare", help="run one query on many backends")
    cmp_.add_argument("sql")
    cmp_.add_argument("--data", required=True)
    cmp_.add_argument("--regions", required=True)
    cmp_.add_argument("--methods", default="bounded,accurate,grid",
                      help="comma-separated registered backends, e.g. "
                           "'bounded,grid,cube,auto'")
    cmp_.add_argument("--resolution", type=int, default=512)
    _add_kernel_arg(cmp_)
    cmp_.set_defaults(func=_cmd_compare)

    ses = sub.add_parser("session",
                         help="replay a scripted interactive session")
    ses.add_argument("--data", required=True)
    ses.add_argument("--regions", required=True)
    ses.add_argument("--resolution", type=int, default=512)
    ses.add_argument("--method", default="bounded", choices=METHODS,
                     help="backend for every gesture (or 'auto')")
    ses.set_defaults(func=_cmd_session)

    srv = sub.add_parser("serve",
                         help="host data sets behind the query service")
    srv.add_argument("--data", action="append",
                     metavar="NAME=PATH",
                     help="point table .npz to serve (repeatable; bare "
                          "paths use the file stem as the name)")
    srv.add_argument("--store", action="append",
                     metavar="NAME=DIR",
                     help="out-of-core store directory to serve "
                          "(repeatable; mounted lazily on first query)")
    srv.add_argument("--datasets-json", default=None,
                     help="datasets.json manifest declaring stores/"
                          "tables/regions to mount (stores stay lazy)")
    srv.add_argument("--store-budget-mb", type=float, default=None,
                     help="per-store partition-mapping budget in MiB "
                          "(least-recently-scanned partitions unmap "
                          "first)")
    srv.add_argument("--regions", action="append",
                     metavar="NAME=PATH",
                     help="regions .geojson to serve (repeatable)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8750)
    srv.add_argument("--resolution", type=int, default=512)
    srv.add_argument("--max-concurrency", type=int, default=4,
                     help="queries executing at once (thread pool size)")
    srv.add_argument("--max-queue", type=int, default=16,
                     help="admission queue depth before shedding load")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-query latency budget (requests "
                          "can override)")
    srv.add_argument("--slow-query-ms", type=float, default=None,
                     help="trace every request and keep a span-tree "
                          "dump of any slower than this threshold "
                          "(served at /v1/slow)")
    _add_kernel_arg(srv)
    srv.set_defaults(func=_cmd_serve)

    sto = sub.add_parser("store",
                         help="build / inspect / query out-of-core "
                              "dataset stores")
    sto_sub = sto.add_subparsers(dest="store_command", required=True)

    stb = sto_sub.add_parser("build",
                             help="ingest a table into a store directory")
    src = stb.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="point table .npz to ingest")
    src.add_argument("--csv", help="x,y,... CSV to ingest in chunks")
    stb.add_argument("--out", required=True, help="store directory to create")
    stb.add_argument("--name", default=None, help="dataset name "
                     "(default: source file stem)")
    stb.add_argument("--partition-rows", type=int, default=65_536,
                     help="rows per partition (default 65536)")
    stb.add_argument("--grid", type=int, default=8,
                     help="spatial sort grid cells per axis (default 8)")
    stb.add_argument("--time-column", default=None,
                     help="timestamp column for temporal bucketing "
                          "(with --time-bucket-seconds)")
    stb.add_argument("--time-bucket-seconds", type=int, default=None,
                     help="temporal bucket width for the sort key")
    stb.add_argument("--chunk-rows", type=int, default=100_000,
                     help="CSV ingest chunk size (--csv only)")
    stb.set_defaults(func=_cmd_store_build)

    sti = sto_sub.add_parser("inspect", help="print a store's manifest")
    sti.add_argument("path", help="store directory")
    sti.add_argument("--partitions", action="store_true",
                     help="list every partition's zone-map summary")
    sti.add_argument("--check", action="store_true",
                     help="verify every partition file's size, footer "
                          "and column checksums; exit 1 on any mismatch")
    sti.set_defaults(func=_cmd_store_inspect)

    stq = sto_sub.add_parser("query",
                             help="run a SQL query out-of-core against "
                                  "a store")
    stq.add_argument("sql", help="query in the paper's SQL dialect")
    stq.add_argument("--store", dest="path", required=True,
                     help="store directory")
    stq.add_argument("--regions", required=True, help="regions .geojson")
    stq.add_argument("--method", default="auto",
                     choices=("auto", "bounded", "tiled"))
    stq.add_argument("--resolution", type=int, default=512)
    stq.add_argument("--budget-mb", type=float, default=None,
                     help="partition-mapping memory budget in MiB")
    _add_kernel_arg(stq)
    stq.add_argument("--top", type=int, default=10,
                     help="print the top-N regions")
    stq.set_defaults(func=_cmd_store_query)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
