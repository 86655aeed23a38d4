"""Command-line interface.

Mirrors the paper artifact's scripts:

* ``python -m repro list`` — workloads (Table II) and design points;
* ``python -m repro run GUPS --designs private shared mgvm`` — simulate
  one workload and print the headline metrics per design;
* ``python -m repro figure figure7 --scale default`` — regenerate one of
  the paper's figures/tables;
* ``python -m repro sweep --out results.csv`` — the artifact's
  collect-and-normalize flow (raw + normalized CSVs);
* ``python -m repro trace GUPS mgvm --out trace.json`` — run one
  instrumented simulation and dump a Chrome trace-event file plus
  optional JSONL spans and an epoch-metrics CSV (see
  docs/observability.md);
* ``python -m repro profile GUPS mgvm`` — run one simulation with the
  host self-profiler and report where wall-clock goes (text top-N plus
  speedscope/collapsed flamegraph exports);
* ``python -m repro diff results/golden_smoke.csv new.csv`` — the
  regression gate: align two result manifests and fail on any counter
  moving beyond tolerance; ``--store runs.db`` gates against the newest
  matching runs in a sqlite telemetry store instead, falling back to
  the golden manifest while the store is empty;
* ``python -m repro report --store runs.db`` — query the telemetry
  store: filter runs, show counters, or ``--trend throughput`` to see
  one counter's trajectory across recorded git revisions;
* ``python -m repro top sweep.stream`` — live view of an in-flight
  ``repro sweep --stream`` (per-job phase, metric event rate, MSHR
  high-water marks, audit violations).

``repro run``/``repro trace`` accept ``--audit``, which attaches the
online invariant checker (:class:`repro.obs.AuditProbe`) to every
simulation and fails the command on any violation.

Tables and figures go to stdout; diagnostics go through the ``repro.*``
logger hierarchy on stderr, controlled by ``--log-level``/``-v``.
"""

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

from repro.arch.params import SCALES, scaled_params
from repro.arch.topology import topology_names
from repro.core.config import DESIGNS, design
from repro.core.spec import (
    GeometrySpec,
    ProbeSpec,
    SweepSpec,
    as_sweep,
    design_group,
    load_spec,
    preset_names,
    resolve_preset,
)
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import ExperimentRunner
from repro.obs import (
    AuditProbe,
    HostProfiler,
    MetricsRecorder,
    MultiProbe,
    TraceProbe,
)
from repro.sim.simulator import simulate
from repro.stats.diff import (
    TAIL_ABS_TOL,
    TAIL_REL_TOL,
    diff_paths,
    format_report as format_diff_report,
)
from repro.stats.export import write_normalized_csv, write_raw_csv
from repro.stats.report import format_table
from repro.workloads.registry import WORKLOAD_NAMES, build_kernel, workload_metadata

log = logging.getLogger("repro.cli")

# The default design comparison (the paper's headline set), owned by the
# spec registry so the CLI, figures and bench guards stay in sync.
MAIN_DESIGNS = list(design_group("main"))


def _resolve_workload(name):
    """Match ``name`` against WORKLOAD_NAMES case-insensitively."""
    for candidate in WORKLOAD_NAMES:
        if candidate.lower() == name.lower():
            return candidate
    raise SystemExit(
        "unknown workload %r (choose from %s)"
        % (name, ", ".join(WORKLOAD_NAMES))
    )


def configure_logging(level_name):
    """Route the ``repro.*`` logger hierarchy to stderr at ``level_name``."""
    level = getattr(logging, level_name.upper(), logging.WARNING)
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    return level


def _add_scale(parser, spec_backed=False):
    kwargs = (
        {"default": argparse.SUPPRESS} if spec_backed
        else {"default": "default"}
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        help="machine/workload scale (default: default)",
        **kwargs,
    )


def _add_logging(parser, root=False):
    """Logging flags; the root parser owns the real defaults.

    Subparser copies use ``argparse.SUPPRESS`` so they only touch the
    namespace when the flag is actually given after the subcommand —
    ``repro -v trace ...`` and ``repro trace ... -v`` both work, and
    the subparser never clobbers a value the root already parsed (the
    same absent-until-given convention the spec layer uses to tell
    explicit flags from defaults).
    """
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="repro.* logger threshold (stderr diagnostics)",
        **({"default": "warning"} if root else {"default": argparse.SUPPRESS}),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        help="-v = info, -vv = debug (shorthand for --log-level)",
        **({"default": 0} if root else {"default": argparse.SUPPRESS}),
    )


def _add_geometry(parser):
    """Machine-geometry knobs (chiplet count and fabric topology).

    No argparse defaults: an absent flag stays ``None`` so the spec
    layer can tell "not given" (inherit the preset/scale default) from
    an explicit value.
    """
    parser.add_argument(
        "--chiplets",
        type=int,
        help="number of chiplets (default: the scale's machine, 4)",
    )
    parser.add_argument(
        "--topology",
        choices=topology_names(),
        help="inter-chiplet fabric topology (default: all-to-all)",
    )
    parser.add_argument(
        "--link-latency",
        type=float,
        help="per-hop fabric link latency in cycles (default: 32)",
    )
    parser.add_argument(
        "--inter-package-latency",
        type=float,
        help="inter-package link latency in cycles "
        "(dual-package topology only; default: 96)",
    )


def _add_spec_base(parser):
    """``--preset``/``--spec``: the spec base explicit flags override."""
    parser.add_argument(
        "--preset",
        choices=preset_names(),
        help="start from this named spec preset "
        "(explicit flags override its fields; see docs/configuration.md)",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        help="start from a TOML/JSON spec file "
        "(explicit flags override its fields)",
    )


def _base_sweep(args):
    """The ``--preset``/``--spec`` base as a SweepSpec, or ``None``."""
    name = getattr(args, "preset", None)
    path = getattr(args, "spec", None)
    if name and path:
        raise SystemExit("repro: give --preset or --spec, not both")
    try:
        if name:
            return as_sweep(resolve_preset(name))
        if path:
            return as_sweep(load_spec(path))
    except (OSError, ValueError) as exc:
        raise SystemExit("repro: %s" % exc)
    return None


_GEOMETRY_FLAGS = (
    "chiplets", "topology", "link_latency", "inter_package_latency",
)


def _sweep_from_args(args, workload=None):
    """Resolve flags to the effective :class:`SweepSpec`.

    Precedence (lowest to highest): built-in defaults (the zero-arg
    ``SweepSpec``), the ``--preset``/``--spec`` base, explicit flags.
    Spec-backed flags use ``argparse.SUPPRESS`` defaults, so a flag is
    an override exactly when it is present on the namespace.
    """
    sweep = _base_sweep(args) or SweepSpec()
    updates = {}
    if workload is not None:
        updates["workloads"] = (workload,)
    elif getattr(args, "workloads", None):
        updates["workloads"] = tuple(args.workloads)
    if getattr(args, "designs", None):
        updates["designs"] = tuple(args.designs)
    if hasattr(args, "scale"):
        updates["scale"] = args.scale
    if hasattr(args, "seed"):
        updates["seed"] = args.seed
    if hasattr(args, "audit"):
        updates["probes"] = replace(sweep.probes, audit=True)
    geometry = {
        name: getattr(args, name)
        for name in _GEOMETRY_FLAGS
        if getattr(args, name, None) is not None
    }
    try:
        if geometry:
            updates["geometry"] = replace(sweep.geometry, **geometry)
        if updates:
            sweep = sweep.with_updates(**updates)
        return sweep.validate()
    except ValueError as exc:
        raise SystemExit("repro: %s" % exc)


def _geometry_overrides(args):
    """The GPUParams overrides implied by the geometry flags (or {})."""
    kwargs = {
        name: getattr(args, name, None) for name in _GEOMETRY_FLAGS
    }
    try:
        return GeometrySpec(**kwargs).overrides()
    except ValueError as exc:
        raise SystemExit("repro: %s" % exc)


def _add_jobs(parser):
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="simulate uncached points across N worker processes "
        "(results are identical to -j 1; see docs/performance.md)",
    )


def cmd_list(_args):
    rows = [
        [name, meta.benchmark, meta.suite, meta.paper_mb, meta.lasp_class]
        for name, meta in (
            (n, workload_metadata(n)) for n in WORKLOAD_NAMES
        )
    ]
    print(format_table(["abbr", "benchmark", "suite", "MB", "class"], rows))
    print()
    rows = [[name, d.description] for name, d in sorted(DESIGNS.items())]
    print(format_table(["design", "description"], rows))
    return 0


def _print_audit_summaries(audits):
    """Render per-design audit summaries; return the total violations.

    ``audits`` is ``[(design_name, AuditProbe), ...]``.  Violation
    details go to stdout (they are the command's product when auditing);
    the caller maps a nonzero total to a failing exit status.
    """
    rows = []
    total = 0
    for name, audit in audits:
        summary = audit.summary()
        total += summary["violations"]
        rows.append(
            [
                name,
                summary["checks_passed"],
                summary["violations"],
                summary["requests"],
                summary["epochs"],
                "ok" if audit.ok else "FAIL",
            ]
        )
    print()
    print(
        format_table(
            ["design", "checks", "violations", "requests", "epochs", "audit"],
            rows,
        )
    )
    for name, audit in audits:
        for violation in audit.violations[:10]:
            print("AUDIT %s: %s" % (name, violation))
        if audit.suppressed:
            print(
                "AUDIT %s: ... and %d more suppressed violation(s)"
                % (name, audit.suppressed)
            )
    return total


def _run_audited(sweep):
    """``repro run --audit``: simulate outside the cache, under audit."""
    from repro.experiments.runner import RunRecord

    grid = {}
    audits = []
    for spec in sweep.points():
        audit = AuditProbe()
        stats = simulate(
            spec.kernel(), spec.params(), spec.vm_design(),
            seed=spec.seed, probe=audit,
        )
        grid[(spec.workload, spec.design)] = RunRecord.from_stats(
            spec.workload, spec.design, stats
        )
        audits.append((spec.design, audit))
    return grid, audits


def _run_workload(args, sweep):
    """The single workload ``repro run`` targets (positional or spec)."""
    if getattr(args, "workload", None):
        return args.workload
    if len(sweep.workloads) == 1:
        return sweep.workloads[0]
    raise SystemExit(
        "repro run: name a workload (positional) or give a --preset/"
        "--spec that pins exactly one"
    )


def cmd_run(args):
    sweep = _sweep_from_args(args)
    sweep = sweep.with_updates(workloads=(_run_workload(args, sweep),))
    workload = sweep.workloads[0]
    overrides = sweep.overrides()
    audits = None
    if sweep.probes.audit:
        # Audited runs bypass the run cache: the point is to *observe*
        # this simulation, and cached records carry no probe stream.
        grid, audits = _run_audited(sweep)
    else:
        runner = ExperimentRunner(
            scale=sweep.scale, seed=sweep.seed, workers=args.jobs
        )
        grid = runner.run_sweep(sweep)
    rows = []
    baseline = None
    for name in sweep.designs:
        record = grid[(workload, name)]
        if baseline is None:
            baseline = record.throughput
            if not baseline:
                log.warning(
                    "baseline design %r has zero throughput; "
                    "speedups are undefined (nan)",
                    name,
                )
        rows.append(
            [
                name,
                record.throughput / baseline if baseline else math.nan,
                record.mpki,
                record.l2_hit_rate,
                record.local_hit_fraction,
                record.pw_remote_fraction,
                record.avg_translation_hops,
                record.balance_switches,
            ]
        )
    if overrides:
        log.info("geometry overrides: %s", overrides)
    print(
        format_table(
            [
                "design",
                "speedup",
                "mpki",
                "l2_hit",
                "local_hit",
                "pw_remote",
                "avg_hops",
                "switches",
            ],
            rows,
        )
    )
    if audits is not None:
        if _print_audit_summaries(audits):
            return 1
    return 0


def cmd_figure(args):
    figure_fn = ALL_FIGURES[args.name]
    kwargs = {}
    if args.workloads:
        kwargs["workloads"] = args.workloads
    with ExperimentRunner(
        scale=args.scale, cache_path=args.cache, workers=args.jobs
    ) as runner:
        result = figure_fn(runner, **kwargs)
    text = result.text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


def cmd_sweep(args):
    sweep = _sweep_from_args(args)
    workloads = list(sweep.resolved_workloads())
    designs = list(sweep.designs)
    with ExperimentRunner(
        scale=sweep.scale,
        seed=sweep.seed,
        cache_path=args.cache,
        verbose=True,
        workers=args.jobs,
        store_path=args.store,
        stream_path=args.stream,
    ) as runner:
        grid = runner.run_sweep(sweep)
    records = [
        grid[(workload, design_name)]
        for workload in workloads
        for design_name in designs
    ]
    write_raw_csv(records, args.out)
    normalized = args.out.replace(".csv", "") + ".normalized.csv"
    write_normalized_csv(records, normalized, baseline_design=designs[0])
    print("wrote %s and %s" % (args.out, normalized))
    return 0


def cmd_trace(args):
    workload = _resolve_workload(args.workload)
    kernel = build_kernel(workload, scale=args.scale)
    params = scaled_params(args.scale, **_geometry_overrides(args))
    tracer = TraceProbe(
        sample_every=args.sample_every, max_spans=args.max_spans
    )
    metrics = MetricsRecorder(sample_every=args.metrics_interval)
    probes = [tracer, metrics]
    audit = None
    if args.audit:
        audit = AuditProbe()
        probes.append(audit)
    probe = MultiProbe(probes)
    log.info(
        "tracing %s under %s (scale=%s, seed=%d)",
        workload,
        args.design,
        args.scale,
        args.seed,
    )
    stats = simulate(
        kernel, params, design(args.design), seed=args.seed, probe=probe
    )
    tracer.write_chrome_trace(args.out)
    written = [args.out]
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        written.append(args.jsonl)
    if args.metrics_csv:
        metrics.write_csv(args.metrics_csv)
        written.append(args.metrics_csv)
    summary = tracer.summary()
    log.info("trace summary: %s", summary)
    rows = [
        ["cycles", "%.0f" % stats.cycles],
        ["spans", summary["spans"]],
        ["dropped", summary["dropped"]],
        ["hop categories", " ".join(summary["categories"])],
        ["metric rows", len(metrics.rows)],
        ["balance switches", len(metrics.switches)],
        ["wrote", " ".join(written)],
    ]
    if audit is not None:
        rows.insert(
            -1,
            [
                "audit",
                "ok (%d checks)" % audit.checks_passed
                if audit.ok
                else "FAIL",
            ],
        )
    print(format_table(["trace", "value"], rows))
    if audit is not None and not audit.ok:
        _print_audit_summaries([(args.design, audit)])
        return 1
    return 0


def cmd_profile(args):
    workload = _resolve_workload(args.workload)
    kernel = build_kernel(workload, scale=args.scale)
    params = scaled_params(args.scale, **_geometry_overrides(args))
    profiler = HostProfiler()
    log.info(
        "profiling %s under %s (scale=%s, seed=%d)",
        workload,
        args.design,
        args.scale,
        args.seed,
    )
    stats = simulate(
        kernel,
        params,
        design(args.design),
        seed=args.seed,
        profiler=profiler,
    )
    print(profiler.format_report(top=args.top))
    written = []
    if args.out:
        profiler.write_speedscope(
            args.out, name="repro %s/%s" % (workload, args.design)
        )
        written.append(args.out)
    if args.collapsed:
        profiler.write_collapsed(args.collapsed)
        written.append(args.collapsed)
    if written:
        print("wrote %s" % " ".join(written))
    log.info(
        "simulated %.0f cycles in %.3fs host time",
        stats.cycles,
        profiler.total_seconds,
    )
    return 0


def _diff_tail(args):
    """``repro diff --tail``: gate per-stage p95/p99 digest quantiles.

    Tail manifests come from run stores (newest digest-bearing run per
    configuration) or JSON dumps (``write_tail_manifest``); both sides
    quantize at the manifest boundary.  Tolerances are independent of
    (and looser than) the counter gate — percentiles are
    bucket-quantized order statistics, not means.
    """
    from repro.stats.diff import (
        compare,
        load_store_tail_manifest,
        load_tail_manifest,
    )

    if args.store:
        if args.candidate is not None:
            raise SystemExit(
                "repro diff --tail: pass either --store or two "
                "manifests, not both"
            )
        baseline = load_store_tail_manifest(args.store, scale=args.scale)
        source = "store %s (scale=%s)" % (args.store, args.scale)
        if not baseline:
            raise SystemExit(
                "repro diff --tail: store %s holds no latency digests "
                "for scale=%s" % (args.store, args.scale)
            )
        candidate = load_tail_manifest(args.baseline, scale=args.scale)
    else:
        if args.candidate is None:
            raise SystemExit(
                "repro diff --tail: two manifests are required "
                "(or pass --store for a store-gated baseline)"
            )
        source = None
        baseline = load_tail_manifest(args.baseline, scale=args.scale)
        candidate = load_tail_manifest(args.candidate, scale=args.scale)
    pool = set()
    for row in list(baseline.values()) + list(candidate.values()):
        pool.update(row)
    report = compare(
        baseline,
        candidate,
        rel_tol=args.tail_rel_tol,
        abs_tol=args.tail_abs_tol,
        counters=args.counters or None,
        counter_pool=pool,
    )
    return report, source


def cmd_diff(args):
    from repro.stats.diff import compare, load_manifest, load_store_manifest

    tolerances = dict(
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        counters=args.counters or None,
    )
    source = None
    try:
        if args.tail:
            report, source = _diff_tail(args)
        elif args.store:
            # Store-gated mode: the baseline is the newest stored run
            # per configuration; an optional second positional is the
            # golden manifest to fall back on while the store is empty.
            if args.candidate is not None:
                golden, candidate_path = args.baseline, args.candidate
            else:
                golden, candidate_path = None, args.baseline
            baseline = load_store_manifest(args.store, scale=args.scale)
            source = "store %s (scale=%s)" % (args.store, args.scale)
            if not baseline:
                if golden is None:
                    raise SystemExit(
                        "repro diff: store %s holds no baseline runs for "
                        "scale=%s and no golden fallback manifest was "
                        "given" % (args.store, args.scale)
                    )
                baseline = load_manifest(golden)
                source = "golden %s (store empty)" % golden
            report = compare(
                baseline, load_manifest(candidate_path), **tolerances
            )
        else:
            if args.candidate is None:
                raise SystemExit(
                    "repro diff: two manifests are required "
                    "(or pass --store for a store-gated baseline)"
                )
            report = diff_paths(args.baseline, args.candidate, **tolerances)
    except (OSError, ValueError) as exc:
        raise SystemExit("repro diff: %s" % exc)
    if source is not None:
        report["baseline_source"] = source
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if source is not None:
            print("baseline: %s" % source)
        print(format_diff_report(report, top=args.top))
    return 0 if report["ok"] else 1


def cmd_analyze(args):
    from repro.obs.analysis import analyze_path, format_analysis

    try:
        report = analyze_path(args.source, run_id=args.run, top=args.top)
    except (OSError, ValueError) as exc:
        raise SystemExit("repro analyze: %s" % exc)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if "run_id" in report:
            print(
                "latency anatomy of run %s in %s"
                % (report["run_id"], args.source)
            )
        print(format_analysis(report, heatmap=not args.no_heatmap))
    # A decomposition that does not reconcile with the end-to-end mean
    # is a bug somewhere in the anatomy pipeline — fail loudly.
    return 0 if report["reconciliation"]["ok"] else 1


_REPORT_COUNTERS = ["throughput", "mpki", "cycles", "l2_hit_rate"]

#: Percentile columns `repro report` derives from stored digests.
_REPORT_QUANTILES = ("p50", "p95", "p99")


def _report_percentiles(store, run_id):
    """p50/p95/p99 of one run's end-to-end latency, or None."""
    from repro.obs.digest import TOTAL_STAGE, merge_rows

    rows = [
        row
        for row in store.digests_for(run_id)
        if row["stage"] == TOTAL_STAGE
    ]
    if not rows:
        return None
    digest = merge_rows(rows)[TOTAL_STAGE]
    return {
        "p50": digest.quantile(0.50),
        "p95": digest.quantile(0.95),
        "p99": digest.quantile(0.99),
    }


def _short_rev(git_rev):
    return (git_rev or "-")[:12]


def _run_config_label(run):
    """One run's configuration as the diff-style key label."""
    from repro.stats.diff import _key_label

    return _key_label(
        (
            run["workload"],
            run["design"],
            run["chiplets"],
            run["topology"],
            run["qualifier"],
        )
    )


def cmd_report(args):
    from repro.obs.store import RunStore, StoreError

    if not os.path.exists(args.store):
        raise SystemExit("repro report: no store at %s" % args.store)
    try:
        store = RunStore(args.store)
    except StoreError as exc:
        raise SystemExit("repro report: %s" % exc)
    with store:
        runs = store.list_runs(
            workload=args.workload,
            design=args.design,
            chiplets=args.chiplets,
            topology=args.topology,
            scale=args.scale,
            sweep_id=args.sweep,
            limit=None if args.trend else args.limit,
        )
        violations = {
            run["id"]: store.violation_count(run["id"]) for run in runs
        }
        percentiles = {
            run["id"]: _report_percentiles(store, run["id"])
            for run in runs
        }
    counters = args.counters or _REPORT_COUNTERS
    if args.trend:
        return _report_trend(runs, args)
    header = [
        "id", "when", "config", "scale", "status", "git", "violations",
    ] + counters + list(_REPORT_QUANTILES)
    table_rows = []
    for run in runs:
        import datetime

        when = datetime.datetime.fromtimestamp(
            run["created_at"]
        ).strftime("%m-%d %H:%M:%S")
        table_rows.append(
            [
                run["id"],
                when,
                _run_config_label(run),
                run["scale"],
                run["status"],
                _short_rev(run["git_rev"]),
                violations[run["id"]],
            ]
            + [
                "%.6g" % run["counters"][name]
                if name in run["counters"]
                else "-"
                for name in counters
            ]
            + [
                "%.6g" % percentiles[run["id"]][name]
                if percentiles[run["id"]]
                and percentiles[run["id"]][name] is not None
                else "-"
                for name in _REPORT_QUANTILES
            ]
        )
    if args.json:
        payload = []
        for run in runs:
            entry = dict(run)
            entry["violations"] = violations[run["id"]]
            entry["latency_percentiles"] = percentiles[run["id"]]
            payload.append(entry)
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    elif args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(table_rows)
    else:
        print(format_table(header, table_rows))
        print("%d run(s) in %s" % (len(runs), args.store))
    return 0


def _report_trend(runs, args):
    """``repro report --trend COUNTER``: the counter across git revs.

    Groups the matching runs by configuration and walks them oldest to
    newest, printing the counter at each recorded git revision and the
    relative delta against the previous revision — the store-backed
    answer to "when did this counter move, and by how much".
    """
    counter = args.trend
    by_config = {}
    for run in reversed(runs):  # list_runs is newest-first
        value = run["counters"].get(counter)
        if value is None:
            continue
        by_config.setdefault(_run_config_label(run), []).append(run)
    if not by_config:
        print("no stored runs carry counter %r" % counter)
        return 1
    header = ["config", "run", "git", "status", counter, "delta vs prev"]
    table_rows = []
    payload = []
    for config in sorted(by_config):
        previous = None
        for run in by_config[config]:
            value = run["counters"][counter]
            if previous in (None, 0):
                delta = "-"
                rel = None
            else:
                rel = (value - previous) / abs(previous)
                delta = "%+.2f%%" % (rel * 100.0)
            table_rows.append(
                [
                    config,
                    run["id"],
                    _short_rev(run["git_rev"]),
                    run["status"],
                    "%.6g" % value,
                    delta,
                ]
            )
            payload.append(
                {
                    "config": config,
                    "run_id": run["id"],
                    "git_rev": run["git_rev"],
                    "status": run["status"],
                    "counter": counter,
                    "value": value,
                    "rel_delta": rel,
                }
            )
            previous = value
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(table_rows)
    else:
        print(format_table(header, table_rows))
    return 0


def _top_snapshot(events, sweep=None):
    """Aggregate stream events into per-job live rows.

    Returns ``(sweep_row, job_rows)`` where ``job_rows`` is a list of
    ``[job, phase, metric events, events/s, mshr hwm, violations]``.
    Restricted to the newest sweep in the stream unless ``sweep`` pins
    one explicitly.
    """
    if sweep is None:
        for event in reversed(events):
            if event.get("sweep"):
                sweep = event["sweep"]
                break
    if sweep is not None:
        events = [e for e in events if e.get("sweep") in (sweep, None)]
    jobs = {}
    sweep_phase = "-"
    sweep_points = 0
    for event in events:
        kind = event.get("kind")
        if kind == "sweep":
            sweep_phase = event.get("phase", sweep_phase)
            sweep_points = event.get("points", sweep_points)
            continue
        job = event.get("job")
        if not job:
            continue
        state = jobs.setdefault(
            job,
            {
                "phase": "-",
                "metrics": 0,
                "violations": 0,
                "mshr_hwm": 0,
                "first_wall": None,
                "last_wall": None,
                "seconds": None,
            },
        )
        wall = event.get("wall")
        if wall is not None:
            if state["first_wall"] is None:
                state["first_wall"] = wall
            state["last_wall"] = wall
        if kind == "job":
            state["phase"] = event.get("phase", state["phase"])
            if event.get("seconds") is not None:
                state["seconds"] = event["seconds"]
        elif kind == "metric":
            state["metrics"] += 1
            hwm = event.get("mshr_hwm")
            if isinstance(hwm, (int, float)) and hwm > state["mshr_hwm"]:
                state["mshr_hwm"] = hwm
        elif kind == "violation":
            state["violations"] += 1
    rows = []
    for job in sorted(jobs):
        state = jobs[job]
        window = state["seconds"]
        if window is None and state["first_wall"] is not None:
            window = state["last_wall"] - state["first_wall"]
        rate = (
            "%.0f" % (state["metrics"] / window)
            if window and state["metrics"]
            else "-"
        )
        rows.append(
            [
                job,
                state["phase"],
                state["metrics"],
                rate,
                state["mshr_hwm"],
                state["violations"],
            ]
        )
    sweep_row = (sweep or "-", sweep_phase, sweep_points)
    return sweep_row, rows


def cmd_top(args):
    from repro.obs.bus import read_stream

    def render():
        events = read_stream(args.stream)
        (sweep, phase, points), rows = _top_snapshot(
            events, sweep=args.sweep
        )
        lines = [
            "sweep %s: %s (%d point(s), %d event(s) in stream)"
            % (sweep, phase, points, len(events))
        ]
        if rows:
            lines.append(
                format_table(
                    ["job", "phase", "metrics", "ev/s", "mshr_hwm",
                     "violations"],
                    rows,
                )
            )
        done = phase == "finished" and all(
            row[1] in ("finished", "cached") for row in rows
        )
        return "\n".join(lines), done

    if args.once:
        text, _done = render()
        print(text)
        return 0
    import time as _time

    try:
        while True:
            text, done = render()
            # Clear-and-home keeps the view in place like top(1).
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if done:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCM GPU virtual-memory simulator (MICRO 2022 reproduction)",
    )
    _add_logging(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list workloads and design points")
    _add_logging(list_p)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument(
        "workload",
        nargs="?",
        choices=list(WORKLOAD_NAMES),
        help="workload to simulate (optional when --preset/--spec "
        "pins exactly one)",
    )
    run_p.add_argument(
        "--designs",
        nargs="+",
        default=argparse.SUPPRESS,
        choices=sorted(DESIGNS),
        help="design points to compare (default: %s)" % " ".join(MAIN_DESIGNS),
    )
    run_p.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="simulation seed (default: 0)",
    )
    run_p.add_argument(
        "--audit",
        action="store_true",
        default=argparse.SUPPRESS,
        help="attach the online invariant auditor to every simulation "
        "(bypasses the run cache); exit nonzero on any violation",
    )
    _add_spec_base(run_p)
    _add_scale(run_p, spec_backed=True)
    _add_geometry(run_p)
    _add_jobs(run_p)
    _add_logging(run_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig_p.add_argument("name", choices=sorted(ALL_FIGURES))
    fig_p.add_argument("--workloads", nargs="*", choices=list(WORKLOAD_NAMES))
    fig_p.add_argument("--out", help="also write the table to this file")
    fig_p.add_argument("--cache", help="JSON run-cache path")
    _add_scale(fig_p)
    _add_jobs(fig_p)
    _add_logging(fig_p)

    sweep_p = sub.add_parser("sweep", help="run a workload/design matrix to CSV")
    sweep_p.add_argument(
        "--workloads",
        nargs="*",
        choices=list(WORKLOAD_NAMES),
        help="workloads to sweep (default: all)",
    )
    sweep_p.add_argument(
        "--designs",
        nargs="+",
        default=argparse.SUPPRESS,
        choices=sorted(DESIGNS),
        help="design points to sweep (default: %s)" % " ".join(MAIN_DESIGNS),
    )
    sweep_p.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="simulation seed (default: 0)",
    )
    sweep_p.add_argument("--out", default="results.csv")
    sweep_p.add_argument("--cache", help="JSON run-cache path")
    _add_spec_base(sweep_p)
    sweep_p.add_argument(
        "--store",
        help="also record every run (counters + epoch metrics) into "
        "this sqlite telemetry store (see docs/observability.md)",
    )
    sweep_p.add_argument(
        "--stream",
        help="append live line-delimited-JSON job/metric events to "
        "this file (tail it with `repro top`)",
    )
    _add_scale(sweep_p, spec_backed=True)
    _add_geometry(sweep_p)
    _add_jobs(sweep_p)
    _add_logging(sweep_p)

    trace_p = sub.add_parser(
        "trace", help="run one instrumented simulation and dump traces"
    )
    trace_p.add_argument("workload", help="workload name (case-insensitive)")
    trace_p.add_argument(
        "design", choices=sorted(DESIGNS), help="VM design point"
    )
    trace_p.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace-event JSON output path (load in about:tracing "
        "or https://ui.perfetto.dev)",
    )
    trace_p.add_argument(
        "--jsonl", help="also write one span per line as JSONL"
    )
    trace_p.add_argument(
        "--metrics-csv", help="also write the epoch time-series CSV"
    )
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="trace every Nth translation (1 = all)",
    )
    trace_p.add_argument(
        "--max-spans",
        type=int,
        default=20000,
        help="stop recording new spans past this count",
    )
    trace_p.add_argument(
        "--metrics-interval",
        type=int,
        default=2000,
        help="metrics snapshot period, in observed translation events",
    )
    trace_p.add_argument(
        "--audit",
        action="store_true",
        help="also run the online invariant auditor; exit nonzero on "
        "any violation",
    )
    _add_scale(trace_p)
    _add_geometry(trace_p)
    _add_logging(trace_p)

    prof_p = sub.add_parser(
        "profile",
        help="run one simulation under the host self-profiler",
    )
    prof_p.add_argument("workload", help="workload name (case-insensitive)")
    prof_p.add_argument(
        "design", choices=sorted(DESIGNS), help="VM design point"
    )
    prof_p.add_argument(
        "--out",
        default="profile.speedscope.json",
        help="speedscope profile output path (load at "
        "https://www.speedscope.app); empty string to skip",
    )
    prof_p.add_argument(
        "--collapsed",
        help="also write collapsed-stack lines (flamegraph.pl input)",
    )
    prof_p.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the printed top-N table",
    )
    prof_p.add_argument("--seed", type=int, default=0)
    _add_scale(prof_p)
    _add_geometry(prof_p)
    _add_logging(prof_p)

    diff_p = sub.add_parser(
        "diff",
        help="compare two result manifests (regression gate)",
    )
    diff_p.add_argument(
        "baseline",
        help="baseline manifest (sweep CSV, run-cache JSON or sqlite "
        "store); with --store this is the candidate when no second "
        "path is given, or the golden fallback when one is",
    )
    diff_p.add_argument(
        "candidate",
        nargs="?",
        help="candidate manifest to gate against the baseline "
        "(optional with --store)",
    )
    diff_p.add_argument(
        "--store",
        help="gate against the newest matching runs stored in this "
        "sqlite telemetry store; falls back to the golden positional "
        "when the store holds no baseline yet",
    )
    diff_p.add_argument(
        "--scale",
        default="default",
        help="machine scale of the stored baseline runs (--store only)",
    )
    diff_p.add_argument(
        "--rel-tol",
        type=float,
        default=0.01,
        help="relative tolerance per counter (default 1%%)",
    )
    diff_p.add_argument(
        "--abs-tol",
        type=float,
        default=1e-9,
        help="absolute slack below which deltas are ignored",
    )
    diff_p.add_argument(
        "--counters",
        nargs="*",
        help="restrict the comparison to these counters "
        "(default: every shared numeric column)",
    )
    diff_p.add_argument(
        "--tail",
        action="store_true",
        help="gate per-stage latency p95/p99 from stored digests "
        "instead of counter means (uses --tail-rel-tol/--tail-abs-tol)",
    )
    diff_p.add_argument(
        "--tail-rel-tol",
        type=float,
        default=TAIL_REL_TOL,
        help="relative tolerance per tail quantile (default %d%%; "
        "looser than the counter gate — percentiles are "
        "bucket-quantized order statistics)" % round(TAIL_REL_TOL * 100),
    )
    diff_p.add_argument(
        "--tail-abs-tol",
        type=float,
        default=TAIL_ABS_TOL,
        help="absolute slack in cycles below which tail deltas are "
        "ignored (default %g)" % TAIL_ABS_TOL,
    )
    diff_p.add_argument(
        "--json",
        action="store_true",
        help="emit the structured report as JSON instead of a table",
    )
    diff_p.add_argument(
        "--top",
        type=int,
        default=20,
        help="violations shown in the table rendering",
    )
    _add_logging(diff_p)

    analyze_p = sub.add_parser(
        "analyze",
        help="latency anatomy: critical paths, queueing vs service, "
        "per-chiplet heatmap from traces or stored digests",
    )
    analyze_p.add_argument(
        "source",
        help="TraceProbe JSONL spans (repro trace --jsonl) or a sqlite "
        "telemetry store with latency digests (repro sweep --store)",
    )
    analyze_p.add_argument(
        "--run",
        type=int,
        help="store run id to analyze (default: newest run with digests)",
    )
    analyze_p.add_argument(
        "--top",
        type=int,
        default=5,
        help="slowest requests drilled down (spans source only)",
    )
    analyze_p.add_argument(
        "--no-heatmap",
        action="store_true",
        help="omit the per-chiplet x stage heatmap matrix",
    )
    analyze_p.add_argument(
        "--json",
        action="store_true",
        help="emit the structured report as JSON instead of text",
    )
    _add_logging(analyze_p)

    report_p = sub.add_parser(
        "report",
        help="query the sqlite telemetry store (runs, counters, trends)",
    )
    report_p.add_argument(
        "--store",
        default="results/runs.db",
        help="sqlite telemetry store path",
    )
    report_p.add_argument("--workload", choices=list(WORKLOAD_NAMES))
    report_p.add_argument("--design", choices=sorted(DESIGNS))
    report_p.add_argument("--chiplets", type=int)
    report_p.add_argument("--topology", choices=topology_names())
    report_p.add_argument(
        "--scale",
        choices=sorted(SCALES),
        help="restrict to one machine scale (default: all)",
    )
    report_p.add_argument("--sweep", help="restrict to one sweep id")
    report_p.add_argument(
        "--limit",
        type=int,
        default=50,
        help="newest N runs shown (ignored with --trend)",
    )
    report_p.add_argument(
        "--counters",
        nargs="*",
        help="counter columns shown per run (default: %s)"
        % " ".join(_REPORT_COUNTERS),
    )
    report_p.add_argument(
        "--trend",
        metavar="COUNTER",
        help="trajectory mode: one counter across stored git revisions, "
        "grouped by configuration, with deltas vs the previous revision",
    )
    report_p.add_argument(
        "--json", action="store_true", help="emit structured JSON"
    )
    report_p.add_argument(
        "--csv", action="store_true", help="emit CSV on stdout"
    )
    _add_logging(report_p)

    top_p = sub.add_parser(
        "top",
        help="live view of a sweep by tailing its --stream file",
    )
    top_p.add_argument(
        "stream", help="stream file a `repro sweep --stream` is appending to"
    )
    top_p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds",
    )
    top_p.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (no screen clearing)",
    )
    top_p.add_argument(
        "--sweep",
        help="pin one sweep id (default: the newest in the stream)",
    )
    _add_logging(top_p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    level_name = args.log_level
    if args.verbose >= 2:
        level_name = "debug"
    elif args.verbose == 1:
        level_name = "info"
    configure_logging(level_name)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "figure": cmd_figure,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "diff": cmd_diff,
        "analyze": cmd_analyze,
        "report": cmd_report,
        "top": cmd_top,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early.
        return 0


if __name__ == "__main__":
    sys.exit(main())
