"""Engine-equivalence matrix: default engine == heap oracle, exactly.

The simulator runs on one event engine and keeps one reference:

* the default — :class:`~repro.engine.event_queue.CalendarEventQueue`
  with the CU's provable fused fast path enabled;
* the oracle — :class:`~repro.engine.event_queue.HeapEventQueue` with
  fusion disabled (``REPRO_ENGINE_QUEUE=heap REPRO_SIM_FUSE=0``), the
  simplest possible schedule.

Both must produce **equal** :class:`RunStats` (dataclass ``==`` —
every counter and every float, no tolerance) on every configuration.
This script sweeps workloads x designs x geometries x contention — each
configuration enumerated as an :class:`repro.core.spec.ExperimentSpec`,
each engine mode a registry :data:`repro.core.spec.ENGINE_MODES` entry —
and verifies exactly that:

    6 workloads x 4 designs x 4 geometries x 2 contention = 192 configs,
    each compared across the 2 engine modes.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/equivalence_matrix.py          # full 192
    PYTHONPATH=src python scripts/equivalence_matrix.py --quick  # CI subset
    PYTHONPATH=src python scripts/equivalence_matrix.py --list   # show configs

``--quick`` covers every workload, every design, every geometry and
both contention settings at least once (a spanning subset, not a
product), keeping the CI cost to a dozen configurations.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.core.spec import (  # noqa: E402  (path bootstrap above)
    ENGINE_MODES,
    ExperimentSpec,
    GeometrySpec,
    design_group,
)

WORKLOADS = ("GUPS", "J2D", "SPMV", "SYRK", "PR", "RED")
DESIGNS = design_group("main")
#: (topology, chiplets) pairs: the paper's all-to-all, plus the routed
#: geometries whose cross-chiplet latencies differ per pair.
GEOMETRIES = (
    ("all-to-all", 4),
    ("ring", 8),
    ("mesh", 4),
    ("dual-package", 8),
)
CONTENTION = (False, True)


def make_spec(workload, design_name, topology, chiplets, contended):
    """One swept configuration as an engine-neutral ExperimentSpec."""
    return ExperimentSpec(
        workload=workload,
        design=design_name,
        geometry=GeometrySpec(chiplets=chiplets, topology=topology),
        scale="smoke",
        extra_overrides={"link_issue_interval": 1.0} if contended else {},
    )


def _contended(spec):
    return any(name == "link_issue_interval" for name, _ in spec.extra_overrides)


def label(spec):
    return "%s/%s/%s-%d%s" % (
        spec.workload,
        spec.design,
        spec.geometry.topology,
        spec.geometry.chiplets,
        "/contended" if _contended(spec) else "",
    )


def configs(quick=False):
    """The swept configurations as :class:`ExperimentSpec` objects."""
    out = [
        make_spec(workload, design_name, topology, chiplets, contended)
        for workload in WORKLOADS
        for design_name in DESIGNS
        for topology, chiplets in GEOMETRIES
        for contended in CONTENTION
    ]
    if not quick:
        return out
    # Spanning subset: stripe designs/geometries/contention across the
    # workload list so every axis value appears at least once.
    subset = []
    for index, workload in enumerate(WORKLOADS):
        design_name = DESIGNS[index % len(DESIGNS)]
        topology, chiplets = GEOMETRIES[index % len(GEOMETRIES)]
        subset.append(make_spec(workload, design_name, topology, chiplets,
                                CONTENTION[index % len(CONTENTION)]))
        # Second stripe with the axes rotated, contention flipped.
        design_name = DESIGNS[(index + 1) % len(DESIGNS)]
        topology, chiplets = GEOMETRIES[(index + 2) % len(GEOMETRIES)]
        subset.append(make_spec(workload, design_name, topology, chiplets,
                                CONTENTION[(index + 1) % len(CONTENTION)]))
    return subset


def _apply_env(overrides):
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def run_config(spec):
    """One spec under every engine mode; returns {mode: RunStats}."""
    from repro.sim.simulator import clear_trace_cache, simulate

    results = {}
    for mode, engine in ENGINE_MODES.items():
        # Unlike the runner (which leaves None fields to the ambient
        # environment), the matrix pins both escape hatches per mode —
        # a stray REPRO_* var must not leak across modes.
        _apply_env(replace(spec, engine=engine).engine.env())
        clear_trace_cache()
        results[mode] = simulate(
            spec.kernel(), spec.params(), spec.vm_design(), seed=spec.seed
        )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="spanning subset (~%d configs) instead of the full product"
        % len(configs(quick=True)),
    )
    parser.add_argument(
        "--list", action="store_true", help="print the configs and exit"
    )
    args = parser.parse_args(argv)

    selected = configs(quick=args.quick)
    if args.list:
        for spec in selected:
            print("%s %s %s-%d%s" % (
                spec.workload, spec.design, spec.geometry.topology,
                spec.geometry.chiplets,
                " contended" if _contended(spec) else "",
            ))
        return 0

    failures = []
    start = time.time()
    for index, spec in enumerate(selected):
        results = run_config(spec)
        reference = results["default"]
        bad = [
            mode for mode, stats in results.items()
            if stats != reference
        ]
        status = "ok" if not bad else "MISMATCH(%s)" % ",".join(bad)
        print("[%3d/%d] %-40s %s"
              % (index + 1, len(selected), label(spec), status))
        if bad:
            failures.append(label(spec))
            for mode in bad:
                for field in reference.__dataclass_fields__:
                    lhs = getattr(reference, field)
                    rhs = getattr(results[mode], field)
                    if lhs != rhs:
                        print("        %s.%s: default=%r %s=%r"
                              % (mode, field, lhs, mode, rhs))
    elapsed = time.time() - start
    print(
        "%d/%d configs equivalent across %d engine modes in %.1fs"
        % (len(selected) - len(failures), len(selected), len(ENGINE_MODES),
           elapsed)
    )
    if failures:
        print("FAILURES:")
        for label_ in failures:
            print("  " + label_)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
