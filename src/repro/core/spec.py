"""Declarative experiment specifications (the config registry).

One :class:`ExperimentSpec` describes everything that determines a
simulation's *results*: the workload, the VM design point, the machine
geometry, the scale, the trace multiplier and the seed — plus the
engine discipline and probe attachments, which select *how* the run
executes and what observes it (both are result-neutral by construction;
see docs/performance.md and docs/observability.md).  Every consumer of
a run configuration resolves through this module:

* ``repro run/sweep`` build specs from flags (``--preset``/``--spec``
  give the base, explicit flags override it — see
  docs/configuration.md for the precedence rules);
* :class:`~repro.experiments.runner.ExperimentRunner` memoizes runs by
  :meth:`ExperimentSpec.cache_key`;
* :mod:`repro.stats.diff` and :class:`repro.obs.store.RunStore` align
  manifest rows by :meth:`ExperimentSpec.alignment_key` and stamp
  :meth:`ExperimentSpec.config_hash`;
* the figure functions and bench guards consume the named design
  groups and presets below instead of hand-rolled tuples.

So a sweep request, a run-cache key, a diff-gate row and a (future)
server job are the same object — ROADMAP item 5, the prerequisite for
simulation-as-a-service and the hybrid-fidelity axis.

Name→spec resolution follows the GPflux ``get_from_module`` string
-dispatch idiom (SNIPPETS.md §2–3): presets are plain module-level
factories collected in a registry dict, resolved by name with the
available choices spelled out on error.

Serialization: :meth:`to_dict`/:meth:`from_dict` round-trip through
plain dicts (field order never matters), :func:`dumps_toml` emits a
TOML document any spec or sweep can be reloaded from with
:func:`load_spec` (JSON files work everywhere; parsing TOML needs the
stdlib ``tomllib``, Python 3.11+).  :meth:`canonical_json` is the
stable, sorted-key serialization of the spec.
"""

import json
import os
from dataclasses import dataclass, field, fields, replace

__all__ = [
    "GeometrySpec",
    "EngineSpec",
    "ProbeSpec",
    "ExperimentSpec",
    "SweepSpec",
    "DESIGN_GROUPS",
    "design_group",
    "ENGINE_MODES",
    "LARGE_PAGE_WORKLOADS",
    "REPRESENTATIVE_WORKLOADS",
    "SCALING_CHIPLETS",
    "SCALING_TOPOLOGIES",
    "PRESETS",
    "preset_names",
    "resolve_preset",
    "as_sweep",
    "load_spec",
    "loads_toml",
    "dumps_toml",
    "get_from_module",
    "SPEC_FLAG_FIELDS",
    "EXECUTION_FLAGS",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
]

DEFAULT_SCALE = "default"
DEFAULT_SEED = 0

#: GPUParams override names owned by :class:`GeometrySpec` (everything
#: else an override dict carries lands in ``extra_overrides``).
_GEOMETRY_OVERRIDES = {
    "chiplets": "num_chiplets",
    "topology": "topology",
    "link_latency": "link_latency",
    "inter_package_latency": "inter_package_latency",
}


def get_from_module(name, namespace, kind="object"):
    """Resolve ``name`` in a registry mapping (GPflux string dispatch).

    ``namespace`` is a mapping of public names; unknown names raise a
    :class:`ValueError` that spells out the available choices, so every
    string-dispatched lookup (presets, design groups, engine modes)
    fails the same self-describing way.
    """
    try:
        return namespace[name]
    except KeyError:
        raise ValueError(
            "unknown %s %r (choose from %s)"
            % (kind, name, ", ".join(sorted(namespace)))
        ) from None


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometrySpec:
    """Machine-geometry knobs; ``None`` means "the scale's default".

    Mirrors the CLI geometry flags one-for-one.  Only non-``None``
    fields appear in the GPUParams override dict — so a spec that sets
    nothing produces the same (empty) overrides, and therefore the same
    cache key, as a legacy invocation without geometry flags.
    """

    chiplets: int = None
    topology: str = None
    link_latency: float = None
    inter_package_latency: float = None

    def __post_init__(self):
        if self.chiplets is not None and self.chiplets < 2:
            raise ValueError("geometry.chiplets must be >= 2")
        if self.link_latency is not None and self.link_latency <= 0:
            raise ValueError("geometry.link_latency must be positive")

    def overrides(self):
        """The GPUParams overrides this geometry implies (possibly {})."""
        out = {}
        for name, param in _GEOMETRY_OVERRIDES.items():
            value = getattr(self, name)
            if value is not None:
                out[param] = value
        return out

    def to_dict(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**dict(data or {}))

    @classmethod
    def from_overrides(cls, overrides):
        """Split a GPUParams override dict; returns (geometry, leftovers)."""
        leftovers = dict(overrides or {})
        kwargs = {}
        for name, param in _GEOMETRY_OVERRIDES.items():
            if param in leftovers:
                kwargs[name] = leftovers.pop(param)
        return cls(**kwargs), leftovers


@dataclass(frozen=True)
class EngineSpec:
    """Event-engine discipline selection (result-neutral by contract).

    Maps one-for-one onto the engine escape hatches: ``queue`` →
    ``REPRO_ENGINE_QUEUE``, ``fuse`` → ``REPRO_SIM_FUSE``.  ``None``
    inherits the ambient environment (the default engine).  Engine
    choice never enters :meth:`ExperimentSpec.cache_key`: both
    disciplines are bit-identical (scripts/equivalence_matrix.py is the
    standing proof).
    """

    queue: str = None  # None (ambient) | "calendar" | "heap"
    fuse: str = None  # None (ambient) | "0" | "1"

    #: ``(field, environment variable, accepted values besides None)``.
    _FIELDS = (
        ("queue", "REPRO_ENGINE_QUEUE", ("calendar", "heap")),
        ("fuse", "REPRO_SIM_FUSE", ("0", "1")),
    )

    def __post_init__(self):
        for name, _var, choices in self._FIELDS:
            value = getattr(self, name)
            if value is not None and value not in choices:
                raise ValueError(
                    "engine.%s must be one of %s (got %r)"
                    % (name, ", ".join(map(repr, choices)), value)
                )

    def env(self):
        """Environment overrides: ``{var: value-or-None}`` (None=unset)."""
        return {
            var: None if getattr(self, name) is None else str(getattr(self, name))
            for name, var, _choices in self._FIELDS
        }

    def is_default(self):
        return self == EngineSpec()

    def to_dict(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data or {})
        # TOML/JSON may carry the fuse mode as a number.
        if data.get("fuse") is not None:
            data["fuse"] = str(data["fuse"])
        return cls(**data)


@dataclass(frozen=True)
class ProbeSpec:
    """Which observers ride along (all result-neutral; see repro.obs)."""

    trace: bool = False
    audit: bool = False
    metrics: bool = False

    def any(self):
        return self.trace or self.audit or self.metrics

    def to_dict(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name)
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**dict(data or {}))


def _sorted_pairs(mapping_or_pairs):
    """Normalize extra overrides to a sorted tuple of (name, value)."""
    if isinstance(mapping_or_pairs, dict):
        items = mapping_or_pairs.items()
    else:
        items = [(str(k), v) for k, v in (mapping_or_pairs or ())]
    return tuple(sorted((str(name), value) for name, value in items))


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation point: the whole configuration as one object.

    ``extra_overrides`` holds the non-geometry GPUParams overrides
    (``page_size``, ``l2_tlb_entries``, ``link_issue_interval``, ...)
    as a sorted tuple of ``(name, value)`` pairs so equal configurations
    hash and compare equal regardless of construction order.
    """

    workload: str
    design: str
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    probes: ProbeSpec = field(default_factory=ProbeSpec)
    scale: str = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    mult: int = 1
    extra_overrides: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "extra_overrides", _sorted_pairs(self.extra_overrides)
        )
        if self.mult < 1:
            raise ValueError("mult must be >= 1")

    # -- identity ----------------------------------------------------------

    def overrides(self):
        """The merged GPUParams override dict (geometry + extras)."""
        out = self.geometry.overrides()
        out.update(dict(self.extra_overrides))
        return out

    def cache_key(self):
        """The run-cache key: byte-identical to the legacy runner key.

        Exactly the JSON string :class:`ExperimentRunner` has always
        used (``[scale, workload, design, sorted_override_items, mult,
        seed]``), so spec-driven sweeps reuse — and regenerate —
        byte-identical caches versus legacy flag invocations.  Engine
        and probe selection deliberately do not participate: neither
        may change results.
        """
        items = tuple(sorted(self.overrides().items()))
        return json.dumps(
            [self.scale, self.workload, self.design, items, self.mult,
             self.seed]
        )

    @classmethod
    def from_cache_key(cls, raw_key):
        """Parse a legacy run-cache key back into a spec.

        The inverse of :meth:`cache_key`; used by the diff/store layers
        so every manifest format derives its alignment key from the
        same object.  Raises :class:`ValueError` on unparseable keys.
        """
        try:
            scale, workload, design, items, mult, seed = json.loads(raw_key)
            overrides = dict(items)
        except (ValueError, TypeError):
            raise ValueError("unparseable run-cache key %r" % (raw_key,))
        return cls.from_overrides(
            workload, design, overrides=overrides,
            scale=scale, seed=seed, mult=mult,
        )

    @classmethod
    def from_overrides(
        cls, workload, design, overrides=None, scale=DEFAULT_SCALE,
        seed=DEFAULT_SEED, mult=1, engine=None, probes=None,
    ):
        """Build a spec from the legacy (overrides-dict) calling style."""
        geometry, leftovers = GeometrySpec.from_overrides(overrides)
        return cls(
            workload=workload,
            design=design,
            geometry=geometry,
            engine=engine or EngineSpec(),
            probes=probes or ProbeSpec(),
            scale=DEFAULT_SCALE if scale is None else scale,
            seed=seed,
            mult=mult,
            extra_overrides=leftovers,
        )

    def config_hash(self):
        """Short stable hash of the result-determining configuration.

        Hashes exactly the :meth:`cache_key` payload, so it matches the
        hashes historic :func:`repro.obs.store.config_hash` calls wrote.
        """
        import hashlib

        return hashlib.sha1(self.cache_key().encode()).hexdigest()[:16]

    def alignment_key(self, scale_in_band=True):
        """The ``repro diff`` manifest row key for this configuration.

        ``(workload, design, chiplets, topology, qualifier)`` — the
        geometry split out, everything else non-default folded into the
        human-readable qualifier.  ``scale_in_band=False`` leaves the
        scale out of the qualifier (the run store keeps it as a column).
        """
        from repro.stats.diff import split_overrides

        chiplets, topology, qualifier = split_overrides(
            self.overrides(),
            mult=self.mult,
            seed=self.seed,
            scale=self.scale if scale_in_band else None,
        )
        return (self.workload, self.design, chiplets, topology, qualifier)

    # -- realization -------------------------------------------------------

    def params(self):
        """The :class:`GPUParams` machine this spec describes."""
        from repro.arch.params import scaled_params

        return scaled_params(self.scale, **self.overrides())

    def kernel(self):
        """Build the spec's workload kernel."""
        from repro.workloads.registry import build_kernel

        return build_kernel(self.workload, scale=self.scale, mult=self.mult)

    def vm_design(self):
        """The named :class:`VMDesign` point."""
        from repro.core.config import design as design_lookup

        return design_lookup(self.design)

    def validate(self):
        """Check every name against its registry; returns self.

        Structural constraints (chiplet floor, positive latency) are
        enforced at construction; this adds the registry lookups the
        CLI wants early, self-describing errors for.
        """
        from repro.arch.params import SCALES
        from repro.arch.topology import TOPOLOGIES
        from repro.core.config import DESIGNS
        from repro.workloads.registry import WORKLOAD_TABLE

        get_from_module(self.workload, WORKLOAD_TABLE, kind="workload")
        get_from_module(self.design, DESIGNS, kind="design")
        get_from_module(self.scale, SCALES, kind="scale")
        if self.geometry.topology is not None:
            get_from_module(self.geometry.topology, TOPOLOGIES, kind="topology")
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """Plain-dict form (``None``/default sub-tables omitted)."""
        out = {
            "workload": self.workload,
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "mult": self.mult,
        }
        for name in ("geometry", "engine", "probes"):
            table = getattr(self, name).to_dict()
            if table:
                out[name] = table
        if self.extra_overrides:
            out["overrides"] = dict(self.extra_overrides)
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        return cls(
            workload=data["workload"],
            design=data["design"],
            geometry=GeometrySpec.from_dict(data.get("geometry")),
            engine=EngineSpec.from_dict(data.get("engine")),
            probes=ProbeSpec.from_dict(data.get("probes")),
            scale=data.get("scale", DEFAULT_SCALE),
            seed=data.get("seed", DEFAULT_SEED),
            mult=data.get("mult", 1),
            extra_overrides=data.get("overrides") or (),
        )

    def canonical_json(self):
        """Stable serialization: sorted keys, no whitespace variance."""
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class SweepSpec:
    """A matrix of :class:`ExperimentSpec` points sharing one machine.

    ``workloads=()`` means "every registered workload" (resolved at
    :meth:`points` time so the registry stays the single source of
    truth).  All non-axis fields (geometry, engine, probes, scale,
    seed, mult, overrides) are shared by every point.
    """

    workloads: tuple = ()
    designs: tuple = ()
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    probes: ProbeSpec = field(default_factory=ProbeSpec)
    scale: str = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    mult: int = 1
    extra_overrides: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        designs = tuple(self.designs) or design_group("main")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(
            self, "extra_overrides", _sorted_pairs(self.extra_overrides)
        )

    def resolved_workloads(self):
        if self.workloads:
            return self.workloads
        from repro.workloads.registry import WORKLOAD_NAMES

        return tuple(WORKLOAD_NAMES)

    def overrides(self):
        out = self.geometry.overrides()
        out.update(dict(self.extra_overrides))
        return out

    def point(self, workload, design):
        """The :class:`ExperimentSpec` of one (workload, design) cell."""
        return ExperimentSpec(
            workload=workload,
            design=design,
            geometry=self.geometry,
            engine=self.engine,
            probes=self.probes,
            scale=self.scale,
            seed=self.seed,
            mult=self.mult,
            extra_overrides=self.extra_overrides,
        )

    def points(self):
        """Every point of the matrix, workload-major (the sweep order)."""
        return [
            self.point(workload, design)
            for workload in self.resolved_workloads()
            for design in self.designs
        ]

    def validate(self):
        for spec in self.points():
            spec.validate()
        return self

    def with_updates(self, **updates):
        """A copy with fields replaced (the CLI flag-override hook)."""
        return replace(self, **updates)

    def to_dict(self):
        out = {}
        if self.name:
            out["name"] = self.name
        if self.workloads:
            out["workloads"] = list(self.workloads)
        out["designs"] = list(self.designs)
        out["scale"] = self.scale
        out["seed"] = self.seed
        out["mult"] = self.mult
        for key in ("geometry", "engine", "probes"):
            table = getattr(self, key).to_dict()
            if table:
                out[key] = table
        if self.extra_overrides:
            out["overrides"] = dict(self.extra_overrides)
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        return cls(
            workloads=tuple(data.get("workloads") or ()),
            designs=tuple(data.get("designs") or ()),
            geometry=GeometrySpec.from_dict(data.get("geometry")),
            engine=EngineSpec.from_dict(data.get("engine")),
            probes=ProbeSpec.from_dict(data.get("probes")),
            scale=data.get("scale", DEFAULT_SCALE),
            seed=data.get("seed", DEFAULT_SEED),
            mult=data.get("mult", 1),
            extra_overrides=data.get("overrides") or (),
            name=data.get("name", ""),
        )

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def as_sweep(spec):
    """Promote an :class:`ExperimentSpec` to a one-cell :class:`SweepSpec`."""
    if isinstance(spec, SweepSpec):
        return spec
    return SweepSpec(
        workloads=(spec.workload,),
        designs=(spec.design,),
        geometry=spec.geometry,
        engine=spec.engine,
        probes=spec.probes,
        scale=spec.scale,
        seed=spec.seed,
        mult=spec.mult,
        extra_overrides=spec.extra_overrides,
    )


# ---------------------------------------------------------------------------
# Registry tables: design groups, engine modes, workload subsets
# ---------------------------------------------------------------------------

#: The named design groups every consumer (CLI defaults, figures, bench
#: guards, presets) shares — previously duplicated as ``MAIN_DESIGNS``
#: in cli.py and ``SCALING_DESIGNS`` in figures.py.
DESIGN_GROUPS = {
    # The paper's headline comparison (Figures 7/12/13, CLI default).
    "main": ("private", "shared", "mgvm-nobalance", "mgvm"),
    # Figures 3/4/5: the Section III motivation pair.
    "baseline": ("private", "shared"),
    # Table III / Figures 8-11 and the chiplet-scaling extension.
    "scaling": ("private", "shared", "mgvm"),
    # Figure 14: the naive round-robin baseline.
    "rr": ("private-rr", "shared-rr", "mgvm-rr"),
    # Figure 15: page-table replication.
    "ptr": ("private-ptr", "shared-ptr", "mgvm"),
    # Section VII extension: UVM demand paging.
    "uvm": ("first-touch", "shared-uvm", "mgvm-uvm"),
}


def design_group(name):
    """The named design tuple (see :data:`DESIGN_GROUPS`)."""
    return get_from_module(name, DESIGN_GROUPS, kind="design group")


#: Engine modes of scripts/equivalence_matrix.py, as EngineSpecs.
ENGINE_MODES = {
    "default": EngineSpec(),
    "heap-oracle": EngineSpec(queue="heap", fuse="0"),
}

#: The subset the paper evaluates with 64 KB pages (Figure 11).
LARGE_PAGE_WORKLOADS = ("J2D", "SYR2", "PR", "S2D", "SYRK", "MT")

#: One workload per regime (streaming NL, RCL, random thrash, graph) —
#: the quick-but-representative subset the benchmark suite sweeps.
REPRESENTATIVE_WORKLOADS = ("J1D", "MT", "GUPS", "SPMV", "MIS", "SYRK")

#: The chiplet-scaling extension's sweep axes (``figure scaling``).
SCALING_CHIPLETS = (2, 4, 8)
SCALING_TOPOLOGIES = ("all-to-all", "ring", "mesh")


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

PRESETS = {}


def _preset(name):
    """Register a zero-arg preset factory under ``name``."""

    def register(factory):
        PRESETS[name] = factory
        return factory

    return register


@_preset("smoke")
def _smoke():
    """Every workload × the main designs at smoke scale (the CI sweep)."""
    return SweepSpec(name="smoke", scale="smoke")


@_preset("paper-main")
def _paper_main():
    """The paper's headline matrix (Figure 7 inputs) at default scale."""
    return SweepSpec(name="paper-main", designs=design_group("main"))


@_preset("paper-fig4")
def _paper_fig4():
    """Figure 3/4/5 inputs: private vs shared over every workload."""
    return SweepSpec(name="paper-fig4", designs=design_group("baseline"))


@_preset("paper-fig11")
def _paper_fig11():
    """Figure 11: 64 KB pages on the large-page subset, footprints ×4."""
    return SweepSpec(
        name="paper-fig11",
        workloads=LARGE_PAGE_WORKLOADS,
        designs=design_group("scaling"),
        mult=4,
        extra_overrides={"page_size": 64 * 1024},
    )


def _scaling_preset(name, chiplets, topology):
    return SweepSpec(
        name=name,
        designs=design_group("scaling"),
        geometry=GeometrySpec(chiplets=chiplets, topology=topology),
    )


@_preset("scaling-a2a4")
def _scaling_a2a4():
    """The paper's 4-chiplet all-to-all package, scaling designs."""
    return _scaling_preset("scaling-a2a4", 4, "all-to-all")


@_preset("scaling-ring8")
def _scaling_ring8():
    """8 chiplets on a ring — the multi-hop scaling point CI smokes."""
    return _scaling_preset("scaling-ring8", 8, "ring")


@_preset("scaling-mesh4")
def _scaling_mesh4():
    """4 chiplets on a 2-D mesh."""
    return _scaling_preset("scaling-mesh4", 4, "mesh")


@_preset("dual-package8")
def _dual_package8():
    """Two 4-chiplet packages over the slow inter-package link."""
    return _scaling_preset("dual-package8", 8, "dual-package")


@_preset("bench-scaling")
def _bench_scaling():
    """The scaling-claim guard's base: representative subset at smoke."""
    return SweepSpec(
        name="bench-scaling",
        workloads=REPRESENTATIVE_WORKLOADS,
        designs=design_group("scaling"),
        scale="smoke",
    )


@_preset("smoke-probe")
def _smoke_probe():
    """The overhead guard's single point: GUPS under full MGvm, smoke."""
    return ExperimentSpec(workload="GUPS", design="mgvm", scale="smoke")


def preset_names():
    return sorted(PRESETS)


def resolve_preset(name):
    """Resolve a preset name to a (validated) spec object."""
    factory = get_from_module(name, PRESETS, kind="preset")
    return factory().validate()


# ---------------------------------------------------------------------------
# TOML/JSON (de)serialization of spec files
# ---------------------------------------------------------------------------


def _toml_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings == JSON strings
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(_toml_scalar(item) for item in value)
    raise TypeError("cannot serialize %r to TOML" % (value,))


def dumps_toml(spec):
    """A spec/sweep as a TOML document :func:`load_spec` reads back."""
    data = spec.to_dict()
    lines = []
    tables = {}
    for key, value in data.items():
        if isinstance(value, dict):
            tables[key] = value
        else:
            lines.append("%s = %s" % (key, _toml_scalar(value)))
    for key in sorted(tables):
        lines.append("")
        lines.append("[%s]" % key)
        for name, value in sorted(tables[key].items()):
            lines.append("%s = %s" % (name, _toml_scalar(value)))
    return "\n".join(lines) + "\n"


def loads_toml(text):
    """Parse TOML text into a dict (stdlib ``tomllib``, Python 3.11+)."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        raise RuntimeError(
            "TOML spec files need Python 3.11+ (stdlib tomllib); "
            "use a JSON spec file instead"
        )
    return tomllib.loads(text)


def spec_from_dict(data):
    """A dict (parsed spec file) as an Experiment- or SweepSpec.

    A table carrying a singular ``workload``/``design`` is one point;
    anything else (``workloads``/``designs`` arrays, or nothing — run
    everything) is a sweep.
    """
    if "workload" in data or "design" in data:
        if "workloads" in data or "designs" in data:
            raise ValueError(
                "spec mixes singular workload/design with plural "
                "workloads/designs; pick one form"
            )
        return ExperimentSpec.from_dict(data)
    return SweepSpec.from_dict(data)


def load_spec(path):
    """Load a spec file (``.toml`` or JSON) and validate it."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".toml"):
        data = loads_toml(text)
    else:
        try:
            data = json.loads(text)
        except ValueError:
            # Not JSON: give TOML a chance for suffix-less files.
            data = loads_toml(text)
    if not isinstance(data, dict):
        raise ValueError("%s: expected a spec table/object" % (path,))
    try:
        return spec_from_dict(data).validate()
    except (TypeError, ValueError) as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def resolve_spec(name_or_path):
    """A preset name, or a path to a spec file, to a spec object."""
    if name_or_path in PRESETS:
        return resolve_preset(name_or_path)
    if os.path.exists(name_or_path):
        return load_spec(name_or_path)
    raise ValueError(
        "%r is neither a preset (%s) nor a spec file"
        % (name_or_path, ", ".join(preset_names()))
    )


# ---------------------------------------------------------------------------
# CLI flag ↔ spec-field contract
# ---------------------------------------------------------------------------

#: Every CLI flag that configures a simulation, mapped to the spec
#: field it sets.  tests/test_spec.py asserts the run/sweep subparsers
#: expose no configuration flag outside this table — a new geometry or
#: design axis must land here (i.e. in ExperimentSpec) to be accepted.
SPEC_FLAG_FIELDS = {
    "workload": "workload",
    "workloads": "workloads",
    "designs": "designs",
    "design": "design",
    "scale": "scale",
    "seed": "seed",
    "chiplets": "geometry.chiplets",
    "topology": "geometry.topology",
    "link_latency": "geometry.link_latency",
    "inter_package_latency": "geometry.inter_package_latency",
    "audit": "probes.audit",
    "preset": "(spec base)",
    "spec": "(spec base)",
}

#: CLI flags that select *how/where* a command executes or writes — not
#: part of the experiment configuration, so not spec fields.
EXECUTION_FLAGS = {
    "jobs",
    "out",
    "cache",
    "store",
    "stream",
    "log_level",
    "verbose",
    "command",
}
