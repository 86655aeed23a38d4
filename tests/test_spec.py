"""Tests for the declarative ExperimentSpec registry (repro.core.spec).

Covers the satellite guarantees of the spec layer:

* spec -> dict -> TOML -> spec round trips;
* cache-key stability across field/override ordering, and byte
  identity with the legacy hand-rolled key format;
* legacy-flag and ``--preset`` CLI invocations producing byte-identical
  run caches, identical RunStore rows, and a clean ``repro diff``
  self-compare;
* no orphan CLI flags: every geometry/design flag on the spec-backed
  subcommands is representable in :class:`ExperimentSpec`.
"""

import argparse
import json
import sqlite3
import sys

import pytest

from repro import cli
from repro.core.spec import (
    DESIGN_GROUPS,
    ENGINE_MODES,
    EXECUTION_FLAGS,
    SPEC_FLAG_FIELDS,
    EngineSpec,
    ExperimentSpec,
    GeometrySpec,
    ProbeSpec,
    SweepSpec,
    as_sweep,
    design_group,
    dumps_toml,
    get_from_module,
    load_spec,
    preset_names,
    resolve_preset,
    spec_from_dict,
)

HAS_TOMLLIB = sys.version_info >= (3, 11)


def rich_spec():
    return ExperimentSpec(
        workload="GUPS",
        design="mgvm",
        geometry=GeometrySpec(chiplets=8, topology="ring", link_latency=64.0),
        engine=EngineSpec(queue="heap", fuse="0"),
        probes=ProbeSpec(audit=True),
        scale="smoke",
        seed=3,
        mult=2,
        extra_overrides={"page_size": 65536},
    )


class TestGetFromModule:
    def test_lookup(self):
        ns = {"a": 1, "b": 2}
        assert get_from_module("a", ns, kind="thing") == 1

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown thing 'z'.*a, b"):
            get_from_module("z", {"b": 2, "a": 1}, kind="thing")


class TestRoundTrips:
    def test_dict_round_trip(self):
        spec = rich_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = rich_spec()
        data = json.loads(spec.canonical_json())
        assert ExperimentSpec.from_dict(data) == spec

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_toml_round_trip(self):
        from repro.core.spec import loads_toml

        spec = rich_spec()
        assert spec_from_dict(loads_toml(dumps_toml(spec))) == spec

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_sweep_toml_round_trip(self):
        from repro.core.spec import loads_toml

        sweep = resolve_preset("smoke")
        assert spec_from_dict(loads_toml(dumps_toml(sweep))) == sweep

    def test_load_spec_json_file(self, tmp_path):
        spec = rich_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.canonical_json())
        assert load_spec(str(path)) == spec

    def test_sweep_dict_round_trip(self):
        sweep = SweepSpec(
            workloads=("GUPS", "J1D"),
            designs=("private", "mgvm"),
            geometry=GeometrySpec(chiplets=4),
            scale="smoke",
            seed=1,
        )
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_spec_from_dict_disambiguates(self):
        assert isinstance(
            spec_from_dict({"workload": "GUPS", "design": "mgvm"}),
            ExperimentSpec,
        )
        assert isinstance(
            spec_from_dict({"workloads": ["GUPS"], "designs": ["mgvm"]}),
            SweepSpec,
        )

    def test_cache_key_round_trip(self):
        spec = rich_spec()
        parsed = ExperimentSpec.from_cache_key(spec.cache_key())
        assert parsed.cache_key() == spec.cache_key()
        assert parsed.alignment_key() == spec.alignment_key()


class TestCacheKey:
    def test_matches_legacy_format(self):
        spec = ExperimentSpec(workload="GUPS", design="private")
        legacy = json.dumps(["default", "GUPS", "private", (), 1, 0])
        assert spec.cache_key() == legacy

    def test_matches_legacy_format_with_overrides(self):
        spec = rich_spec()
        overrides = {
            "num_chiplets": 8,
            "topology": "ring",
            "link_latency": 64.0,
            "page_size": 65536,
        }
        legacy = json.dumps(
            ["smoke", "GUPS", "mgvm", tuple(sorted(overrides.items())), 2, 3]
        )
        assert spec.cache_key() == legacy

    def test_stable_across_override_ordering(self):
        a = ExperimentSpec(
            workload="GUPS", design="mgvm",
            extra_overrides=(("b", 2), ("a", 1)),
        )
        b = ExperimentSpec(
            workload="GUPS", design="mgvm",
            extra_overrides={"a": 1, "b": 2},
        )
        assert a.cache_key() == b.cache_key()
        assert a.canonical_json() == b.canonical_json()

    def test_geometry_vs_raw_overrides_identical(self):
        via_geometry = ExperimentSpec(
            workload="GUPS", design="mgvm",
            geometry=GeometrySpec(chiplets=4, topology="mesh"),
        )
        via_extras = ExperimentSpec.from_overrides(
            "GUPS", "mgvm",
            overrides={"num_chiplets": 4, "topology": "mesh"},
            scale="default", seed=0,
        )
        assert via_geometry.cache_key() == via_extras.cache_key()

    def test_engine_and_probes_not_in_cache_key(self):
        plain = ExperimentSpec(workload="GUPS", design="mgvm")
        instrumented = ExperimentSpec(
            workload="GUPS", design="mgvm",
            engine=EngineSpec(queue="heap"), probes=ProbeSpec(trace=True),
        )
        assert plain.cache_key() == instrumented.cache_key()

    def test_config_hash_matches_store(self):
        from repro.obs.store import config_hash

        spec = rich_spec()
        assert spec.config_hash() == config_hash(
            spec.scale, spec.workload, spec.design,
            dict(spec.overrides()), spec.mult, spec.seed,
        )


class TestRegistry:
    def test_design_groups_cover_cli_default(self):
        assert cli.MAIN_DESIGNS == list(design_group("main"))

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="design group"):
            design_group("nope")

    def test_presets_validate(self):
        for name in preset_names():
            resolved = resolve_preset(name)
            assert resolved.to_dict()  # serializable
            if isinstance(resolved, SweepSpec):
                assert resolved.points()

    def test_smoke_preset_is_full_main_matrix(self):
        smoke = resolve_preset("smoke")
        assert smoke.scale == "smoke"
        assert tuple(smoke.designs) == DESIGN_GROUPS["main"]

    def test_engine_modes_env_shape(self):
        for engine in ENGINE_MODES.values():
            env = engine.env()
            assert set(env) == {"REPRO_ENGINE_QUEUE", "REPRO_SIM_FUSE"}

    def test_as_sweep_promotes_point(self):
        sweep = as_sweep(rich_spec())
        assert sweep.points() == [rich_spec()]

    def test_validate_rejects_unknowns(self):
        with pytest.raises(ValueError, match="workload"):
            ExperimentSpec(workload="NOPE", design="mgvm").validate()
        with pytest.raises(ValueError, match="design"):
            ExperimentSpec(workload="GUPS", design="nope").validate()
        with pytest.raises(ValueError, match="topology"):
            ExperimentSpec(
                workload="GUPS", design="mgvm",
                geometry=GeometrySpec(topology="torus"),
            ).validate()

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="chiplets"):
            GeometrySpec(chiplets=1)


class TestEngineSpec:
    """Unknown engine values fail loudly instead of running the default."""

    def test_typo_queue_raises(self):
        with pytest.raises(ValueError, match="engine.queue"):
            EngineSpec(queue="hepa")

    def test_aggressive_fuse_raises(self):
        with pytest.raises(ValueError, match="engine.fuse"):
            EngineSpec(fuse="aggressive")

    def test_known_values_accepted(self):
        for queue in (None, "calendar", "heap"):
            for fuse in (None, "0", "1"):
                EngineSpec(queue=queue, fuse=fuse)

    def test_from_dict_checks_after_number_conversion(self):
        assert EngineSpec.from_dict({"fuse": 0}) == EngineSpec(fuse="0")
        with pytest.raises(ValueError, match="engine.fuse"):
            EngineSpec.from_dict({"fuse": 2})

    def test_spec_dict_with_shards_raises(self, tmp_path):
        data = {
            "workload": "GUPS", "design": "mgvm",
            "engine": {"shards": "auto"},
        }
        with pytest.raises(TypeError, match="shards"):
            spec_from_dict(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="shards"):
            load_spec(str(path))

    def test_unknown_queue_env_raises(self, monkeypatch):
        from repro.engine.event_queue import CalendarEventQueue, EventQueue

        monkeypatch.setenv("REPRO_ENGINE_QUEUE", "junk")
        with pytest.raises(ValueError, match="REPRO_ENGINE_QUEUE"):
            EventQueue()
        for value in ("", "calendar"):
            monkeypatch.setenv("REPRO_ENGINE_QUEUE", value)
            assert isinstance(EventQueue(), CalendarEventQueue)

    def test_unknown_fuse_env_raises(self, monkeypatch):
        from repro.arch.params import scaled_params
        from repro.core.config import design
        from repro.sim.simulator import simulate
        from repro.workloads.registry import build_kernel

        monkeypatch.setenv("REPRO_SIM_FUSE", "aggressive")
        with pytest.raises(ValueError, match="REPRO_SIM_FUSE"):
            simulate(
                build_kernel("GUPS", scale="smoke"), scaled_params("smoke"),
                design("mgvm"),
            )


SWEEP_FLAGS = [
    "--workloads", "GUPS", "--designs", "private", "mgvm",
    "--scale", "smoke", "--chiplets", "4", "--topology", "ring",
]


def run_sweep(tmp_path, tag, extra):
    cache = tmp_path / ("cache_%s.json" % tag)
    out = tmp_path / ("out_%s.csv" % tag)
    store = tmp_path / ("store_%s.db" % tag)
    argv = [
        "sweep", "--cache", str(cache), "--out", str(out),
        "--store", str(store),
    ] + extra
    assert cli.main(argv) in (None, 0)
    return cache, out, store


def store_rows(path):
    with sqlite3.connect(str(path)) as conn:
        return conn.execute(
            "SELECT workload, design, chiplets, topology, qualifier, "
            "scale, mult, seed, config_hash, status FROM runs "
            "ORDER BY workload, design"
        ).fetchall()


class TestCliEquivalence:
    """Legacy flags and --preset produce byte-identical artifacts."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("equiv")
        legacy = run_sweep(tmp_path, "legacy", SWEEP_FLAGS)
        preset = run_sweep(
            tmp_path, "preset", ["--preset", "smoke"] + SWEEP_FLAGS
        )
        return legacy, preset

    def test_caches_byte_identical(self, runs):
        (legacy_cache, _, _), (preset_cache, _, _) = runs
        assert legacy_cache.read_bytes() == preset_cache.read_bytes()

    def test_csv_byte_identical(self, runs):
        (_, legacy_out, _), (_, preset_out, _) = runs
        assert legacy_out.read_bytes() == preset_out.read_bytes()

    def test_store_rows_identical(self, runs):
        (_, _, legacy_store), (_, _, preset_store) = runs
        legacy_rows = store_rows(legacy_store)
        assert legacy_rows == store_rows(preset_store)
        assert legacy_rows  # the sweep actually recorded runs

    def test_diff_self_compare_clean(self, runs, capsys):
        (legacy_cache, _, _), (preset_cache, _, _) = runs
        rc = cli.main(["diff", str(legacy_cache), str(preset_cache)])
        assert rc in (None, 0), capsys.readouterr().out

    def test_spec_file_matches_flags(self, runs, tmp_path):
        (legacy_cache, _, _), _ = runs
        sweep = SweepSpec(
            workloads=("GUPS",),
            designs=("private", "mgvm"),
            geometry=GeometrySpec(chiplets=4, topology="ring"),
            scale="smoke",
        )
        path = tmp_path / "sweep.json"
        path.write_text(sweep.canonical_json())
        cache = tmp_path / "cache_spec.json"
        out = tmp_path / "out_spec.csv"
        assert cli.main(
            ["sweep", "--spec", str(path), "--cache", str(cache),
             "--out", str(out)]
        ) in (None, 0)
        assert cache.read_bytes() == legacy_cache.read_bytes()


class TestCliSpecSurface:
    """Every spec-backed CLI flag maps into ExperimentSpec (no orphans)."""

    @staticmethod
    def flag_dests(subcommand):
        parser = cli.build_parser()
        actions = parser._subparsers._group_actions[0]
        sub = actions.choices[subcommand]
        return {
            action.dest
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }

    @pytest.mark.parametrize("subcommand", ["run", "sweep"])
    def test_no_orphan_flags(self, subcommand):
        known = set(SPEC_FLAG_FIELDS) | EXECUTION_FLAGS
        orphans = self.flag_dests(subcommand) - known
        assert not orphans, (
            "CLI flags with no ExperimentSpec representation: %s"
            % sorted(orphans)
        )

    def test_preset_choices_come_from_registry(self):
        parser = cli.build_parser()
        sub = parser._subparsers._group_actions[0].choices["sweep"]
        (preset_action,) = [
            a for a in sub._actions if a.dest == "preset"
        ]
        assert list(preset_action.choices) == preset_names()

    def test_conflicting_base_flags_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(rich_spec().canonical_json())
        with pytest.raises(SystemExit):
            cli.main(
                ["sweep", "--preset", "smoke", "--spec", str(path),
                 "--out", str(tmp_path / "o.csv")]
            )
