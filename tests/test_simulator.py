"""End-to-end simulator tests at smoke scale (conservation + invariants)."""

import numpy as np
import pytest

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.driver.kernel_launch import launch_kernel
from repro.sim.simulator import Simulator, simulate
from repro.vm.address import MB
from repro.workloads.base import AllocationSpec, KernelSpec
from repro.workloads.registry import WORKLOAD_NAMES, build_kernel


class TestConservation:
    """Accounting identities that must hold on every run."""

    @pytest.mark.parametrize("design_name", ["private", "shared", "mgvm"])
    def test_all_accesses_complete(self, run_smoke, design_name):
        stats = run_smoke("GUPS", design_name)
        kernel = build_kernel("GUPS", scale="smoke")
        # Every generated access must have completed.
        assert stats.mem_accesses > 0
        assert stats.instructions == stats.mem_accesses * (kernel.compute_gap + 1)

    def test_l1_accesses_partition(self, run_smoke):
        stats = run_smoke("GUPS", "private")
        assert stats.l1_tlb_hits + stats.l1_tlb_misses == stats.mem_accesses

    def test_l2_requests_at_most_l1_misses(self, run_smoke):
        # Per-CU coalescing can only shrink the request count; re-routing
        # never creates new requests.
        stats = run_smoke("GUPS", "shared")
        assert stats.l2_requests <= stats.l1_tlb_misses

    def test_walks_bounded_by_miss_requests(self, run_smoke):
        stats = run_smoke("GUPS", "shared")
        assert 0 < stats.walks <= stats.l2_miss_requests

    def test_cycles_positive_and_finite(self, run_smoke):
        stats = run_smoke("GUPS", "mgvm")
        assert 0 < stats.cycles < float("inf")

    def test_breakdown_accounts_only_for_misses(self, run_smoke):
        stats = run_smoke("GUPS", "shared")
        assert stats.total_miss_cycles > 0
        # Average per-request latency implied by the buckets is sane.
        per_request = stats.total_miss_cycles / max(stats.l2_requests, 1)
        assert per_request < 100_000

    def test_pw_access_counts_match_walk_counts(self, run_smoke):
        stats = run_smoke("GUPS", "private")
        # Each walk performs 1..4 PTE accesses.
        assert stats.walks <= stats.pw_accesses <= 4 * stats.walks


class TestDesignInvariants:
    def test_private_never_routes_remote(self, run_smoke):
        stats = run_smoke("GUPS", "private")
        assert stats.routed_remote == 0
        assert stats.l2_hits_remote == 0
        assert stats.cycles_remote_hit == 0.0

    def test_shared_routes_mostly_remote(self, run_smoke):
        stats = run_smoke("GUPS", "shared")
        # Page-interleave over 4 chiplets: ~3/4 of requests go remote.
        fraction = stats.routed_remote / (stats.routed_remote + stats.routed_local)
        assert 0.6 < fraction < 0.9

    def test_replicated_page_table_walks_all_local(self, run_smoke):
        for design_name in ("private-ptr", "shared-ptr"):
            stats = run_smoke("GUPS", design_name)
            assert stats.pw_accesses_remote == 0
            assert stats.pw_accesses_local > 0

    def test_mgvm_pte_placement_kills_remote_walks(self, run_smoke):
        mgvm = run_smoke("GUPS", "mgvm")
        shared = run_smoke("GUPS", "shared")
        assert mgvm.pw_remote_fraction < 0.5 * shared.pw_remote_fraction

    def test_naive_pte_placement_worse_than_follow_data(self, run_smoke):
        naive = run_smoke("J1D", "private-naive-pte")
        baseline = run_smoke("J1D", "private")
        assert naive.pw_remote_fraction > baseline.pw_remote_fraction

    def test_nl_workload_private_equals_mgvm_locality(self, run_smoke):
        # For a well-partitioned NL kernel, MGvm keeps lookups local just
        # like private.
        stats = run_smoke("J1D", "mgvm")
        fraction = stats.routed_local / (stats.routed_remote + stats.routed_local)
        assert fraction > 0.9

    def test_shared_lower_or_equal_mpki_than_private(self, run_smoke):
        # Aggregate capacity can only help MPKI for a thrashing workload.
        private = run_smoke("GUPS", "private")
        shared = run_smoke("GUPS", "shared")
        assert shared.mpki <= private.mpki

    def test_remote_caching_reduces_remote_hits_vs_shared(self, run_smoke):
        shared = run_smoke("GUPS", "shared")
        caching = run_smoke("GUPS", "remote-caching")
        shared_remote = shared.l2_hits_remote / max(shared.l2_requests, 1)
        caching_remote = caching.l2_hits_remote / max(caching.l2_requests, 1)
        assert caching_remote <= shared_remote

    def test_balance_disabled_in_nobalance(self, run_smoke):
        stats = run_smoke("SYRK", "mgvm-nobalance")
        assert stats.balance_switches == []


class TestDeterminism:
    def test_same_seed_same_result(self):
        params = scaled_params("smoke")
        kernel = build_kernel("MIS", scale="smoke")
        a = simulate(kernel, params, design("mgvm"), seed=3)
        b = simulate(kernel, params, design("mgvm"), seed=3)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.walks == b.walks

    def test_different_seeds_differ(self):
        params = scaled_params("smoke")
        kernel = build_kernel("GUPS", scale="smoke")
        a = simulate(kernel, params, design("mgvm"), seed=1)
        b = simulate(kernel, params, design("mgvm"), seed=2)
        assert a.cycles != b.cycles


class TestFusionCap:
    """The adaptive fusion cap changes event granularity, never results.

    Each fused segment is independently stepped-equivalent, so capping
    runs early only splits them differently.
    """

    def test_fusion_cap_does_not_change_results(self, monkeypatch):
        # A multi-hop paper workload.  Few of its accesses fuse at smoke
        # scale; the hot-loop test below drives runs into the cap.
        import repro.sim.cu as cu_mod

        def run():
            params = scaled_params("smoke", num_chiplets=8, topology="ring")
            kernel = build_kernel("J2D", scale="smoke")
            return simulate(kernel, params, design("mgvm"), seed=0)

        baseline = run()
        monkeypatch.setattr(cu_mod, "_FUSE_CAP_MAX", 16)
        assert run() == baseline

    def test_capped_runs_split_into_more_events(self, monkeypatch):
        import repro.sim.cu as cu_mod

        def trace(cta, ctx):
            # Four lines of one page, revisited: after the first pass
            # every access of the lone CTA hits the L1 TLB and L1 cache,
            # so provable fused runs grow until the cap stops them.
            lines = ctx.base("a") + np.arange(4, dtype=np.int64) * 64
            return np.tile(lines, 500)

        def run():
            params = scaled_params("smoke")
            kernel = KernelSpec(
                name="hot-loop",
                lasp_class="NL",
                allocations=[AllocationSpec("a", 1 * MB)],
                num_ctas=1,
                trace=trace,
            )
            sim = Simulator(
                launch_kernel(kernel, params, design("mgvm")), params
            )
            return sim.run(), sim.engine.events_executed

        baseline, baseline_events = run()
        monkeypatch.setattr(cu_mod, "_FUSE_CAP_MAX", 16)
        stats, events = run()
        assert stats == baseline
        assert events > baseline_events


class TestTraceCache:
    def test_rebuilt_registry_kernels_share_traces(self):
        from repro.sim.simulator import _TRACE_CACHE, clear_trace_cache

        clear_trace_cache()
        params = scaled_params("smoke")
        for design_name in ("private", "shared", "mgvm"):
            kernel = build_kernel("GUPS", scale="smoke")
            simulate(kernel, params, design(design_name), seed=0)
        assert len(_TRACE_CACHE) == 1

    def test_distinct_closures_with_same_name_do_not_collide(self):
        """Two ad-hoc kernels sharing name/qualname but capturing
        different state must not share cached traces."""
        import numpy as np

        from repro.sim.simulator import clear_trace_cache
        from repro.workloads.base import AllocationSpec, KernelSpec

        clear_trace_cache()
        params = scaled_params("smoke")

        def make(stride):
            def trace(cta_id, ctx):
                return ctx.base("a") + np.arange(64, dtype=np.int64) * stride

            return KernelSpec(
                name="adhoc",
                lasp_class="NL",
                allocations=[AllocationSpec("a", 1 << 20)],
                num_ctas=4,
                trace=trace,
            )

        a = simulate(make(64), params, design("private"), seed=0)
        b = simulate(make(4096), params, design("private"), seed=0)
        # Different strides touch different page counts; identical stats
        # would mean the second run replayed the first kernel's traces.
        assert a.walks != b.walks

    def test_seed_is_part_of_the_key(self):
        from repro.sim.simulator import clear_trace_cache

        clear_trace_cache()
        params = scaled_params("smoke")
        a = simulate(build_kernel("GUPS", scale="smoke"), params, design("mgvm"), seed=1)
        b = simulate(build_kernel("GUPS", scale="smoke"), params, design("mgvm"), seed=2)
        assert a.cycles != b.cycles

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_every_registry_workload_is_cacheable(self, workload):
        """One key per workload, shared by the four main designs: a
        closure capturing an unfreezable value (SYRK's and SYR2's list of
        matrices once did) would regenerate its traces for every design."""
        from repro.sim.simulator import _trace_cache_key

        params = scaled_params("smoke")
        keys = {
            _trace_cache_key(
                launch_kernel(
                    build_kernel(workload, scale="smoke"),
                    params,
                    design(design_name),
                ),
                0,
            )
            for design_name in ("private", "shared", "mgvm-nobalance", "mgvm")
        }
        assert len(keys) == 1 and None not in keys

    def test_lists_and_tuples_freeze_apart(self):
        from repro.sim.simulator import _freeze

        assert _freeze([1, "a"], 0) == _freeze([1, "a"], 0)
        assert _freeze([1], 0) != _freeze((1,), 0)
        assert _freeze([[1]], 0) != _freeze([(1,)], 0)
        hash(_freeze([1, (2, [3])], 0))

    def test_cache_can_be_disabled(self, monkeypatch):
        from repro.sim import simulator as sim_mod

        sim_mod.clear_trace_cache()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        params = scaled_params("smoke")
        simulate(build_kernel("GUPS", scale="smoke"), params, design("private"), seed=0)
        assert len(sim_mod._TRACE_CACHE) == 0


class TestAllWorkloadsAllMainDesigns:
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    @pytest.mark.parametrize("design_name", ["private", "shared", "mgvm"])
    def test_runs_to_completion(self, run_smoke, workload, design_name):
        stats = run_smoke(workload, design_name)
        assert stats.instructions > 0
        assert stats.cycles > 0
        assert stats.walks > 0


class TestParameterEffects:
    def test_slower_link_hurts_shared(self, run_smoke):
        base = run_smoke("GUPS", "shared")
        slow = run_smoke("GUPS", "shared", link_latency=128.0)
        assert slow.cycles > base.cycles

    def test_larger_tlb_reduces_mpki(self, run_smoke):
        base = run_smoke("GUPS", "private")
        big = run_smoke("GUPS", "private", l2_tlb_entries=1024)
        assert big.mpki < base.mpki

    def test_large_pages_reduce_walks(self, run_smoke):
        base = run_smoke("GUPS", "mgvm")
        large = run_smoke("GUPS", "mgvm", page_size=64 * 1024)
        assert large.walks < base.walks

    def test_simulator_exposes_launch(self):
        params = scaled_params("smoke")
        kernel = build_kernel("J1D", scale="smoke")
        launch = launch_kernel(kernel, params, design("mgvm"))
        sim = Simulator(launch, params)
        stats = sim.run()
        assert stats is sim.stats


class TestInterconnectContention:
    def test_bandwidth_contention_slows_shared(self, run_smoke):
        free = run_smoke("GUPS", "shared")
        contended = run_smoke("GUPS", "shared", link_issue_interval=16.0)
        assert contended.cycles > free.cycles

    def test_private_design_barely_affected(self, run_smoke):
        # Private lookups never cross the link; only walks/data do.
        free = run_smoke("J1D", "private")
        contended = run_smoke("J1D", "private", link_issue_interval=16.0)
        assert contended.cycles < free.cycles * 1.5
