"""The bulk set-up paths equal the per-item loops they replace.

Every simulated point builds its launch state (data placement, page
table, PTE placement) and a fresh machine.  Those steps run in bulk:
:meth:`DataPlacement.place_range` and :meth:`PageTable.map_pages` work
on whole ranges, ``follow_data`` PTE placement bisects instead of
scanning, ``interleave_chunks`` is one reshape, and the cache, TLB and
page-walk-cache sets are plain ``dict``\\ s.  The page-by-page and
``OrderedDict`` versions live on here as references, and these tests
require exact equality with them: same dict order, same PPN counters,
same radix nodes created in the same order (each node's synthetic ``pa``
follows from that order), same LRU victims.
"""

import random
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.driver import pte_placement
from repro.driver.kernel_launch import launch_kernel
from repro.mem.cache import Cache
from repro.mem.placement import DataPlacement, InterleavePolicy
from repro.sim.simulator import Simulator
from repro.vm.address import KB, PageGeometry
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB, TLBEntry
from repro.vm.walk_cache import PageWalkCache
from repro.workloads.base import interleave_chunks
from repro.workloads.registry import WORKLOAD_NAMES, build_kernel

MAIN_DESIGNS = ("private", "shared", "mgvm-nobalance", "mgvm")


# -- reference loops -----------------------------------------------------------


def ref_place_range(placement, va, size, policy):
    """The per-page placement loop."""
    geometry = placement.geometry
    start_vpn = geometry.vpn(va)
    num_pages = geometry.pages_in(size + (va - geometry.page_base(va)))
    for index in range(num_pages):
        vpn = start_vpn + index
        placement.place_page(vpn, policy.home(vpn * geometry.page_size))


def ref_map_page(page_table, vpn, ppn, data_home):
    """The per-page page-table loop: four node visits, root to leaf."""
    page_table._translations[vpn] = (ppn, data_home)
    geometry = page_table.geometry
    for level in range(geometry.levels, 0, -1):
        page_table._node(level, geometry.node_prefix(vpn, level))


def ref_map_pages(page_table, translations):
    for vpn, (ppn, home) in translations.items():
        ref_map_page(page_table, vpn, ppn, home)


def ref_first_placed_home(placement, _placed_vpns, first_vpn, num_pages):
    """The page-by-page scan for a PT node's first placed data page."""
    for vpn in range(first_vpn, first_vpn + num_pages):
        if placement.is_placed(vpn):
            return placement.home_of(vpn)
    return None


@pytest.fixture
def reference_setup(monkeypatch):
    """Route placement, page-table construction and PTE placement
    through the loops."""

    def use():
        monkeypatch.setattr(DataPlacement, "place_range", ref_place_range)
        monkeypatch.setattr(PageTable, "map_page", ref_map_page)
        monkeypatch.setattr(PageTable, "map_pages", ref_map_pages)
        monkeypatch.setattr(
            pte_placement, "_first_placed_home", ref_first_placed_home
        )

    return use


def placement_state(placement):
    return list(placement.iter_pages()), list(placement._next_ppn)


def page_table_state(page_table):
    return (
        list(page_table._translations.items()),
        [
            (key, node.level, node.prefix, node.home, node.pa)
            for key, node in page_table._nodes.items()
        ],
        page_table._next_node_id,
    )


def launch_state(launch):
    return placement_state(launch.placement), page_table_state(launch.page_table)


def _launch_states(name, design_name, scale, reference_setup):
    params = scaled_params(scale)
    bulk = launch_kernel(build_kernel(name, scale=scale), params, design(design_name))
    reference_setup()
    ref = launch_kernel(build_kernel(name, scale=scale), params, design(design_name))
    return launch_state(bulk), launch_state(ref)


# -- launch state ----------------------------------------------------------------


class TestLaunchState:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("design_name", MAIN_DESIGNS)
    def test_smoke_launch_matches_loops(self, name, design_name, reference_setup):
        bulk, ref = _launch_states(name, design_name, "smoke", reference_setup)
        assert bulk == ref

    def test_default_scale_point_matches_loops(self, reference_setup):
        # SYR2: two matrices at default scale, RCL stripes, dHSL PTEs.
        bulk, ref = _launch_states("SYR2", "mgvm", "default", reference_setup)
        assert bulk == ref
        assert len(bulk[0][0]) > 1000

    def test_demand_paging_run_matches_loops(self, reference_setup):
        """UVM maps page by page at fault time through ``map_pages``."""
        params = scaled_params("smoke")

        def run():
            launch = launch_kernel(
                build_kernel("GUPS", scale="smoke"), params, design("mgvm-uvm")
            )
            stats = Simulator(launch, params).run()
            return launch_state(launch), stats

        bulk = run()
        reference_setup()
        assert bulk == run()
        assert bulk[0][1][0]  # faults installed translations


def test_follow_data_matches_scan_on_spans_without_data(monkeypatch):
    """A node whose span holds no placed page falls back to round robin,
    even when placed pages lie above the span."""
    geometry = PageGeometry(4 * KB, 16)
    placement = DataPlacement(geometry, 4)
    placement.place_range(16 << 20, 256 * KB, InterleavePolicy(16 * KB, 4))

    def node_homes():
        page_table = PageTable(geometry)
        page_table.map_pages(placement.translations())
        page_table.map_page(3, 0, 0)  # mapped, never placed
        pte_placement.place_page_table_pages(
            page_table, geometry, 4, "follow_data", data_placement=placement
        )
        return [(n.level, n.prefix, n.home) for n in page_table.iter_nodes()]

    bulk = node_homes()
    monkeypatch.setattr(pte_placement, "_first_placed_home", ref_first_placed_home)
    assert node_homes() == bulk


class TestPlaceRange:
    GEOMETRY = PageGeometry(4 * KB, 16)

    def _both(self, calls, chiplets=4):
        bulk = DataPlacement(self.GEOMETRY, chiplets)
        ref = DataPlacement(self.GEOMETRY, chiplets)
        for va, size, policy in calls:
            bulk.place_range(va, size, policy)
            ref_place_range(ref, va, size, policy)
        return bulk, ref

    def test_overlapping_ranges_keep_first_placement(self):
        calls = [
            (64 * KB, 64 * KB, InterleavePolicy(4 * KB, 4)),
            (32 * KB, 128 * KB, InterleavePolicy(16 * KB, 4, offset=1)),
            (100, 40 * KB, InterleavePolicy(8 * KB, 4, base_va=4 * KB)),
        ]
        bulk, ref = self._both(calls)
        assert placement_state(bulk) == placement_state(ref)
        assert bulk.home_of(16) == 0  # placed by the first call, kept
        assert bulk.num_pages == 40

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1 << 22),  # va
                st.integers(1, 1 << 18),  # size
                st.sampled_from([1000, 4 * KB, 12 * KB, 64 * KB]),  # block
                st.integers(0, 1 << 20),  # base_va
                st.integers(0, 7),  # offset
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 3, 4, 8]),
    )
    def test_random_ranges_match_loop(self, calls, chiplets):
        policies = [
            (va, size, InterleavePolicy(block, chiplets, base_va, offset))
            for va, size, block, base_va, offset in calls
        ]
        bulk, ref = self._both(policies, chiplets)
        assert placement_state(bulk) == placement_state(ref)
        bulk_pt, ref_pt = PageTable(self.GEOMETRY), PageTable(self.GEOMETRY)
        bulk_pt.map_pages(bulk.translations())
        ref_map_pages(ref_pt, bulk.translations())
        assert page_table_state(bulk_pt) == page_table_state(ref_pt)

    def test_out_of_range_home_raises_before_placing(self):
        placement = DataPlacement(self.GEOMETRY, 2)
        with pytest.raises(ValueError, match="chiplet 2 out of range"):
            placement.place_range(0, 64 * KB, InterleavePolicy(4 * KB, 4))
        assert placement.num_pages == 0
        # Checked for already-placed pages too, as place_page does.
        placement.place_page(2, 0)
        with pytest.raises(ValueError, match="chiplet 2 out of range"):
            placement.place_range(8 * KB, 4 * KB, InterleavePolicy(4 * KB, 4))

    def test_values_are_python_ints(self):
        placement = DataPlacement(self.GEOMETRY, 4)
        placement.place_range(0, 64 * KB, InterleavePolicy(4 * KB, 4))
        vpn, home, ppn = next(placement.iter_pages())
        assert {type(vpn), type(home), type(ppn)} == {int}


class TestMapPages:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1 << 24), max_size=200))
    def test_any_vpn_order_matches_loop(self, vpns):
        translations = {vpn: (vpn + 7, vpn % 3) for vpn in vpns}
        geometry = PageGeometry(4 * KB, 16)
        bulk, ref = PageTable(geometry), PageTable(geometry)
        bulk.map_pages(translations)
        ref_map_pages(ref, translations)
        assert page_table_state(bulk) == page_table_state(ref)

    def test_incremental_mapping_reuses_nodes(self):
        geometry = PageGeometry(4 * KB, 16)
        bulk, ref = PageTable(geometry), PageTable(geometry)
        for batch in ([5, 6, 300], [7, 1 << 20, 301], [5]):
            translations = {vpn: (vpn, 0) for vpn in batch}
            bulk.map_pages(translations)
            ref_map_pages(ref, translations)
        assert page_table_state(bulk) == page_table_state(ref)


# -- interleave_chunks -------------------------------------------------------------


def ref_interleave_chunks(parts):
    """The per-cycle slice loop."""
    arrays = [np.asarray(a, dtype=np.int64) for a, _k in parts]
    chunk_sizes = [k for _a, k in parts]
    cycles = min(len(a) // k for a, k in zip(arrays, chunk_sizes))
    pieces = []
    for cycle in range(cycles):
        for array, k in zip(arrays, chunk_sizes):
            pieces.append(array[cycle * k : (cycle + 1) * k])
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-(1 << 40), 1 << 40), max_size=40),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_interleave_chunks_matches_loop(parts):
    merged = interleave_chunks(parts)
    expected = ref_interleave_chunks(parts)
    assert merged.dtype == expected.dtype == np.int64
    assert merged.tolist() == expected.tolist()


# -- LRU sets ----------------------------------------------------------------------


class RefLRU:
    """An ``OrderedDict`` LRU set: the replacement the dict sets mirror."""

    def __init__(self, ways):
        self.ways = ways
        self.entries = OrderedDict()

    def touch(self, key):
        self.entries.move_to_end(key)
        return self.entries[key]

    def put(self, key, value):
        """Insert or refresh ``key``; returns the evicted value, if any."""
        evicted = None
        if key in self.entries:
            self.entries.move_to_end(key)
        elif len(self.entries) >= self.ways:
            _key, evicted = self.entries.popitem(last=False)
        self.entries[key] = value
        return evicted


def _stream(seed, length=4000, span=96):
    rng = random.Random(seed)
    return [rng.randrange(span) for _ in range(length)]


@pytest.mark.parametrize("seed", range(4))
def test_cache_matches_ordered_dict_lru(seed):
    cache = Cache(16 * 64, 4, line_size=64)  # 4 sets x 4 ways
    ref = [RefLRU(4) for _ in range(cache.num_sets)]
    hits = misses = evictions = 0
    rng = random.Random(seed)
    for line in _stream(seed):
        addr = line * 64 + rng.randrange(64)
        ways = ref[line % cache.num_sets]
        present = line in ways.entries
        if rng.random() < 0.3:
            assert cache.access_if_hit(addr) == present
            if present:
                ways.touch(line)
                hits += 1
        else:
            assert cache.access(addr) == present
            if present:
                ways.touch(line)
                hits += 1
            else:
                misses += 1
                full = len(ways.entries) >= ways.ways
                ways.put(line, True)
                evictions += full
        assert cache.probe(addr) == (line in ways.entries)
    assert (cache.hits, cache.misses, cache.evictions) == (hits, misses, evictions)
    assert [list(s) for s in cache._sets] == [list(r.entries) for r in ref]


@pytest.mark.parametrize("seed", range(4))
def test_tlb_matches_ordered_dict_lru(seed):
    tlb = TLB(16, assoc=4)
    ref = {}
    hits = misses = evictions = 0
    rng = random.Random(seed)
    for vpn in _stream(seed):
        ways = ref.setdefault(id(tlb._set_for(vpn)), RefLRU(4))
        op = rng.random()
        if op < 0.5:
            entry = tlb.lookup(vpn)
            if vpn in ways.entries:
                assert entry is ways.touch(vpn)
                hits += 1
            else:
                assert entry is None
                misses += 1
        elif op < 0.95:
            entry = TLBEntry(vpn, vpn << 3, vpn % 4)
            full = vpn not in ways.entries and len(ways.entries) >= 4
            assert tlb.insert(entry) is ways.put(vpn, entry)
            evictions += full
        else:
            assert tlb.invalidate(vpn) == (ways.entries.pop(vpn, None) is not None)
    assert (tlb.hits, tlb.misses, tlb.evictions) == (hits, misses, evictions)
    for line in tlb._sets:
        assert list(line.items()) == list(ref[id(line)].entries.items())


@pytest.mark.parametrize("seed", range(4))
def test_page_walk_cache_matches_ordered_dict_lru(seed):
    geometry = PageGeometry(4 * KB, 16)
    pwc = PageWalkCache(entries=8)
    ref = RefLRU(8)
    hits = misses = 0
    rng = random.Random(seed)
    for vpn in _stream(seed, span=1 << 14):
        level = geometry.levels
        for candidate in PageWalkCache.CACHED_LEVELS:
            key = (candidate, geometry.node_prefix(vpn, candidate))
            if key in ref.entries:
                ref.touch(key)
                level = candidate
                break
        hits += level != geometry.levels
        misses += level == geometry.levels
        assert pwc.first_level_to_fetch(geometry, vpn) == level
        start = rng.choice((level, rng.randint(1, geometry.levels)))
        pwc.fill(geometry, vpn, start)
        for fill_level in range(1, min(start, 3) + 1):
            ref.put((fill_level, geometry.node_prefix(vpn, fill_level)), True)
        assert list(pwc._lru) == list(ref.entries)
    assert (pwc.hits, pwc.misses) == (hits, misses)
