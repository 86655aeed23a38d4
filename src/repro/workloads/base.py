"""Workload model: allocations, kernels, and trace generation helpers.

A :class:`KernelSpec` describes one GPU kernel the way the paper's
toolchain sees it:

* its allocations (sizes and the interleave block LASP would choose);
* its LASP locality class (NL / RCL / ITL / unclassified);
* how CTAs partition across chiplets under LASP scheduling;
* a trace function producing each CTA's coalesced memory-access stream.

Traces are numpy arrays of virtual addresses *relative to nothing* — the
trace function receives a :class:`TraceContext` with the base VA of each
allocation as laid out by the driver's aligning allocator, so the same
workload replays identically under every placement policy.

Dtype contract: trace functions must return **integer** numpy arrays
(the helpers below all produce ``int64``).  The CU vectorizes the
per-page decomposition at CTA-enqueue time — ``trace >> page_shift``
and ``trace & offset_mask`` over the whole array, see
:meth:`repro.sim.cu.ComputeUnit.add_cta` — so bitwise ops on float
arrays would raise, and non-numpy sequences would silently lose the
vectorization.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

LINE = 64

LASP_CLASSES = ("NL", "RCL", "ITL", "NL+ITL", "unclassified")
CTA_PARTITIONS = ("blocked", "striped", "round_robin")


@dataclass
class AllocationSpec:
    """One memory allocation of a kernel.

    ``lasp_block`` is the data-interleave block size LASP's static index
    analysis would select for this allocation (None lets the analysis
    derive a default from the kernel class).
    """

    name: str
    size: int
    lasp_block: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("allocation size must be positive")
        if self.size & (self.size - 1):
            raise ValueError(
                "allocation sizes must be powers of two so the aligning "
                "allocator can guarantee HSL/placement agreement (got %d)"
                % self.size
            )


@dataclass
class TraceContext:
    """Everything a trace function needs: allocation bases and an RNG."""

    bases: Dict[str, int]
    sizes: Dict[str, int]
    num_ctas: int
    seed: int = 0

    def base(self, name):
        return self.bases[name]

    def size(self, name):
        return self.sizes[name]

    def rng(self, cta_id):
        """A deterministic per-CTA random generator."""
        return np.random.default_rng((self.seed * 1_000_003 + cta_id) & 0xFFFFFFFF)


@dataclass
class KernelSpec:
    """A kernel plus the workload-level metadata the driver consumes."""

    name: str
    lasp_class: str
    allocations: List[AllocationSpec]
    num_ctas: int
    trace: Callable[[int, TraceContext], np.ndarray]
    compute_gap: int = 4
    cta_partition: str = "blocked"
    cta_group: int = 1
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lasp_class not in LASP_CLASSES:
            raise ValueError("bad lasp_class %r" % self.lasp_class)
        if self.cta_partition not in CTA_PARTITIONS:
            raise ValueError("bad cta_partition %r" % self.cta_partition)
        if self.num_ctas < 1:
            raise ValueError("num_ctas must be >= 1")
        if not self.allocations:
            raise ValueError("kernel needs at least one allocation")

    def allocation(self, name):
        for alloc in self.allocations:
            if alloc.name == name:
                return alloc
        raise KeyError(name)

    @property
    def largest_allocation(self):
        return max(self.allocations, key=lambda alloc: alloc.size)

    @property
    def footprint(self):
        return sum(alloc.size for alloc in self.allocations)


# -- trace-building helpers ----------------------------------------------------


def streaming(base, start, count, stride=LINE):
    """``count`` sequential line accesses from ``base + start``."""
    return base + start + np.arange(count, dtype=np.int64) * stride


def strided(base, start, count, stride):
    """``count`` accesses with a fixed large stride (column walks)."""
    return base + start + np.arange(count, dtype=np.int64) * stride


def uniform_random(rng, base, size, count, align=LINE):
    """``count`` uniformly random aligned accesses within an allocation."""
    offsets = rng.integers(0, size // align, size=count, dtype=np.int64)
    return base + offsets * align


def zipf_random(rng, base, size, count, alpha=1.2, align=LINE):
    """Skewed random accesses (graph-style hot/cold behaviour)."""
    slots = size // align
    raw = rng.zipf(alpha, size=count).astype(np.int64)
    # Zipf ranks are unbounded; fold into the allocation while keeping
    # the skew toward low ranks.
    offsets = (raw - 1) % slots
    return base + offsets * align


def subset_random(rng, base, size, count, keep=3, outof=4, align=LINE * 64):
    """Random accesses over a uniform *subset* of an allocation.

    Touches ``keep`` of every ``outof`` pages (``align`` defaults to the
    4 KB page), so the hot working set is a tunable fraction of the
    allocation while still covering every leaf-PTE span uniformly —
    needed to model graph kernels whose hot set fits the aggregate L2
    TLB but thrashes a single slice (e.g. MIS).
    """
    if not 1 <= keep <= outof:
        raise ValueError("need 1 <= keep <= outof")
    groups = size // (align * outof)
    if groups < 1:
        raise ValueError("allocation too small for the subset pattern")
    slots = rng.integers(0, groups * keep, size=count, dtype=np.int64)
    group = slots // keep
    # Rotate which pages of each group are kept so the hot subset is
    # uniform across page-interleave residues (slices) too.
    pages = group * outof + (slots % keep + group) % outof
    return base + pages * align


def interleave(*streams):
    """Round-robin merge of equally important access streams."""
    streams = [np.asarray(s, dtype=np.int64) for s in streams]
    length = min(len(s) for s in streams)
    out = np.empty(length * len(streams), dtype=np.int64)
    for index, stream in enumerate(streams):
        out[index :: len(streams)] = stream[:length]
    return out


def interleave_chunks(parts):
    """Merge streams in repeating chunks: ``parts = [(array, k), ...]``.

    Each cycle takes ``k`` consecutive elements from each stream in
    order, modelling bursty access (e.g. a vertex visit followed by a
    neighbour-list scan).  Stops when any stream runs dry.
    """
    arrays = [np.asarray(a, dtype=np.int64) for a, _k in parts]
    chunk_sizes = [k for _a, k in parts]
    if any(k < 1 for k in chunk_sizes):
        raise ValueError("chunk sizes must be >= 1")
    cycles = min(len(a) // k for a, k in zip(arrays, chunk_sizes))
    # Row ``c`` of each block is that stream's chunk in cycle ``c``;
    # joining the blocks side by side and flattening row-major yields
    # the cycles back to back.
    return np.concatenate(
        [a[: cycles * k].reshape(cycles, k) for a, k in zip(arrays, chunk_sizes)],
        axis=1,
    ).ravel()


def tile_of(cta_id, num_ctas, size):
    """(start, extent) of CTA ``cta_id``'s contiguous tile of ``size``."""
    extent = size // num_ctas
    if extent == 0:
        raise ValueError("more CTAs than bytes to split")
    return cta_id * extent, extent
