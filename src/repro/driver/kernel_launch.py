"""Kernel launch orchestration: everything that happens before cycle 0.

``launch_kernel`` performs, in order, the launch-time steps of the paper
(Section V, "Upon a kernel launch") for any design point:

1. LASP static analysis (skipped for the naive round-robin baseline);
2. aligned VA layout (Listing 1, lines 9-15);
3. physical placement of data pages (LASP blocks or page round-robin);
4. page-table construction;
5. HSL configuration (private / shared / per-kernel dHSL-coarse);
6. placement of page-table pages per the design's PTE policy;
7. CTA scheduling onto chiplets and CUs.

The resulting :class:`KernelLaunch` is the immutable pre-run state the
simulator executes.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import VMDesign
from repro.core.hsl import DynamicHSL, PrivateHSL, shared_default_hsl
from repro.core.mgvm import MGvmLaunchPlan, plan_kernel_launch
from repro.driver.allocator import layout_allocations
from repro.driver.cta_scheduler import assign_ctas_to_chiplets, assign_ctas_to_cus
from repro.driver.lasp import LaspResult, analyze_kernel
from repro.driver.pte_placement import place_page_table_pages
from repro.driver.uvm import UVMFaultHandler
from repro.mem.placement import DataPlacement, InterleavePolicy
from repro.vm.address import PageGeometry
from repro.vm.page_table import PageTable
from repro.workloads.base import KernelSpec, TraceContext


@dataclass
class KernelLaunch:
    """The driver's complete launch-time output for one kernel."""

    kernel: KernelSpec
    design: VMDesign
    geometry: PageGeometry
    num_chiplets: int
    bases: Dict[str, int]
    placement: DataPlacement
    page_table: PageTable
    hsl: object
    lasp: Optional[LaspResult]
    mgvm_plan: Optional[MGvmLaunchPlan]
    cta_chiplets: List[int]
    cta_cus: List[int]
    fault_handler: Optional[UVMFaultHandler] = None

    def trace_context(self, seed=0):
        sizes = {alloc.name: alloc.size for alloc in self.kernel.allocations}
        return TraceContext(
            bases=dict(self.bases),
            sizes=sizes,
            num_ctas=self.kernel.num_ctas,
            seed=seed,
        )


def launch_kernel(kernel, params, design, geometry=None):
    """Run all launch-time driver steps; return a :class:`KernelLaunch`."""
    geometry = geometry or PageGeometry(params.page_size, params.ptes_per_page)
    num_chiplets = params.num_chiplets

    # 1. Static analysis.
    lasp = (
        analyze_kernel(kernel, num_chiplets)
        if design.data_policy == "lasp"
        else None
    )

    # 2. VA layout.
    bases = layout_allocations(kernel.allocations)

    # 3 + 4. Data page placement and page-table construction.  Under
    # demand paging (UVM, Section VII) both happen lazily in the fault
    # handler instead.
    placement = DataPlacement(geometry, num_chiplets)
    page_table = PageTable(geometry)
    if not design.demand_paging:
        for alloc in kernel.allocations:
            if lasp is not None:
                block = lasp.block_sizes[alloc.name]
            else:
                block = geometry.page_size
            policy = InterleavePolicy(block, num_chiplets)
            placement.place_range(bases[alloc.name], alloc.size, policy)
        page_table.map_pages(placement.translations())

    # 5. HSL.
    mgvm_plan = None
    if design.hsl_mode == "private":
        hsl = PrivateHSL()
    elif design.hsl_mode == "shared":
        hsl = shared_default_hsl(num_chiplets, geometry.page_size)
    else:
        lasp_block = lasp.lasp_block_size if lasp is not None else None
        va_ranges = [(bases[a.name], a.size) for a in kernel.allocations]
        mgvm_plan = plan_kernel_launch(
            geometry, num_chiplets, lasp_block, va_ranges
        )
        hsl = mgvm_plan.hsl
        assert isinstance(hsl, DynamicHSL)

    # 6. Page-table page placement (on fault under demand paging).
    fault_handler = None
    if design.demand_paging:
        fault_handler = UVMFaultHandler(
            design,
            geometry,
            num_chiplets,
            placement,
            page_table,
            bases,
            kernel,
            lasp=lasp,
            hsl=hsl if design.hsl_mode == "dhsl" else None,
        )
    else:
        place_page_table_pages(
            page_table,
            geometry,
            num_chiplets,
            design.pte_policy,
            data_placement=placement,
            hsl=hsl if design.pte_policy == "hsl" else None,
        )

    # 7. CTA scheduling.
    cta_chiplets = assign_ctas_to_chiplets(kernel, num_chiplets, design.cta_policy)
    cta_cus = assign_ctas_to_cus(
        cta_chiplets, num_chiplets, params.cus_per_chiplet
    )

    return KernelLaunch(
        kernel=kernel,
        design=design,
        geometry=geometry,
        num_chiplets=num_chiplets,
        bases=bases,
        placement=placement,
        page_table=page_table,
        hsl=hsl,
        lasp=lasp,
        mgvm_plan=mgvm_plan,
        cta_chiplets=cta_chiplets,
        cta_cus=cta_cus,
        fault_handler=fault_handler,
    )
