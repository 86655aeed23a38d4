"""Placement of the pages that hold the page table itself.

The policies evaluated in the paper:

* ``follow_data`` — the baseline (and what Linux does on NUMA): the PT
  page holding a 2 MB region's leaf PTEs goes to the chiplet where the
  first data page of that region was placed.
* ``round_robin`` — the naive strawman: PT pages spread uniformly.
* ``hsl`` — MGvm: the PT page goes to the region's home chiplet under
  dHSL-coarse, so the walkers responsible for the region find its leaf
  PTEs in local memory (Listing 1, lines 17-22).
* ``replicated`` — the page-table-replication alternative of Figure 15:
  every chiplet holds a full copy, so every PT access is local.  Modeled
  by leaving ``node.home`` as ``None``; the walker treats such nodes as
  resident on its own chiplet.

Upper-level (2-4) PT pages follow the same principle at their own span;
the paper notes their placement is not performance-critical because the
page walk caches filter most upper-level accesses.
"""

from bisect import bisect_left


def _first_placed_home(placement, placed_vpns, first_vpn, num_pages):
    """Home of the first placed data page in a VPN range, else None.

    ``placed_vpns`` is the sorted list of every placed VPN.
    """
    index = bisect_left(placed_vpns, first_vpn)
    if index < len(placed_vpns) and placed_vpns[index] < first_vpn + num_pages:
        return placement.home_of(placed_vpns[index])
    return None


def place_page_table_pages(
    page_table,
    geometry,
    num_chiplets,
    policy,
    data_placement=None,
    hsl=None,
):
    """Assign a home chiplet to every page-table node.

    ``data_placement`` is required for ``follow_data``; ``hsl`` (a
    :class:`~repro.core.hsl.DynamicHSL` or any object with
    ``coarse_home(va)``) for ``hsl``.
    """
    if policy == "replicated":
        for node in page_table.iter_nodes():
            node.home = None
        return

    if policy == "follow_data" and data_placement is None:
        raise ValueError("follow_data placement needs the data placement")
    if policy == "hsl" and hsl is None:
        raise ValueError("hsl placement needs the kernel's dHSL")

    if policy == "follow_data":
        placed_vpns = data_placement.sorted_vpns()
    rr_counter = 0
    for node in sorted(
        page_table.iter_nodes(), key=lambda n: (n.level, n.prefix)
    ):
        span_pages = geometry.prefix_span_pages(node.level)
        first_vpn = geometry.prefix_first_vpn(node.prefix, node.level)
        base_va = first_vpn * geometry.page_size

        if policy == "round_robin":
            node.home = rr_counter % num_chiplets
            rr_counter += 1
        elif policy == "follow_data":
            home = _first_placed_home(
                data_placement, placed_vpns, first_vpn, span_pages
            )
            node.home = home if home is not None else rr_counter % num_chiplets
            rr_counter += 1
        elif policy == "hsl":
            if node.level == 1:
                # Listing 1, lines 18-22: the leaf PT page lives on the
                # home chiplet of its 2 MB region under dHSL-coarse.
                node.home = hsl.coarse_home(base_va)
            else:
                # Upper levels are not critical; keep them local to the
                # home of their first covered region.
                node.home = hsl.coarse_home(base_va)
        else:
            raise ValueError("unknown PTE placement policy %r" % policy)
