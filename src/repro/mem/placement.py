"""Physical placement of data pages across chiplets.

The driver places pages at allocation time.  Every policy the paper uses
reduces to *block-interleaving over the virtual address*: chiplet
``(va // block_size) % num_chiplets``.  Because the MGvm allocator aligns
the base of each allocation (Listing 1), block-interleaving with

* ``block = alloc_size / num_chiplets``  ==> LASP's contiguous "NL"
  partition,
* ``block = row stripe``                 ==> LASP's "RCL" striping,
* ``block = small (e.g. 64 KB)``         ==> LASP's "ITL"/unclassified
  interleave, and
* ``block = page``                       ==> the naive round-robin
  baseline of Figure 14,

all come out of the same mechanism.  The placement also hands out
synthetic physical page numbers, partitioned per chiplet so the L2 caches
and DRAM of different chiplets never alias.

Placement runs once per simulated design point, over up to tens of
thousands of pages, so :meth:`DataPlacement.place_range` does it in one
numpy pass rather than page by page.
"""

import numpy as np


class InterleavePolicy:
    """Chiplet selection by block-interleaving the virtual address."""

    def __init__(self, block_size, num_chiplets, base_va=0, offset=0):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if num_chiplets < 1:
            raise ValueError("num_chiplets must be >= 1")
        self.block_size = int(block_size)
        self.num_chiplets = num_chiplets
        self.base_va = base_va
        self.offset = offset

    def home(self, va):
        """Chiplet owning the page containing ``va`` (an int, or an int64
        array for one home per address)."""
        block = (va - self.base_va) // self.block_size
        return (block + self.offset) % self.num_chiplets

    def __repr__(self):
        return "InterleavePolicy(block=%d, chiplets=%d)" % (
            self.block_size,
            self.num_chiplets,
        )


class DataPlacement:
    """Maps every placed VPN to (synthetic PPN, chiplet)."""

    def __init__(self, geometry, num_chiplets):
        self.geometry = geometry
        self.num_chiplets = num_chiplets
        # vpn -> (ppn, home) in placement order: exactly the translations
        # the page table installs, so it can take them wholesale.
        self._pages = {}
        # Per-chiplet physical page counters; chiplet id in high bits keeps
        # physical spaces disjoint.
        self._next_ppn = [0] * num_chiplets

    def place_range(self, va, size, policy):
        """Place all pages of ``[va, va+size)`` according to ``policy``.

        Equal, page for page, to calling :meth:`place_page` on each VPN
        in ascending order with ``policy.home(vpn * page_size)``: pages
        already placed keep their home and PPN, and each new page takes
        the next PPN of its chiplet, in VPN order.  The range is checked
        before anything is placed.
        """
        geometry = self.geometry
        first = geometry.vpn(va)
        end = first + geometry.pages_in(size + (va - geometry.page_base(va)))
        vpns = np.arange(first, end, dtype=np.int64)
        homes = policy.home(vpns << geometry.page_shift)
        bad = (homes < 0) | (homes >= self.num_chiplets)
        if bad.any():
            self._check_chiplet(int(homes[bad.argmax()]))
        placed = self._pages.keys() & range(first, end)
        if placed:
            new = ~np.isin(vpns, np.fromiter(placed, np.int64))
            vpns, homes = vpns[new], homes[new]
        ppns = np.empty_like(vpns)
        next_ppn = self._next_ppn
        for chiplet in range(self.num_chiplets):
            mine = homes == chiplet
            count = int(np.count_nonzero(mine))
            if count:
                start = next_ppn[chiplet]
                ppns[mine] = (chiplet << 44) | np.arange(
                    start, start + count, dtype=np.int64
                )
                next_ppn[chiplet] = start + count
        self._pages.update(
            zip(vpns.tolist(), zip(ppns.tolist(), homes.tolist()))
        )

    def _check_chiplet(self, chiplet):
        if not 0 <= chiplet < self.num_chiplets:
            raise ValueError("chiplet %d out of range" % chiplet)

    def place_page(self, vpn, chiplet):
        """Pin one page; idempotent for an already-placed page."""
        self._check_chiplet(chiplet)
        placed = self._pages.get(vpn)
        if placed is not None:
            return placed[0]
        ppn = (chiplet << 44) | self._next_ppn[chiplet]
        self._next_ppn[chiplet] += 1
        self._pages[vpn] = (ppn, chiplet)
        return ppn

    def home_of(self, vpn):
        return self._pages[vpn][1]

    def ppn_of(self, vpn):
        return self._pages[vpn][0]

    def is_placed(self, vpn):
        return vpn in self._pages

    def iter_pages(self):
        for vpn, (ppn, home) in self._pages.items():
            yield vpn, home, ppn

    def sorted_vpns(self):
        """Every placed VPN, ascending."""
        return sorted(self._pages)

    def translations(self):
        """``{vpn: (ppn, home)}`` of every placed page, in placement
        order: the input :meth:`PageTable.map_pages` takes."""
        return dict(self._pages)

    def pages_on(self, chiplet):
        return sum(1 for _ppn, home in self._pages.values() if home == chiplet)

    @property
    def num_pages(self):
        return len(self._pages)
