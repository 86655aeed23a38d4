"""Set-associative cache model (tags only, LRU).

Used for the per-chiplet L2 data caches (4 MB, 16-way) and the per-CU L1
vector caches (64 KB).  The model tracks presence, not contents: a lookup
either hits (latency charged by the memory system) or misses and fills.

Each set is a plain ``dict`` kept in LRU order: a hit deletes and
reinserts its line, so the first key is always the least recently used
and is the victim.  A ``dict`` is cheaper to build and to update than an
``OrderedDict``, and a machine builds thousands of sets per point.
"""

LINE_SIZE = 64


class Cache:
    """LRU set-associative cache over 64-byte lines."""

    __slots__ = (
        "size_bytes",
        "line_size",
        "assoc",
        "num_sets",
        "name",
        "_sets",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, size_bytes, assoc, name="cache", line_size=LINE_SIZE):
        if size_bytes < line_size:
            raise ValueError("cache smaller than one line")
        num_lines = size_bytes // line_size
        if assoc < 1 or num_lines % assoc != 0:
            raise ValueError(
                "lines (%d) must be a positive multiple of assoc (%d)"
                % (num_lines, assoc)
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.name = name
        self._sets = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def line_of(self, addr):
        return addr // self.line_size

    def _set_for(self, line):
        return self._sets[line % self.num_sets]

    def access(self, addr):
        """Look up ``addr``; fill on miss.  Returns True on hit."""
        line = self.line_of(addr)
        entries = self._set_for(line)
        if line in entries:
            del entries[line]
            entries[line] = True
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.assoc:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[line] = True
        return False

    def access_if_hit(self, addr):
        """Look up ``addr`` only if present: a hit behaves exactly like
        :meth:`access` (LRU refresh + hit count), a miss mutates
        *nothing* — no fill, no miss count.  The CU's fused fast path
        uses this to ask "would the classic access hit?" and consume a
        hit immediately, while leaving a miss untouched for the stepped
        path to perform at its classic time (see :mod:`repro.sim.cu`).
        """
        line = addr // self.line_size
        entries = self._sets[line % self.num_sets]
        if line in entries:
            del entries[line]
            entries[line] = True
            self.hits += 1
            return True
        return False

    def probe(self, addr):
        """Presence check with no side effects."""
        line = self.line_of(addr)
        return line in self._set_for(line)

    def flush(self):
        for entries in self._sets:
            entries.clear()

    def occupancy(self):
        return sum(len(entries) for entries in self._sets)

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        total = self.accesses
        return self.hits / total if total else 0.0
