"""Tests for the memory-hierarchy model."""

from repro.models import AddressSpace, MemoryHierarchy, MemoryLevel


class TestAddressSpace:
    def test_numbering_matches_paper(self):
        # Figure 4: private(0), global(1), local(2), constant(3)
        assert AddressSpace.PRIVATE == 0
        assert AddressSpace.GLOBAL == 1
        assert AddressSpace.LOCAL == 2
        assert AddressSpace.CONSTANT == 3

    def test_on_chip_classification(self):
        assert AddressSpace.PRIVATE.is_on_chip
        assert AddressSpace.LOCAL.is_on_chip
        assert AddressSpace.GLOBAL.is_off_chip
        assert AddressSpace.CONSTANT.is_off_chip


class TestMemoryHierarchy:
    def test_generic_has_all_levels(self):
        h = MemoryHierarchy.generic()
        for space in AddressSpace:
            assert space in h
        assert h.global_memory.capacity_bytes > h.local_memory.capacity_bytes
        assert h.local_memory.peak_bandwidth_gbps > h.global_memory.peak_bandwidth_gbps

    def test_indexing_by_int(self):
        h = MemoryHierarchy.generic()
        assert h[1] is h.global_memory
        assert h[2] is h.local_memory
        assert h[0] is h.private_memory

    def test_add_returns_self_for_chaining(self):
        h = MemoryHierarchy()
        out = h.add(MemoryLevel(AddressSpace.GLOBAL, 1 << 30, 10.0))
        assert out is h
        assert AddressSpace.GLOBAL in h
