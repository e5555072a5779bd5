"""Unit tests for the simulated memory image and allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError, AllocationError, MemoryError_
from repro.mem.image import MemoryImage


@pytest.fixture
def image():
    return MemoryImage(size_bytes=1 << 16)


class TestAllocator:
    def test_line_aligned_by_default(self, image):
        a = image.alloc(4)
        b = image.alloc(4)
        assert a % 64 == 0 and b % 64 == 0
        assert a != b

    def test_null_line_reserved(self, image):
        assert image.alloc(4) >= 64

    def test_custom_alignment(self, image):
        addr = image.alloc(4, align=256)
        assert addr % 256 == 0

    def test_word_alignment_required_for_align(self, image):
        with pytest.raises(AllocationError):
            image.alloc(4, align=3)

    def test_exhaustion(self):
        image = MemoryImage(size_bytes=256)
        with pytest.raises(AllocationError):
            image.alloc(1024)

    def test_zero_bytes_rejected(self, image):
        with pytest.raises(AllocationError):
            image.alloc(0)

    def test_bad_size_rejected(self):
        with pytest.raises(AllocationError):
            MemoryImage(size_bytes=10)


class TestWordAccess:
    def test_store_load_roundtrip(self, image):
        addr = image.alloc(4)
        image.store_word(addr, 3.5)
        assert image.load_word(addr) == 3.5

    def test_initial_zero(self, image):
        addr = image.alloc(64)
        assert image.load_word(addr + 32) == 0

    def test_out_of_range(self, image):
        with pytest.raises(MemoryError_):
            image.load_word(1 << 20)

    def test_load_words(self, image):
        view = image.alloc_array([1, 2, 3, 4])
        assert image.load_words(view.base, 4) == [1, 2, 3, 4]

    def test_load_words_range_check(self, image):
        with pytest.raises(MemoryError_):
            image.load_words(image.size_bytes - 8, 100)


class TestArrayView:
    def test_alloc_array(self, image):
        view = image.alloc_array([5, 6, 7])
        assert view.to_list() == [5, 6, 7]
        assert len(view) == 3

    def test_addr_arithmetic(self, image):
        view = image.alloc_array([0, 0])
        assert view.addr(1) == view.base + 4
        with pytest.raises(MemoryError_):
            view.addr(2)

    def test_setitem(self, image):
        view = image.alloc_zeros(4)
        view[2] = 9
        assert image.load_word(view.base + 8) == 9

    def test_iter(self, image):
        view = image.alloc_array([1, 2])
        assert list(view) == [1, 2]

    def test_to_list_matches_per_index_reads(self, image):
        array = image.alloc_array([4, -1, 2.5, 8], align=4)
        zeros = image.alloc_zeros(3, align=4)
        zeros[1] = 6
        empty = image.alloc_array([], align=4)
        for view in (array, zeros, empty):
            assert view.to_list() == [view[i] for i in range(len(view))]
            assert list(view) == view.to_list()
        assert array.to_list() == [4, -1, 2.5, 8]
        assert zeros.to_list() == [0, 6, 0]
        assert empty.to_list() == []

    def test_alloc_array_writes_only_its_own_words(self, image):
        image.alloc_zeros(5)
        values = [3, -2, 0.5, 7.25, 1 << 20]
        view = image.alloc_array(values, align=4, name="v")
        image.alloc_zeros(2, align=4)
        assert [image.load_word(view.addr(i)) for i in range(5)] == values
        assert image.load_word(view.base - 4) == 0
        assert image.load_word(view.base + 5 * 4) == 0
        assert image.regions.find(view.base + 4).name == "v"

    def test_empty_alloc_array_takes_one_zero_word(self, image):
        view = image.alloc_array([], align=4)
        assert len(view) == 0
        assert image.bytes_allocated == view.base + 4
        assert image.load_word(view.base) == 0
        assert image.alloc_words(1, align=4) == view.base + 4

    def test_alloc_array_out_of_memory(self):
        with pytest.raises(AllocationError):
            MemoryImage(size_bytes=256).alloc_array([1] * 64)


class TestAllocatorProperties:
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=30))
    def test_allocations_never_overlap(self, sizes):
        image = MemoryImage(size_bytes=1 << 18)
        regions = []
        for size in sizes:
            base = image.alloc(size)
            regions.append((base, base + size))
        regions.sort()
        for (_, end_a), (start_b, _) in zip(regions, regions[1:]):
            assert end_a <= start_b


class TestDenseWords:
    """Words are a dense list over [0, extent): past it, reads are 0."""

    def test_read_past_extent_is_zero(self, image):
        view = image.alloc_array([7, 8])
        end = view.base + 2 * 4
        assert image.load_word(end) == 0
        assert image.load_word(image.size_bytes - 4) == 0

    def test_store_past_extent_reads_back(self, image):
        view = image.alloc_array([7])
        far = view.base + 64 * 4
        image.store_word(far, 5)
        assert image.load_word(far) == 5
        assert image.load_word(view.base) == 7
        assert image.load_words(view.base + 4, 63) == [0] * 63
        assert image.load_word(far + 4) == 0

    def test_load_words_across_extent_pads_zeros(self, image):
        view = image.alloc_array([1, 2, 3])
        assert image.load_words(view.base + 4, 5) == [2, 3, 0, 0, 0]
        assert image.load_words(image.size_bytes - 8, 2) == [0, 0]

    @pytest.mark.parametrize("access", [
        lambda image, addr: image.load_word(addr),
        lambda image, addr: image.store_word(addr, 1),
        lambda image, addr: image.load_words(addr, 1),
    ])
    def test_bad_addresses_raise(self, image, access):
        image.alloc_array([1, 2])
        for addr in (2, 66, -4):
            with pytest.raises(AlignmentError):
                access(image, addr)
        for addr in (image.size_bytes, image.size_bytes + 4):
            with pytest.raises(MemoryError_):
                access(image, addr)
