#include "heap/object_table.hh"

namespace cereal {

namespace {

/** Bytes of a table over @p heap_bytes of arena. */
std::size_t
tableBytes(Addr heap_bytes, Addr granule, std::uint64_t max_entry)
{
    panic_if(heap_bytes / granule >= max_entry,
             "heap of %llu B too large for a 32-bit object table",
             (unsigned long long)heap_bytes);
    return (heap_bytes / granule + 1) * sizeof(std::uint32_t);
}

} // namespace

ObjectTable::ObjectTable(const Heap &heap)
    : base_(heap.base()), bytes_(heap.usedBytes()),
      slots_(tableBytes(bytes_, kGranule, kMaxEntry))
{
}

} // namespace cereal
