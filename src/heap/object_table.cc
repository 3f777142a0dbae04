#include "heap/object_table.hh"

namespace cereal {

ObjectTable::ObjectTable(const Heap &heap)
    : base_(heap.base()), bytes_(heap.usedBytes()),
      slots_(static_cast<std::uint32_t *>(
          sim::zeroedAlloc(size() * sizeof(std::uint32_t))))
{
    panic_if(bytes_ / kGranule >= kMaxEntry,
             "heap of %llu B too large for a 32-bit object table",
             (unsigned long long)bytes_);
    panic_if(!slots_, "object table allocation failed");
}

} // namespace cereal
