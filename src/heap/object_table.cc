#include "heap/object_table.hh"

namespace cereal {

ObjectTable::ObjectTable(const Heap &heap)
    : base_(heap.base()), bytes_(heap.usedBytes()),
      // A walk over TreeWide's 28 MiB heap faults the table in 7 huge
      // pages rather than 3,500 small ones: about 7 ms of a 20 ms
      // GraphWalker::stats call.
      slots_(static_cast<std::uint32_t *>(
          sim::zeroedAlloc((bytes_ / 8 + 1) * sizeof(std::uint32_t))))
{
    panic_if(bytes_ / 8 >= kMaxEntry,
             "heap of %llu B too large for a 32-bit object table",
             (unsigned long long)bytes_);
    panic_if(!slots_, "object table allocation failed");
}

} // namespace cereal
