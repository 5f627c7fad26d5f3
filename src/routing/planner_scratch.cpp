#include "routing/planner_scratch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gcube {

BfsScratch::Storage& BfsScratch::storage() noexcept {
  thread_local Storage s;
  return s;
}

BfsScratch::BfsScratch(std::uint64_t slots) : s_(storage()) {
  GCUBE_REQUIRE(!s_.leased, "BFS scratch is already in use on this thread");
  GCUBE_REQUIRE(slots <= pow2(kMaxDimension),
                "BFS space exceeds 2^kMaxDimension nodes");
  if (s_.stamp.size() < slots) {
    // New slots read stamp 0, which no live epoch uses.
    s_.stamp.resize(slots, 0);
    s_.value.resize(slots);
    s_.fifo.reserve(slots);
  }
  if (++s_.epoch == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(s_.stamp.begin(), s_.stamp.end(), 0);
    s_.epoch = 1;
  }
  s_.fifo.clear();
  s_.leased = true;
}

BfsScratch::~BfsScratch() { s_.leased = false; }

}  // namespace gcube
