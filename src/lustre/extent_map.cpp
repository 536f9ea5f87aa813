#include "lustre/extent_map.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::lustre {

void ExtentMap::insert(Bytes offset, Bytes length) {
  if (length == 0) return;
  const Bytes start = offset;
  const Bytes end = offset + length;

  // The extent that will hold the union: the one before `start` when it
  // reaches start, else the first one starting within [start, end]. It
  // grows in place; a node is allocated only for a disjoint extent.
  auto it = extents_.upper_bound(start);
  if (it != extents_.begin() && std::prev(it)->second >= start) {
    it = std::prev(it);
  } else if (it == extents_.end() || it->first > end) {
    extents_.emplace_hint(it, start, end);
    total_ += length;
    return;
  } else {
    // The first touching extent starts right of `start`: re-key its node
    // leftwards (no extent starts in [start, it->first), so the key stays
    // unique and the order intact).
    const auto next = std::next(it);
    auto node = extents_.extract(it);
    total_ += node.key() - start;  // it now also covers [start, old key)
    node.key() = start;
    it = extents_.insert(next, std::move(node));
  }

  // Swallow every later extent that the grown one now reaches.
  Bytes new_end = std::max(it->second, end);
  for (auto next = std::next(it);
       next != extents_.end() && next->first <= new_end;
       next = extents_.erase(next)) {
    new_end = std::max(new_end, next->second);
    total_ -= next->second - next->first;
  }
  total_ += new_end - it->second;
  it->second = new_end;
}

bool ExtentMap::covers(Bytes offset, Bytes length) const {
  if (length == 0) return true;
  auto it = extents_.upper_bound(offset);
  if (it == extents_.begin()) return false;
  --it;
  return it->first <= offset && it->second >= offset + length;
}

Bytes ExtentMap::covered_bytes(Bytes offset, Bytes length) const {
  if (length == 0) return 0;
  const Bytes end = offset + length;
  Bytes covered = 0;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > offset) it = prev;
  }
  for (; it != extents_.end() && it->first < end; ++it) {
    const Bytes lo = std::max(offset, it->first);
    const Bytes hi = std::min(end, it->second);
    if (hi > lo) covered += hi - lo;
  }
  return covered;
}

Bytes ExtentMap::end_offset() const {
  if (extents_.empty()) return 0;
  return extents_.rbegin()->second;
}

void ExtentMap::clear() {
  extents_.clear();
  total_ = 0;
}

}  // namespace pfsc::lustre
