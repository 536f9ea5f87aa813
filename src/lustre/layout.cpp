#include "lustre/layout.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::lustre {

LayoutSegment locate(const StripeLayout& layout, Bytes offset) {
  PFSC_REQUIRE(layout.stripe_size > 0 && !layout.osts.empty(),
               "locate: layout not resolved");
  const Bytes stripe = offset / layout.stripe_size;
  const Bytes within = offset % layout.stripe_size;
  const auto count = static_cast<Bytes>(layout.osts.size());
  LayoutSegment seg;
  seg.layout_index = static_cast<std::uint32_t>(stripe % count);
  seg.object_offset = (stripe / count) * layout.stripe_size + within;
  seg.length = layout.stripe_size - within;
  seg.file_offset = offset;
  return seg;
}

void segments(const StripeLayout& layout, Bytes offset, Bytes length,
              std::vector<LayoutSegment>& out) {
  out.clear();
  Bytes pos = offset;
  Bytes remaining = length;
  while (remaining > 0) {
    LayoutSegment seg = locate(layout, pos);
    seg.length = std::min<Bytes>(seg.length, remaining);
    pos += seg.length;
    remaining -= seg.length;
    // Merge with the previous segment when the stripe pattern keeps us on
    // the same object contiguously (stripe_count == 1).
    if (!out.empty() && out.back().layout_index == seg.layout_index &&
        out.back().object_offset + out.back().length == seg.object_offset) {
      out.back().length += seg.length;
    } else {
      out.push_back(seg);
    }
  }
}

}  // namespace pfsc::lustre
