// Stripe layout: how Lustre maps a file's byte range onto OST objects.
//
// A file with stripe size S over OSTs [o_0..o_{c-1}] places byte f in
// stripe index k = f / S; stripe k lives on object o_{k mod c} at object
// offset (k / c) * S + (f mod S). `segments()` decomposes an arbitrary
// extent into maximal per-object contiguous runs, the unit from which the
// client builds bulk RPCs; it fills caller-owned storage so that a caller
// reusing one vector decomposes extents without allocating.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "support/units.hpp"

namespace pfsc::lustre {

using OstIndex = std::uint32_t;
using ObjectId = std::uint64_t;

/// Fixed-capacity OST-pool name.
///
/// StripeSettings travels by value through coroutine parameters, and GCC
/// 12's coroutine codegen double-frees by-value aggregate parameters with
/// non-trivially-destructible members (verified with a minimal repro).
/// Keeping the settings trivially destructible sidesteps the bug; 31
/// characters matches Lustre's own pool-name limit (LOV_MAXPOOLNAME = 15
/// in old releases, 31 later).
struct PoolName {
  char chars[32] = {};

  PoolName() = default;
  PoolName(std::string_view name) {  // NOLINT: implicit by design
    assign(name);
  }
  PoolName(const char* name) : PoolName(std::string_view(name)) {}  // NOLINT
  PoolName& operator=(const char* name) {
    assign(std::string_view(name));
    return *this;
  }
  PoolName& operator=(std::string_view name) {
    assign(name);
    return *this;
  }

  void assign(std::string_view name) {
    const std::size_t n = name.size() < sizeof(chars) - 1
                              ? name.size()
                              : sizeof(chars) - 1;
    std::memcpy(chars, name.data(), n);
    chars[n] = '\0';
  }

  bool empty() const { return chars[0] == '\0'; }
  std::string_view view() const { return std::string_view(chars); }
  friend bool operator==(const PoolName& a, const PoolName& b) {
    return a.view() == b.view();
  }
};
static_assert(std::is_trivially_destructible_v<PoolName>);

/// What a user asks for (MPI-IO hints / lfs setstripe).
struct StripeSettings {
  StripeSettings() = default;
  StripeSettings(std::uint32_t count, Bytes size, std::int32_t offset = -1,
                 PoolName pool_name = {})
      : stripe_count(count),
        stripe_size(size),
        stripe_offset(offset),
        pool(pool_name) {}

  std::uint32_t stripe_count = 0;  // 0 = file-system default
  Bytes stripe_size = 0;           // 0 = file-system default
  /// Starting OST index, or -1 for allocator's choice. With an explicit
  /// offset, OSTs are assigned sequentially from that index (real Lustre
  /// semantics for the stripe_offset hint).
  std::int32_t stripe_offset = -1;
  /// OST pool to allocate from (lfs pool_new/pool_add); empty = any OST.
  /// Pools isolate workloads from each other's contention.
  PoolName pool;
  /// Expected final file size (0 = unknown). Never changes the layout by
  /// itself: when the stripe count is otherwise defaulted and the file
  /// system carries a PflSpec, the MDS picks the count from this hint's
  /// size class (pfl.hpp) — the modelled analogue of a PFL composite
  /// layout's first matching component.
  Bytes size_hint = 0;
};
static_assert(std::is_trivially_destructible_v<StripeSettings>,
              "StripeSettings crosses coroutine parameter boundaries by "
              "value; see PoolName for why it must stay trivial");

/// A resolved layout: stripe size plus the ordered OSTs and their objects.
struct StripeLayout {
  Bytes stripe_size = 0;
  std::vector<OstIndex> osts;
  std::vector<ObjectId> objects;  // parallel to `osts`

  std::uint32_t stripe_count() const { return static_cast<std::uint32_t>(osts.size()); }
};

/// One per-object contiguous run of a file extent.
struct LayoutSegment {
  std::uint32_t layout_index = 0;  // index into StripeLayout::osts/objects
  Bytes object_offset = 0;
  Bytes length = 0;
  Bytes file_offset = 0;
};

/// Decompose file extent [offset, offset+length) into per-object runs,
/// in file-offset order, replacing the contents of `out`. Runs never cross
/// a stripe boundary.
void segments(const StripeLayout& layout, Bytes offset, Bytes length,
              std::vector<LayoutSegment>& out);

/// Map a single file offset to its location (layout index, object offset).
LayoutSegment locate(const StripeLayout& layout, Bytes offset);

}  // namespace pfsc::lustre
