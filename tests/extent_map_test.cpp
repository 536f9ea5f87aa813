#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "lustre/extent_map.hpp"
#include "support/rng.hpp"

namespace pfsc::lustre {
namespace {

TEST(ExtentMap, EmptyCoversNothing) {
  ExtentMap m;
  EXPECT_TRUE(m.covers(0, 0));
  EXPECT_FALSE(m.covers(0, 1));
  EXPECT_EQ(m.total_bytes(), 0u);
  EXPECT_EQ(m.end_offset(), 0u);
}

TEST(ExtentMap, SingleInsert) {
  ExtentMap m;
  m.insert(100, 50);
  EXPECT_TRUE(m.covers(100, 50));
  EXPECT_TRUE(m.covers(120, 10));
  EXPECT_FALSE(m.covers(99, 2));
  EXPECT_FALSE(m.covers(149, 2));
  EXPECT_EQ(m.total_bytes(), 50u);
  EXPECT_EQ(m.end_offset(), 150u);
}

TEST(ExtentMap, AdjacentExtentsCoalesce) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(10, 10);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.covers(0, 20));
  EXPECT_EQ(m.total_bytes(), 20u);
}

TEST(ExtentMap, OverlappingExtentsCoalesce) {
  ExtentMap m;
  m.insert(0, 15);
  m.insert(10, 15);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.total_bytes(), 25u);
}

TEST(ExtentMap, ContainedInsertIsNoop) {
  ExtentMap m;
  m.insert(0, 100);
  m.insert(20, 30);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.total_bytes(), 100u);
}

TEST(ExtentMap, BridgingInsertMergesNeighbours) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(20, 10);
  EXPECT_EQ(m.extent_count(), 2u);
  m.insert(10, 10);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.covers(0, 30));
}

TEST(ExtentMap, DisjointExtentsStaySeparate) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(100, 10);
  EXPECT_EQ(m.extent_count(), 2u);
  EXPECT_FALSE(m.covers(0, 110));
  EXPECT_EQ(m.covered_bytes(0, 110), 20u);
}

TEST(ExtentMap, CoveredBytesPartial) {
  ExtentMap m;
  m.insert(10, 10);
  m.insert(30, 10);
  EXPECT_EQ(m.covered_bytes(0, 100), 20u);
  EXPECT_EQ(m.covered_bytes(15, 20), 10u);  // 5 from first, 5 from second
  EXPECT_EQ(m.covered_bytes(50, 10), 0u);
  EXPECT_EQ(m.covered_bytes(10, 0), 0u);
}

TEST(ExtentMap, ZeroLengthInsertIgnored) {
  ExtentMap m;
  m.insert(5, 0);
  EXPECT_EQ(m.extent_count(), 0u);
}

TEST(ExtentMap, ClearResets) {
  ExtentMap m;
  m.insert(0, 10);
  m.clear();
  EXPECT_EQ(m.total_bytes(), 0u);
  EXPECT_FALSE(m.covers(0, 1));
}

TEST(ExtentMap, InsertLeftOfAnExtentRekeysIt) {
  ExtentMap m;
  m.insert(100, 10);
  m.insert(200, 10);
  m.insert(90, 15);  // starts in the gap, ends inside [100, 110)
  EXPECT_EQ(m.extent_count(), 2u);
  EXPECT_TRUE(m.covers(90, 20));
  EXPECT_FALSE(m.covers(89, 1));
  EXPECT_EQ(m.total_bytes(), 30u);
  m.insert(150, 55);  // re-keys [200, 210) to 150
  EXPECT_EQ(m.extent_count(), 2u);
  EXPECT_TRUE(m.covers(150, 60));
  EXPECT_EQ(m.total_bytes(), 80u);
  EXPECT_EQ(m.end_offset(), 210u);
}

// Seeded property test of insert against a naive reference: a sorted list
// of intervals, merged by brute force after every insert. The generator
// aims each insert at one shape of write relative to the current extents.
class RefExtents {
 public:
  void insert(Bytes offset, Bytes length) {
    if (length == 0) return;
    iv_.emplace_back(offset, offset + length);
    std::sort(iv_.begin(), iv_.end());
    std::vector<std::pair<Bytes, Bytes>> merged;
    for (const auto& [lo, hi] : iv_) {
      if (!merged.empty() && lo <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, hi);
      } else {
        merged.emplace_back(lo, hi);
      }
    }
    iv_ = std::move(merged);
  }
  const std::vector<std::pair<Bytes, Bytes>>& extents() const { return iv_; }
  Bytes total() const {
    Bytes t = 0;
    for (const auto& [lo, hi] : iv_) t += hi - lo;
    return t;
  }
  Bytes covered(Bytes offset, Bytes length) const {
    Bytes c = 0;
    for (const auto& [lo, hi] : iv_) {
      const Bytes a = std::max(lo, offset);
      const Bytes b = std::min(hi, offset + length);
      if (b > a) c += b - a;
    }
    return c;
  }
  Bytes end() const { return iv_.empty() ? 0 : iv_.back().second; }

 private:
  std::vector<std::pair<Bytes, Bytes>> iv_;  // sorted, disjoint, non-adjacent
};

enum Shape {
  kDisjoint,
  kAdjacentLeft,
  kAdjacentRight,
  kOverlapping,
  kContained,
  kSpanning,
  kRekeyLeft,
  kShapes
};

/// An (offset, length) of `shape` against a random extent `i` of `ref`; a
/// disjoint write lands in the gap after extent `i` when there is room,
/// else past the end. A shape with no room (a left-shaped write against an
/// extent with no gap before it) falls back to kDisjoint.
std::pair<Bytes, Bytes> make_write(Rng& rng, const RefExtents& ref,
                                   Shape& shape) {
  const auto& iv = ref.extents();
  if (iv.empty()) {
    shape = kDisjoint;
    return {1000 + rng.uniform(64), 1 + rng.uniform(64)};
  }
  const std::size_t i = rng.uniform(iv.size());
  const auto [lo, hi] = iv[i];
  const Bytes gap_lo = i > 0 ? iv[i - 1].second + 1 : 0;  // first free byte
  if ((shape == kAdjacentLeft || shape == kRekeyLeft) && lo <= gap_lo) {
    shape = kDisjoint;
  }
  switch (shape) {
    case kAdjacentLeft: {
      const Bytes len = 1 + rng.uniform(std::min<Bytes>(lo - gap_lo, 32));
      return {lo - len, len};
    }
    case kAdjacentRight:
      return {hi, 1 + rng.uniform(32)};
    case kOverlapping: {
      const Bytes off = lo + rng.uniform(hi - lo);
      return {off, hi - off + 1 + rng.uniform(32)};
    }
    case kContained: {
      const Bytes off = lo + rng.uniform(hi - lo);
      return {off, 1 + rng.uniform(hi - off)};
    }
    case kSpanning: {
      const std::size_t j = i + rng.uniform(iv.size() - i);
      const Bytes off = lo + rng.uniform(hi - lo);
      const Bytes end = std::max(
          off + 1, iv[j].first + 1 + rng.uniform(iv[j].second - iv[j].first + 8));
      return {off, end - off};
    }
    case kRekeyLeft: {
      // Starts strictly inside the gap before extent i, reaches into it.
      const Bytes off = gap_lo + rng.uniform(lo - gap_lo);
      const Bytes end = lo + rng.uniform(hi - lo + 16);
      return {off, end - off};
    }
    case kDisjoint:
    case kShapes:
      break;
  }
  if (i + 1 < iv.size() && iv[i + 1].first - hi > 2) {
    const Bytes first = hi + 1;  // strictly inside the gap
    const Bytes last = iv[i + 1].first - 1;
    const Bytes off = first + rng.uniform(last - first);
    return {off, 1 + rng.uniform(last - off)};
  }
  return {ref.end() + 2 + rng.uniform(64), 1 + rng.uniform(64)};
}

class ExtentMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapProperty, MatchesMergedIntervalReference) {
  Rng rng(GetParam());
  ExtentMap m;
  RefExtents ref;
  std::array<int, kShapes> seen{};
  for (int step = 0; step < 1500; ++step) {
    auto shape = static_cast<Shape>(rng.uniform(kShapes));
    const auto [off, len] = make_write(rng, ref, shape);
    ++seen[shape];
    m.insert(off, len);
    ref.insert(off, len);

    const std::string where = "step " + std::to_string(step) + " insert(" +
                              std::to_string(off) + ", " +
                              std::to_string(len) + ")";
    ASSERT_EQ(m.total_bytes(), ref.total()) << where;
    ASSERT_EQ(m.extent_count(), ref.extents().size()) << where;
    ASSERT_EQ(m.end_offset(), ref.end()) << where;
    // Every extent is covered exactly: its own range, and neither
    // neighbouring byte (the map coalesces adjacent extents).
    for (const auto& [lo, hi] : ref.extents()) {
      ASSERT_TRUE(m.covers(lo, hi - lo)) << where;
      ASSERT_EQ(m.covered_bytes(lo, hi - lo), hi - lo) << where;
      if (lo > 0) {
        ASSERT_FALSE(m.covers(lo - 1, 1)) << where;
      }
      ASSERT_FALSE(m.covers(hi, 1)) << where;
    }
    for (int probe = 0; probe < 8; ++probe) {
      const Bytes p_off = rng.uniform(ref.end() + 64);
      const Bytes p_len = rng.uniform(256);
      ASSERT_EQ(m.covered_bytes(p_off, p_len), ref.covered(p_off, p_len))
          << where << " probe(" << p_off << ", " << p_len << ")";
      ASSERT_EQ(m.covers(p_off, p_len), ref.covered(p_off, p_len) == p_len)
          << where << " probe(" << p_off << ", " << p_len << ")";
    }
  }
  // Every shape of write was exercised many times.
  for (int shape = 0; shape < kShapes; ++shape) {
    EXPECT_GT(seen[shape], 100) << "shape " << shape;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapProperty,
                         ::testing::Values(1ull, 7ull, 42ull, 1009ull));

// Property test: random insertion order against a reference bitmap.
class ExtentMapRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapRandom, MatchesReferenceBitmap) {
  Rng rng(GetParam());
  constexpr Bytes kSpan = 4096;
  std::vector<bool> ref(kSpan, false);
  ExtentMap m;
  for (int i = 0; i < 200; ++i) {
    const Bytes off = rng.uniform(kSpan - 1);
    const Bytes len = 1 + rng.uniform(std::min<Bytes>(kSpan - off, 64) - 1 + 1);
    m.insert(off, len);
    for (Bytes b = off; b < off + len && b < kSpan; ++b) ref[b] = true;
  }
  Bytes ref_total = 0;
  for (bool b : ref) ref_total += b ? 1 : 0;
  EXPECT_EQ(m.total_bytes(), ref_total);
  // Spot-check coverage queries.
  for (int i = 0; i < 200; ++i) {
    const Bytes off = rng.uniform(kSpan - 1);
    const Bytes len = 1 + rng.uniform(32);
    bool ref_covers = off + len <= kSpan;
    Bytes ref_count = 0;
    for (Bytes b = off; b < off + len && b < kSpan; ++b) {
      if (ref[b]) ++ref_count; else ref_covers = false;
    }
    EXPECT_EQ(m.covers(off, len), ref_covers) << "off=" << off << " len=" << len;
    EXPECT_EQ(m.covered_bytes(off, len), ref_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapRandom,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull));

}  // namespace
}  // namespace pfsc::lustre
