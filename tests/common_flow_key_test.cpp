#include "common/flow_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"

namespace hk {
namespace {

TEST(FiveTupleTest, IdIsDeterministic) {
  FiveTuple t{0x0a000001, 0x0a000002, 1234, 80, 6};
  EXPECT_EQ(t.Id(), t.Id());
}

TEST(FiveTupleTest, EveryFieldAffectsId) {
  const FiveTuple base{0x0a000001, 0x0a000002, 1234, 80, 6};
  FiveTuple t = base;
  t.src_ip ^= 1;
  EXPECT_NE(t.Id(), base.Id());
  t = base;
  t.dst_ip ^= 1;
  EXPECT_NE(t.Id(), base.Id());
  t = base;
  t.src_port ^= 1;
  EXPECT_NE(t.Id(), base.Id());
  t = base;
  t.dst_port ^= 1;
  EXPECT_NE(t.Id(), base.Id());
  t = base;
  t.proto = 17;
  EXPECT_NE(t.Id(), base.Id());
}

TEST(FiveTupleTest, ToStringFormatsIpAndPorts) {
  FiveTuple t{0xc0a80101, 0x08080808, 443, 51234, 6};
  const std::string s = t.ToString();
  EXPECT_NE(s.find("192.168.1.1:443"), std::string::npos);
  EXPECT_NE(s.find("8.8.8.8:51234"), std::string::npos);
  EXPECT_NE(s.find("proto=6"), std::string::npos);
}

TEST(AddrPairTest, IdDependsOnDirection) {
  AddrPair ab{1, 2};
  AddrPair ba{2, 1};
  EXPECT_NE(ab.Id(), ba.Id());
}

TEST(AddrPairTest, ToStringContainsBothAddresses) {
  AddrPair p{0x01020304, 0x05060708};
  const std::string s = p.ToString();
  EXPECT_NE(s.find("1.2.3.4"), std::string::npos);
  EXPECT_NE(s.find("5.6.7.8"), std::string::npos);
}

TEST(KeyKindTest, ByteWidthsMatchPaper) {
  EXPECT_EQ(KeyBytes(KeyKind::kSynthetic4B), 4u);   // "each packet is 4 bytes"
  EXPECT_EQ(KeyBytes(KeyKind::kAddrPair8B), 8u);    // CAIDA src+dst
  EXPECT_EQ(KeyBytes(KeyKind::kFiveTuple13B), 13u); // 5-tuple
}

TEST(KeyKindTest, NamesAreDistinct) {
  std::set<std::string> names;
  names.insert(KeyKindName(KeyKind::kSynthetic4B));
  names.insert(KeyKindName(KeyKind::kAddrPair8B));
  names.insert(KeyKindName(KeyKind::kFiveTuple13B));
  EXPECT_EQ(names.size(), 3u);
}

TEST(FiveTupleTest, ManyTuplesRarelyCollide) {
  std::set<FlowId> ids;
  for (uint32_t i = 0; i < 20000; ++i) {
    FiveTuple t{i, ~i, static_cast<uint16_t>(i * 7), static_cast<uint16_t>(i * 13), 6};
    ids.insert(t.Id());
  }
  EXPECT_EQ(ids.size(), 20000u);
}

// The reference a ranked report must equal: a full std::sort by (count
// desc, id asc), cut to k.
std::vector<FlowCount> SortedPrefix(std::vector<FlowCount> all, size_t k) {
  std::sort(all.begin(), all.end(), [](const FlowCount& a, const FlowCount& b) {
    return a.count != b.count ? a.count > b.count : a.id < b.id;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(RankTopKTest, MatchesAFullSortWithTiesAndEveryK) {
  // Pairs of ids that differ only in the low bit, with counts drawn from
  // eight values, so most entries tie in count with many others.
  Rng rng(7);
  std::vector<FlowCount> entries;
  for (int i = 0; i < 500; ++i) {
    const FlowId even = rng.NextU64() & ~FlowId{1};
    entries.push_back({even | 1, rng.NextBounded(8)});
    entries.push_back({even, rng.NextBounded(8)});
  }
  entries.push_back({2, 5});
  entries.push_back({3, 5});
  for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{100}, entries.size() - 1,
                         entries.size(), entries.size() + 1, size_t{100000}}) {
    std::vector<FlowCount> ranked = entries;
    RankTopK(ranked, k);
    EXPECT_EQ(ranked, SortedPrefix(entries, k)) << "k = " << k;
  }
  std::vector<FlowCount> none;
  RankTopK(none, 3);
  EXPECT_TRUE(none.empty());
}

TEST(RankTopKTest, TiesRankByIdAscending) {
  std::vector<FlowCount> entries = {{3, 5}, {2, 5}, {9, 7}, {1, 0}, {0, 5}};
  RankTopK(entries, 4);
  const std::vector<FlowCount> expected = {{9, 7}, {0, 5}, {2, 5}, {3, 5}};
  EXPECT_EQ(entries, expected);
}

}  // namespace
}  // namespace hk
