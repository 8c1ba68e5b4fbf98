// Tests for the spec-string sketch registry (sketch/registry.h): every
// contender constructs through one parser, canonical name() strings round-
// trip, and malformed specs are rejected loudly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

// The paper's contender set plus the library extensions: all 16 public
// registry names (15 canonical + the "HK" alias).
const std::vector<std::string>& AllNames() {
  static const std::vector<std::string> names = {
      "HK",      "HK-Parallel", "HK-Minimum",  "HK-Basic",      "SS",
      "LC",      "CSS",         "CM",          "CountSketch",   "Frequent",
      "Elastic", "ColdFilter",  "CounterTree", "HeavyGuardian", "Sharded",
      "Window"};
  return names;
}

SketchDefaults SmallDefaults() {
  SketchDefaults d;
  d.memory_bytes = 20 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 1;
  return d;
}

class RegistrySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySweep, ConstructsFromSpecString) {
  auto algo = MakeSketch(GetParam(), SmallDefaults());
  ASSERT_NE(algo, nullptr);
  EXPECT_LE(algo->MemoryBytes(), SmallDefaults().memory_bytes + 64) << GetParam();
  EXPECT_FALSE(algo->name().empty());
}

TEST_P(RegistrySweep, NameRoundTripsThroughParser) {
  const SketchDefaults defaults = SmallDefaults();
  auto a = MakeSketch(GetParam(), defaults);
  // name() must itself be a valid spec reconstructing an equivalent
  // configuration under the same context defaults.
  auto b = MakeSketch(a->name(), defaults);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->name(), b->name());
  EXPECT_EQ(a->MemoryBytes(), b->MemoryBytes());

  // Equivalent config + equal seeds => identical behaviour.
  const Trace trace = MakeCampusTrace(30000, 5);
  a->InsertBatch(trace.packets);
  b->InsertBatch(trace.packets);
  EXPECT_EQ(a->TopK(20), b->TopK(20));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RegistrySweep, ::testing::ValuesIn(AllNames()),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return s;
                         });

TEST(RegistryTest, RegisteredSketchesAreSortedCanonicalNames) {
  const auto names = RegisteredSketches();
  EXPECT_EQ(names.size(), 15u);  // aliases ("HK", display names) excluded
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : AllNames()) {
    EXPECT_FALSE(ResolveSketchName(name).empty()) << name;
  }
  EXPECT_EQ(ResolveSketchName("HK"), "HK-Parallel");
  EXPECT_EQ(ResolveSketchName("HeavyKeeper-Minimum"), "HK-Minimum");
  EXPECT_EQ(ResolveSketchName("Space-Saving"), "SS");
  EXPECT_EQ(ResolveSketchName("NotARealSketch"), "");
}

TEST(RegistryTest, AlgorithmParamsOverrideAndRoundTrip) {
  const SketchDefaults defaults = SmallDefaults();
  auto a = MakeSketch("HK-Minimum:d=3,b=1.05,fp=12,cb=32,decay=poly", defaults);
  EXPECT_EQ(a->name(), "HeavyKeeper-Minimum:d=3,b=1.05,fp=12,cb=32,decay=poly");
  auto b = MakeSketch(a->name(), defaults);
  EXPECT_EQ(a->name(), b->name());
  EXPECT_EQ(a->MemoryBytes(), b->MemoryBytes());

  auto cm = MakeSketch("CM:d=4", defaults);
  EXPECT_EQ(cm->name(), "CM-Sketch:d=4");
  EXPECT_EQ(MakeSketch(cm->name(), defaults)->name(), "CM-Sketch:d=4");
}

TEST(RegistryTest, GreedyInnerKeySwallowsTheRestOfTheSpec) {
  const SketchDefaults defaults = SmallDefaults();
  // The inner value keeps its own commas and colons: b=1.05 belongs to the
  // inner HeavyKeeper, not to Sharded.
  auto a = MakeSketch("Sharded:n=2,inner=HK-Minimum:d=3,b=1.05", defaults);
  EXPECT_EQ(a->name(), "Sharded:n=2,inner=HeavyKeeper-Minimum:d=3,b=1.05");
  auto b = MakeSketch(a->name(), defaults);
  EXPECT_EQ(a->name(), b->name());
  EXPECT_EQ(a->MemoryBytes(), b->MemoryBytes());

  // Keys after the greedy key are part of its value, so a Sharded key
  // "misplaced" after inner= lands in the inner parser and is rejected
  // there (HeavyKeeper has no n=).
  EXPECT_THROW(MakeSketch("Sharded:inner=HK-Minimum,n=4", defaults), std::invalid_argument);

  // Threaded specs round-trip too (n stays explicit, options canonical).
  auto threaded = MakeSketch("Sharded:n=4,threads=1,burst=64,inner=HK-Parallel", defaults);
  EXPECT_EQ(threaded->name(), "Sharded:n=4,threads=1,burst=64,inner=HeavyKeeper-Parallel");
  EXPECT_EQ(MakeSketch(threaded->name(), defaults)->name(), threaded->name());

  // Defaults: 8 synchronous HK-Minimum shards.
  auto plain = MakeSketch("Sharded", defaults);
  EXPECT_EQ(plain->name(), "Sharded:n=8,inner=HeavyKeeper-Minimum");
}

TEST(RegistryTest, CommonKeysOverrideContextDefaults) {
  const SketchDefaults defaults = SmallDefaults();
  // mem= (with unit suffix) replaces the context budget.
  auto ss_small = MakeSketch("SS:mem=8kb", defaults);
  auto ss_large = MakeSketch("SS", defaults);
  EXPECT_LT(ss_small->MemoryBytes(), ss_large->MemoryBytes());
  EXPECT_LE(ss_small->MemoryBytes(), 8 * 1024 + 64);

  // key= switches the accounting width, shrinking entry counts.
  auto ss4 = MakeSketch("SS:key=4", defaults);
  auto ss13 = MakeSketch("SS:key=13", defaults);
  EXPECT_LE(ss4->MemoryBytes(), ss13->MemoryBytes() + 64);

  // Different seeds change hashing behaviour but not accounting.
  auto hk1 = MakeSketch("HK-Minimum:seed=1", defaults);
  auto hk2 = MakeSketch("HK-Minimum:seed=2", defaults);
  EXPECT_EQ(hk1->MemoryBytes(), hk2->MemoryBytes());
}

TEST(RegistryTest, RejectsUnknownNamesAndKeys) {
  EXPECT_THROW(MakeSketch("NotARealSketch"), std::invalid_argument);
  // Unknown algorithm-specific key.
  EXPECT_THROW(MakeSketch("SS:d=2"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:width=12"), std::invalid_argument);
  // Malformed params.
  EXPECT_THROW(MakeSketch("HK-Minimum:d"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:=3"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:d=abc"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:b=fast"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:decay=linear"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:wdecay=fast"), std::invalid_argument);
  // The collapsed weighted path exists for the Minimum discipline only;
  // elsewhere the key would be a silent no-op, so it is rejected.
  EXPECT_THROW(MakeSketch("HK-Parallel:wdecay=collapsed"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Basic:wdecay=collapsed"), std::invalid_argument);
  EXPECT_NO_THROW(MakeSketch("HK-Minimum:wdecay=collapsed"));
  EXPECT_NO_THROW(MakeSketch("HK-Parallel:wdecay=replay"));
  EXPECT_THROW(MakeSketch("HK-Minimum:d=2,d=3"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("SS:key=5"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("SS:mem=10gbx"), std::invalid_argument);
}

TEST(RegistryTest, RejectsOutOfRangeAndNegativeValues) {
  // strtoull would wrap "-1" into a huge unsigned; the parser must reject
  // the sign outright, and degenerate geometries must not divide by zero.
  EXPECT_THROW(MakeSketch("CM:d=-1"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("CM:d=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("CountSketch:d=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:d=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:d=9"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:fp=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:fp=33"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:cb=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("SS:mem=-1"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("SS:seed=-7"), std::invalid_argument);
  // strtoull's ERANGE value, a kb multiply that wraps, and an empty budget.
  EXPECT_THROW(MakeSketch("HK-Minimum:mem=99999999999999999999999"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:mem=18446744073709551615kb"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:mem=0"), std::invalid_argument);
  // Past the 2^29-bucket width cap: refused before any slab is allocated.
  EXPECT_THROW(MakeSketch("HK-Minimum:mem=900000MB"), std::invalid_argument);
  // The decay probability b^-C needs a finite b > 1.
  for (const char* b : {"1", "0.5", "-3", "nan", "inf"}) {
    EXPECT_THROW(MakeSketch(std::string("HK-Minimum:b=") + b), std::invalid_argument) << b;
  }
  // Sizes whose byte count or power-of-two rounding overflows a size_t:
  // k = 2^60 store slots (the slot map's bytes wrapped to 0, and its
  // zero-fill wrote past a tiny allocation) and a ring of 2^63 (the
  // rounding wrapped to 0 and looped forever). Both throw before any
  // allocation.
  EXPECT_THROW(MakeSketch("HK-Minimum:k=1152921504606846976"), std::length_error);
  EXPECT_THROW(MakeSketch("Sharded:n=1,threads=1,ring=9223372036854775808,inner=HK-Minimum"),
               std::length_error);
}

}  // namespace
}  // namespace hk
