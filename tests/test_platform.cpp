/// \file test_platform.cpp
/// \brief Unit tests for the platform model, generators and file I/O.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "platform/generator.hpp"
#include "platform/io.hpp"
#include "platform/platform.hpp"

namespace adept {
namespace {

// ------------------------------------------------------------- platform --

TEST(Platform, ConstructionValidates) {
  EXPECT_NO_THROW(Platform({{"a", 100.0}, {"b", 50.0}}, 1000.0));
  EXPECT_THROW(Platform({{"a", 100.0}}, 0.0), Error);         // bad bandwidth
  EXPECT_THROW(Platform({{"a", -1.0}}, 1000.0), Error);       // bad power
  EXPECT_THROW(Platform({{"", 1.0}}, 1000.0), Error);         // empty name
  EXPECT_THROW(Platform({{"a", 1.0}, {"a", 2.0}}, 1000.0), Error);  // dup name
}

/// The text of the constructor's error for `nodes`.
std::string construction_error(std::vector<NodeSpec> nodes) {
  try {
    Platform platform(std::move(nodes), 100.0);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Platform, ConstructionNamesTheFirstBadNodeInInputOrder) {
  // Two duplicate pairs: "b" repeats (at 3) before "a" does (at 4), even
  // though "a" sorts first.
  EXPECT_EQ(construction_error({{"a", 1.0}, {"b", 1.0}, {"c", 1.0},
                                {"b", 1.0}, {"a", 1.0}}),
            "duplicate node name 'b'");
  EXPECT_EQ(construction_error({{"x", 1.0}, {"y", 1.0}, {"y", 1.0},
                                {"x", 1.0}}),
            "duplicate node name 'y'");
  // A duplicate placed before an invalid node is reported first...
  EXPECT_EQ(construction_error({{"a", 1.0}, {"a", 2.0}, {"bad", -1.0}}),
            "duplicate node name 'a'");
  // ...and an invalid node placed before a duplicate, likewise.
  EXPECT_EQ(construction_error({{"a", 1.0}, {"bad", -1.0}, {"a", 2.0}}),
            "node 'bad' must have positive power");
  // A repeated name that is also invalid fails its own validation first.
  EXPECT_EQ(construction_error({{"a", 1.0}, {"a", 0.0}}),
            "node 'a' must have positive power");
  EXPECT_EQ(construction_error({{"a", 1.0}, {"", 1.0}}),
            "node name must be non-empty");
  EXPECT_EQ(construction_error({{"a", 1.0}, {"b", 1.0}}), "");
}

TEST(Platform, AddNodeRejectsDuplicates) {
  Platform platform({{"a", 100.0}}, 1000.0);
  EXPECT_EQ(platform.add_node({"b", 200.0}), 1u);
  EXPECT_THROW(platform.add_node({"a", 300.0}), Error);
  EXPECT_EQ(platform.size(), 2u);
}

TEST(Platform, AggregateQueries) {
  Platform platform({{"a", 100.0}, {"b", 300.0}, {"c", 200.0}}, 1000.0);
  EXPECT_DOUBLE_EQ(platform.total_power(), 600.0);
  EXPECT_DOUBLE_EQ(platform.min_power(), 100.0);
  EXPECT_DOUBLE_EQ(platform.max_power(), 300.0);
  EXPECT_DOUBLE_EQ(platform.heterogeneity_ratio(), 3.0);
  EXPECT_FALSE(platform.is_homogeneous());
}

TEST(Platform, HomogeneityDetection) {
  EXPECT_TRUE(gen::homogeneous(5, 750.0, 100.0).is_homogeneous());
  Platform single({{"only", 1.0}}, 1.0);
  EXPECT_TRUE(single.is_homogeneous());
}

TEST(Platform, IdsByPowerDescIsStable) {
  Platform platform({{"a", 100.0}, {"b", 300.0}, {"c", 300.0}, {"d", 50.0}},
                    1000.0);
  const auto ids = platform.ids_by_power_desc();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], 1u);  // b before c: equal power, lower id first
  EXPECT_EQ(ids[1], 2u);
  EXPECT_EQ(ids[2], 0u);
  EXPECT_EQ(ids[3], 3u);
}

TEST(Platform, SubsetPreservesOrderAndBandwidth) {
  Platform platform({{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}, 512.0);
  const Platform sub = platform.subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.node(0).name, "c");
  EXPECT_EQ(sub.node(1).name, "a");
  EXPECT_DOUBLE_EQ(sub.bandwidth(), 512.0);
}

TEST(Platform, NodeOutOfRangeThrows) {
  Platform platform({{"a", 1.0}}, 1.0);
  EXPECT_THROW(platform.node(1), Error);
}

// ----------------------------------------------------------- generators --

TEST(Generators, HomogeneousAllEqual) {
  const Platform platform = gen::homogeneous(8, 1234.5, 100.0);
  EXPECT_EQ(platform.size(), 8u);
  for (const auto& node : platform.nodes()) EXPECT_DOUBLE_EQ(node.power, 1234.5);
}

TEST(Generators, UniformStaysInBounds) {
  Rng rng(3);
  const Platform platform = gen::uniform(100, 200.0, 1200.0, 1000.0, rng);
  for (const auto& node : platform.nodes()) {
    EXPECT_GE(node.power, 200.0);
    EXPECT_LT(node.power, 1200.0);
  }
}

TEST(Generators, UniformIsDeterministicPerSeed) {
  Rng rng1(42), rng2(42);
  const Platform a = gen::uniform(20, 100.0, 500.0, 1000.0, rng1);
  const Platform b = gen::uniform(20, 100.0, 500.0, 1000.0, rng2);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.node(i).power, b.node(i).power);
}

TEST(Generators, BimodalCreatesTwoBands) {
  Rng rng(5);
  const Platform platform = gen::bimodal(100, 1000.0, 0.5, 0.3, 1000.0, rng, 0.0);
  std::size_t slow = 0;
  for (const auto& node : platform.nodes())
    if (node.power < 500.0) ++slow;
  EXPECT_EQ(slow, 50u);
}

TEST(Generators, ClusteredGeometricGroups) {
  const Platform platform = gen::clustered(10, 2, 1000.0, 0.5, 1000.0);
  EXPECT_EQ(platform.size(), 10u);
  EXPECT_DOUBLE_EQ(platform.node(0).power, 1000.0);
  EXPECT_DOUBLE_EQ(platform.node(9).power, 500.0);
}

TEST(Generators, PowerLawClampedToBounds) {
  Rng rng(11);
  const Platform platform = gen::power_law(200, 100.0, 2000.0, 1.2, 1000.0, rng);
  for (const auto& node : platform.nodes()) {
    EXPECT_GE(node.power, 100.0);
    EXPECT_LE(node.power, 2000.0);
  }
}

TEST(Generators, OrsayLoadedIsHeterogeneous) {
  Rng rng(1);
  const Platform platform = gen::grid5000_orsay_loaded(200, rng);
  EXPECT_EQ(platform.size(), 200u);
  EXPECT_GT(platform.heterogeneity_ratio(), 1.5);
  // Loaded nodes never exceed the unloaded Linpack rate.
  EXPECT_LE(platform.max_power(), 200.0 + 1e-9);
  EXPECT_GE(platform.min_power(), 0.2 * 200.0 - 1e-9);
}

TEST(Generators, RejectBadArguments) {
  Rng rng(1);
  EXPECT_THROW(gen::homogeneous(0, 1.0, 1.0), Error);
  EXPECT_THROW(gen::uniform(5, 10.0, 5.0, 1.0, rng), Error);
  EXPECT_THROW(gen::bimodal(5, 1.0, 1.5, 0.5, 1.0, rng), Error);
  EXPECT_THROW(gen::clustered(5, 6, 1.0, 0.5, 1.0), Error);
  EXPECT_THROW(gen::power_law(5, 1.0, 2.0, 0.0, 1.0, rng), Error);
}

// ------------------------------------------------------------------- io --

TEST(PlatformIo, ParsesFullGrammar) {
  const std::string text = R"(# a comment
bandwidth 1000   # trailing comment
node alpha 750.5
nodes worker 3 500
)";
  const Platform platform = io::parse_platform(text);
  EXPECT_DOUBLE_EQ(platform.bandwidth(), 1000.0);
  ASSERT_EQ(platform.size(), 4u);
  EXPECT_EQ(platform.node(0).name, "alpha");
  EXPECT_DOUBLE_EQ(platform.node(0).power, 750.5);
  EXPECT_EQ(platform.node(1).name, "worker-0");
  EXPECT_EQ(platform.node(3).name, "worker-2");
  EXPECT_DOUBLE_EQ(platform.node(2).power, 500.0);
}

TEST(PlatformIo, RoundTripsThroughSerialize) {
  Rng rng(17);
  const Platform original = gen::uniform(25, 100.0, 900.0, 512.0, rng);
  const Platform parsed = io::parse_platform(io::serialize_platform(original));
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_DOUBLE_EQ(parsed.bandwidth(), original.bandwidth());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.node(i).name, original.node(i).name);
    EXPECT_NEAR(parsed.node(i).power, original.node(i).power,
                1e-9 * original.node(i).power);
  }
}

TEST(PlatformIo, ErrorsCarryLineNumbers) {
  try {
    io::parse_platform("bandwidth 100\nnode broken\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(PlatformIo, RejectsStructuralProblems) {
  EXPECT_THROW(io::parse_platform("node a 100\n"), Error);   // no bandwidth
  EXPECT_THROW(io::parse_platform("bandwidth 100\n"), Error);  // no nodes
  EXPECT_THROW(io::parse_platform("bandwidth 100\nbandwidth 200\nnode a 1\n"),
               Error);  // duplicate bandwidth
  EXPECT_THROW(io::parse_platform("bandwidth 100\nwibble a 1\n"), Error);
  EXPECT_THROW(io::parse_platform("bandwidth 100\nnode a -5\n"), Error);
  EXPECT_THROW(io::parse_platform("bandwidth 100\nnode a 1\nnode a 2\n"),
               Error);  // duplicate node name
}

TEST(PlatformIo, LoadMissingFileThrows) {
  EXPECT_THROW(io::load_platform("/nonexistent/path/platform.txt"), Error);
}

}  // namespace
}  // namespace adept
