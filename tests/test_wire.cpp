/// \file test_wire.cpp
/// \brief The JSON kernel (common/json.hpp) and the wire format
/// (io/wire.hpp): parser/writer behaviour, and the round-trip property
/// parse(serialize(x)) ≡ x for every wire value type — including the
/// edge values the schema encodes specially (infinity demand, excluded
/// NodeSets, hierarchies whose element order is only reachable through
/// reparent()).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "io/wire.hpp"
#include "planner/planning_service.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();
constexpr MbitRate kB = 1000.0;

// -------------------------------------------------------------- JSON kernel --

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(json::parse("null").dump(), "null");
  EXPECT_EQ(json::parse("true").dump(), "true");
  EXPECT_EQ(json::parse("false").dump(), "false");
  EXPECT_EQ(json::parse("42").dump(), "42");
  EXPECT_EQ(json::parse("-1.5").dump(), "-1.5");
  EXPECT_EQ(json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double value :
       {0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, 59.582,
        123456789.123456789, -0.0, 5.3e-3}) {
    const json::Value parsed = json::parse(json::Value(value).dump());
    EXPECT_EQ(parsed.as_number(), value);
  }
}

TEST(Json, WriterRejectsNonFiniteNumbers) {
  EXPECT_THROW(json::Value(std::numeric_limits<double>::infinity()).dump(),
               Error);
  EXPECT_THROW(json::Value(std::nan("")).dump(), Error);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "line\nbreak\ttab \"quote\" back\\slash \x01";
  const json::Value round = json::parse(json::Value(nasty).dump());
  EXPECT_EQ(round.as_string(), nasty);
  // \u escapes decode to UTF-8 (including a surrogate pair).
  EXPECT_EQ(json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  json::Value object = json::Value::object();
  object.set("zebra", 1);
  object.set("alpha", 2);
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"alpha\":2}");
  // set() on an existing key replaces in place, keeping the order (the
  // canonical-form property the cache fingerprint relies on).
  object.set("zebra", 3);
  EXPECT_EQ(object.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), Error);
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("[1,]"), Error);
  EXPECT_THROW(json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
  EXPECT_THROW(json::parse("1 2"), Error);
  EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"), Error);  // duplicate key
  EXPECT_THROW(json::parse("nul"), Error);
  EXPECT_THROW(json::parse("\"\\ud800\""), Error);  // unpaired surrogate
  // Full JSON number grammar: no leading zeros / bare dots / open exps.
  EXPECT_THROW(json::parse("01"), Error);
  EXPECT_THROW(json::parse("-01"), Error);
  EXPECT_THROW(json::parse("1."), Error);
  EXPECT_THROW(json::parse(".5"), Error);
  EXPECT_THROW(json::parse("1e"), Error);
  EXPECT_THROW(json::parse("+1"), Error);
  EXPECT_EQ(json::parse("0.5e-3").as_number(), 0.5e-3);
  EXPECT_EQ(json::parse("-0").as_number(), 0.0);
}

TEST(Json, DeeplyNestedDocumentsFailInsteadOfOverflowingTheStack) {
  // One hostile serve line must produce a parse error, not a SIGSEGV.
  const std::string deep_arrays(100000, '[');
  EXPECT_THROW(json::parse(deep_arrays), Error);
  std::string deep_objects;
  for (int i = 0; i < 100000; ++i) deep_objects += "{\"a\":";
  EXPECT_THROW(json::parse(deep_objects), Error);
  // Sane nesting is unaffected.
  EXPECT_NO_THROW(json::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    json::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const json::Value number(1.5);
  EXPECT_THROW(number.as_string(), Error);
  EXPECT_THROW(number.as_array(), Error);
  const json::Value object = json::Value::object();
  EXPECT_THROW(object.at("missing"), Error);
  EXPECT_EQ(object.find("missing"), nullptr);
  EXPECT_THROW(json::Value(-1.0).as_index(), Error);
  EXPECT_THROW(json::Value(1.5).as_index(), Error);
  EXPECT_EQ(json::Value(7.0).as_index(), 7u);
}

// ---------------------------------------------------------- wire round-trip --

TEST(Wire, PlatformRoundTrips) {
  Rng rng(11);
  Platform platform = gen::uniform(20, 200.0, 1200.0, kB, rng);
  platform.set_link(3, 50.0);  // heterogeneous-link node
  const Platform round =
      wire::platform_from_json(json::parse(wire::to_json(platform).dump()));
  EXPECT_EQ(round, platform);
  EXPECT_EQ(round.link_bandwidth(3), 50.0);
}

TEST(Wire, PlatformDeserializationValidates) {
  // A hostile document cannot materialise an invalid platform: the
  // domain constructor rejects non-positive powers.
  EXPECT_THROW(
      wire::platform_from_json(json::parse(
          R"({"bandwidth":1000,"nodes":[{"name":"a","power":-5}]})")),
      Error);
  EXPECT_THROW(wire::platform_from_json(json::parse(R"({"nodes":[]})")),
               Error);
}

TEST(Wire, ParamsAndServiceRoundTrip) {
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  EXPECT_EQ(wire::params_from_json(json::parse(wire::to_json(params).dump())),
            params);
  const ServiceSpec dgemm = dgemm_service(310);
  EXPECT_EQ(wire::service_from_json(json::parse(wire::to_json(dgemm).dump())),
            dgemm);
  const ServiceSpec custom{"custom", 123.25};
  EXPECT_EQ(wire::service_from_json(json::parse(wire::to_json(custom).dump())),
            custom);
}

TEST(Wire, OptionsRoundTripIncludingInfinityDemand) {
  PlanOptions options;  // default: unlimited demand, empty exclusions
  PlanOptions round =
      wire::options_from_json(json::parse(wire::to_json(options).dump()));
  EXPECT_EQ(round.demand, kUnlimitedDemand);
  EXPECT_EQ(round.degree, options.degree);
  EXPECT_EQ(round.excluded, options.excluded);
  EXPECT_EQ(round.verbose_trace, options.verbose_trace);

  options.demand = 125.5;
  options.degree = 3;
  options.shards = 6;
  options.excluded = {2, 5, 19};
  options.verbose_trace = false;
  round = wire::options_from_json(json::parse(wire::to_json(options).dump()));
  EXPECT_EQ(round.demand, 125.5);
  EXPECT_EQ(round.degree, 3u);
  EXPECT_EQ(round.shards, 6u);
  EXPECT_EQ(round.excluded, NodeSet({2, 5, 19}));
  EXPECT_FALSE(round.verbose_trace);
}

TEST(Wire, MinimalOptionsDocumentUsesDefaults) {
  const PlanOptions round = wire::options_from_json(json::parse("{}"));
  EXPECT_EQ(round.demand, kUnlimitedDemand);
  EXPECT_EQ(round.degree, 0u);
  EXPECT_EQ(round.shards, 0u);
  EXPECT_TRUE(round.excluded.empty());
  EXPECT_TRUE(round.verbose_trace);
}

TEST(Wire, CacheConfigRoundTrips) {
  const CacheConfig config{/*plan_capacity=*/256, /*shard_capacity=*/64,
                           /*coalesce=*/false};
  const CacheConfig round =
      wire::cache_config_from_json(json::parse(wire::to_json(config).dump()));
  EXPECT_EQ(round, config);
  EXPECT_EQ(round.plan_capacity, 256u);
  EXPECT_EQ(round.shard_capacity, 64u);
  EXPECT_FALSE(round.coalesce);
}

TEST(Wire, MinimalCacheConfigDocumentUsesDefaults) {
  const CacheConfig round = wire::cache_config_from_json(json::parse("{}"));
  EXPECT_EQ(round, CacheConfig{});
  EXPECT_EQ(round.plan_capacity, 0u);
  EXPECT_EQ(round.shard_capacity, 0u);
  EXPECT_TRUE(round.coalesce);
}

TEST(Wire, HierarchyRoundTripsIncludingReparentedShapes) {
  // Build a shape whose element order is only reachable through
  // reparent(): element 3's parent (index 4) was created *after* it.
  Hierarchy hierarchy;
  const auto root = hierarchy.add_root(0);
  hierarchy.add_server(root, 1);
  hierarchy.add_server(root, 2);
  const auto moved = hierarchy.add_server(root, 3);
  const auto agent = hierarchy.add_agent(root, 4);
  hierarchy.add_server(agent, 5);
  hierarchy.reparent(moved, agent);
  const Hierarchy round =
      wire::hierarchy_from_json(json::parse(wire::to_json(hierarchy).dump()));
  EXPECT_EQ(round, hierarchy);
  EXPECT_TRUE(round.validate().empty());
}

TEST(Wire, HierarchyDeserializationRejectsBrokenLinkage) {
  // children list not matched by the child's parent pointer
  EXPECT_THROW(
      wire::hierarchy_from_json(json::parse(
          R"({"elements":[
            {"node":0,"role":"agent","parent":null,"children":[1]},
            {"node":1,"role":"server","parent":null,"children":[]}]})")),
      Error);
  // self-consistent two-cycle detached from the root
  EXPECT_THROW(
      wire::hierarchy_from_json(json::parse(
          R"({"elements":[
            {"node":0,"role":"agent","parent":null,"children":[]},
            {"node":1,"role":"agent","parent":2,"children":[2]},
            {"node":2,"role":"agent","parent":1,"children":[1]}]})")),
      Error);
}

TEST(Wire, PlanResultRoundTripsFromARealPlan) {
  Rng rng(7);
  const Platform platform = gen::uniform(24, 200.0, 1200.0, kB, rng);
  for (const char* planner : {"star", "heuristic", "homogeneous"}) {
    const PlanResult plan = run_planner(planner, platform, dgemm_service(310));
    const PlanResult round =
        wire::plan_result_from_json(json::parse(wire::to_json(plan).dump()));
    EXPECT_EQ(round.hierarchy, plan.hierarchy) << planner;
    EXPECT_EQ(round.report, plan.report) << planner;
    EXPECT_EQ(round.trace, plan.trace) << planner;
  }
}

TEST(Wire, PortfolioRoundTripsWithScoresAndWinner) {
  Rng rng(19);
  const Platform platform = gen::uniform(16, 300.0, 1200.0, kB, rng);
  PlanningService service(2);
  const PortfolioResult portfolio =
      service.run_portfolio(PlanRequest(platform, kParams, dgemm_service(310)));
  ASSERT_TRUE(portfolio.has_winner());
  const PortfolioResult round =
      wire::portfolio_from_json(json::parse(wire::to_json(portfolio).dump()));
  EXPECT_EQ(round.winner, portfolio.winner);
  EXPECT_EQ(round.scores, portfolio.scores);
  ASSERT_EQ(round.runs.size(), portfolio.runs.size());
  for (std::size_t i = 0; i < round.runs.size(); ++i) {
    EXPECT_EQ(round.runs[i].planner, portfolio.runs[i].planner);
    EXPECT_EQ(round.runs[i].ok, portfolio.runs[i].ok);
    EXPECT_EQ(round.runs[i].evaluations, portfolio.runs[i].evaluations);
    EXPECT_EQ(round.runs[i].result.hierarchy,
              portfolio.runs[i].result.hierarchy);
  }
}

TEST(Wire, RequestRoundTripsWithOwningPlatform) {
  Rng rng(3);
  const Platform platform = gen::uniform(10, 200.0, 900.0, kB, rng);
  PlanRequest request(platform, kParams, dgemm_service(100));
  request.options.demand = 40.0;
  request.options.excluded = {1, 4};
  const PlanRequest round =
      wire::request_from_json(json::parse(wire::to_json(request).dump()));
  ASSERT_NE(round.platform, nullptr);
  EXPECT_EQ(*round.platform, platform);
  EXPECT_EQ(round.params, request.params);
  EXPECT_EQ(round.service, request.service);
  EXPECT_EQ(round.options.demand, 40.0);
  EXPECT_EQ(round.options.excluded, NodeSet({1, 4}));
  // The deserialized request owns its platform (use_count > 0 proves a
  // control block exists, unlike the borrowed-reference constructor).
  EXPECT_GT(round.platform.use_count(), 0);
  const PlanRequest borrowed(platform, kParams, dgemm_service(100));
  EXPECT_EQ(borrowed.platform.use_count(), 0);
}

// -------------------------------------------------------------- fingerprint --

TEST(Wire, FingerprintIsCanonicalAndDiscriminating) {
  Rng rng(5);
  const Platform platform = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const std::string base = wire::request_fingerprint(request, "heuristic");
  // Same problem, fresh copies → same fingerprint.
  PlanRequest again(platform, kParams, dgemm_service(310));
  EXPECT_EQ(wire::request_fingerprint(again, "heuristic"), base);
  // Runtime-only options (deadline) do not change the key.
  again.options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(wire::request_fingerprint(again, "heuristic"), base);
  // Planner, platform content, and plan-relevant options all do.
  EXPECT_NE(wire::request_fingerprint(request, "star"), base);
  PlanRequest different(platform, kParams, dgemm_service(310));
  different.options.demand = 10.0;
  EXPECT_NE(wire::request_fingerprint(different, "heuristic"), base);
  Platform edited = platform;
  edited.set_link(0, 10.0);
  const PlanRequest edited_request(edited, kParams, dgemm_service(310));
  EXPECT_NE(wire::request_fingerprint(edited_request, "heuristic"), base);
}

// ---------------------------------------------------- randomized corpus --

/// A random JSON document: every value kind, nested to `depth`, with
/// keys/strings drawn from an alphabet that exercises escaping.
json::Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 5 : 3);
  const auto random_string = [&rng] {
    static const std::string alphabet =
        "ab \"\\\n\t/\x01{}[]:,\xc3\xa9";  // quotes, escapes, UTF-8
    std::uniform_int_distribution<std::size_t> length(0, 12);
    std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
    std::string out;
    const std::size_t n = length(rng);
    for (std::size_t i = 0; i < n; ++i) out.push_back(alphabet[pick(rng)]);
    return out;
  };
  switch (kind(rng)) {
    case 0:
      return json::Value();
    case 1:
      return json::Value(std::uniform_int_distribution<int>(0, 1)(rng) == 1);
    case 2: {
      // Mantissa/exponent sampling covers the shortest-round-trip
      // printer's whole range, not just friendly magnitudes.
      const double mantissa =
          std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
      const int exponent = std::uniform_int_distribution<int>(-300, 300)(rng);
      return json::Value(mantissa * std::pow(10.0, exponent));
    }
    case 3:
      return json::Value(random_string());
    case 4: {
      json::Value array = json::Value::array();
      std::uniform_int_distribution<int> count(0, 4);
      const int n = count(rng);
      for (int i = 0; i < n; ++i)
        array.push_back(random_value(rng, depth - 1));
      return array;
    }
    default: {
      json::Value object = json::Value::object();
      std::uniform_int_distribution<int> count(0, 4);
      const int n = count(rng);
      for (int i = 0; i < n; ++i)
        object.set(random_string() + std::to_string(i),  // keys stay unique
                   random_value(rng, depth - 1));
      return object;
    }
  }
}

TEST(Json, RandomDocumentsRoundTripExactly) {
  // parse(dump(x)) ≡ x for 300 random documents: the canonical-form
  // property every cache fingerprint and wire hop relies on.
  std::mt19937 rng(20080615);
  for (int i = 0; i < 300; ++i) {
    const json::Value value = random_value(rng, 4);
    const std::string once = value.dump();
    EXPECT_EQ(json::parse(once).dump(), once) << "document " << i;
  }
}

TEST(Wire, RandomRequestsRoundTripBitExactly) {
  // Full wire PlanRequests over random platforms/options: the document
  // must round-trip to an equal request AND an identical fingerprint —
  // the property that makes worker answers cache-compatible.
  std::mt19937 seeds(7);
  for (int i = 0; i < 20; ++i) {
    Rng rng(seeds());
    const std::size_t nodes = 2 + (seeds() % 30);
    const Platform platform = gen::uniform(nodes, 100.0, 1500.0, kB, rng);
    PlanRequest request(platform, kParams, dgemm_service(310));
    if (seeds() % 2 == 0) request.options.demand = 1.0 + (seeds() % 1000);
    if (seeds() % 3 == 0) request.options.excluded = {0};
    request.options.shards = seeds() % 5;
    request.options.verbose_trace = seeds() % 2 == 0;
    const std::string doc = wire::to_json(request).dump();
    const PlanRequest round = wire::request_from_json(json::parse(doc));
    EXPECT_EQ(*round.platform, platform) << i;
    EXPECT_EQ(wire::to_json(round).dump(), doc) << i;
    EXPECT_EQ(wire::request_fingerprint(round, "heuristic"),
              wire::request_fingerprint(request, "heuristic"))
        << i;
  }
}

TEST(Wire, TruncatedFramesAlwaysThrowNeverMisparse) {
  // A request line cut anywhere — a worker dying mid-write — must be a
  // parse error, never a shorter valid document (object-rooted docs have
  // no complete proper prefix).
  Rng rng(13);
  const Platform platform = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const std::string doc = wire::to_json(request).dump();
  ASSERT_GT(doc.size(), 2u);
  for (std::size_t cut = 1; cut < doc.size(); cut += 7)
    EXPECT_THROW(json::parse(doc.substr(0, cut)), Error) << "cut " << cut;
  EXPECT_THROW(json::parse(std::string()), Error);
}

TEST(Wire, InterleavedGarbageThrowsOrVisiblyCorruptsNeverPassesSilently) {
  // Non-whitespace garbage injected anywhere in a frame must either fail
  // to parse or produce a document that no longer dumps to the original
  // — a corrupted line can never impersonate the clean one.
  Rng rng(13);
  const Platform platform = gen::uniform(10, 200.0, 1200.0, kB, rng);
  const std::string doc =
      wire::to_json(PlanRequest(platform, kParams, dgemm_service(310))).dump();
  std::mt19937 where(99);
  const std::string garbage = "@\x01~Z";
  for (int i = 0; i < 200; ++i) {
    std::string corrupted = doc;
    corrupted.insert(
        std::uniform_int_distribution<std::size_t>(0, doc.size())(where),
        1, garbage[i % garbage.size()]);
    try {
      EXPECT_NE(json::parse(corrupted).dump(), doc) << "iteration " << i;
    } catch (const Error&) {
      // rejected outright — the common (and best) outcome
    }
  }
  // Trailing garbage after a complete document is also a frame error.
  EXPECT_THROW(json::parse(doc + "@"), Error);
  EXPECT_THROW(json::parse(doc + " {}"), Error);
}

TEST(Wire, OversizedLinesParseWithoutTruncationOrCrash) {
  // Megabyte-scale single-line documents (a 5k-node platform easily
  // produces one) must round-trip intact — the framing layers carry
  // whole lines, whatever their size.
  std::string big(1 << 20, 'x');
  big[0] = '"';
  big[big.size() - 1] = '"';
  EXPECT_EQ(json::parse(big).as_string().size(), big.size() - 2);

  json::Value array = json::Value::array();
  for (int i = 0; i < 100000; ++i) array.push_back(i);
  const std::string dumped = array.dump();
  EXPECT_GT(dumped.size(), 500000u);
  EXPECT_EQ(json::parse(dumped).as_array().size(), 100000u);
  EXPECT_EQ(json::parse(dumped).dump(), dumped);
}


// ------------------------------------------------------ streaming codecs --
//
// The per-request paths encode with wire::write / request_key and decode
// with decode_plan_line / decode_run_answer. Each is pinned to its
// json::Value twin: same bytes out, same lines accepted, equal values.

template <typename T>
std::string streamed(const T& value) {
  std::string out;
  json::Writer writer(out);
  wire::write(writer, value);
  return out;
}

/// A request exercising every options field, on `platform`.
PlanRequest varied_request(const Platform& platform, std::mt19937& rng) {
  PlanRequest request(platform, kParams, dgemm_service(310));
  if (rng() % 2 == 0) request.options.demand = 1.0 + (rng() % 100000) / 7.0;
  request.options.degree = rng() % 4;
  request.options.shards = rng() % 3 == 0 ? 900000 : rng() % 5;
  if (rng() % 3 == 0)
    request.options.excluded = {0, platform.size() - 1, 100000};
  request.options.verbose_trace = rng() % 2 == 0;
  if (rng() % 4 == 0) request.service = ServiceSpec{"cu\"stom\x01", 0.5};
  return request;
}

TEST(Json, WriterEscapesControlBytesAsLowerCaseUnicode) {
  EXPECT_EQ(json::Value(std::string("\x01\x1f\x7f\"\\\b\f\n\r\t", 10)).dump(),
            "\"\\u0001\\u001f\x7f\\\"\\\\\\b\\f\\n\\r\\t\"");
  // Indices go through the double formatter, like Value(std::size_t).
  std::string out;
  json::Writer(out).begin_array().index(900000).index(100).index(0).end_array();
  EXPECT_EQ(out, "[9e+05,100,0]");
  EXPECT_EQ(out, json::Value(json::Value::Array{json::Value(std::size_t{900000}),
                                                json::Value(std::size_t{100}),
                                                json::Value(std::size_t{0})})
                     .dump());
}

TEST(Json, IntegerFastPathsMatchTheDoubleFormatterAndParser) {
  // Writer::index takes an integer route below 2^53 and Reader::number
  // one for plain integers of up to 15 digits; both must give exactly
  // what the double formatter and from_chars give.
  std::vector<std::size_t> values;
  for (std::size_t n = 0; n <= 2000000; ++n) values.push_back(n);
  std::mt19937_64 rng(53);
  for (std::size_t scale = 10; scale < (std::size_t{1} << 60); scale *= 10)
    for (std::size_t digit = 1; digit < 100; ++digit)
      values.push_back(digit * scale);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng() >> (rng() % 64));
    values.push_back(rng() % 1000 * std::size_t{1000000000});
  }
  values.push_back((std::size_t{1} << 53) - 1);
  values.push_back(std::size_t{1} << 53);
  std::string fast, reference;
  for (const std::size_t n : values) {
    fast.clear();
    reference.clear();
    json::Writer(fast).index(n);
    json::Writer(reference).number(static_cast<double>(n));
    ASSERT_EQ(fast, reference) << n;
    ASSERT_EQ(json::parse(fast).as_number(), static_cast<double>(n)) << n;
    const std::string plain = std::to_string(n);
    const double expected = std::stod(plain);
    ASSERT_EQ(json::parse(plain).as_number(), expected) << plain;
    ASSERT_EQ(json::parse("-" + plain).as_number(), -expected) << plain;
  }
  EXPECT_TRUE(std::signbit(json::parse("-0").as_number()));
}

TEST(Wire, StreamedRequestsMatchTheDomOnRandomAndPresetPlatforms) {
  std::mt19937 seeds(17);
  std::vector<Platform> platforms;
  for (int i = 0; i < 20; ++i) {
    Rng rng(seeds());
    Platform platform =
        gen::uniform(2 + seeds() % 40, 100.0, 1500.0, kB, rng);
    if (i % 2 == 0) platform.set_link(0, 12.5);
    platforms.push_back(platform);
  }
  for (const gen::PlatformCatalogEntry& entry : gen::platform_catalog())
    platforms.push_back(gen::catalog_platform(entry.name, 60, 5));
  for (const Platform& platform : platforms) {
    const PlanRequest request = varied_request(platform, seeds);
    EXPECT_EQ(streamed(request), wire::to_json(request).dump());
    // The fingerprint is the DOM's {planner, request} document.
    json::Value fingerprint = json::Value::object();
    fingerprint.set("planner", "heur\"istic");
    fingerprint.set("request", wire::to_json(request));
    EXPECT_EQ(wire::request_fingerprint(request, "heur\"istic"),
              fingerprint.dump());
  }
}

TEST(Wire, StreamedRunsAndPortfoliosMatchTheDom) {
  Rng rng(23);
  const Platform platform = gen::uniform(30, 200.0, 1200.0, kB, rng);
  PlanningService service(2);
  const PortfolioResult portfolio =
      service.run_portfolio(PlanRequest(platform, kParams, dgemm_service(310)));
  ASSERT_TRUE(portfolio.has_winner());
  EXPECT_EQ(streamed(portfolio), wire::to_json(portfolio).dump());
  for (const PlannerRun& run : portfolio.runs)
    EXPECT_EQ(streamed(run), wire::to_json(run).dump()) << run.planner;

  // Trace strings carrying every kind of escape.
  PlannerRun traced = portfolio.best();
  traced.result.trace = {"quote \" back \\ slash", "ctl \x01\x1f tab\t",
                         "utf-8 \xc3\xa9", ""};
  EXPECT_EQ(streamed(traced), wire::to_json(traced).dump());
  // A failed run writes "result": null, whatever its stale result holds.
  PlannerRun failed = traced;
  failed.ok = false;
  failed.skipped = true;
  failed.error = "planning deadline \"exceeded\"\n";
  EXPECT_EQ(streamed(failed), wire::to_json(failed).dump());
  EXPECT_NE(streamed(failed).find("\"result\":null"), std::string::npos);
  // No winner, unlimited scores.
  PortfolioResult lost = portfolio;
  lost.winner = PortfolioResult::npos;
  lost.scores.assign(lost.runs.size(), kUnlimitedDemand);
  lost.runs.push_back(failed);
  EXPECT_EQ(streamed(lost), wire::to_json(lost).dump());
}

/// What a serve session's DOM path makes of a plan-request line: nullopt
/// for control lines and for every line it answers with an error.
std::optional<wire::PlanLine> dom_plan_line(const std::string& line) {
  try {
    const json::Value doc = json::parse(line);
    if (doc.find("cmd") != nullptr) return std::nullopt;
    return wire::plan_line_from_json(doc);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// The fast decoder accepts `line` exactly when the DOM path does, and
/// then decodes an equal line.
void expect_same_decode(const std::string& line) {
  const std::optional<wire::PlanLine> fast = wire::decode_plan_line(line);
  const std::optional<wire::PlanLine> dom = dom_plan_line(line);
  ASSERT_EQ(fast.has_value(), dom.has_value()) << line;
  if (!fast.has_value()) return;
  EXPECT_EQ(fast->id, dom->id) << line;
  EXPECT_EQ(fast->planner, dom->planner) << line;
  EXPECT_EQ(fast->budget_ms, dom->budget_ms) << line;
  EXPECT_EQ(*fast->request.platform, *dom->request.platform) << line;
  EXPECT_EQ(wire::to_json(fast->request).dump(),
            wire::to_json(dom->request).dump())
      << line;
}

/// A plan-request line assembled from (key, value-text) members, so tests
/// control key order, spelling and repetition.
std::string line_of(const std::vector<std::pair<std::string, std::string>>&
                        members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    if (out.size() > 1) out += ",";
    out += key + ":" + value;
  }
  return out + "}";
}

TEST(Wire, FastDecoderAcceptsExactlyWhatTheDomAccepts) {
  Rng rng(29);
  Platform platform = gen::uniform(6, 200.0, 1200.0, kB, rng);
  platform.set_link(2, 40.0);
  const std::string p = wire::to_json(platform).dump();
  const std::string params = wire::to_json(kParams).dump();
  const std::string options =
      R"({"demand":12.5,"degree":2,"shards":1,"excluded":[1,4],"verbose_trace":false})";
  const std::vector<std::pair<std::string, std::string>> base = {
      {"\"id\"", "7"},          {"\"planner\"", "\"star\""},
      {"\"platform\"", p},      {"\"service\"", "\"dgemm-310\""},
      {"\"params\"", params},   {"\"options\"", options},
      {"\"budget_ms\"", "250"}};

  // Every key order (a rotation and reversal of each prefix order).
  for (std::size_t r = 0; r < base.size(); ++r) {
    auto members = base;
    std::rotate(members.begin(), members.begin() + r, members.end());
    expect_same_decode(line_of(members));
    std::reverse(members.begin(), members.end());
    expect_same_decode(line_of(members));
  }
  // Ids of every JSON type, and none.
  for (const std::string id :
       {"null", "true", "false", "-0.5e3", "\"x\\u00e9\\n\"", "[1,[2],{}]",
        "{\"a\":{\"b\":[null]}}", "900000"}) {
    auto members = base;
    members[0].second = id;
    expect_same_decode(line_of(members));
  }
  expect_same_decode(line_of({base.begin() + 1, base.end()}));
  // All three service forms, and their failures.
  for (const std::string service :
       {"\"dgemm-100\"", "59.5", R"({"name":"x\"y","wapp":3,"extra":[1]})",
        "0", "-2", "\"dgemm-0\"", "\"dgemm-x\"", "\"sgemm-3\"", "null",
        "[1]", R"({"name":"x"})", "true"}) {
    auto members = base;
    members[3].second = service;
    expect_same_decode(line_of(members));
  }
  // Options of every shape: a non-object means defaults.
  for (const std::string value :
       {"5", "null", "[]", "\"x\"", "{}", R"({"demand":"unlimited"})",
        R"({"demand":"limited"})", R"({"degree":1.5})", R"({"degree":-1})",
        R"({"excluded":[1.5]})", R"({"excluded":3})",
        R"({"verbose_trace":1})", R"({"shards":9e15,"other":{"a":[]}})"}) {
    auto members = base;
    members[5].second = value;
    expect_same_decode(line_of(members));
  }
  // Params, budgets, planners and platforms at their edges.
  for (const auto& [index, value] : std::vector<std::pair<int, std::string>>{
           {4, "null"},
           {4, R"({"agent":{"wreq":1}})"},
           {4, R"({"agent":{"wreq":1,"wfix":1,"wsel":1,"wpre":1,"sreq":1,"srep":1}})"},
           {6, "0"}, {6, "-1"}, {6, "1e11"}, {6, "8.64e10"}, {6, "\"5\""},
           {1, "5"}, {1, "\"portfolio\""},
           {2, R"({"bandwidth":-1,"nodes":[]})"},
           {2, R"({"bandwidth":1,"nodes":[{"name":"a","power":1},{"name":"a","power":2}]})"},
           {2, R"({"bandwidth":1,"nodes":[{"name":"a","power":-1}]})"},
           {2, R"({"bandwidth":1,"nodes":[{"name":"a"}]})"},
           {2, R"({"nodes":[]})"},
           {2, "[]"}}) {
    auto members = base;
    members[static_cast<std::size_t>(index)].second = value;
    expect_same_decode(line_of(members));
  }
  // Escaped keys and names decode like the DOM's.
  {
    auto members = base;
    members[2] = {"\"pl\\u0061tform\"",
                  R"({"bandwidth":5,"nodes":[{"name":"a\"b\\cé\u0001","power":3}]})"};
    expect_same_decode(line_of(members));
  }
  // Unknown members are validated and skipped at every depth.
  const std::string unknown = R"("zz":{"a":[1,{"b":null}],"c":"é"})";
  for (const std::string& where :
       {std::string("{") + unknown + ",",
        std::string(R"("bandwidth":)"), std::string(R"("name":)"),
        std::string(R"("wreq":)"), std::string(R"("demand":)")}) {
    std::string line = line_of(base);
    const std::size_t at = where == "{" + unknown + ","
                               ? std::string::npos
                               : line.find(where);
    if (at == std::string::npos) {
      line.insert(1, unknown + ",");
    } else {
      line.insert(at, unknown + ",");
    }
    expect_same_decode(line);
  }
  // Duplicate keys at each depth: top level, platform, node, params,
  // costs, service, options, inside an unknown member and inside the id.
  for (const std::string& key :
       {std::string(R"("planner":)"), std::string(R"("bandwidth":)"),
        std::string(R"("name":)"), std::string(R"("agent":)"),
        std::string(R"("wreq":)"), std::string(R"("demand":)")}) {
    std::string line = line_of(base);
    const std::size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t value_end = line.find_first_of(",}", at + key.size());
    // Repeat the member right after itself when its value is a scalar;
    // an object-valued member repeats as an empty object.
    const std::string value =
        line[at + key.size()] == '{' ? "{}" : line.substr(at + key.size(), value_end - at - key.size());
    line.insert(at, key + value + ",");
    expect_same_decode(line);
  }
  for (const std::string& extra :
       {std::string(R"("x":1,"x":2)"), std::string(R"("x":{"a":1,"a":2})"),
        std::string(R"("id":{"a":1,"a":2})"),
        std::string(R"("cmd":"stats")"), std::string(R"("cmd":5)")}) {
    auto members = base;
    members.erase(members.begin());  // the id slot, so "id" may repeat once
    std::string line = line_of(members);
    line.insert(1, extra + ",");
    expect_same_decode(line);
  }
  auto service_object = base;
  service_object[3].second = R"({"name":"a","name":"b","wapp":1})";
  expect_same_decode(line_of(service_object));
  // Not objects, trailing input, whitespace, CRLF clients.
  for (const std::string line :
       {"", " ", "[]", "\"x\"", "5", "null", "{}", "{\"cmd\":\"quit\"}"})
    expect_same_decode(line);
  expect_same_decode(line_of(base) + " \r");
  expect_same_decode(line_of(base) + " {}");
  expect_same_decode("\n\t " + line_of(base));

  // Every prefix, and injected or deleted bytes anywhere.
  const std::string line = line_of(base);
  for (std::size_t cut = 0; cut < line.size(); ++cut)
    expect_same_decode(line.substr(0, cut));
  std::mt19937 where(31);
  const std::string garbage = "@\x01~Z,:]}[{\"\\ 0-e.";
  for (int i = 0; i < 600; ++i) {
    std::string corrupted = line;
    const std::size_t at =
        std::uniform_int_distribution<std::size_t>(0, line.size() - 1)(where);
    if (i % 3 == 0) {
      corrupted.erase(at, 1);
    } else {
      corrupted.insert(at, 1, garbage[i % garbage.size()]);
    }
    expect_same_decode(corrupted);
  }
}

TEST(Wire, FastDecoderMatchesTheDomOnRandomRequests) {
  std::mt19937 seeds(37);
  for (int i = 0; i < 30; ++i) {
    Rng rng(seeds());
    Platform platform = gen::uniform(2 + seeds() % 50, 100.0, 1500.0, kB, rng);
    if (i % 3 == 0) platform.set_link(1, 7.25);
    const PlanRequest request = varied_request(platform, seeds);
    std::string line = streamed(request);
    line.insert(1, "\"id\":" + std::to_string(i) + ",\"planner\":\"heuristic\",");
    expect_same_decode(line);
    const std::optional<wire::PlanLine> fast = wire::decode_plan_line(line);
    ASSERT_TRUE(fast.has_value()) << line;
    EXPECT_EQ(wire::request_fingerprint(fast->request, "heuristic"),
              wire::request_fingerprint(request, "heuristic"));
  }
}

TEST(Wire, FastAnswerDecoderMatchesTheDom) {
  Rng rng(43);
  const Platform platform = gen::uniform(20, 200.0, 1200.0, kB, rng);
  PlanningService service(1);
  PlannerRun run =
      service.run(PlanRequest(platform, kParams, dgemm_service(310)), "heuristic");
  ASSERT_TRUE(run.ok);
  run.result.trace.push_back("esc \"\\\x01");
  PlannerRun failed = run;
  failed.ok = false;
  failed.error = "no";
  const auto answer = [](std::size_t id, const PlannerRun& r) {
    std::string out;
    json::Writer writer(out);
    writer.begin_object().key("id").index(id).key("ok").boolean(r.ok);
    if (!r.ok) writer.key("error").string(r.error);
    writer.key("run");
    wire::write(writer, r);
    writer.end_object();
    return out;
  };
  const std::vector<std::string> lines = {
      answer(3, run), answer(900000, run), answer(4, failed),
      R"({"id":1,"ok":false,"error":"parse"})",
      R"({"ok":false,"run":5,"id":2})",
      R"({"id":1,"ok":true})", R"({"id":-1,"ok":true,"run":{}})"};
  for (const std::string& line : lines) {
    const std::optional<wire::RunAnswer> fast = wire::decode_run_answer(line);
    std::optional<wire::RunAnswer> dom;
    try {
      dom = wire::run_answer_from_json(json::parse(line));
    } catch (const Error&) {
    }
    if (!fast.has_value()) continue;  // declined: the DOM decides
    ASSERT_TRUE(dom.has_value()) << line;
    EXPECT_EQ(fast->id, dom->id);
    EXPECT_EQ(fast->ok, dom->ok);
    EXPECT_EQ(wire::to_json(fast->run).dump(), wire::to_json(dom->run).dump());
  }
  // The well-formed answers decode on the fast path.
  EXPECT_TRUE(wire::decode_run_answer(lines[0]).has_value());
  EXPECT_TRUE(wire::decode_run_answer(lines[2]).has_value());
  // Truncated answers never decode.
  for (std::size_t cut = 0; cut < lines[0].size(); cut += 5)
    EXPECT_FALSE(wire::decode_run_answer(lines[0].substr(0, cut)).has_value());
}

TEST(Wire, RequestKeysAreEqualExactlyWhenFingerprintsAre) {
  Rng rng(47);
  const Platform a = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const Platform b = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const Platform big = gen::uniform(400, 200.0, 1200.0, kB, rng);  // chunks
  std::vector<std::pair<PlanRequest, std::string>> cases;
  for (const Platform* platform : {&a, &b, &big}) {
    PlanRequest request(*platform, kParams, dgemm_service(310));
    cases.emplace_back(request, "heuristic");
    cases.emplace_back(request, "star");
    PlanRequest late = request;  // runtime-only: same fingerprint
    late.options.deadline = std::chrono::steady_clock::now();
    cases.emplace_back(late, "heuristic");
    PlanRequest demand = request;
    demand.options.demand = 10.0;
    cases.emplace_back(demand, "heuristic");
  }
  Platform edited = big;
  edited.set_link(399, 3.0);  // the last byte region differs
  cases.emplace_back(PlanRequest(edited, kParams, dgemm_service(310)),
                     "heuristic");

  // Neighbouring and signed-zero values of every number the key hashes
  // as bits, names whose bytes shift across a field boundary, escaped
  // and UTF-8 text, and each plan-relevant option.
  const auto up = [](double x) {
    return std::nextafter(x, std::numeric_limits<double>::infinity());
  };
  const auto owned = [](std::vector<NodeSpec> nodes, MbitRate bandwidth) {
    return std::make_shared<const Platform>(std::move(nodes), bandwidth);
  };
  const auto on = [&](std::shared_ptr<const Platform> platform) {
    return PlanRequest(std::move(platform), kParams, dgemm_service(310));
  };
  const PlanRequest base = on(owned(a.nodes(), a.bandwidth()));
  cases.emplace_back(on(owned(a.nodes(), up(a.bandwidth()))), "heuristic");
  const auto with_node = [&](auto edit) {
    std::vector<NodeSpec> nodes = a.nodes();
    edit(nodes[3]);
    return on(owned(std::move(nodes), a.bandwidth()));
  };
  cases.emplace_back(with_node([&](NodeSpec& n) { n.power = up(n.power); }),
                     "heuristic");
  for (const double link : {0.0, -0.0, 5.0, up(5.0)})
    cases.emplace_back(with_node([&](NodeSpec& n) { n.link = link; }),
                       "heuristic");
  for (const double wapp : {up(dgemm_service(310).wapp), 0.0, -0.0}) {
    PlanRequest request = base;
    request.service.wapp = wapp;
    cases.emplace_back(request, "heuristic");
  }
  for (ElementCosts MiddlewareParams::*row :
       {&MiddlewareParams::agent, &MiddlewareParams::server}) {
    for (double ElementCosts::*field :
         {&ElementCosts::wreq, &ElementCosts::wfix, &ElementCosts::wsel,
          &ElementCosts::wpre, &ElementCosts::sreq, &ElementCosts::srep}) {
      const double value = kParams.*row.*field;
      for (const double edit : {up(value), 0.0, -0.0}) {
        PlanRequest request = base;
        request.params.*row.*field = edit;
        cases.emplace_back(request, "heuristic");
      }
    }
  }
  for (const double demand : {10.0, up(10.0), 0.0, -0.0,
                              std::numeric_limits<double>::max(),
                              kUnlimitedDemand}) {
    PlanRequest request = base;
    request.options.demand = demand;
    cases.emplace_back(request, "heuristic");
  }
  const auto pair_of = [&](const char* first, const char* second) {
    return on(owned({{first, 500.0}, {second, 700.0}}, kB));
  };
  cases.emplace_back(pair_of("ab", "c"), "heuristic");
  cases.emplace_back(pair_of("a", "bc"), "heuristic");
  cases.emplace_back(pair_of("a\"b", "c"), "heuristic");
  cases.emplace_back(pair_of("a\\b", "c"), "heuristic");
  cases.emplace_back(pair_of("a\\", "\"b"), "heuristic");
  cases.emplace_back(pair_of("\xc3\xa9", "c"), "heuristic");  // é
  cases.emplace_back(pair_of("\x01", "c"), "heuristic");
  // Names that carry the hashed bytes of the tokens between them:
  // without a length prefix, {"a"+500+"b", 700}, {"c", 900} would hash
  // as {"a", 500}, {"b"+700+"c", 900}.
  const auto field_bytes = [](double power) {
    std::string bytes(8, '\0');
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(power);
    std::memcpy(bytes.data(), &bits, 8);
    // The power, this node's close, the next node's open, its name's tag.
    return 'n' + bytes + "}{s";
  };
  cases.emplace_back(
      on(owned({{"a" + field_bytes(500.0) + "b", 700.0}, {"c", 900.0}}, kB)),
      "heuristic");
  cases.emplace_back(
      on(owned({{"a", 500.0}, {"b" + field_bytes(700.0) + "c", 900.0}}, kB)),
      "heuristic");
  for (const char* planner :
       {"he\"uristic", "he\\uristic", "pl\xc3\xa4nner", "heuristic\n"})
    cases.emplace_back(base, planner);
  for (const NodeSet& excluded :
       {NodeSet{1}, NodeSet{2}, NodeSet{1, 2}, NodeSet{12}}) {
    PlanRequest request = base;
    request.options.excluded = excluded;
    cases.emplace_back(request, "heuristic");
  }
  for (const std::size_t degree : {3, 4}) {
    PlanRequest request = base;
    request.options.degree = degree;
    cases.emplace_back(request, "heuristic");
  }
  for (const std::size_t shards : {2, 3}) {
    PlanRequest request = base;
    request.options.shards = shards;
    cases.emplace_back(request, "heuristic");
  }
  PlanRequest quiet = base;
  quiet.options.verbose_trace = false;
  cases.emplace_back(quiet, "heuristic");
  // Equal fingerprints from different values: runtime-only options, and
  // every request after a trip over the wire.
  CancelToken token;
  PlanRequest runtime_only = base;
  runtime_only.options.cancel = &token;
  runtime_only.options.deadline = std::chrono::steady_clock::now();
  cases.emplace_back(runtime_only, "heuristic");
  const std::size_t before_wire = cases.size();
  for (std::size_t i = 0; i < before_wire; ++i) {
    if (cases[i].second != "heuristic") continue;
    cases.emplace_back(
        wire::request_from_json(json::parse(wire::to_json(cases[i].first).dump())),
        "heuristic");
  }

  std::vector<std::string> keys;
  std::vector<std::string> fingerprints;
  for (const auto& [request, planner] : cases) {
    keys.push_back(wire::request_key(request, planner));
    fingerprints.push_back(wire::request_fingerprint(request, planner));
    EXPECT_EQ(keys.back().size(), 16u);
  }
  for (std::size_t x = 0; x < cases.size(); ++x)
    for (std::size_t y = 0; y < cases.size(); ++y)
      EXPECT_EQ(keys[x] == keys[y], fingerprints[x] == fingerprints[y])
          << fingerprints[x] << "\n" << fingerprints[y];

  // The one documented way the key is finer: above 2^53 the fingerprint
  // prints a size_t through a double, merging neighbours the key keeps
  // apart. The wire cannot carry such a pair (it reads numbers as
  // doubles), so keys still equal fingerprints on every wire value.
  PlanRequest huge = base;
  huge.options.degree = std::size_t{1} << 53;
  PlanRequest huger = huge;
  huger.options.degree += 1;
  EXPECT_EQ(wire::request_fingerprint(huge, "heuristic"),
            wire::request_fingerprint(huger, "heuristic"));
  EXPECT_NE(wire::request_key(huge, "heuristic"),
            wire::request_key(huger, "heuristic"));

  // Keying fails exactly where the fingerprint does, with its text.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    PlanRequest request = base;
    request.options.demand = bad;
    std::string fingerprint_error;
    std::string key_error;
    try {
      wire::request_fingerprint(request, "heuristic");
    } catch (const Error& e) {
      fingerprint_error = e.what();
    }
    try {
      wire::request_key(request, "heuristic");
    } catch (const Error& e) {
      key_error = e.what();
    }
    EXPECT_FALSE(key_error.empty());
    EXPECT_EQ(key_error, fingerprint_error);
  }
  EXPECT_THROW(wire::request_key(PlanRequest{}, "heuristic"), Error);
}

}  // namespace
}  // namespace adept
