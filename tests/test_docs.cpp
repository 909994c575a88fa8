/// \file test_docs.cpp
/// \brief Pins docs/WIRE.md to the implementation: every annotated JSON
/// example in the document must parse, deserialize through the wire
/// type named by its marker, and round-trip exactly (serialize →
/// re-parse → re-serialize produces the same canonical string). A wire
/// change that invalidates an example fails here, and an example typo
/// fails here — the reference cannot rot.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "io/wire.hpp"
#include "obs/exposition.hpp"
#include "wire_reference.hpp"

#ifndef ADEPT_SOURCE_DIR
#error "ADEPT_SOURCE_DIR must point at the repository root"
#endif

namespace adept {
namespace {

struct DocExample {
  std::string type;  ///< The wire-example marker tag.
  std::string body;  ///< The JSON text of the fenced block.
  std::size_t line = 0;  ///< 1-based line of the marker, for messages.
};

/// Extracts every  <!-- wire-example: TYPE -->  +  ```json fenced block
/// pair from a markdown document.
std::vector<DocExample> extract_examples(const std::string& path) {
  std::ifstream in(path);
  ADEPT_CHECK(in.good(), "cannot open '" + path + "'");
  std::vector<DocExample> out;
  std::string line;
  std::size_t line_no = 0;
  std::string pending_type;
  std::size_t pending_line = 0;
  bool in_block = false;
  std::ostringstream body;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed(strings::trim(line));
    if (in_block) {
      if (trimmed == "```") {
        out.push_back({pending_type, body.str(), pending_line});
        pending_type.clear();
        in_block = false;
      } else {
        body << line << '\n';
      }
      continue;
    }
    const std::string marker = "<!-- wire-example:";
    if (strings::starts_with(trimmed, marker)) {
      const auto end = trimmed.find("-->");
      ADEPT_CHECK(end != std::string::npos, "unterminated marker");
      pending_type = std::string(strings::trim(
          trimmed.substr(marker.size(), end - marker.size())));
      pending_line = line_no;
      continue;
    }
    if (!pending_type.empty() && trimmed == "```json") {
      in_block = true;
      body.str("");
      continue;
    }
    // Prose between a marker and its block is fine; a new heading or a
    // plain fence without json info drops a stale marker.
    if (!pending_type.empty() && !trimmed.empty() &&
        !strings::starts_with(trimmed, "<!--"))
      pending_type.clear();
  }
  return out;
}

/// One canonical round trip: document text -> value -> canonical dump,
/// then canonical dump -> value -> dump again. Returns (first, second);
/// equality of the two means the serializer is a fixed point on its own
/// output — the round-trip-exactness property, observable on strings.
using RoundTrip = std::function<std::string(const json::Value&)>;

template <typename Value, typename From, typename To>
RoundTrip round_trip(From from, To to) {
  return [from, to](const json::Value& doc) {
    const Value first_value = from(doc);
    const std::string first = to(first_value).dump();
    const Value second_value = from(json::parse(first));
    const std::string second = to(second_value).dump();
    EXPECT_EQ(first, second);
    return first;
  };
}

std::map<std::string, RoundTrip> dispatch() {
  using json::Value;
  std::map<std::string, RoundTrip> out;
  out["platform"] = round_trip<Platform>(
      wire::platform_from_json,
      [](const Platform& x) { return wire::to_json(x); });
  out["params"] = round_trip<MiddlewareParams>(
      wire::params_from_json,
      [](const MiddlewareParams& x) { return wire::to_json(x); });
  out["service"] = round_trip<ServiceSpec>(
      wire::service_from_json,
      [](const ServiceSpec& x) { return wire::to_json(x); });
  out["options"] = round_trip<PlanOptions>(
      wire::options_from_json,
      [](const PlanOptions& x) { return wire::to_json(x); });
  out["cache-config"] = round_trip<CacheConfig>(
      wire::cache_config_from_json,
      [](const CacheConfig& x) { return wire::to_json(x); });
  out["hierarchy"] = round_trip<Hierarchy>(
      wire::hierarchy_from_json,
      [](const Hierarchy& x) { return wire::to_json(x); });
  out["report"] = round_trip<model::ThroughputReport>(
      wire::report_from_json,
      [](const model::ThroughputReport& x) { return wire::to_json(x); });
  out["plan-result"] = round_trip<PlanResult>(
      wire::plan_result_from_json,
      [](const PlanResult& x) { return wire::to_json(x); });
  out["planner-run"] = round_trip<PlannerRun>(
      wire::planner_run_from_json,
      [](const PlannerRun& x) { return wire::to_json(x); });
  out["portfolio"] = round_trip<PortfolioResult>(
      wire::portfolio_from_json,
      [](const PortfolioResult& x) { return wire::to_json(x); });
  out["request"] = round_trip<PlanRequest>(
      wire::request_from_json,
      [](const PlanRequest& x) { return wire::to_json(x); });
  out["mutation-event"] = round_trip<sim::MutationEvent>(
      wire::mutation_event_from_json,
      [](const sim::MutationEvent& x) { return wire::to_json(x); });
  out["trace"] = round_trip<std::vector<sim::MutationEvent>>(
      wire::trace_from_json,
      [](const std::vector<sim::MutationEvent>& x) {
        return wire::trace_to_json(x);
      });
  out["scenario"] = round_trip<sim::Scenario>(
      wire::scenario_from_json,
      [](const sim::Scenario& x) { return wire::to_json(x); });
  out["recording"] = round_trip<sim::ScenarioRecording>(
      wire::recording_from_json,
      [](const sim::ScenarioRecording& x) { return wire::to_json(x); });
  out["metrics-snapshot"] = round_trip<obs::RegistrySnapshot>(
      obs::snapshot_from_json,
      [](const obs::RegistrySnapshot& x) { return obs::to_json(x); });
  return out;
}

const std::string kWireDoc = std::string(ADEPT_SOURCE_DIR) + "/docs/WIRE.md";

TEST(WireDoc, EveryAnnotatedExampleRoundTripsExactly) {
  const auto examples = extract_examples(kWireDoc);
  ASSERT_FALSE(examples.empty()) << "no wire-example blocks in " << kWireDoc;
  const auto handlers = dispatch();
  for (const DocExample& example : examples) {
    SCOPED_TRACE("WIRE.md:" + std::to_string(example.line) + " (" +
                 example.type + ")");
    const auto handler = handlers.find(example.type);
    ASSERT_NE(handler, handlers.end())
        << "unknown wire-example type '" << example.type << "'";
    json::Value doc;
    ASSERT_NO_THROW(doc = json::parse(example.body)) << example.body;
    EXPECT_NO_THROW(handler->second(doc));
  }
}

TEST(WireDoc, StreamingCodecsMatchTheDomOnEveryExample) {
  // The per-request codec against the reference DOM codec: the streaming
  // writer emits the reference's bytes for every request, run and
  // portfolio example, the readers decode each to what the reference
  // decodes, and every request example, read as a serve line, decodes to
  // the reference's line.
  const auto streamed = [](const auto& value) {
    std::string out;
    json::Writer writer(out);
    wire::write(writer, value);
    return out;
  };
  std::size_t checked = 0;
  for (const DocExample& example : extract_examples(kWireDoc)) {
    SCOPED_TRACE("WIRE.md:" + std::to_string(example.line) + " (" +
                 example.type + ")");
    const json::Value doc = json::parse(example.body);
    if (example.type == "request") {
      const PlanRequest request = wire::request_from_json(doc);
      EXPECT_EQ(streamed(request), wire::reference::to_json(request).dump());
      EXPECT_EQ(streamed(request),
                wire::reference::to_json(wire::reference::request_from_json(doc))
                    .dump());
      const wire::PlanLine line = wire::decode_plan_line(example.body);
      const wire::PlanLine dom = wire::reference::plan_line_from_json(doc);
      EXPECT_EQ(line.id, dom.id);
      EXPECT_EQ(line.planner, dom.planner);
      EXPECT_EQ(streamed(line.request), streamed(dom.request));
    } else if (example.type == "planner-run") {
      const PlannerRun run = wire::planner_run_from_json(doc);
      EXPECT_EQ(streamed(run), wire::reference::to_json(run).dump());
      EXPECT_EQ(streamed(run),
                wire::reference::to_json(
                    wire::reference::planner_run_from_json(doc))
                    .dump());
    } else if (example.type == "portfolio") {
      const PortfolioResult portfolio = wire::portfolio_from_json(doc);
      EXPECT_EQ(streamed(portfolio),
                wire::reference::to_json(portfolio).dump());
      EXPECT_EQ(streamed(portfolio),
                wire::reference::to_json(
                    wire::reference::portfolio_from_json(doc))
                    .dump());
    } else {
      continue;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(WireDoc, CoversEveryWireType) {
  const auto examples = extract_examples(kWireDoc);
  std::map<std::string, int> seen;
  for (const DocExample& example : examples) ++seen[example.type];
  for (const auto& [type, handler] : dispatch())
    EXPECT_TRUE(seen.count(type))
        << "docs/WIRE.md has no example for wire type '" << type << "'";
}

TEST(WireDoc, ServiceShorthandsDeserializeLikeTheCli) {
  // The doc promises "dgemm-310" and a bare number work anywhere a
  // service is expected; pin them to the canonical object form.
  const ServiceSpec canonical =
      wire::service_from_json(json::parse("{\"name\": \"dgemm-310\", "
                                          "\"wapp\": 59.582}"));
  const ServiceSpec shorthand =
      wire::service_from_json(json::parse("\"dgemm-310\""));
  EXPECT_EQ(shorthand.name, canonical.name);
  EXPECT_NEAR(shorthand.wapp, canonical.wapp, 1e-9);
}

}  // namespace
}  // namespace adept
