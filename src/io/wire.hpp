#pragma once
/// \file wire.hpp
/// \brief The planning API's JSON wire format (serializers/deserializers).
///
/// Every value type a planning client exchanges with ADePT — Platform,
/// MiddlewareParams, ServiceSpec, PlanOptions, Hierarchy, PlanResult,
/// PlannerRun, PortfolioResult and the full PlanRequest — has a to_json /
/// *_from_json pair here with round-trip fidelity: for any value x,
/// from_json(to_json(x)) compares equal to x (tests/test_wire.cpp pins
/// this property, including infinity demand and excluded NodeSets).
///
/// Conventions:
///   - serializers always emit keys in one fixed order, so dump() of a
///     serialized value is a canonical byte string — request_fingerprint()
///     is that string for a request, and the plan cache's key
///     (request_key) has exactly its equalities;
///   - unlimited demand is encoded as the string "unlimited" (JSON has no
///     infinity); any finite demand is a plain number;
///   - PlanOptions' runtime-only fields (deadline, cancel token, pool) do
///     not travel: a deadline is an *instant* on the server's clock.
///     Clients send a relative "budget_ms" instead, which the serve layer
///     (io/serve.hpp) turns into a deadline at admission time;
///   - deserializers validate through the domain constructors (Platform's
///     positivity checks, Hierarchy::from_elements' linkage checks), so a
///     hostile document cannot materialise an invalid value.
///
/// Two codec families share that format. The json::Value family
/// (to_json / *_from_json) serves the cold paths — stats, metrics,
/// scenarios, recordings, CLI output — and is the reference the tests
/// pin the other against. The streaming family serves the per-request
/// paths without a DOM: write() emits exactly to_json(x).dump()'s bytes
/// through a json::Writer, decode_plan_line() / decode_run_answer() read
/// straight from a line's bytes and accept exactly what their DOM twins
/// accept, and request_key() hashes the fingerprint writers' walk as
/// bits, formatting no text.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/planner.hpp"
#include "planner/planning_service.hpp"
#include "planner/request.hpp"
#include "platform/platform.hpp"
#include "sim/scenario.hpp"

namespace adept::wire {

json::Value to_json(const Platform& platform);
Platform platform_from_json(const json::Value& value);

json::Value to_json(const MiddlewareParams& params);
MiddlewareParams params_from_json(const json::Value& value);

json::Value to_json(const ServiceSpec& service);
/// Accepts the canonical object form plus two client shorthands: the
/// string "dgemm-<n>" and a bare MFlop-per-request number.
ServiceSpec service_from_json(const json::Value& value);

json::Value to_json(const PlanOptions& options);
PlanOptions options_from_json(const json::Value& value);

/// Cache configuration (planner/cache_config.hpp): {"plan_capacity",
/// "shard_capacity", "coalesce"}. Travels inside serve handshakes and is
/// echoed by the serve `stats` response; every key is optional on input
/// (absent keys keep the CacheConfig default).
json::Value to_json(const CacheConfig& config);
CacheConfig cache_config_from_json(const json::Value& value);

json::Value to_json(const Hierarchy& hierarchy);
Hierarchy hierarchy_from_json(const json::Value& value);

json::Value to_json(const model::ThroughputReport& report);
model::ThroughputReport report_from_json(const json::Value& value);

json::Value to_json(const PlanResult& result);
PlanResult plan_result_from_json(const json::Value& value);

json::Value to_json(const PlannerRun& run);
PlannerRun planner_run_from_json(const json::Value& value);

json::Value to_json(const PortfolioResult& portfolio);
PortfolioResult portfolio_from_json(const json::Value& value);

/// The full request (platform embedded by value).
json::Value to_json(const PlanRequest& request);
/// Rebuilds a request that *owns* its platform (std::make_shared), so the
/// deserialized request is safe to submit() and outlive the call site.
PlanRequest request_from_json(const json::Value& value);

// Churn scenarios (sim/scenario.hpp): the scenario description, single
// mutation events, whole traces, and recordings (scenario + trace) all
// round-trip exactly — a replayed recording reproduces every platform
// state bit-for-bit. Demand values may be infinite and travel as
// "unlimited", like PlanOptions::demand.

json::Value to_json(const sim::MutationEvent& event);
sim::MutationEvent mutation_event_from_json(const json::Value& value);

json::Value trace_to_json(const std::vector<sim::MutationEvent>& trace);
std::vector<sim::MutationEvent> trace_from_json(const json::Value& value);

json::Value to_json(const sim::Scenario& scenario);
sim::Scenario scenario_from_json(const json::Value& value);

json::Value to_json(const sim::ScenarioRecording& recording);
sim::ScenarioRecording recording_from_json(const json::Value& value);

/// Canonical cache key: the compact dump of {planner, platform, params,
/// service, options}. Options' runtime-only fields are excluded (a
/// deadline does not change the plan, only whether it is computed), so
/// re-asking with a fresh deadline hits the cache. Two requests get the
/// same fingerprint iff they are the same planning problem for the same
/// planner on a content-identical platform.
std::string request_fingerprint(const PlanRequest& request,
                                const std::string& planner);

/// The 16-byte cache key of (request, planner): request_fingerprint's own
/// writers walk the request, but into two SipHash-2-4 streams under
/// per-process random keys (common/siphash.hpp) instead of a text writer.
/// Each value and bracket goes in as a tag byte and bits — strings
/// length-prefixed, numbers as their bit patterns — and member names are
/// left out, so no text is formatted. Two finite doubles print alike
/// exactly when their bits are equal, so keys are equal exactly when
/// fingerprints are, with one exception that only makes the key finer:
/// the fingerprint prints a size_t above 2^53 through a double, which can
/// merge two values the key keeps apart. Throws as request_fingerprint
/// does on a null platform or a non-finite number. A client cannot aim a
/// collision without the process's keys, and keys never leave the
/// process.
std::string request_key(const PlanRequest& request, std::string_view planner);

// ------------------------------------------------------ streaming codecs --

/// Writes to_json(request).dump()'s bytes.
void write(json::Writer& out, const PlanRequest& request);
/// Writes the request's members (platform, params, service, options)
/// into an object the caller has opened — a shard line appends its own.
void write_members(json::Writer& out, const PlanRequest& request);
/// Writes to_json(run).dump()'s bytes.
void write(json::Writer& out, const PlannerRun& run);
/// Writes to_json(portfolio).dump()'s bytes.
void write(json::Writer& out, const PortfolioResult& portfolio);

/// A serve plan-request line (io/serve.hpp), decoded.
struct PlanLine {
  json::Value id;                     ///< Echoed back; null when absent.
  std::string planner = "heuristic";  ///< Registry name to plan with.
  std::optional<double> budget_ms;    ///< Relative deadline, in range.
  PlanRequest request;                ///< Owns its platform.
};

/// DOM decoder of a plan-request line: request_from_json, then the
/// budget (in (0, 8.64e10] ms) and the planner name. Throws the serve
/// session's error text for the line.
PlanLine plan_line_from_json(const json::Value& line);
/// Decodes a plan-request line straight from its bytes. Accepts exactly
/// the lines plan_line_from_json(json::parse(line)) accepts, with an
/// equal result, except control lines (a "cmd" member); nullopt for
/// every other line, whose error the DOM path then reports.
std::optional<PlanLine> decode_plan_line(std::string_view line);

/// A serve answer to a plan request, as a coordinator reads it.
struct RunAnswer {
  std::size_t id = 0;  ///< The request's id (shard lines use indices).
  bool ok = false;     ///< The envelope's verdict.
  PlannerRun run;      ///< The answer's run; read only when ok.
};

/// DOM decoder of an answer line: {"id": index, "ok": bool, "run": ...}.
RunAnswer run_answer_from_json(const json::Value& line);
/// Decodes an answer line straight from its bytes; nullopt where it
/// declines, which the DOM decoder then settles (run_answer_from_json
/// accepts every line this does, with an equal result).
std::optional<RunAnswer> decode_run_answer(std::string_view line);

}  // namespace adept::wire
