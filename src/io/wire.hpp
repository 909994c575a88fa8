#pragma once
/// \file wire.hpp
/// \brief The planning API's JSON wire format: one streaming codec per
/// request-path type, and the DOM codecs of the cold types.
///
/// Every value type a planning client exchanges with ADePT per request —
/// Platform, MiddlewareParams, ServiceSpec, PlanOptions, Hierarchy,
/// ThroughputReport, PlanResult, PlannerRun, PortfolioResult and the full
/// PlanRequest, plus serve plan lines and worker answers — is written by
/// one streaming writer, write(), and read by one streaming reader over
/// json::Reader, with round-trip fidelity: for any value x,
/// from_json(to_json(x)) compares equal to x (tests/test_wire.cpp pins
/// this property, including infinity demand and excluded NodeSets).
///
/// Conventions:
///   - writers always emit keys in one fixed order, so the bytes of a
///     written value are a canonical string — request_fingerprint() is
///     that string for a request, and the plan cache's key (request_key)
///     has exactly its equalities;
///   - unlimited demand is encoded as the string "unlimited" (JSON has no
///     infinity); any finite demand is a plain number;
///   - PlanOptions' runtime-only fields (deadline, cancel token, pool) do
///     not travel: a deadline is an *instant* on the server's clock.
///     Clients send a relative "budget_ms" instead, which the serve layer
///     (io/serve.hpp) turns into a deadline at admission time;
///   - readers validate through the domain constructors (Platform's
///     positivity checks, Hierarchy::from_elements' linkage checks), so a
///     hostile document cannot materialise an invalid value;
///   - a reader refuses with the text a walk over json::parse's DOM
///     gives: json::Value's type errors ("JSON value is string, expected
///     number"), "JSON object is missing key '<k>'", json::parse's
///     duplicate-key error, and the domain checks' own. On a document with
///     several faults it reports the first in line order; a missing key
///     is a fault of its object's closing brace, the first in write order
///     when several are missing.
///
/// The per-request paths use the codec directly: write() emits through a
/// json::Writer, decode_plan_line() / decode_run_answer() read a line
/// straight from its bytes, and request_key() hashes the fingerprint
/// writers' walk as bits, formatting no text. to_json / *_from_json are
/// one-line adapters for DOM callers (stats, CLI output, scenarios):
/// to_json(x) is json::parse of write()'s bytes, and *_from_json(v)
/// reads v.dump(). CacheConfig and the churn-scenario types (mutation
/// events, traces, scenarios, recordings) are cold and keep a DOM codec
/// only.

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
/// A serve line's session members (id, planner, budget_ms, cmd) are
/// ignored.
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

/// Each writes x's canonical wire bytes, the only encoding of x:
/// to_json(x) is their json::parse, and dump() reproduces them.
void write(json::Writer& out, const Platform& platform);
void write(json::Writer& out, const MiddlewareParams& params);
void write(json::Writer& out, const ServiceSpec& service);
void write(json::Writer& out, const PlanOptions& options);
void write(json::Writer& out, const Hierarchy& hierarchy);
void write(json::Writer& out, const model::ThroughputReport& report);
void write(json::Writer& out, const PlanResult& result);
void write(json::Writer& out, const PlannerRun& run);
void write(json::Writer& out, const PortfolioResult& portfolio);
void write(json::Writer& out, const PlanRequest& request);
/// Writes the request's members (platform, params, service, options)
/// into an object the caller has opened — a shard line appends its own.
void write_members(json::Writer& out, const PlanRequest& request);

/// A serve plan-request line (io/serve.hpp), decoded.
struct PlanLine {
  json::Value id;                     ///< Echoed back; null when absent.
  std::string planner = "heuristic";  ///< Registry name to plan with.
  std::optional<double> budget_ms;    ///< Relative deadline, in range.
  PlanRequest request;                ///< Owns its platform.
};

/// Decodes a plan-request line straight from its bytes: the request
/// (request_from_json's schema), the "id", the "planner" name and a
/// "budget_ms" in (0, 8.64e10]. Throws adept::Error on any other line —
/// not one JSON object, a schema or domain fault, or a control line (a
/// "cmd" member).
PlanLine decode_plan_line(std::string_view line);

/// A serve input line, classified the way the session answers it.
struct RequestLine {
  enum class Kind {
    Plan,     ///< A plan request: `plan`.
    Control,  ///< A control line ("cmd" member): `document`.
    Syntax,   ///< Not one JSON document: `error`, answered with a null id.
    Schema,   ///< A plan line decode_plan_line refused: `error`, and
              ///< `plan.id` holds the line's id to echo.
  };
  Kind kind = Kind::Plan;
  PlanLine plan;
  json::Value document;  ///< The parsed line, for Control and Schema.
  std::string error;
};

/// The one error path of serve and the in-process worker: decodes `line`
/// with decode_plan_line and, when that refuses it, json::parse's it — a
/// syntax fault anywhere is answered with its parse error; a document
/// with a "cmd" member is a control line; any other carries the
/// decoder's error and echoes the line's "id".
RequestLine read_request_line(std::string_view line);

/// A serve answer to a plan request, as a coordinator reads it.
struct RunAnswer {
  std::size_t id = 0;  ///< The request's id (shard lines use indices).
  bool ok = false;     ///< The envelope's verdict.
  PlannerRun run;      ///< The answer's run; read only when ok.
};

/// Decodes an answer line {"id": index, "ok": bool, "run": ...} straight
/// from its bytes; the run is read only when ok. Throws adept::Error on
/// any other line.
RunAnswer decode_run_answer(std::string_view line);

}  // namespace adept::wire
