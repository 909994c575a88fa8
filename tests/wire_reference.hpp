#pragma once
/// \file wire_reference.hpp
/// \brief The reference DOM codec of the request-path wire types.
///
/// A json::Value encoder and decoder for Platform, MiddlewareParams,
/// ServiceSpec, PlanOptions, Hierarchy, ThroughputReport, PlanResult,
/// PlannerRun, PortfolioResult, PlanRequest, serve plan lines and worker
/// answers, walked by hand over the DOM. src/io/wire's streaming codec is
/// the only one the program runs; the tests pin it against this one: the
/// same bytes written, and on every decode corpus the same outcome — the
/// value, or the echoed id and the error text. No src file includes it.

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "io/wire.hpp"

namespace adept::wire::reference {

/// Numbers that may legally be infinite on the wire travel as the string
/// "unlimited"; everything else is a plain JSON number.
inline json::Value encode_rate(RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) return json::Value("unlimited");
  return json::Value(rate);
}

inline RequestRate decode_rate(const json::Value& value) {
  if (value.is_string()) {
    ADEPT_CHECK(value.as_string() == "unlimited",
                "rate must be a number or the string \"unlimited\"");
    return kUnlimitedDemand;
  }
  return value.as_number();
}

inline json::Value costs_to_json(const ElementCosts& costs) {
  json::Value out = json::Value::object();
  out.set("wreq", costs.wreq);
  out.set("wfix", costs.wfix);
  out.set("wsel", costs.wsel);
  out.set("wpre", costs.wpre);
  out.set("sreq", costs.sreq);
  out.set("srep", costs.srep);
  return out;
}

inline ElementCosts costs_from_json(const json::Value& value) {
  ElementCosts out;
  out.wreq = value.at("wreq").as_number();
  out.wfix = value.at("wfix").as_number();
  out.wsel = value.at("wsel").as_number();
  out.wpre = value.at("wpre").as_number();
  out.sreq = value.at("sreq").as_number();
  out.srep = value.at("srep").as_number();
  return out;
}

inline const char* bottleneck_tag(model::Bottleneck bottleneck) {
  switch (bottleneck) {
    case model::Bottleneck::AgentScheduling: return "agent-scheduling";
    case model::Bottleneck::ServerPrediction: return "server-prediction";
    case model::Bottleneck::Service: return "service";
  }
  return "?";
}

inline model::Bottleneck bottleneck_from_tag(std::string_view tag) {
  if (tag == "agent-scheduling") return model::Bottleneck::AgentScheduling;
  if (tag == "server-prediction") return model::Bottleneck::ServerPrediction;
  if (tag == "service") return model::Bottleneck::Service;
  throw Error("unknown bottleneck '" + std::string(tag) + "'");
}

/// The bare-number service shorthand: MFlop per request.
inline ServiceSpec service_from_mflop(double mflop) {
  ADEPT_CHECK(mflop > 0.0, "service MFlop must be positive");
  return ServiceSpec{"custom", mflop};
}

/// The "dgemm-<n>" service shorthand.
inline ServiceSpec service_from_name(const std::string& spec) {
  ADEPT_CHECK(strings::starts_with(spec, "dgemm-"),
              "service must be a wire object, a number, or \"dgemm-<n>\"");
  const auto n = strings::parse_int(spec.substr(6));
  ADEPT_CHECK(n.has_value() && *n > 0, "bad DGEMM size in '" + spec + "'");
  return dgemm_service(static_cast<std::size_t>(*n));
}

// ---------------------------------------------------------------- Platform --

inline json::Value to_json(const Platform& platform) {
  json::Value nodes = json::Value::array();
  for (const NodeSpec& node : platform.nodes()) {
    json::Value entry = json::Value::object();
    entry.set("name", node.name);
    entry.set("power", node.power);
    if (node.link != 0.0) entry.set("link", node.link);
    nodes.push_back(std::move(entry));
  }
  json::Value out = json::Value::object();
  out.set("bandwidth", platform.bandwidth());
  out.set("nodes", std::move(nodes));
  return out;
}

inline Platform platform_from_json(const json::Value& value) {
  std::vector<NodeSpec> nodes;
  for (const json::Value& entry : value.at("nodes").as_array()) {
    NodeSpec node;
    node.name = entry.at("name").as_string();
    node.power = entry.at("power").as_number();
    if (const json::Value* link = entry.find("link"))
      node.link = link->as_number();
    nodes.push_back(std::move(node));
  }
  // The Platform constructor re-validates (positive powers/bandwidth,
  // unique names), so malformed documents fail with a domain error.
  return Platform(std::move(nodes), value.at("bandwidth").as_number());
}

// -------------------------------------------------------- MiddlewareParams --

inline json::Value to_json(const MiddlewareParams& params) {
  json::Value out = json::Value::object();
  out.set("agent", costs_to_json(params.agent));
  out.set("server", costs_to_json(params.server));
  return out;
}

inline MiddlewareParams params_from_json(const json::Value& value) {
  MiddlewareParams out;
  out.agent = costs_from_json(value.at("agent"));
  out.server = costs_from_json(value.at("server"));
  out.validate();
  return out;
}

// ------------------------------------------------------------- ServiceSpec --

inline json::Value to_json(const ServiceSpec& service) {
  json::Value out = json::Value::object();
  out.set("name", service.name);
  out.set("wapp", service.wapp);
  return out;
}

inline ServiceSpec service_from_json(const json::Value& value) {
  // Serialization always emits the object form; deserialization also
  // accepts the two client shorthands ("dgemm-<n>", bare MFlop number),
  // so every wire consumer — serve included — speaks one schema.
  if (value.is_number()) return service_from_mflop(value.as_number());
  if (value.is_string()) return service_from_name(value.as_string());
  ServiceSpec out;
  out.name = value.at("name").as_string();
  out.wapp = value.at("wapp").as_number();
  return out;
}

// ------------------------------------------------------------- PlanOptions --

inline json::Value to_json(const PlanOptions& options) {
  json::Value excluded = json::Value::array();
  for (const NodeId id : options.excluded) excluded.push_back(id);
  json::Value out = json::Value::object();
  out.set("demand", encode_rate(options.demand));
  out.set("degree", options.degree);
  out.set("shards", options.shards);
  out.set("excluded", std::move(excluded));
  out.set("verbose_trace", options.verbose_trace);
  return out;
}

inline PlanOptions options_from_json(const json::Value& value) {
  PlanOptions out;
  if (const json::Value* demand = value.find("demand"))
    out.demand = decode_rate(*demand);
  if (const json::Value* degree = value.find("degree"))
    out.degree = degree->as_index();
  if (const json::Value* shards = value.find("shards"))
    out.shards = shards->as_index();
  if (const json::Value* excluded = value.find("excluded"))
    for (const json::Value& id : excluded->as_array())
      out.excluded.insert(id.as_index());
  if (const json::Value* verbose = value.find("verbose_trace"))
    out.verbose_trace = verbose->as_bool();
  return out;
}

// --------------------------------------------------------------- Hierarchy --

inline json::Value to_json(const Hierarchy& hierarchy) {
  json::Value elements = json::Value::array();
  for (Hierarchy::Index i = 0; i < hierarchy.size(); ++i) {
    const Hierarchy::Element& element = hierarchy.element(i);
    json::Value entry = json::Value::object();
    entry.set("node", element.node);
    entry.set("role", element.role == Role::Agent ? "agent" : "server");
    entry.set("parent", element.parent == Hierarchy::npos
                            ? json::Value(nullptr)
                            : json::Value(element.parent));
    json::Value children = json::Value::array();
    for (const Hierarchy::Index child : element.children)
      children.push_back(child);
    entry.set("children", std::move(children));
    elements.push_back(std::move(entry));
  }
  json::Value out = json::Value::object();
  out.set("elements", std::move(elements));
  return out;
}

inline Hierarchy hierarchy_from_json(const json::Value& value) {
  std::vector<Hierarchy::Element> elements;
  for (const json::Value& entry : value.at("elements").as_array()) {
    Hierarchy::Element element;
    element.node = entry.at("node").as_index();
    const std::string& role = entry.at("role").as_string();
    ADEPT_CHECK(role == "agent" || role == "server",
                "element role must be \"agent\" or \"server\"");
    element.role = role == "agent" ? Role::Agent : Role::Server;
    const json::Value& parent = entry.at("parent");
    element.parent = parent.is_null() ? Hierarchy::npos : parent.as_index();
    for (const json::Value& child : entry.at("children").as_array())
      element.children.push_back(child.as_index());
    elements.push_back(std::move(element));
  }
  return Hierarchy::from_elements(std::move(elements));
}

// -------------------------------------------------------- ThroughputReport --

inline json::Value to_json(const model::ThroughputReport& report) {
  json::Value shares = json::Value::array();
  for (const double share : report.server_shares) shares.push_back(share);
  json::Value out = json::Value::object();
  out.set("sched", report.sched);
  out.set("service", report.service);
  out.set("overall", report.overall);
  out.set("bottleneck", bottleneck_tag(report.bottleneck));
  out.set("limiting_element", report.limiting_element);
  out.set("server_shares", std::move(shares));
  return out;
}

inline model::ThroughputReport report_from_json(const json::Value& value) {
  model::ThroughputReport out;
  out.sched = value.at("sched").as_number();
  out.service = value.at("service").as_number();
  out.overall = value.at("overall").as_number();
  out.bottleneck = bottleneck_from_tag(value.at("bottleneck").as_string());
  out.limiting_element = value.at("limiting_element").as_index();
  for (const json::Value& share : value.at("server_shares").as_array())
    out.server_shares.push_back(share.as_number());
  return out;
}

// -------------------------------------------------------------- PlanResult --

inline json::Value to_json(const PlanResult& result) {
  json::Value trace = json::Value::array();
  for (const std::string& line : result.trace) trace.push_back(line);
  json::Value out = json::Value::object();
  out.set("hierarchy", to_json(result.hierarchy));
  out.set("report", to_json(result.report));
  out.set("trace", std::move(trace));
  return out;
}

inline PlanResult plan_result_from_json(const json::Value& value) {
  PlanResult out;
  out.hierarchy = hierarchy_from_json(value.at("hierarchy"));
  out.report = report_from_json(value.at("report"));
  for (const json::Value& line : value.at("trace").as_array())
    out.trace.push_back(line.as_string());
  return out;
}

// -------------------------------------------------------------- PlannerRun --

inline json::Value to_json(const PlannerRun& run) {
  json::Value out = json::Value::object();
  out.set("planner", run.planner);
  out.set("ok", run.ok);
  out.set("skipped", run.skipped);
  out.set("cached", run.cached);
  out.set("error", run.error);
  out.set("wall_ms", run.wall_ms);
  out.set("evaluations", run.evaluations);
  out.set("result", run.ok ? to_json(run.result) : json::Value(nullptr));
  return out;
}

inline PlannerRun planner_run_from_json(const json::Value& value) {
  PlannerRun out;
  out.planner = value.at("planner").as_string();
  out.ok = value.at("ok").as_bool();
  out.skipped = value.at("skipped").as_bool();
  out.cached = value.at("cached").as_bool();
  out.error = value.at("error").as_string();
  out.wall_ms = value.at("wall_ms").as_number();
  out.evaluations = static_cast<std::uint64_t>(
      value.at("evaluations").as_index());
  if (out.ok) out.result = plan_result_from_json(value.at("result"));
  return out;
}

// --------------------------------------------------------- PortfolioResult --

inline json::Value to_json(const PortfolioResult& portfolio) {
  json::Value runs = json::Value::array();
  for (const PlannerRun& run : portfolio.runs) runs.push_back(to_json(run));
  json::Value scores = json::Value::array();
  for (const RequestRate score : portfolio.scores)
    scores.push_back(encode_rate(score));
  json::Value out = json::Value::object();
  out.set("winner", portfolio.has_winner() ? json::Value(portfolio.winner)
                                           : json::Value(nullptr));
  out.set("runs", std::move(runs));
  out.set("scores", std::move(scores));
  return out;
}

inline PortfolioResult portfolio_from_json(const json::Value& value) {
  PortfolioResult out;
  const json::Value& winner = value.at("winner");
  out.winner = winner.is_null() ? PortfolioResult::npos : winner.as_index();
  for (const json::Value& run : value.at("runs").as_array())
    out.runs.push_back(planner_run_from_json(run));
  for (const json::Value& score : value.at("scores").as_array())
    out.scores.push_back(decode_rate(score));
  ADEPT_CHECK(out.winner == PortfolioResult::npos ||
                  out.winner < out.runs.size(),
              "portfolio winner index out of range");
  return out;
}

// ------------------------------------------------------------- PlanRequest --

inline json::Value to_json(const PlanRequest& request) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  json::Value out = json::Value::object();
  out.set("platform", to_json(*request.platform));
  out.set("params", to_json(request.params));
  out.set("service", to_json(request.service));
  out.set("options", to_json(request.options));
  return out;
}

inline PlanRequest request_from_json(const json::Value& value) {
  // Only the platform and the service are mandatory; params default to
  // the paper's Table-3 measurements and options to PlanOptions{}, so a
  // minimal client request is just {"platform": ..., "service": ...}.
  const json::Value* params = value.find("params");
  const json::Value* options = value.find("options");
  return PlanRequest(
      std::make_shared<const Platform>(platform_from_json(value.at("platform"))),
      params != nullptr ? params_from_json(*params)
                        : MiddlewareParams::diet_grid5000(),
      service_from_json(value.at("service")),
      options != nullptr ? options_from_json(*options) : PlanOptions{});
}

/// budget_ms's domain: positive, and at most ~1000 days so the
/// microsecond cast and the time_point addition stay in range.
inline bool budget_in_range(double ms) { return ms > 0.0 && ms <= 8.64e10; }

inline PlanLine plan_line_from_json(const json::Value& line) {
  PlanLine out;
  out.request = request_from_json(line);
  if (const json::Value* budget = line.find("budget_ms")) {
    const double ms = budget->as_number();
    ADEPT_CHECK(budget_in_range(ms), "budget_ms must be in (0, 8.64e10]");
    out.budget_ms = ms;
  }
  if (const json::Value* name = line.find("planner"))
    out.planner = name->as_string();
  if (const json::Value* id = line.find("id")) out.id = *id;
  return out;
}

inline RunAnswer run_answer_from_json(const json::Value& line) {
  RunAnswer out;
  out.id = line.at("id").as_index();
  out.ok = line.at("ok").as_bool();
  if (out.ok) out.run = planner_run_from_json(line.at("run"));
  return out;
}

/// What a serve session answered a line through this codec: a control
/// line is left to the session; any other line is parsed, then decoded
/// by plan_line_from_json, and refused with the parse error (no id) or
/// the decoder's error (the line's id echoed).
struct LineOutcome {
  bool control = false;
  std::optional<PlanLine> plan;  ///< The decoded line, when accepted.
  json::Value id;                ///< Echoed by a refusal.
  std::string error;             ///< A refusal's error text.
};

inline LineOutcome line_outcome(std::string_view line) {
  LineOutcome out;
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const Error& e) {
    out.error = e.what();
    return out;
  }
  if (doc.find("cmd") != nullptr) {
    out.control = true;
    return out;
  }
  if (const json::Value* id = doc.find("id")) out.id = *id;
  try {
    out.plan = plan_line_from_json(doc);
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace adept::wire::reference
