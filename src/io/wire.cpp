#include "io/wire.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/siphash.hpp"
#include "common/strings.hpp"

namespace adept::wire {

namespace {

/// Numbers that may legally be infinite on the wire travel as the string
/// "unlimited"; everything else is a plain JSON number.
json::Value encode_rate(RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) return json::Value("unlimited");
  return json::Value(rate);
}

RequestRate decode_rate(const json::Value& value) {
  if (value.is_string()) {
    ADEPT_CHECK(value.as_string() == "unlimited",
                "rate must be a number or the string \"unlimited\"");
    return kUnlimitedDemand;
  }
  return value.as_number();
}

json::Value costs_to_json(const ElementCosts& costs) {
  json::Value out = json::Value::object();
  out.set("wreq", costs.wreq);
  out.set("wfix", costs.wfix);
  out.set("wsel", costs.wsel);
  out.set("wpre", costs.wpre);
  out.set("sreq", costs.sreq);
  out.set("srep", costs.srep);
  return out;
}

ElementCosts costs_from_json(const json::Value& value) {
  ElementCosts out;
  out.wreq = value.at("wreq").as_number();
  out.wfix = value.at("wfix").as_number();
  out.wsel = value.at("wsel").as_number();
  out.wpre = value.at("wpre").as_number();
  out.sreq = value.at("sreq").as_number();
  out.srep = value.at("srep").as_number();
  return out;
}

const char* bottleneck_tag(model::Bottleneck bottleneck) {
  switch (bottleneck) {
    case model::Bottleneck::AgentScheduling: return "agent-scheduling";
    case model::Bottleneck::ServerPrediction: return "server-prediction";
    case model::Bottleneck::Service: return "service";
  }
  return "?";
}

model::Bottleneck bottleneck_from_tag(std::string_view tag) {
  if (tag == "agent-scheduling") return model::Bottleneck::AgentScheduling;
  if (tag == "server-prediction") return model::Bottleneck::ServerPrediction;
  if (tag == "service") return model::Bottleneck::Service;
  throw Error("unknown bottleneck '" + std::string(tag) + "'");
}

/// The bare-number service shorthand: MFlop per request.
ServiceSpec service_from_mflop(double mflop) {
  ADEPT_CHECK(mflop > 0.0, "service MFlop must be positive");
  return ServiceSpec{"custom", mflop};
}

/// The "dgemm-<n>" service shorthand.
ServiceSpec service_from_name(const std::string& spec) {
  ADEPT_CHECK(strings::starts_with(spec, "dgemm-"),
              "service must be a wire object, a number, or \"dgemm-<n>\"");
  const auto n = strings::parse_int(spec.substr(6));
  ADEPT_CHECK(n.has_value() && *n > 0, "bad DGEMM size in '" + spec + "'");
  return dgemm_service(static_cast<std::size_t>(*n));
}

}  // namespace

// ---------------------------------------------------------------- Platform --

json::Value to_json(const Platform& platform) {
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

Platform platform_from_json(const json::Value& value) {
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

json::Value to_json(const MiddlewareParams& params) {
  json::Value out = json::Value::object();
  out.set("agent", costs_to_json(params.agent));
  out.set("server", costs_to_json(params.server));
  return out;
}

MiddlewareParams params_from_json(const json::Value& value) {
  MiddlewareParams out;
  out.agent = costs_from_json(value.at("agent"));
  out.server = costs_from_json(value.at("server"));
  out.validate();
  return out;
}

// ------------------------------------------------------------- ServiceSpec --

json::Value to_json(const ServiceSpec& service) {
  json::Value out = json::Value::object();
  out.set("name", service.name);
  out.set("wapp", service.wapp);
  return out;
}

ServiceSpec service_from_json(const json::Value& value) {
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

json::Value to_json(const PlanOptions& options) {
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

PlanOptions options_from_json(const json::Value& value) {
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

// -------------------------------------------------------------- CacheConfig --

json::Value to_json(const CacheConfig& config) {
  json::Value out = json::Value::object();
  out.set("plan_capacity", config.plan_capacity);
  out.set("shard_capacity", config.shard_capacity);
  out.set("coalesce", config.coalesce);
  return out;
}

CacheConfig cache_config_from_json(const json::Value& value) {
  CacheConfig out;
  if (const json::Value* plan = value.find("plan_capacity"))
    out.plan_capacity = plan->as_index();
  if (const json::Value* shard = value.find("shard_capacity"))
    out.shard_capacity = shard->as_index();
  if (const json::Value* coalesce = value.find("coalesce"))
    out.coalesce = coalesce->as_bool();
  return out;
}

// --------------------------------------------------------------- Hierarchy --

json::Value to_json(const Hierarchy& hierarchy) {
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

Hierarchy hierarchy_from_json(const json::Value& value) {
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

json::Value to_json(const model::ThroughputReport& report) {
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

model::ThroughputReport report_from_json(const json::Value& value) {
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

json::Value to_json(const PlanResult& result) {
  json::Value trace = json::Value::array();
  for (const std::string& line : result.trace) trace.push_back(line);
  json::Value out = json::Value::object();
  out.set("hierarchy", to_json(result.hierarchy));
  out.set("report", to_json(result.report));
  out.set("trace", std::move(trace));
  return out;
}

PlanResult plan_result_from_json(const json::Value& value) {
  PlanResult out;
  out.hierarchy = hierarchy_from_json(value.at("hierarchy"));
  out.report = report_from_json(value.at("report"));
  for (const json::Value& line : value.at("trace").as_array())
    out.trace.push_back(line.as_string());
  return out;
}

// -------------------------------------------------------------- PlannerRun --

json::Value to_json(const PlannerRun& run) {
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

PlannerRun planner_run_from_json(const json::Value& value) {
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

json::Value to_json(const PortfolioResult& portfolio) {
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

PortfolioResult portfolio_from_json(const json::Value& value) {
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

json::Value to_json(const PlanRequest& request) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  json::Value out = json::Value::object();
  out.set("platform", to_json(*request.platform));
  out.set("params", to_json(request.params));
  out.set("service", to_json(request.service));
  out.set("options", to_json(request.options));
  return out;
}

PlanRequest request_from_json(const json::Value& value) {
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

// ---------------------------------------------------------- churn scenarios --

json::Value to_json(const sim::MutationEvent& event) {
  json::Value out = json::Value::object();
  out.set("time", event.time);
  out.set("kind", sim::mutation_kind_name(event.kind));
  out.set("node", event.node == sim::kNoNode ? json::Value(nullptr)
                                             : json::Value(event.node));
  out.set("value", encode_rate(event.value));
  if (event.link != 0.0) out.set("link", event.link);
  if (!event.name.empty()) out.set("name", event.name);
  return out;
}

sim::MutationEvent mutation_event_from_json(const json::Value& value) {
  sim::MutationEvent out;
  out.time = value.at("time").as_number();
  out.kind = sim::mutation_kind_from_name(value.at("kind").as_string());
  const json::Value& node = value.at("node");
  out.node = node.is_null() ? sim::kNoNode : node.as_index();
  out.value = decode_rate(value.at("value"));
  if (const json::Value* link = value.find("link")) out.link = link->as_number();
  if (const json::Value* name = value.find("name"))
    out.name = name->as_string();
  return out;
}

json::Value trace_to_json(const std::vector<sim::MutationEvent>& trace) {
  json::Value out = json::Value::array();
  for (const sim::MutationEvent& event : trace) out.push_back(to_json(event));
  return out;
}

std::vector<sim::MutationEvent> trace_from_json(const json::Value& value) {
  std::vector<sim::MutationEvent> out;
  for (const json::Value& event : value.as_array())
    out.push_back(mutation_event_from_json(event));
  return out;
}

namespace {

json::Value churn_to_json(const sim::ChurnSpec& churn) {
  json::Value out = json::Value::object();
  out.set("crash_rate", churn.crash_rate);
  out.set("rejoin_after_lo", churn.rejoin_after_lo);
  out.set("rejoin_after_hi", churn.rejoin_after_hi);
  out.set("leave_rate", churn.leave_rate);
  out.set("join_rate", churn.join_rate);
  out.set("join_power_lo", churn.join_power_lo);
  out.set("join_power_hi", churn.join_power_hi);
  out.set("degrade_rate", churn.degrade_rate);
  out.set("degrade_scale_lo", churn.degrade_scale_lo);
  out.set("degrade_scale_hi", churn.degrade_scale_hi);
  out.set("degrade_for_lo", churn.degrade_for_lo);
  out.set("degrade_for_hi", churn.degrade_for_hi);
  out.set("link_drop_rate", churn.link_drop_rate);
  out.set("link_scale_lo", churn.link_scale_lo);
  out.set("link_scale_hi", churn.link_scale_hi);
  out.set("link_drop_for_lo", churn.link_drop_for_lo);
  out.set("link_drop_for_hi", churn.link_drop_for_hi);
  return out;
}

sim::ChurnSpec churn_from_json(const json::Value& value) {
  sim::ChurnSpec out;
  out.crash_rate = value.at("crash_rate").as_number();
  out.rejoin_after_lo = value.at("rejoin_after_lo").as_number();
  out.rejoin_after_hi = value.at("rejoin_after_hi").as_number();
  out.leave_rate = value.at("leave_rate").as_number();
  out.join_rate = value.at("join_rate").as_number();
  out.join_power_lo = value.at("join_power_lo").as_number();
  out.join_power_hi = value.at("join_power_hi").as_number();
  out.degrade_rate = value.at("degrade_rate").as_number();
  out.degrade_scale_lo = value.at("degrade_scale_lo").as_number();
  out.degrade_scale_hi = value.at("degrade_scale_hi").as_number();
  out.degrade_for_lo = value.at("degrade_for_lo").as_number();
  out.degrade_for_hi = value.at("degrade_for_hi").as_number();
  out.link_drop_rate = value.at("link_drop_rate").as_number();
  out.link_scale_lo = value.at("link_scale_lo").as_number();
  out.link_scale_hi = value.at("link_scale_hi").as_number();
  out.link_drop_for_lo = value.at("link_drop_for_lo").as_number();
  out.link_drop_for_hi = value.at("link_drop_for_hi").as_number();
  return out;
}

}  // namespace

json::Value to_json(const sim::Scenario& scenario) {
  json::Value platform = json::Value::object();
  if (scenario.platform.inline_platform.has_value()) {
    platform.set("inline", to_json(*scenario.platform.inline_platform));
  } else {
    platform.set("preset", scenario.platform.preset);
    platform.set("count", scenario.platform.count);
    platform.set("seed", scenario.platform.seed);
  }
  json::Value demand = json::Value::object();
  demand.set("base", scenario.demand.base);
  demand.set("amplitude", scenario.demand.amplitude);
  demand.set("period", scenario.demand.period);
  demand.set("step", scenario.demand.step);

  json::Value out = json::Value::object();
  out.set("name", scenario.name);
  out.set("seed", scenario.seed);
  out.set("duration", scenario.duration);
  out.set("platform", std::move(platform));
  out.set("churn", churn_to_json(scenario.churn));
  out.set("demand", std::move(demand));
  out.set("scripted", trace_to_json(scenario.scripted));
  return out;
}

sim::Scenario scenario_from_json(const json::Value& value) {
  sim::Scenario out;
  out.name = value.at("name").as_string();
  // as_index validates non-negative integrality and range: a negative or
  // fractional seed is a domain error, not a silent (or UB) cast. Seeds
  // are capped at 2^53 by JSON's number type either way.
  out.seed = value.at("seed").as_index();
  out.duration = value.at("duration").as_number();
  const json::Value& platform = value.at("platform");
  if (const json::Value* inlined = platform.find("inline")) {
    out.platform.inline_platform = platform_from_json(*inlined);
  } else {
    out.platform.preset = platform.at("preset").as_string();
    out.platform.count = platform.at("count").as_index();
    out.platform.seed = platform.at("seed").as_index();
  }
  out.churn = churn_from_json(value.at("churn"));
  const json::Value& demand = value.at("demand");
  out.demand.base = demand.at("base").as_number();
  out.demand.amplitude = demand.at("amplitude").as_number();
  out.demand.period = demand.at("period").as_number();
  out.demand.step = demand.at("step").as_number();
  out.scripted = trace_from_json(value.at("scripted"));
  return out;
}

json::Value to_json(const sim::ScenarioRecording& recording) {
  json::Value out = json::Value::object();
  out.set("scenario", to_json(recording.scenario));
  out.set("trace", trace_to_json(recording.trace));
  return out;
}

sim::ScenarioRecording recording_from_json(const json::Value& value) {
  sim::ScenarioRecording out;
  out.scenario = scenario_from_json(value.at("scenario"));
  out.trace = trace_from_json(value.at("trace"));
  return out;
}

// ------------------------------------------------------ streaming writers --

namespace {

// The request's writers are templates on the emitter: a json::Writer
// formats the canonical text, and request_key's KeyHasher hashes the
// same walk as bits. What is plan-relevant, and how it is normalised,
// is decided once, here.

template <class Out>
void write_rate(Out& out, RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) {
    out.string("unlimited");
  } else {
    out.number(rate);
  }
}

template <class Out>
void write(Out& out, const ElementCosts& costs) {
  out.begin_object();
  out.key("wreq").number(costs.wreq);
  out.key("wfix").number(costs.wfix);
  out.key("wsel").number(costs.wsel);
  out.key("wpre").number(costs.wpre);
  out.key("sreq").number(costs.sreq);
  out.key("srep").number(costs.srep);
  out.end_object();
}

template <class Out>
void write(Out& out, const Platform& platform) {
  out.begin_object();
  out.key("bandwidth").number(platform.bandwidth());
  out.key("nodes").begin_array();
  for (const NodeSpec& node : platform.nodes()) {
    out.begin_object();
    out.key("name").string(node.name);
    out.key("power").number(node.power);
    if (node.link != 0.0) out.key("link").number(node.link);
    out.end_object();
  }
  out.end_array();
  out.end_object();
}

template <class Out>
void write(Out& out, const PlanOptions& options) {
  out.begin_object();
  out.key("demand");
  write_rate(out, options.demand);
  out.key("degree").index(options.degree);
  out.key("shards").index(options.shards);
  out.key("excluded").begin_array();
  for (const NodeId id : options.excluded) out.index(id);
  out.end_array();
  out.key("verbose_trace").boolean(options.verbose_trace);
  out.end_object();
}

void write(json::Writer& out, const Hierarchy& hierarchy) {
  out.begin_object();
  out.key("elements").begin_array();
  for (Hierarchy::Index i = 0; i < hierarchy.size(); ++i) {
    const Hierarchy::Element& element = hierarchy.element(i);
    out.begin_object();
    out.key("node").index(element.node);
    out.key("role").string(element.role == Role::Agent ? "agent" : "server");
    out.key("parent");
    if (element.parent == Hierarchy::npos) {
      out.null();
    } else {
      out.index(element.parent);
    }
    out.key("children").begin_array();
    for (const Hierarchy::Index child : element.children) out.index(child);
    out.end_array();
    out.end_object();
  }
  out.end_array();
  out.end_object();
}

void write(json::Writer& out, const model::ThroughputReport& report) {
  out.begin_object();
  out.key("sched").number(report.sched);
  out.key("service").number(report.service);
  out.key("overall").number(report.overall);
  out.key("bottleneck").string(bottleneck_tag(report.bottleneck));
  out.key("limiting_element").index(report.limiting_element);
  out.key("server_shares").begin_array();
  for (const double share : report.server_shares) out.number(share);
  out.end_array();
  out.end_object();
}

void write(json::Writer& out, const PlanResult& result) {
  out.begin_object();
  out.key("hierarchy");
  write(out, result.hierarchy);
  out.key("report");
  write(out, result.report);
  out.key("trace").begin_array();
  for (const std::string& line : result.trace) out.string(line);
  out.end_array();
  out.end_object();
}

template <class Out>
void write_request_members(Out& out, const PlanRequest& request) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  out.key("platform");
  write(out, *request.platform);
  out.key("params").begin_object();
  out.key("agent");
  write(out, request.params.agent);
  out.key("server");
  write(out, request.params.server);
  out.end_object();
  out.key("service").begin_object();
  out.key("name").string(request.service.name);
  out.key("wapp").number(request.service.wapp);
  out.end_object();
  out.key("options");
  write(out, request.options);
}

template <class Out>
void write_fingerprint(Out& out, const PlanRequest& request,
                       std::string_view planner) {
  out.begin_object();
  out.key("planner").string(planner);
  out.key("request").begin_object();
  write_request_members(out, request);
  out.end_object();
  out.end_object();
}

/// An emitter that hashes the fingerprint's walk into two SipHash-2-4
/// streams (each under its own process key) instead of formatting it.
/// Every value and bracket goes in as a tag byte and a fixed-size or
/// length-prefixed payload, so the stream decodes back to the walk:
/// strings length-prefixed, numbers as their bit patterns. Member names
/// are left out — the writers fix each one from the values before it.
/// Two finite doubles print alike exactly when their bits are equal. A
/// small buffer makes a value cost a copy rather than two update() calls.
class KeyHasher {
 public:
  KeyHasher& begin_object() { return tag('{'); }
  KeyHasher& end_object() { return tag('}'); }
  KeyHasher& begin_array() { return tag('['); }
  KeyHasher& end_array() { return tag(']'); }
  KeyHasher& key(std::string_view) { return *this; }
  KeyHasher& boolean(bool b) { return tag(b ? 't' : 'f'); }
  /// Throws on NaN or infinity exactly as json::Writer::number does.
  KeyHasher& number(double n) {
    if (!std::isfinite(n)) {
      std::string unused;
      json::Writer(unused).number(n);
    }
    return word('n', std::bit_cast<std::uint64_t>(n));
  }
  KeyHasher& index(std::size_t n) { return word('i', n); }
  KeyHasher& string(std::string_view s) {
    word('s', s.size());
    bytes(s.data(), s.size());
    return *this;
  }

  std::string digest() {
    flush();
    const std::uint64_t halves[] = {first_.digest(), second_.digest()};
    std::string key(16, '\0');
    for (int i = 0; i < 8; ++i) {
      key[i] = static_cast<char>(halves[0] >> (8 * i));
      key[8 + i] = static_cast<char>(halves[1] >> (8 * i));
    }
    return key;
  }

 private:
  KeyHasher& tag(char t) {
    bytes(&t, 1);
    return *this;
  }
  KeyHasher& word(char t, std::uint64_t value) {
    char field[9];
    field[0] = t;
    std::memcpy(field + 1, &value, sizeof value);
    bytes(field, sizeof field);
    return *this;
  }
  void bytes(const char* data, std::size_t size) {
    if (used_ + size > sizeof buffer_) {
      flush();
      if (size > sizeof buffer_) {
        first_.update({data, size});
        second_.update({data, size});
        return;
      }
    }
    std::memcpy(buffer_ + used_, data, size);
    used_ += size;
  }
  void flush() {
    first_.update({buffer_, used_});
    second_.update({buffer_, used_});
    used_ = 0;
  }

  SipHasher first_{process_sip_key(0)};
  SipHasher second_{process_sip_key(1)};
  char buffer_[1024];
  std::size_t used_ = 0;
};

}  // namespace

void write_members(json::Writer& out, const PlanRequest& request) {
  write_request_members(out, request);
}

void write(json::Writer& out, const PlanRequest& request) {
  out.begin_object();
  write_members(out, request);
  out.end_object();
}

void write(json::Writer& out, const PlannerRun& run) {
  out.begin_object();
  out.key("planner").string(run.planner);
  out.key("ok").boolean(run.ok);
  out.key("skipped").boolean(run.skipped);
  out.key("cached").boolean(run.cached);
  out.key("error").string(run.error);
  out.key("wall_ms").number(run.wall_ms);
  out.key("evaluations").index(run.evaluations);
  out.key("result");
  if (run.ok) {
    write(out, run.result);
  } else {
    out.null();
  }
  out.end_object();
}

void write(json::Writer& out, const PortfolioResult& portfolio) {
  out.begin_object();
  out.key("winner");
  if (portfolio.has_winner()) {
    out.index(portfolio.winner);
  } else {
    out.null();
  }
  out.key("runs").begin_array();
  for (const PlannerRun& run : portfolio.runs) write(out, run);
  out.end_array();
  out.key("scores").begin_array();
  for (const RequestRate score : portfolio.scores) write_rate(out, score);
  out.end_array();
  out.end_object();
}

// ------------------------------------------------------------- fingerprint --

std::string request_fingerprint(const PlanRequest& request,
                                const std::string& planner) {
  std::string text;
  json::Writer out(text);
  write_fingerprint(out, request, planner);
  return text;
}

std::string request_key(const PlanRequest& request, std::string_view planner) {
  KeyHasher key;
  write_fingerprint(key, request, planner);
  return key.digest();
}

// ------------------------------------------------------ streaming readers --

namespace {

/// Rejects the document being fast-decoded; the caller's DOM path then
/// settles it.
[[noreturn]] void decline() { throw Error("declined by the fast decoder"); }

void require(bool condition) {
  if (!condition) decline();
}

/// One object's member names as a fast decoder meets them: names it
/// knows by position, any other by value, so a repeated key is refused
/// as json::parse refuses it — at every depth.
class Members {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit Members(std::span<const std::string_view> known) : known_(known) {}

  /// Position of `key` among the known names, or npos for another name.
  std::size_t mark(std::string_view key) {
    for (std::size_t i = 0; i < known_.size(); ++i) {
      if (known_[i] != key) continue;
      require(!has(i));
      seen_ |= std::uint32_t{1} << i;
      return i;
    }
    for (const std::string& other : others_) require(other != key);
    others_.emplace_back(key);
    return npos;
  }

  bool has(std::size_t i) const { return (seen_ >> i) & 1u; }

  /// Requires the first `count` known names to have been seen.
  void require_first(std::size_t count) const {
    const std::uint32_t mask = (std::uint32_t{1} << count) - 1;
    require((seen_ & mask) == mask);
  }

 private:
  std::span<const std::string_view> known_;
  std::uint32_t seen_ = 0;
  std::vector<std::string> others_;
};

RequestRate read_rate(json::Reader& in) {
  if (in.peek() != json::Value::Type::String) return in.number();
  require(in.string() == "unlimited");
  return kUnlimitedDemand;
}

ElementCosts read_costs(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"wreq", "wfix", "wsel",
                                               "wpre", "sreq", "srep"};
  ElementCosts out;
  double* const slots[] = {&out.wreq, &out.wfix, &out.wsel,
                           &out.wpre, &out.sreq, &out.srep};
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    const std::size_t at = members.mark(key);
    if (at == Members::npos) {
      in.skip();
    } else {
      *slots[at] = in.number();
    }
  }
  members.require_first(6);
  return out;
}

MiddlewareParams read_params(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"agent", "server"};
  MiddlewareParams out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.agent = read_costs(in); break;
      case 1: out.server = read_costs(in); break;
      default: in.skip();
    }
  }
  members.require_first(2);
  out.validate();
  return out;
}

ServiceSpec read_service(json::Reader& in) {
  switch (in.peek()) {
    case json::Value::Type::Number: return service_from_mflop(in.number());
    case json::Value::Type::String:
      return service_from_name(std::string(in.string()));
    default: break;
  }
  static constexpr std::string_view kKeys[] = {"name", "wapp"};
  ServiceSpec out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.name = in.string(); break;
      case 1: out.wapp = in.number(); break;
      default: in.skip();
    }
  }
  members.require_first(2);
  return out;
}

PlanOptions read_options(json::Reader& in) {
  PlanOptions out;
  // options_from_json reads members through find(), which a non-object
  // answers with "absent": such a value means all defaults.
  if (in.peek() != json::Value::Type::Object) {
    in.skip();
    return out;
  }
  static constexpr std::string_view kKeys[] = {"demand", "degree", "shards",
                                               "excluded", "verbose_trace"};
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.demand = read_rate(in); break;
      case 1: out.degree = in.index(); break;
      case 2: out.shards = in.index(); break;
      case 3:
        in.begin_array();
        while (in.next_item()) out.excluded.insert(in.index());
        break;
      case 4: out.verbose_trace = in.boolean(); break;
      default: in.skip();
    }
  }
  return out;
}

NodeSpec read_node(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"name", "power", "link"};
  NodeSpec out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.name = in.string(); break;
      case 1: out.power = in.number(); break;
      case 2: out.link = in.number(); break;
      default: in.skip();
    }
  }
  members.require_first(2);
  return out;
}

Platform read_platform(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"bandwidth", "nodes"};
  double bandwidth = 0.0;
  std::vector<NodeSpec> nodes;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: bandwidth = in.number(); break;
      case 1:
        in.begin_array();
        while (in.next_item()) nodes.push_back(read_node(in));
        break;
      default: in.skip();
    }
  }
  members.require_first(2);
  return Platform(std::move(nodes), bandwidth);
}

Hierarchy::Element read_element(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"node", "role", "parent",
                                               "children"};
  Hierarchy::Element out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.node = in.index(); break;
      case 1: {
        const std::string_view role = in.string();
        require(role == "agent" || role == "server");
        out.role = role == "agent" ? Role::Agent : Role::Server;
        break;
      }
      case 2:
        if (in.peek() == json::Value::Type::Null) {
          in.null();
          out.parent = Hierarchy::npos;
        } else {
          out.parent = in.index();
        }
        break;
      case 3:
        in.begin_array();
        while (in.next_item()) out.children.push_back(in.index());
        break;
      default: in.skip();
    }
  }
  members.require_first(4);
  return out;
}

Hierarchy read_hierarchy(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"elements"};
  std::vector<Hierarchy::Element> elements;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    if (members.mark(key) == Members::npos) {
      in.skip();
      continue;
    }
    in.begin_array();
    while (in.next_item()) elements.push_back(read_element(in));
  }
  members.require_first(1);
  return Hierarchy::from_elements(std::move(elements));
}

model::ThroughputReport read_report(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {
      "sched", "service", "overall", "bottleneck", "limiting_element",
      "server_shares"};
  model::ThroughputReport out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.sched = in.number(); break;
      case 1: out.service = in.number(); break;
      case 2: out.overall = in.number(); break;
      case 3: out.bottleneck = bottleneck_from_tag(in.string()); break;
      case 4: out.limiting_element = in.index(); break;
      case 5:
        in.begin_array();
        while (in.next_item()) out.server_shares.push_back(in.number());
        break;
      default: in.skip();
    }
  }
  members.require_first(6);
  return out;
}

PlanResult read_result(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"hierarchy", "report",
                                               "trace"};
  PlanResult out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.hierarchy = read_hierarchy(in); break;
      case 1: out.report = read_report(in); break;
      case 2:
        in.begin_array();
        while (in.next_item()) out.trace.emplace_back(in.string());
        break;
      default: in.skip();
    }
  }
  members.require_first(3);
  return out;
}

PlannerRun read_run(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {
      "planner", "ok",      "skipped",     "cached",
      "error",   "wall_ms", "evaluations", "result"};
  PlannerRun out;
  Members members(kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.planner = in.string(); break;
      case 1: out.ok = in.boolean(); break;
      case 2: out.skipped = in.boolean(); break;
      case 3: out.cached = in.boolean(); break;
      case 4: out.error = in.string(); break;
      case 5: out.wall_ms = in.number(); break;
      case 6: out.evaluations = in.index(); break;
      case 7:
        // planner_run_from_json reads the result only of an ok run.
        if (members.has(1) && !out.ok) {
          in.skip();
        } else {
          out.result = read_result(in);
        }
        break;
      default: in.skip();
    }
  }
  members.require_first(7);
  if (out.ok) {
    require(members.has(7));
  } else {
    out.result = PlanResult{};
  }
  return out;
}

/// budget_ms's domain: positive, and at most ~1000 days so the
/// microsecond cast and the time_point addition stay in range.
bool budget_in_range(double ms) { return ms > 0.0 && ms <= 8.64e10; }

}  // namespace

PlanLine plan_line_from_json(const json::Value& line) {
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

std::optional<PlanLine> decode_plan_line(std::string_view line) {
  static constexpr std::string_view kKeys[] = {
      "platform", "service", "params",    "options",
      "id",       "planner", "budget_ms", "cmd"};
  try {
    json::Reader in(line);
    PlanLine out;
    std::optional<Platform> platform;
    ServiceSpec service;
    MiddlewareParams params = MiddlewareParams::diet_grid5000();
    PlanOptions options;
    Members members(kKeys);
    in.begin_object();
    std::string_view key;
    while (in.next_key(key)) {
      switch (members.mark(key)) {
        case 0: platform.emplace(read_platform(in)); break;
        case 1: service = read_service(in); break;
        case 2: params = read_params(in); break;
        case 3: options = read_options(in); break;
        case 4: out.id = in.value(); break;
        case 5: out.planner = in.string(); break;
        case 6:
          out.budget_ms = in.number();
          require(budget_in_range(*out.budget_ms));
          break;
        case 7: decline();  // a control line
        default: in.skip();
      }
    }
    in.end();
    members.require_first(2);
    out.request = PlanRequest(
        std::make_shared<const Platform>(std::move(*platform)),
        std::move(params), std::move(service), std::move(options));
    return out;
  } catch (const Error&) {
    return std::nullopt;
  }
}

RunAnswer run_answer_from_json(const json::Value& line) {
  RunAnswer out;
  out.id = line.at("id").as_index();
  out.ok = line.at("ok").as_bool();
  if (out.ok) out.run = planner_run_from_json(line.at("run"));
  return out;
}

std::optional<RunAnswer> decode_run_answer(std::string_view line) {
  static constexpr std::string_view kKeys[] = {"id", "ok", "run"};
  try {
    json::Reader in(line);
    RunAnswer out;
    Members members(kKeys);
    in.begin_object();
    std::string_view key;
    while (in.next_key(key)) {
      switch (members.mark(key)) {
        case 0: out.id = in.index(); break;
        case 1: out.ok = in.boolean(); break;
        case 2:
          if (members.has(1) && !out.ok) {
            in.skip();
          } else {
            out.run = read_run(in);
          }
          break;
        default: in.skip();
      }
    }
    in.end();
    members.require_first(2);
    if (out.ok) {
      require(members.has(2));
    } else {
      out.run = PlannerRun{};
    }
    return out;
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace adept::wire
