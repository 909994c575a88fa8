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

constexpr const char* kRateError =
    "rate must be a number or the string \"unlimited\"";

/// Numbers that may legally be infinite on the wire travel as the string
/// "unlimited"; everything else is a plain JSON number. (The churn
/// types' DOM codec; the streaming codec has emit_rate / read_rate.)
json::Value encode_rate(RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) return json::Value("unlimited");
  return json::Value(rate);
}

RequestRate decode_rate(const json::Value& value) {
  if (value.is_string()) {
    ADEPT_CHECK(value.as_string() == "unlimited", kRateError);
    return kUnlimitedDemand;
  }
  return value.as_number();
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

// ------------------------------------------------------ streaming writers --

// The request's writers are templates on the emitter: a json::Writer
// formats the canonical text, and request_key's KeyHasher hashes the
// same walk as bits. What is plan-relevant, and how it is normalised,
// is decided once, here.

template <class Out>
void emit_rate(Out& out, RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) {
    out.string("unlimited");
  } else {
    out.number(rate);
  }
}

template <class Out>
void emit(Out& out, const ElementCosts& costs) {
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
void emit(Out& out, const Platform& platform) {
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
void emit(Out& out, const MiddlewareParams& params) {
  out.begin_object();
  out.key("agent");
  emit(out, params.agent);
  out.key("server");
  emit(out, params.server);
  out.end_object();
}

template <class Out>
void emit(Out& out, const ServiceSpec& service) {
  out.begin_object();
  out.key("name").string(service.name);
  out.key("wapp").number(service.wapp);
  out.end_object();
}

template <class Out>
void emit(Out& out, const PlanOptions& options) {
  out.begin_object();
  out.key("demand");
  emit_rate(out, options.demand);
  out.key("degree").index(options.degree);
  out.key("shards").index(options.shards);
  out.key("excluded").begin_array();
  for (const NodeId id : options.excluded) out.index(id);
  out.end_array();
  out.key("verbose_trace").boolean(options.verbose_trace);
  out.end_object();
}

template <class Out>
void emit_request_members(Out& out, const PlanRequest& request) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  out.key("platform");
  emit(out, *request.platform);
  out.key("params");
  emit(out, request.params);
  out.key("service");
  emit(out, request.service);
  out.key("options");
  emit(out, request.options);
}

template <class Out>
void emit_fingerprint(Out& out, const PlanRequest& request,
                      std::string_view planner) {
  out.begin_object();
  out.key("planner").string(planner);
  out.key("request").begin_object();
  emit_request_members(out, request);
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

void write(json::Writer& out, const Platform& x) { emit(out, x); }
void write(json::Writer& out, const MiddlewareParams& x) { emit(out, x); }
void write(json::Writer& out, const ServiceSpec& x) { emit(out, x); }
void write(json::Writer& out, const PlanOptions& x) { emit(out, x); }

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
  for (const RequestRate score : portfolio.scores) emit_rate(out, score);
  out.end_array();
  out.end_object();
}

void write_members(json::Writer& out, const PlanRequest& request) {
  emit_request_members(out, request);
}

void write(json::Writer& out, const PlanRequest& request) {
  out.begin_object();
  write_members(out, request);
  out.end_object();
}

// ------------------------------------------------------------- fingerprint --

std::string request_fingerprint(const PlanRequest& request,
                                const std::string& planner) {
  std::string text;
  json::Writer out(text);
  emit_fingerprint(out, request, planner);
  return text;
}

std::string request_key(const PlanRequest& request, std::string_view planner) {
  KeyHasher key;
  emit_fingerprint(key, request, planner);
  return key.digest();
}

// ------------------------------------------------------ streaming readers --
//
// Each reader fails with the text a walk over json::parse's DOM would
// give (docs/WIRE.md, "Errors"): json::Reader's typed reads throw
// json::Value's type errors, Members throws json::parse's duplicate-key
// error and Value::at()'s missing-key error, and each domain check its
// own message. A line with several faults reports the first in line
// order; a missing member is a fault of its object's closing brace, the
// first in write order when several are missing.

namespace {

/// One object's members as a reader meets them: names it knows by
/// position, any other by value, so a repeated key fails as json::parse
/// fails it — at every depth.
class Members {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Members(json::Reader& in, std::span<const std::string_view> known)
      : in_(in), known_(known) {}

  /// Position of `key` among the known names, or npos for another name.
  std::size_t mark(std::string_view key) {
    for (std::size_t i = 0; i < known_.size(); ++i) {
      if (known_[i] != key) continue;
      if (has(i)) duplicate(key);
      seen_ |= std::uint32_t{1} << i;
      return i;
    }
    for (const std::string& other : others_)
      if (other == key) duplicate(key);
    others_.emplace_back(key);
    return npos;
  }

  bool has(std::size_t i) const { return (seen_ >> i) & 1u; }

  /// Requires known name `i` to have been seen.
  void require(std::size_t i) const {
    if (!has(i))
      throw Error("JSON object is missing key '" + std::string(known_[i]) +
                  "'");
  }

  /// Requires the first `count` known names, reporting the first missing.
  void require_first(std::size_t count) const {
    for (std::size_t i = 0; i < count; ++i) require(i);
  }

 private:
  [[noreturn]] void duplicate(std::string_view key) const {
    in_.fail("duplicate object key '" + std::string(key) + "'");
  }

  json::Reader& in_;
  std::span<const std::string_view> known_;
  std::uint32_t seen_ = 0;
  std::vector<std::string> others_;
};

/// Decodes a value held as a DOM by reading its dump with `read`: the
/// *_from_json adapters, and a member met before the "ok" that decides
/// whether it is read at all.
template <class Read>
auto read_dumped(const json::Value& value, Read read) {
  const std::string text = value.dump();
  json::Reader in(text);
  return read(in);
}

RequestRate read_rate(json::Reader& in) {
  if (in.peek() != json::Value::Type::String) return in.number();
  ADEPT_CHECK(in.string() == "unlimited", kRateError);
  return kUnlimitedDemand;
}

/// An index, or `none` for null.
std::size_t read_index_or(json::Reader& in, std::size_t none) {
  if (in.peek() != json::Value::Type::Null) return in.index();
  in.null();
  return none;
}

ElementCosts read_costs(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"wreq", "wfix", "wsel",
                                               "wpre", "sreq", "srep"};
  ElementCosts out;
  double* const slots[] = {&out.wreq, &out.wfix, &out.wsel,
                           &out.wpre, &out.sreq, &out.srep};
  Members members(in, kKeys);
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
  Members members(in, kKeys);
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

/// The canonical object form, plus two client shorthands: the string
/// "dgemm-<n>" and a bare MFlop-per-request number.
ServiceSpec read_service(json::Reader& in) {
  switch (in.peek()) {
    case json::Value::Type::Number: return service_from_mflop(in.number());
    case json::Value::Type::String:
      return service_from_name(std::string(in.string()));
    default: break;
  }
  static constexpr std::string_view kKeys[] = {"name", "wapp"};
  ServiceSpec out;
  Members members(in, kKeys);
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
  // Every member is optional, and a value that is not an object has
  // none: it means all defaults.
  if (in.peek() != json::Value::Type::Object) {
    in.skip();
    return out;
  }
  static constexpr std::string_view kKeys[] = {"demand", "degree", "shards",
                                               "excluded", "verbose_trace"};
  Members members(in, kKeys);
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
  Members members(in, kKeys);
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
  Members members(in, kKeys);
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
  // The Platform constructor validates (positive powers and bandwidth,
  // unique names), so a malformed document fails with a domain error.
  return Platform(std::move(nodes), bandwidth);
}

Hierarchy::Element read_element(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"node", "role", "parent",
                                               "children"};
  Hierarchy::Element out;
  Members members(in, kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.node = in.index(); break;
      case 1: {
        const std::string_view role = in.string();
        ADEPT_CHECK(role == "agent" || role == "server",
                    "element role must be \"agent\" or \"server\"");
        out.role = role == "agent" ? Role::Agent : Role::Server;
        break;
      }
      case 2: out.parent = read_index_or(in, Hierarchy::npos); break;
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
  Members members(in, kKeys);
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
  // from_elements checks the linkage.
  return Hierarchy::from_elements(std::move(elements));
}

model::ThroughputReport read_report(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {
      "sched", "service", "overall", "bottleneck", "limiting_element",
      "server_shares"};
  model::ThroughputReport out;
  Members members(in, kKeys);
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
  Members members(in, kKeys);
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
  std::optional<json::Value> early_result;
  Members members(in, kKeys);
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
        // Only an ok run's result is read; one met before "ok" waits.
        if (!members.has(1)) {
          early_result = in.value();
        } else if (out.ok) {
          out.result = read_result(in);
        } else {
          in.skip();
        }
        break;
      default: in.skip();
    }
  }
  members.require_first(7);
  if (out.ok) {
    members.require(7);
    if (early_result) out.result = read_dumped(*early_result, read_result);
  }
  return out;
}

PortfolioResult read_portfolio(json::Reader& in) {
  static constexpr std::string_view kKeys[] = {"winner", "runs", "scores"};
  PortfolioResult out;
  Members members(in, kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.winner = read_index_or(in, PortfolioResult::npos); break;
      case 1:
        in.begin_array();
        while (in.next_item()) out.runs.push_back(read_run(in));
        break;
      case 2:
        in.begin_array();
        while (in.next_item()) out.scores.push_back(read_rate(in));
        break;
      default: in.skip();
    }
  }
  members.require_first(3);
  ADEPT_CHECK(out.winner == PortfolioResult::npos ||
                  out.winner < out.runs.size(),
              "portfolio winner index out of range");
  return out;
}

/// Reads a plan-request object. Only the platform and the service are
/// mandatory; params default to the paper's Table-3 measurements and
/// options to PlanOptions{}, so a minimal request is just {"platform":
/// ..., "service": ...}. With `session`, the session members fill the
/// line's id, planner and budget, and a "cmd" member refuses it; without,
/// all four are skipped like any unknown member.
PlanLine read_plan_line(json::Reader& in, bool session) {
  static constexpr std::string_view kKeys[] = {
      "platform", "service", "params",    "options",
      "id",       "planner", "budget_ms", "cmd"};
  constexpr std::size_t kFirstSessionKey = 4;
  PlanLine out;
  std::optional<Platform> platform;
  ServiceSpec service;
  MiddlewareParams params = MiddlewareParams::diet_grid5000();
  PlanOptions options;
  Members members(in, kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    std::size_t at = members.mark(key);
    if (!session && at >= kFirstSessionKey) at = Members::npos;
    switch (at) {
      case 0: platform.emplace(read_platform(in)); break;
      case 1: service = read_service(in); break;
      case 2: params = read_params(in); break;
      case 3: options = read_options(in); break;
      case 4: out.id = in.value(); break;
      case 5: out.planner = in.string(); break;
      case 6: {
        // At most ~1000 days, so the microsecond cast and the
        // time_point addition stay in range.
        const double ms = in.number();
        ADEPT_CHECK(ms > 0.0 && ms <= 8.64e10,
                    "budget_ms must be in (0, 8.64e10]");
        out.budget_ms = ms;
        break;
      }
      case 7:
        // No client sees this text: read_request_line answers a line
        // that parses and has a "cmd" member as a control line.
        throw Error("a \"cmd\" line is a control line, not a plan request");
      default: in.skip();
    }
  }
  members.require_first(2);
  out.request = PlanRequest(
      std::make_shared<const Platform>(std::move(*platform)),
      std::move(params), std::move(service), std::move(options));
  return out;
}

PlanRequest read_request(json::Reader& in) {
  return read_plan_line(in, /*session=*/false).request;
}

}  // namespace

PlanLine decode_plan_line(std::string_view line) {
  json::Reader in(line);
  PlanLine out = read_plan_line(in, /*session=*/true);
  in.end();
  return out;
}

RequestLine read_request_line(std::string_view line) {
  RequestLine out;
  try {
    out.plan = decode_plan_line(line);
    return out;
  } catch (const Error& fault) {
    out.error = fault.what();
  }
  // The decoder stops at its line's first fault. json::parse tells a
  // syntax fault anywhere in the line, and a control line, from a plan
  // line whose schema the decoder refused.
  try {
    out.document = json::parse(line);
  } catch (const Error& syntax) {
    out.kind = RequestLine::Kind::Syntax;
    out.error = syntax.what();
    return out;
  }
  if (out.document.find("cmd") != nullptr) {
    out.kind = RequestLine::Kind::Control;
    out.error.clear();
    return out;
  }
  out.kind = RequestLine::Kind::Schema;
  if (const json::Value* id = out.document.find("id")) out.plan.id = *id;
  return out;
}

RunAnswer decode_run_answer(std::string_view line) {
  static constexpr std::string_view kKeys[] = {"id", "ok", "run"};
  json::Reader in(line);
  RunAnswer out;
  std::optional<json::Value> early_run;
  Members members(in, kKeys);
  in.begin_object();
  std::string_view key;
  while (in.next_key(key)) {
    switch (members.mark(key)) {
      case 0: out.id = in.index(); break;
      case 1: out.ok = in.boolean(); break;
      case 2:
        // Only an ok answer's run is read; one met before "ok" waits.
        if (!members.has(1)) {
          early_run = in.value();
        } else if (out.ok) {
          out.run = read_run(in);
        } else {
          in.skip();
        }
        break;
      default: in.skip();
    }
  }
  members.require_first(2);
  if (out.ok) {
    members.require(2);
    if (early_run) out.run = read_dumped(*early_run, read_run);
  }
  in.end();
  return out;
}

// ------------------------------------------------------------ DOM adapters --
//
// For the request-path types the DOM is a view of the codec above:
// to_json parses write()'s bytes, and *_from_json reads a value's dump.

namespace {

template <class T>
json::Value parse_written(const T& value) {
  std::string text;
  json::Writer out(text);
  write(out, value);
  return json::parse(text);
}

}  // namespace

json::Value to_json(const Platform& x) { return parse_written(x); }
json::Value to_json(const MiddlewareParams& x) { return parse_written(x); }
json::Value to_json(const ServiceSpec& x) { return parse_written(x); }
json::Value to_json(const PlanOptions& x) { return parse_written(x); }
json::Value to_json(const Hierarchy& x) { return parse_written(x); }
json::Value to_json(const model::ThroughputReport& x) {
  return parse_written(x);
}
json::Value to_json(const PlanResult& x) { return parse_written(x); }
json::Value to_json(const PlannerRun& x) { return parse_written(x); }
json::Value to_json(const PortfolioResult& x) { return parse_written(x); }
json::Value to_json(const PlanRequest& x) { return parse_written(x); }

Platform platform_from_json(const json::Value& v) {
  return read_dumped(v, read_platform);
}
MiddlewareParams params_from_json(const json::Value& v) {
  return read_dumped(v, read_params);
}
ServiceSpec service_from_json(const json::Value& v) {
  return read_dumped(v, read_service);
}
PlanOptions options_from_json(const json::Value& v) {
  return read_dumped(v, read_options);
}
Hierarchy hierarchy_from_json(const json::Value& v) {
  return read_dumped(v, read_hierarchy);
}
model::ThroughputReport report_from_json(const json::Value& v) {
  return read_dumped(v, read_report);
}
PlanResult plan_result_from_json(const json::Value& v) {
  return read_dumped(v, read_result);
}
PlannerRun planner_run_from_json(const json::Value& v) {
  return read_dumped(v, read_run);
}
PortfolioResult portfolio_from_json(const json::Value& v) {
  return read_dumped(v, read_portfolio);
}
PlanRequest request_from_json(const json::Value& v) {
  return read_dumped(v, read_request);
}

// --------------------------------------------------------- DOM-only codecs --
//
// Cold types a client never sends per request keep a hand-written DOM
// codec: the serve handshake's cache configuration and churn scenarios.

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

}  // namespace adept::wire
