/// \file workloads.cpp
/// \brief serve-cold, serve-hot, serve-drift and dist-socket: request
/// streams, set-up, measured windows, oracles and traced replays.

#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/stats.hpp"
#include "dist/transport.hpp"
#include "io/wire.hpp"
#include "model/evaluate.hpp"
#include "model/service.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "planner/planning_service.hpp"
#include "planner/shard_cache.hpp"
#include "planner/sharded.hpp"
#include "platform/generator.hpp"
#include "platform/partition.hpp"

namespace adept::e2e {

namespace {

// ------------------------------------------------------------------ shape --
// A run sends a fixed number of requests: --seconds times the workload's
// rate below, which is what it sustained on a 4-core machine when the
// benchmark was added. Both sides of a comparison thus do identical work,
// and a window there lasts about --seconds. The generator stays within
// 4 threads and 2 connections.

constexpr std::size_t kClients = 2;          ///< Connections per workload.
constexpr const char* kServeJobs = "2";      ///< serve --jobs.
constexpr std::size_t kOracleStride = 16;    ///< Oracle samples 1 in 16.
constexpr std::size_t kReplayPrefix = 300;   ///< Traced replay length.
constexpr std::uint64_t kWarmupIndex = 900000;  ///< Disjoint warm-up range.
constexpr double kReadTimeoutMs = 60000.0;   ///< One answer, at most.
/// Set-ups per untraced run; the median is reported. Most set-ups take
/// a few tens of milliseconds, so many fit in a run.
constexpr std::size_t kSetups = 21;

const char* const kColdPresets[] = {"uniform", "long-tail", "orsay"};
constexpr std::size_t kColdMinNodes = 50;
constexpr std::size_t kColdMaxNodes = 200;
constexpr double kColdRate = 333.0;  ///< Closed-loop requests per second.

constexpr std::size_t kHotPlatforms = 64;
constexpr std::size_t kHotNodes = 310;
constexpr double kHotRate = 2000.0;  ///< Open-loop arrivals per second.
/// A serve-hot set-up plans all 64 platforms (~1 s), so it takes fewer.
constexpr std::size_t kHotSetups = 5;

/// The drift base: g5k-multi-cluster sites of 300, 350, 200 and 150
/// nodes, each cut into racks of 50, so the label partition makes 20
/// equal shards and a one-node edit misses exactly one of them.
constexpr std::size_t kDriftNodes = 1000;
constexpr std::size_t kDriftRackNodes = 50;
constexpr double kDriftRate = 220.0;

constexpr std::size_t kDistNodes = 300;
constexpr std::size_t kDistShards = 8;
constexpr std::size_t kDistSessions = 2;
constexpr std::size_t kDistWarmups = 8;
constexpr double kDistRate = 250.0;

/// Platform seed of request `i`: distinct streams for every request,
/// reproducible from the workload seed alone.
std::uint64_t platform_seed(std::uint64_t seed, std::uint64_t i) {
  return seed * 1000003ULL + i;
}

/// Request size of cold request `i`: a golden-ratio sequence over
/// [kColdMinNodes, kColdMaxNodes], so any prefix of the stream covers the
/// range evenly and every seed plans the same size mix.
std::size_t cold_size(std::uint64_t i) {
  const double phi = 0.6180339887498949;
  const double u = std::fmod(static_cast<double>(i) * phi, 1.0);
  return kColdMinNodes +
         static_cast<std::size_t>(u * (kColdMaxNodes - kColdMinNodes + 1));
}

/// An id as serve echoes it: through the JSON writer, whose shortest
/// form of e.g. 900000 is "9e+05".
std::string id_text(std::uint64_t id) {
  return json::Value(static_cast<std::size_t>(id)).dump();
}

std::string id_prefix(std::uint64_t id) {
  return "{\"id\":" + id_text(id) + ",";
}

/// A serve request without its opening brace (the id prefix supplies it),
/// newline-terminated: prefix + body is one request line.
std::string request_body(const std::string& planner, const Platform& platform) {
  json::Value doc = json::Value::object();
  doc.set("planner", planner);
  doc.set("platform", wire::to_json(platform));
  doc.set("service", "dgemm-310");
  return doc.dump().substr(1) + "\n";
}

/// The canonical `result` document of an ok serve answer to request `id`,
/// or an empty view when the line is anything else. Answers are
/// {"id":..,"ok":true,"run":{...,"result":{...}}} with `result` last.
std::string_view result_of(std::string_view response, std::uint64_t id) {
  const std::string prefix =
      "{\"id\":" + id_text(id) + ",\"ok\":true,\"run\":{";
  if (response.substr(0, prefix.size()) != prefix ||
      response.size() < prefix.size() + 2 ||
      response.substr(response.size() - 2) != "}}")
    return {};
  const std::size_t at = response.find("\"result\":", prefix.size());
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + 9;
  return response.substr(begin, response.size() - 2 - begin);
}

std::string dump_result(const PlanResult& result) {
  return wire::to_json(result).dump();
}

// ------------------------------------------------------------ the server --

double read_proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string content;
  std::getline(in, content);
  const std::size_t close = content.rfind(')');
  ADEPT_CHECK(close != std::string::npos, "cannot read /proc stat");
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream rest(content.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && rest >> field; ++index)
    if (index >= 14) ticks += std::stod(field);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double read_proc_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw Error("no VmHWM for pid " + std::to_string(pid));
}

double self_cpu_ms() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Reads a cumulative CPU-time counter every few milliseconds on its own
/// thread, so the CPU spent between any two instants of a window can be
/// read back afterwards (per-block CPU).
class CpuSampler {
 public:
  explicit CpuSampler(std::function<double()> read)
      : read_(std::move(read)), thread_([this] { loop(); }) {}
  ~CpuSampler() { stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Takes a last reading and joins the thread. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// CPU ms spent between two instants, interpolated between readings.
  /// Call after stop().
  double between(Clock::time_point from, Clock::time_point to) const {
    return at(to) - at(from);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const bool last = stopping_;
      lock.unlock();
      const std::pair<Clock::time_point, double> reading{Clock::now(), read_()};
      lock.lock();
      readings_.push_back(reading);
      if (last) return;
      wake_.wait_for(lock, std::chrono::milliseconds(20),
                     [this] { return stopping_; });
    }
  }

  double at(Clock::time_point t) const {
    const auto after = std::lower_bound(
        readings_.begin(), readings_.end(), t,
        [](const auto& reading, Clock::time_point when) {
          return reading.first < when;
        });
    if (after == readings_.begin()) return readings_.front().second;
    if (after == readings_.end()) return readings_.back().second;
    const auto& [t1, v1] = *after;
    const auto& [t0, v0] = *(after - 1);
    return v0 + (v1 - v0) * ms_between(t0, t) / std::max(ms_between(t0, t1), 1e-9);
  }

  std::function<double()> read_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<std::pair<Clock::time_point, double>> readings_;
  std::thread thread_;  ///< Last member: starts after everything it uses.
};

/// One `adept serve --listen` process plus the bench's connections to it.
class ServeProcess {
 public:
  ServeProcess(const std::vector<std::string>& extra_args,
               std::size_t connections) {
    std::vector<std::string> argv{ADEPT_CLI_BINARY, "serve", "--listen",
                                  "127.0.0.1:0", "--jobs", kServeJobs};
    argv.insert(argv.end(), extra_args.begin(), extra_args.end());
    listener_ = std::make_unique<dist::ServeListener>(argv);
    for (std::size_t c = 0; c < connections; ++c)
      conns_.push_back(std::make_unique<LineConn>(listener_->endpoint()));
  }

  const std::string& endpoint() const { return listener_->endpoint(); }
  LineConn& conn(std::size_t c) { return *conns_[c]; }
  std::vector<LineConn*> conns() {
    std::vector<LineConn*> out;
    for (auto& conn : conns_) out.push_back(conn.get());
    return out;
  }
  double cpu_ms() const { return read_proc_cpu_ms(listener_->pid()); }
  double peak_rss_mb() const { return read_proc_hwm_mb(listener_->pid()); }

  /// The server's own metrics registry ({"cmd":"metrics"}), read on a
  /// connection of its own.
  obs::RegistrySnapshot metrics() const {
    LineConn conn(endpoint());
    conn.send({"{\"cmd\":\"metrics\"}\n"});
    std::string line;
    ADEPT_CHECK(conn.read_line(line, kReadTimeoutMs), "no metrics answer");
    return obs::snapshot_from_json(json::parse(line).at("metrics"));
  }

 private:
  std::unique_ptr<dist::ServeListener> listener_;
  std::vector<std::unique_ptr<LineConn>> conns_;
};

/// One request/answer round trip on `conn`.
std::string round_trip(LineConn& conn,
                       std::initializer_list<std::string_view> parts) {
  conn.send(parts);
  std::string line;
  if (!conn.read_line(line, kReadTimeoutMs))
    throw Error("no answer from serve");
  return line;
}

// -------------------------------------------------------- traced replays --

/// What a traced replay found besides its spans.
struct ReplayOutcome {
  std::size_t requests = 0;
  std::size_t mismatches = 0;  ///< Replayed results != server answers.
  double rho_sum = 0.0;
  double evaluations = 0.0;
  double receive_wait_ms = 0.0;  ///< dist-socket: summed over requests.
  double remote_plan_ms = 0.0;   ///< dist-socket: summed over requests.
};

/// Runs `body(lane, i)` for i in [0, count) on kClients threads (the
/// server's concurrency); `lane` names the calling thread, so a lane may
/// own a connection.
void for_each_concurrent(
    std::size_t count,
    const std::function<void(std::size_t lane, std::size_t i)>& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::exception_ptr error;
  for (std::size_t lane = 0; lane < kClients; ++lane)
    threads.emplace_back([&, lane] {
      try {
        for (std::size_t i = next++; i < count; i = next++) body(lane, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next = count;
      }
    });
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

/// The server's per-request path, re-run in process with each layer call
/// timed. `plan` is the planning step (service run or sharded replica);
/// it runs inside the "trace.request" root span.
PlannerRun replay_request(
    SpanRecorder& spans, std::size_t i, const std::string& line,
    const std::function<PlannerRun(const PlanRequest&, const std::string&,
                                   std::size_t root)>& plan) {
  const std::size_t root = spans.open("trace.request", kNoParent, i);
  const json::Value doc = spans.time(
      "common.json.parse", root, i, [&](std::size_t) { return json::parse(line); });
  const PlanRequest request = spans.time("io.wire.decode", root, i, [&](std::size_t) {
    return wire::request_from_json(doc);
  });
  const std::string planner = doc.at("planner").as_string();
  const std::string fingerprint =
      spans.time("io.wire.fingerprint", root, i, [&](std::size_t) {
        return wire::request_fingerprint(request, planner);
      });
  PlannerRun run = plan(request, planner, root);
  json::Value response = json::Value::object();
  response.set("id", doc.at("id"));
  response.set("ok", run.ok);
  response.set("run", spans.time("io.wire.encode", root, i, [&](std::size_t) {
    return wire::to_json(run);
  }));
  const std::string text = spans.time("common.json.dump", root, i,
                                      [&](std::size_t) { return response.dump(); });
  spans.close(root);
  ADEPT_CHECK(!fingerprint.empty() && !text.empty(), "empty replay output");
  return run;
}

/// Heuristic-path replay: parse → request_from_json → fingerprint →
/// PlanningService (same threads and CacheConfig as the server) → to_json
/// → dump. `warm` lines are planned first, untimed, like the server's
/// warm-up.
ReplayOutcome replay_service(
    SpanRecorder& spans, const std::vector<std::string>& warm,
    std::size_t count, const std::function<std::string(std::size_t)>& line_of,
    const std::function<std::string(std::size_t)>& expected) {
  PlanningService service(2, PlannerRegistry::instance(),
                          CacheConfig{256, 256, true});
  auto plan = [&](SpanRecorder& recorder, std::size_t i) {
    return [&recorder, &service, i](const PlanRequest& request,
                                     const std::string& planner,
                                     std::size_t root) {
      return recorder.time("planner.heuristic.plan", root, i, [&](std::size_t) {
        return service.submit(request, planner).wait();
      });
    };
  };
  SpanRecorder untimed;
  for (std::size_t w = 0; w < warm.size(); ++w)
    replay_request(untimed, w, warm[w], plan(untimed, w));
  ReplayOutcome out;
  out.requests = count;
  std::mutex mutex;
  for_each_concurrent(count, [&](std::size_t, std::size_t i) {
    const PlannerRun run = replay_request(spans, i, line_of(i), plan(spans, i));
    // A request the window never answered is already a failure.
    const std::string want = expected(i);
    const bool same =
        want.empty() || (run.ok && dump_result(run.result) == want);
    std::lock_guard<std::mutex> lock(mutex);
    out.mismatches += same ? 0 : 1;
    out.rho_sum += run.result.report.overall;
    out.evaluations += static_cast<double>(run.evaluations);
  });
  return out;
}

/// One leaf of the sharded replica — plan_sharded's local leaf path, call
/// for call: subset → ShardPlanCache key + lookup → plan_heterogeneous on
/// a miss → insert, then the remap to platform ids.
PlanResult plan_leaf(SpanRecorder& spans, std::size_t i, std::size_t parent,
                     const Platform& platform, const PlanRequest& request,
                     const PlanOptions& options,
                     const std::vector<NodeId>& ids, ShardPlanCache& cache) {
  const bool whole = ids.size() == platform.size();
  std::optional<Platform> subset;
  if (!whole) subset.emplace(platform.subset(ids));
  const Platform& sub = whole ? platform : *subset;
  std::string key;
  std::optional<PlanResult> hit;
  spans.time("planner.shard_cache.probe", parent, i, [&](std::size_t) {
    key = ShardPlanCache::key(sub, request.params, request.service, options,
                              kShardLeafPlanner);
    hit = cache.lookup(key);
  });
  PlanResult plan =
      hit.has_value()
          ? std::move(*hit)
          : spans.time("planner.heuristic.plan", parent, i, [&](std::size_t) {
              return plan_heterogeneous(sub, request.params, request.service,
                                        options.demand, nullptr, &options);
            });
  if (!hit.has_value()) cache.insert(key, sub, plan);
  if (!whole)
    for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
      plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
  return plan;
}

/// Sharded-path replay: the registry `sharded` planner rebuilt from its
/// public pieces — partition_platform → plan_sharded_with with a timed
/// leaf callback — so the stitch is the remainder of that call. Its
/// answers must be bit-identical to the server's.
ReplayOutcome replay_sharded(
    SpanRecorder& spans, const std::string& warm, std::size_t count,
    const std::function<std::string(std::size_t)>& line_of,
    const std::function<std::string(std::size_t)>& expected) {
  ShardPlanCache cache(256);
  auto plan = [&cache](SpanRecorder& recorder, std::size_t i) {
    return [&recorder, &cache, i](const PlanRequest& request,
                                  const std::string& planner,
                                  std::size_t root) {
      ADEPT_CHECK(planner == "sharded" && request.options.excluded.empty(),
                  "the sharded replica replays plain sharded requests");
      PlannerRun run;
      run.planner = planner;
      const Platform& platform = *request.platform;
      const PlanOptions& options = request.options;
      const plat::Partition partition = recorder.time(
          "platform.partition", root, i, [&](std::size_t) {
            return plat::partition_platform(platform, options.shards);
          });
      const std::uint64_t evaluations = model::evaluations_on_this_thread();
      const Clock::time_point start = Clock::now();
      run.result = recorder.time("planner.sharded.plan", root, i, [&](std::size_t span) {
        return plan_sharded_with(
            platform, request.params, request.service, options, partition,
            kDefaultStitchFanout,
            [&](const std::vector<std::vector<NodeId>>& leaves) {
              std::vector<PlanResult> plans(leaves.size());
              for (std::size_t s = 0; s < leaves.size(); ++s)
                plans[s] = recorder.time(
                    "planner.sharded.leaf", span, i, [&](std::size_t leaf) {
                      return plan_leaf(recorder, i, leaf, platform, request,
                                       options, leaves[s], cache);
                    });
              return plans;
            });
      });
      run.ok = true;
      run.wall_ms = ms_between(start, Clock::now());
      run.evaluations = model::evaluations_on_this_thread() - evaluations;
      return run;
    };
  };
  SpanRecorder untimed;
  replay_request(untimed, 0, warm, plan(untimed, 0));
  ReplayOutcome out;
  out.requests = count;
  std::mutex mutex;
  for_each_concurrent(count, [&](std::size_t, std::size_t i) {
    const PlannerRun run = replay_request(spans, i, line_of(i), plan(spans, i));
    const std::string want = expected(i);
    const bool same = want.empty() || dump_result(run.result) == want;
    std::lock_guard<std::mutex> lock(mutex);
    out.mismatches += same ? 0 : 1;
    out.rho_sum += run.result.report.overall;
    out.evaluations += static_cast<double>(run.evaluations);
  });
  return out;
}

/// Plans `jobs` in process on a cache-less service and counts answers
/// that differ from `expected` (canonical result JSON, byte for byte).
std::size_t oracle_mismatches(const std::vector<PlanningService::Job>& jobs,
                              const std::vector<std::string>& expected) {
  PlanningService service(2);
  const std::vector<PlannerRun> runs = service.run_batch(jobs);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < runs.size(); ++k)
    if (!runs[k].ok || dump_result(runs[k].result) != expected[k]) ++mismatches;
  return mismatches;
}

PlanRequest parse_request(const std::string& line) {
  return wire::request_from_json(json::parse(line));
}

// ------------------------------------------------------------- workloads --

class Workload {
 public:
  explicit Workload(const RunConfig& config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the request stream (bench-side work, outside set-up time).
  virtual void generate() = 0;
  /// Spawns the server, connects, warms up. Timed as set-up.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// The untraced window.
  virtual WindowResult measure() = 0;
  /// Cumulative CPU ms of the processes doing the work, now.
  virtual double cpu_now() const = 0;
  virtual double peak_rss_mb() const = 0;
  virtual obs::RegistrySnapshot server_metrics() const = 0;
  /// In-process replanning of the oracle sample; returns mismatches.
  virtual std::size_t oracle(std::size_t& checked) = 0;
  virtual ReplayOutcome replay(SpanRecorder& spans) = 0;
  /// Set-ups an untraced run performs.
  virtual std::size_t setups() const { return kSetups; }

 protected:
  /// Answers kept for the oracle and the replay comparison.
  bool keep(std::size_t i) const {
    return i % kOracleStride == 0 || (config_.trace && i < kReplayPrefix);
  }
  /// Requests in the window: `rate` per second of --seconds, and never
  /// fewer than a valid window needs.
  std::size_t requests(double rate) const {
    return std::max(kMinAnswered,
                    static_cast<std::size_t>(std::llround(rate * config_.seconds)));
  }

  RunConfig config_;
};

/// Shared plumbing of the three workloads that talk to serve directly.
class ServeWorkload : public Workload {
 public:
  using Workload::Workload;

  void teardown() override { server_.reset(); }
  double cpu_now() const override { return server_->cpu_ms(); }
  double peak_rss_mb() const override { return server_->peak_rss_mb(); }
  obs::RegistrySnapshot server_metrics() const override {
    return server_->metrics();
  }

 protected:
  void start_server() {
    server_ = std::make_unique<ServeProcess>(std::vector<std::string>{}, kClients);
  }

  /// Closed loop over the server's connections; answers to kept requests
  /// are stored in results_.
  WindowResult closed_window(
      std::size_t count,
      const std::function<std::string(LineConn&, std::size_t)>& exchange) {
    results_.assign(count, std::string());
    return run_closed_loop(
        kClients, count,
        [&](std::size_t client, std::size_t i) {
          return exchange(server_->conn(client), i);
        },
        [&](std::size_t i, const std::string& response) {
          const std::string_view result = result_of(response, i);
          if (result.empty()) return false;
          if (keep(i)) results_[i] = std::string(result);
          return true;
        });
  }

  std::unique_ptr<ServeProcess> server_;
  std::vector<std::string> results_;  ///< Kept answers by request index.
};

// serve-cold: unique heterogeneous platforms, heuristic, 0% cache hits.
class ColdWorkload final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void generate() override {
    lines_.clear();
    for (std::size_t i = 0; i < requests(kColdRate); ++i)
      lines_.push_back(line(i, i));
    warm_.clear();
    for (std::uint64_t w = 0; w < 8; ++w)
      warm_.push_back(line(kWarmupIndex + w, kWarmupIndex + w));
  }

  void setup() override {
    start_server();
    for_each_concurrent(warm_.size(), [&](std::size_t lane, std::size_t w) {
      round_trip(server_->conn(lane), {warm_[w]});
    });
  }

  WindowResult measure() override {
    return closed_window(lines_.size(), [&](LineConn& conn, std::size_t i) {
      return round_trip(conn, {lines_[i]});
    });
  }

  std::size_t oracle(std::size_t& checked) override {
    std::vector<PlanningService::Job> jobs;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < results_.size(); i += kOracleStride) {
      if (results_[i].empty()) continue;  // unanswered: already a failure
      jobs.push_back({parse_request(lines_[i]), "heuristic"});
      expected.push_back(results_[i]);
    }
    checked = jobs.size();
    return oracle_mismatches(jobs, expected);
  }

  ReplayOutcome replay(SpanRecorder& spans) override {
    return replay_service(
        spans, warm_, kReplayPrefix,
        [&](std::size_t i) { return lines_[i]; },
        [&](std::size_t i) { return results_[i]; });
  }

 private:
  std::string line(std::uint64_t id, std::uint64_t i) const {
    const Platform platform =
        gen::catalog_platform(kColdPresets[i % 3], cold_size(i),
                              platform_seed(config_.seed, i));
    return id_prefix(id) + request_body("heuristic", platform);
  }

  std::vector<std::string> lines_;
  std::vector<std::string> warm_;
};

// serve-hot: 64 distinct platforms, plan cache pre-warmed, open loop.
class HotWorkload final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void generate() override {
    bodies_.clear();
    for (std::size_t p = 0; p < kHotPlatforms; ++p)
      bodies_.push_back(request_body(
          "heuristic", gen::catalog_platform(kColdPresets[p % 3], kHotNodes,
                                             platform_seed(config_.seed, p))));
    Rng rng(platform_seed(config_.seed, kWarmupIndex));
    pick_.clear();
    prefixes_.clear();
    for (std::size_t i = 0; i < requests(kHotRate); ++i) {
      pick_.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kHotPlatforms) - 1)));
      prefixes_.push_back(id_prefix(i));
    }
  }

  void setup() override {
    start_server();
    first_.assign(kHotPlatforms, std::string());
    for_each_concurrent(kHotPlatforms, [&](std::size_t lane, std::size_t p) {
      const std::uint64_t id = kWarmupIndex + p;
      const std::string response =
          round_trip(server_->conn(lane), {id_prefix(id), bodies_[p]});
      first_[p] = std::string(result_of(response, id));
      ADEPT_CHECK(!first_[p].empty(), "hot warm-up request failed");
    });
  }

  WindowResult measure() override {
    return run_open_loop(
        server_->conns(), kHotRate, pick_.size(), kReadTimeoutMs,
        [&](LineConn& conn, std::size_t i) {
          conn.send({prefixes_[i], bodies_[pick_[i]]});
        },
        [&](std::size_t i, const std::string& response) {
          return result_of(response, i) == first_[pick_[i]];
        });
  }

  std::size_t oracle(std::size_t& checked) override {
    std::vector<PlanningService::Job> jobs;
    for (std::size_t p = 0; p < kHotPlatforms; ++p)
      jobs.push_back({parse_request(id_prefix(p) + bodies_[p]), "heuristic"});
    checked = jobs.size();
    return oracle_mismatches(jobs, first_);
  }

  ReplayOutcome replay(SpanRecorder& spans) override {
    std::vector<std::string> warm;
    for (std::size_t p = 0; p < kHotPlatforms; ++p)
      warm.push_back(id_prefix(kWarmupIndex + p) + bodies_[p]);
    return replay_service(
        spans, warm, std::min(kReplayPrefix, pick_.size()),
        [&](std::size_t i) { return prefixes_[i] + bodies_[pick_[i]]; },
        [&](std::size_t i) { return first_[pick_[i]]; });
  }

  std::size_t setups() const override { return kHotSetups; }

 private:
  std::vector<std::string> bodies_;    ///< One per distinct platform.
  std::vector<std::size_t> pick_;      ///< Platform of request i.
  std::vector<std::string> prefixes_;  ///< id prefix of request i.
  std::vector<std::string> first_;     ///< Warm-up answer per platform.
};

/// `platform` with every site split into racks of kDriftRackNodes:
/// "lyon-130" becomes "lyon2-30", so the label partition makes one shard
/// per rack and a one-node edit invalidates one small shard.
Platform racked(const Platform& platform) {
  std::vector<NodeSpec> nodes = platform.nodes();
  for (NodeSpec& node : nodes) {
    const std::size_t dash = node.name.rfind('-');
    const std::size_t index = std::stoul(node.name.substr(dash + 1));
    node.name = node.name.substr(0, dash) +
                std::to_string(index / kDriftRackNodes) + "-" +
                std::to_string(index % kDriftRackNodes);
  }
  return Platform(std::move(nodes), platform.bandwidth());
}

// serve-drift: one racked 1000-node base; request i re-powers one node.
class DriftWorkload final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void generate() override {
    const Platform base = racked(gen::catalog_platform(
        "g5k-multi-cluster", kDriftNodes, platform_seed(config_.seed, 0)));
    ADEPT_CHECK(plat::partition_platform(base, 0).size() ==
                    kDriftNodes / kDriftRackNodes,
                "the drift base must split into equal racks");
    body_ = request_body("sharded", base);
    // Byte range of every node's power number inside the body.
    power_at_.clear();
    std::size_t from = 0;
    for (const NodeSpec& node : base.nodes()) {
      const std::string anchor =
          "\"name\":" + json::quote(node.name) + ",\"power\":";
      const std::size_t at = body_.find(anchor, from);
      ADEPT_CHECK(at != std::string::npos, "node not found in drift body");
      const std::size_t begin = at + anchor.size();
      const std::size_t end = body_.find_first_of(",}", begin);
      power_at_.emplace_back(begin, end);
      from = end;
    }
    Rng rng(platform_seed(config_.seed, kWarmupIndex));
    edits_.clear();
    prefixes_.clear();
    for (std::size_t i = 0; i < requests(kDriftRate); ++i) {
      const auto node = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kDriftNodes) - 1));
      const double power = base.node(node).power * rng.uniform(0.5, 1.5);
      edits_.emplace_back(node, json::Value(power).dump());
      prefixes_.push_back(id_prefix(i));
    }
  }

  void setup() override {
    start_server();
    const std::uint64_t id = kWarmupIndex;
    ADEPT_CHECK(!result_of(round_trip(server_->conn(0), {id_prefix(id), body_}),
                           id)
                     .empty(),
                "drift warm-up request failed");
  }

  WindowResult measure() override {
    return closed_window(edits_.size(), [&](LineConn& conn, std::size_t i) {
      const auto [begin, end] = power_at_[edits_[i].first];
      const std::string_view body(body_);
      return round_trip(conn, {prefixes_[i], body.substr(0, begin),
                               edits_[i].second, body.substr(end)});
    });
  }

  std::size_t oracle(std::size_t& checked) override {
    std::vector<PlanningService::Job> jobs;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < results_.size(); i += kOracleStride) {
      if (results_[i].empty()) continue;
      jobs.push_back({parse_request(line(i)), "sharded"});
      expected.push_back(results_[i]);
    }
    checked = jobs.size();
    return oracle_mismatches(jobs, expected);
  }

  ReplayOutcome replay(SpanRecorder& spans) override {
    return replay_sharded(
        spans, id_prefix(kWarmupIndex) + body_, kReplayPrefix,
        [&](std::size_t i) { return line(i); },
        [&](std::size_t i) { return results_[i]; });
  }

 private:
  std::string line(std::size_t i) const {
    const auto [begin, end] = power_at_[edits_[i].first];
    return prefixes_[i] + body_.substr(0, begin) + edits_[i].second +
           body_.substr(end);
  }

  std::string body_;  ///< The base request body.
  std::vector<std::pair<std::size_t, std::size_t>> power_at_;
  std::vector<std::pair<std::size_t, std::string>> edits_;  ///< node, power
  std::vector<std::string> prefixes_;
};

/// Transport decorator for the dist-socket replay: times every spawn
/// (connect), send and receive of the wrapped transport's workers and
/// keeps the shard lines for re-timing the wire codec afterwards.
class TimedTransport final : public dist::Transport {
 public:
  TimedTransport(dist::Transport& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  /// Starts attributing calls to request `request` under span `root`.
  void begin(std::size_t request, std::size_t root) {
    std::lock_guard<std::mutex> lock(mutex_);
    request_ = request;
    root_ = root;
    sent_.clear();
    received_.clear();
    receive_wait_ms_ = 0.0;
  }

  const char* name() const final { return "timed"; }
  std::unique_ptr<dist::Worker> spawn() final {
    return spans_.time("dist.connect", root_, request_, [&](std::size_t) {
      return std::make_unique<TimedWorker>(inner_.spawn(), *this);
    });
  }

  std::vector<std::string> sent() const { return sent_; }
  std::vector<std::string> received() const { return received_; }
  double receive_wait_ms() const { return receive_wait_ms_; }
  Clock::time_point last_receive() const { return last_receive_; }

 private:
  class TimedWorker final : public dist::Worker {
   public:
    TimedWorker(std::unique_ptr<dist::Worker> inner, TimedTransport& owner)
        : inner_(std::move(inner)), owner_(owner) {}

    bool send(const std::string& line) final {
      const bool ok = owner_.spans_.time(
          "dist.send", owner_.root_, owner_.request_,
          [&](std::size_t) { return inner_->send(line); });
      std::lock_guard<std::mutex> lock(owner_.mutex_);
      owner_.sent_.push_back(line);
      return ok;
    }
    bool receive(std::string& line, double timeout_ms) final {
      const Clock::time_point start = Clock::now();
      const bool ok = inner_->receive(line, timeout_ms);
      const Clock::time_point end = Clock::now();
      owner_.spans_.add("dist.receive_wait", start, end, owner_.root_,
                        owner_.request_);
      std::lock_guard<std::mutex> lock(owner_.mutex_);
      owner_.receive_wait_ms_ += ms_between(start, end);
      owner_.last_receive_ = std::max(owner_.last_receive_, end);
      if (ok) owner_.received_.push_back(line);
      return ok;
    }
    bool alive() const final { return inner_->alive(); }
    void kill() final { inner_->kill(); }

   private:
    std::unique_ptr<dist::Worker> inner_;
    TimedTransport& owner_;
  };

  dist::Transport& inner_;
  SpanRecorder& spans_;
  std::mutex mutex_;
  std::size_t request_ = 0;
  std::size_t root_ = kNoParent;
  std::vector<std::string> sent_;
  std::vector<std::string> received_;
  double receive_wait_ms_ = 0.0;
  Clock::time_point last_receive_{};
};

// dist-socket: a fresh Coordinator over SocketTransport per plan.
class DistWorkload final : public Workload {
 public:
  using Workload::Workload;

  void generate() override {
    requests_.clear();
    for (std::size_t i = 0; i < requests(kDistRate); ++i)
      requests_.push_back(make_request(i));
    warm_.clear();
    for (std::uint64_t w = 0; w < kDistWarmups; ++w)
      warm_.push_back(make_request(kWarmupIndex + w));
  }

  void setup() override {
    server_ = std::make_unique<ServeProcess>(
        std::vector<std::string>{"--cache", "0", "--shard-cache", "0"}, 0);
    dist::SocketTransport transport({server_->endpoint()});
    for (const PlanRequest& request : warm_) {
      dist::Coordinator coordinator(transport, coordinator_config());
      coordinator.plan(request);
    }
  }

  void teardown() override { server_.reset(); }

  WindowResult measure() override {
    dist::SocketTransport transport({server_->endpoint()});
    WindowResult out;
    // Kept plans are written out as JSON after the window, by the oracle.
    results_.assign(requests_.size(), std::nullopt);
    out.start = Clock::now();
    out.attempted = requests_.size();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Clock::time_point start = Clock::now();
      std::optional<PlanResult> result;
      try {
        dist::Coordinator coordinator(transport, coordinator_config());
        result = coordinator.plan(requests_[i]);
      } catch (const std::exception&) {
      }
      const Clock::time_point done = Clock::now();
      if (result.has_value()) {
        out.samples.push_back({done, ms_between(start, done)});
        if (keep(i)) results_[i] = std::move(result);
      }
    }
    out.failed = out.attempted - out.samples.size();
    return out;
  }

  /// The worker's CPU plus this process's: the coordinator (partition,
  /// encode, decode, stitch) runs here.
  double cpu_now() const override { return server_->cpu_ms() + self_cpu_ms(); }
  double peak_rss_mb() const override { return server_->peak_rss_mb(); }
  obs::RegistrySnapshot server_metrics() const override {
    return server_->metrics();
  }

  std::size_t oracle(std::size_t& checked) override {
    std::vector<PlanningService::Job> jobs;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < results_.size(); i += kOracleStride) {
      if (!results_[i].has_value()) continue;
      jobs.push_back({requests_[i], "sharded"});
      expected.push_back(dump_result(*results_[i]));
    }
    checked = jobs.size();
    return oracle_mismatches(jobs, expected);
  }

  ReplayOutcome replay(SpanRecorder& spans) override {
    dist::SocketTransport socket({server_->endpoint()});
    TimedTransport transport(socket, spans);
    ReplayOutcome out;
    out.requests = std::min(kReplayPrefix, results_.size());
    for (std::size_t i = 0; i < out.requests; ++i) {
      const PlanRequest& request = requests_[i];
      const std::size_t root = spans.open("trace.request", kNoParent, i);
      transport.begin(i, root);
      const std::uint64_t evaluations = model::evaluations_on_this_thread();
      PlanResult result;
      Clock::time_point planned;
      {
        dist::Coordinator coordinator(transport, coordinator_config());
        result = coordinator.plan(request);
        planned = Clock::now();
      }
      spans.close(root);
      spans.add("dist.stitch_tail", std::min(transport.last_receive(), planned),
                planned, root, i);
      out.evaluations += static_cast<double>(
          model::evaluations_on_this_thread() - evaluations);
      out.rho_sum += result.report.overall;
      if (results_[i].has_value() &&
          dump_result(result) != dump_result(*results_[i]))
        ++out.mismatches;
      out.receive_wait_ms += transport.receive_wait_ms();
      // Re-time off the clock what the coordinator did inside it.
      spans.time("platform.partition", root, i, [&](std::size_t) {
        return plat::partition_platform(*request.platform, kDistShards);
      });
      for (const std::string& line : transport.sent()) {
        const json::Value doc = json::parse(line);
        const PlanRequest shard = wire::request_from_json(doc);
        spans.time("dist.encode", root, i, [&](std::size_t) {
          json::Value encoded = wire::to_json(shard);
          encoded.set("id", doc.at("id"));
          encoded.set("planner", doc.at("planner"));
          return encoded.dump();
        });
      }
      for (const std::string& line : transport.received()) {
        const PlannerRun run = spans.time("dist.decode", root, i, [&](std::size_t) {
          return wire::planner_run_from_json(json::parse(line).at("run"));
        });
        out.remote_plan_ms += run.wall_ms;
        out.evaluations += static_cast<double>(run.evaluations);
      }
    }
    return out;
  }

 private:
  static dist::CoordinatorConfig coordinator_config() {
    dist::CoordinatorConfig config;
    config.workers = kDistSessions;
    return config;
  }

  PlanRequest make_request(std::uint64_t i) const {
    auto platform = std::make_shared<const Platform>(gen::catalog_platform(
        "g5k-multi-cluster", kDistNodes, platform_seed(config_.seed, i)));
    PlanRequest request(std::move(platform), MiddlewareParams::diet_grid5000(),
                        dgemm_service(310));
    request.options.shards = kDistShards;
    return request;
  }

  std::unique_ptr<ServeProcess> server_;
  std::vector<PlanRequest> requests_;  ///< The measured plans.
  std::vector<PlanRequest> warm_;      ///< Set-up plans, a disjoint range.
  std::vector<std::optional<PlanResult>> results_;  ///< Kept answers.
};

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "serve-cold") return std::make_unique<ColdWorkload>(config);
  if (config.workload == "serve-hot") return std::make_unique<HotWorkload>(config);
  if (config.workload == "serve-drift") return std::make_unique<DriftWorkload>(config);
  if (config.workload == "dist-socket") return std::make_unique<DistWorkload>(config);
  throw Error("unknown workload '" + config.workload + "'");
}

// ------------------------------------------------------ per-layer metrics --

obs::HistogramSnapshot histogram_delta(const obs::RegistrySnapshot& before,
                                       const obs::RegistrySnapshot& after,
                                       const std::string& name) {
  obs::HistogramSnapshot out;
  const auto now = after.histograms.find(name);
  if (now == after.histograms.end()) return out;
  out = now->second;
  const auto then = before.histograms.find(name);
  if (then == before.histograms.end()) return out;
  std::map<std::uint32_t, std::int64_t> buckets;
  for (const auto& [index, n] : out.buckets) buckets[index] += static_cast<std::int64_t>(n);
  for (const auto& [index, n] : then->second.buckets) buckets[index] -= static_cast<std::int64_t>(n);
  out.buckets.clear();
  for (const auto& [index, n] : buckets)
    if (n > 0) out.buckets.emplace_back(index, static_cast<std::uint64_t>(n));
  out.count -= then->second.count;
  out.sum -= then->second.sum;
  return out;
}

double counter_delta(const obs::RegistrySnapshot& before,
                     const obs::RegistrySnapshot& after,
                     const std::string& name) {
  auto value = [&name](const obs::RegistrySnapshot& s) {
    const auto found = s.counters.find(name);
    return found == s.counters.end() ? 0.0 : static_cast<double>(found->second);
  };
  return value(after) - value(before);
}

double ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

RunReport run_workload(const RunConfig& config) {
  std::unique_ptr<Workload> workload = make_workload(config);
  workload->generate();
  RunReport report;
  // Set up several times and keep the last: the median set-up time is
  // steadier than one sample. A traced run needs only one.
  const std::size_t setups = config.trace ? 1 : workload->setups();
  for (std::size_t k = 0; k < setups; ++k) {
    if (k > 0) workload->teardown();
    const Clock::time_point start = Clock::now();
    workload->setup();
    report.setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  obs::RegistrySnapshot server_before;
  if (config.trace) server_before = workload->server_metrics();
  const dist::DistStats dist_before = dist::stats_snapshot();
  {
    CpuSampler cpu([&workload] { return workload->cpu_now(); });
    report.window = workload->measure();
    cpu.stop();
    report.blocks = block_medians(
        report.window, [&cpu](Clock::time_point from, Clock::time_point to) {
          return cpu.between(from, to);
        });
  }
  const dist::DistStats dist_after = dist::stats_snapshot();
  report.peak_rss_mb = workload->peak_rss_mb();
  report.mismatches = workload->oracle(report.oracle_checked);
  if (!config.trace) {
    workload->teardown();
    return report;
  }

  const obs::RegistrySnapshot server_after = workload->server_metrics();
  SpanRecorder spans;
  const ReplayOutcome replay = workload->replay(spans);
  workload->teardown();
  report.mismatches += replay.mismatches;
  const std::vector<Span> recorded = spans.spans();
  report.layer_times = aggregate(recorded);
  if (!config.spans_path.empty())
    write_spans_json(config.spans_path, config.workload, config.seed, recorded);

  const LayerTimes& t = report.layer_times;
  const obs::HistogramSnapshot request_ms =
      histogram_delta(server_before, server_after, "serve.request_ms");
  const obs::HistogramSnapshot queue_ms =
      histogram_delta(server_before, server_after, "service.queue_wait_ms");
  const obs::HistogramSnapshot plan_ms =
      histogram_delta(server_before, server_after, "service.plan.latency_ms");
  auto delta = [&](const std::string& name) {
    return counter_delta(server_before, server_after, name);
  };
  const double plans = static_cast<double>(dist_after.plans - dist_before.plans);
  const double requests = static_cast<double>(std::max<std::size_t>(replay.requests, 1));
  const bool serve_side = config.workload != "dist-socket";
  const double client_p50 = report.blocks.p50_ms;
  const double remote_plan = replay.remote_plan_ms / requests;
  const double receive_wait = replay.receive_wait_ms / requests;
  report.layers = {
      {"common.json.parse_ms", t.total("common.json.parse"), "ms"},
      {"common.json.dump_ms", t.total("common.json.dump"), "ms"},
      {"io.wire.decode_ms", t.total("io.wire.decode"), "ms"},
      {"io.wire.encode_ms", t.total("io.wire.encode"), "ms"},
      {"io.wire.fingerprint_ms", t.total("io.wire.fingerprint"), "ms"},
      {"io.serve.request_ms_p50", request_ms.quantile(0.50), "ms"},
      {"io.serve.request_ms_p99", request_ms.quantile(0.99), "ms"},
      {"io.net.overhead_ms",
       serve_side ? client_p50 - request_ms.quantile(0.50) : 0.0, "ms"},
      {"planner.service.queue_wait_ms_p50", queue_ms.quantile(0.50), "ms"},
      {"planner.service.queue_wait_ms_p99", queue_ms.quantile(0.99), "ms"},
      {"planner.service.plan_ms_p50", plan_ms.quantile(0.50), "ms"},
      {"planner.service.cache_hit_rate",
       ratio(delta("service.cache.hits"), delta("service.cache.misses")),
       "fraction"},
      {"planner.heuristic.plan_ms", t.total("planner.heuristic.plan"), "ms"},
      {"model.evaluations_per_req", replay.evaluations / requests, "count"},
      {"platform.partition_ms", t.total("platform.partition"), "ms"},
      {"planner.shard_cache.probe_ms", t.total("planner.shard_cache.probe"), "ms"},
      {"planner.shard_cache.hit_rate",
       ratio(delta("service.shard_cache.hits"), delta("service.shard_cache.misses")),
       "fraction"},
      {"planner.sharded.leaf_ms", t.total("planner.sharded.leaf"), "ms"},
      {"planner.sharded.stitch_ms", t.self("planner.sharded.plan"), "ms"},
      {"dist.connect_ms", t.total("dist.connect"), "ms"},
      {"dist.send_ms", t.total("dist.send"), "ms"},
      {"dist.receive_wait_ms", receive_wait, "ms"},
      {"dist.remote_plan_ms", remote_plan, "ms"},
      {"dist.net_queue_ms", receive_wait - remote_plan, "ms"},
      {"dist.encode_ms", t.total("dist.encode"), "ms"},
      {"dist.decode_ms", t.total("dist.decode"), "ms"},
      {"dist.stitch_tail_ms", t.total("dist.stitch_tail"), "ms"},
      {"dist.dispatched_per_req",
       plans > 0.0 ? static_cast<double>(dist_after.dispatched - dist_before.dispatched) / plans
                   : 0.0,
       "count"},
      {"dist.retried", static_cast<double>(dist_after.retried - dist_before.retried), "count"},
      {"dist.fallbacks", static_cast<double>(dist_after.fallbacks - dist_before.fallbacks),
       "count"},
      {"dist.worker_failures",
       static_cast<double>(dist_after.worker_failures - dist_before.worker_failures), "count"},
      {"loadgen.lag_p99_ms",
       report.window.lag_ms.empty() ? 0.0 : quantile(report.window.lag_ms, 0.99), "ms"},
      {"trace.replay_ms", t.total("trace.request"), "ms"},
      {"trace.unattributed_ms", t.self("trace.request"), "ms"},
      {"error_rate",
       static_cast<double>(report.window.failed + report.mismatches) /
           static_cast<double>(std::max<std::size_t>(report.window.attempted, 1)),
       "fraction"},
      {"plan_rho_mean", replay.rho_sum / requests, "req/s"},
  };
  return report;
}

}  // namespace adept::e2e
