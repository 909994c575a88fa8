#include "io/serve.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
// Counters only (std-only header); the dist tier itself sits
// above io and is never pulled in here.
#include "dist/stats.hpp"
#include "io/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "planner/planning_service.hpp"

namespace adept::io {

namespace {

/// One input line awaiting its response slot — a submitted job, a stats
/// marker, or an already-failed line (parse/deserialization error) that
/// still has to wait its turn so responses never jump the request order.
struct Pending {
  json::Value id;           ///< Echoed back; null when the client sent none.
  bool is_portfolio = false;
  bool is_stats = false;    ///< A `stats` command's response slot.
  bool is_cancel = false;   ///< A `cancel` command's ack slot.
  bool is_metrics = false;  ///< A `metrics` command's response slot.
  /// When the line arrived — the start of the end-to-end latency span
  /// recorded into `serve.request_ms` at emit time.
  std::chrono::steady_clock::time_point received =
      std::chrono::steady_clock::now();
  PlanTicket plan;
  PortfolioTicket portfolio;
  std::string immediate_error;  ///< Non-empty: no job, answer is this error.
  bool counts = false;          ///< Contributes to the answered() total.
  bool occupies = false;    ///< Holds one admission-queue slot until written.
  bool overloaded = false;  ///< Refused at admission; answer is the refusal.
  double retry_after_ms = 0.0;    ///< Backoff hint on overloaded answers.
  bool degraded = false;          ///< Answered by the degrade planner.
  PlannerRun degraded_run;        ///< The precomputed degraded answer.
  std::size_t cancelled_count = 0;  ///< Payload of a cancel ack.
  /// The parsed request, kept only when degrade is on so an over-budget
  /// job can be re-answered by the degrade planner at emit time.
  std::shared_ptr<const PlanRequest> request;
};

json::Value stats_to_json(const PlanningStats& stats) {
  json::Value out = json::Value::object();
  out.set("jobs", stats.jobs);
  out.set("failures", stats.failures);
  out.set("cancelled", stats.cancelled);
  out.set("evaluations", stats.evaluations);
  out.set("wall_ms", stats.wall_ms);
  out.set("cache_hits", stats.cache_hits);
  out.set("cache_misses", stats.cache_misses);
  out.set("cache_evictions", stats.cache_evictions);
  out.set("cache_coalesced", stats.cache_coalesced);
  // Distributed-tier counters (dist/stats.hpp): process-wide, so a serve
  // process that coordinates `--planner distributed` jobs exposes its
  // dispatch/retry/fallback history next to the planning stats.
  const dist::DistStats dist_stats = dist::stats_snapshot();
  json::Value dist = json::Value::object();
  dist.set("plans", dist_stats.plans);
  dist.set("workers_spawned", dist_stats.workers_spawned);
  dist.set("dispatched", dist_stats.dispatched);
  dist.set("responded", dist_stats.responded);
  dist.set("retried", dist_stats.retried);
  dist.set("worker_failures", dist_stats.worker_failures);
  dist.set("fallbacks", dist_stats.fallbacks);
  dist.set("workers_respawned", dist_stats.workers_respawned);
  dist.set("respawn_failures", dist_stats.respawn_failures);
  dist.set("health_checks", dist_stats.health_checks);
  dist.set("streamed", dist_stats.streamed);
  dist.set("socket_connects", dist_stats.socket_connects);
  dist.set("socket_connect_failures", dist_stats.socket_connect_failures);
  out.set("dist", std::move(dist));
  return out;
}

/// The per-session state: the async service plus the in-order response
/// queue. Responses are written strictly in request order, flushing each
/// line (clients pipeline against a live pipe).
///
/// A dedicated writer thread emits each response the moment its job
/// finishes — crucially, *while the reader blocks on the next input
/// line*. Without it a client that sends one request and then waits
/// (every interactive client, and the distributed tier's coordinator)
/// would deadlock against a server that only flushed responses when more
/// input arrived.
///
/// The reader never writes, even an answer that is ready as its line is
/// admitted (a plan-cache hit that PlanningService::submit() answered on
/// this thread, a refusal, an error): it goes through the queue like any
/// other. So the reader never blocks on output, and a client that writes
/// many requests before reading any answer is still served.
class Session {
 public:
  /// Stdio mode: the session owns a private PlanningService.
  Session(std::ostream& out, const ServeConfig& config)
      : Session(out, config,
                std::make_unique<PlanningService>(
                    config.threads, PlannerRegistry::instance(), config.cache),
                nullptr) {}

  /// Listener mode: the session borrows the process's shared warm
  /// service — many concurrent sessions, one set of caches. `service`
  /// must outlive the session.
  Session(std::ostream& out, const ServeConfig& config,
          PlanningService& service)
      : Session(out, config, nullptr, &service) {}

  ~Session() { finish(); }

  /// Only valid after finish(): the writer thread owns the counter.
  /// Session-local (the serve.answered registry counter aggregates over
  /// every session sharing the service).
  std::size_t answered() const { return answered_count_; }

  void handle_line(const std::string& line) {
    // A well-formed plan request decodes straight from its bytes. Control
    // lines and every line the fast decoder declines take the DOM path,
    // whose errors and id echo are the session's wire contract.
    if (std::optional<wire::PlanLine> decoded = wire::decode_plan_line(line)) {
      submit(std::move(decoded->id), [&decoded] { return std::move(*decoded); });
      return;
    }
    json::Value request;
    try {
      request = json::parse(line);
    } catch (const Error& e) {
      queue_error(json::Value(nullptr), e.what());
      return;
    }
    if (const json::Value* cmd = request.find("cmd")) {
      try {
        handle_command(*cmd, request);
      } catch (const Error& e) {
        // e.g. a non-string "cmd" value — an error line, not a dead session.
        queue_error(json::Value(nullptr), e.what());
      }
      return;
    }
    const json::Value* id = request.find("id");
    submit(id != nullptr ? *id : json::Value(),
           [&request] { return wire::plan_line_from_json(request); });
  }

  bool quitting() const { return quitting_; }

  /// Signals end of input and blocks until every queued response has
  /// been written and the writer thread has exited. Idempotent.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_reading_ = true;
    }
    cv_.notify_one();
    if (writer_.joinable()) writer_.join();
  }

 private:
  Session(std::ostream& out, const ServeConfig& config,
          std::unique_ptr<PlanningService> owned, PlanningService* shared)
      : out_(out), config_(config), owned_service_(std::move(owned)),
        service_(shared != nullptr ? *shared : *owned_service_),
        c_overloaded_(service_.metrics().counter("serve.overloaded")),
        c_degraded_(service_.metrics().counter("serve.degraded")),
        c_cancelled_(service_.metrics().counter("serve.cancelled")),
        c_answered_(service_.metrics().counter("serve.answered")),
        g_pending_(service_.metrics().gauge("serve.pending")),
        h_request_ms_(service_.metrics().histogram("serve.request_ms")),
        writer_([this] { writer_loop(); }) {}

  void handle_command(const json::Value& cmd, const json::Value& request) {
    const std::string& name = cmd.as_string();
    if (name == "quit") {
      quitting_ = true;
      return;
    }
    if (name == "stats") {
      // Queued like any request: the writer answers it only after every
      // earlier response has been written, so the snapshot reflects all
      // previously-answered requests without racing in-flight jobs.
      Pending pending;
      pending.is_stats = true;
      enqueue(std::move(pending));
      return;
    }
    if (name == "metrics") {
      // Full registry exposition (counters, gauges, latency histograms
      // with quantiles) — same in-order queueing discipline as `stats`.
      Pending pending;
      pending.is_metrics = true;
      enqueue(std::move(pending));
      return;
    }
    if (name == "cancel") {
      const json::Value* target = request.find("id");
      ADEPT_CHECK(target != nullptr,
                  "cancel needs the id of the request(s) to cancel");
      // Ids are arbitrary JSON; compare by canonical dump. Only entries
      // still waiting in the queue can be reached — the response being
      // emitted right now is already past the point of cancellation.
      const std::string key = target->dump();
      Pending ack;
      ack.is_cancel = true;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Pending& waiting : pending_) {
          if (waiting.id.dump() != key) continue;
          if (waiting.is_portfolio && waiting.portfolio.valid()) {
            waiting.portfolio.cancel();
            ++ack.cancelled_count;
          } else if (!waiting.is_portfolio && waiting.plan.valid()) {
            waiting.plan.cancel();
            ++ack.cancelled_count;
          }
        }
        c_cancelled_.inc(ack.cancelled_count);
      }
      enqueue(std::move(ack));
      return;
    }
    queue_error(json::Value(nullptr), "unknown command '" + name + "'");
  }

  /// Admits one plan request: `decode` yields the decoded line, or
  /// throws the error its answer carries.
  template <typename Decode>
  void submit(json::Value id, Decode&& decode) {
    Pending pending;
    pending.id = std::move(id);
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      depth = open_requests_;
    }
    const bool full =
        config_.max_pending > 0 && depth >= config_.max_pending;
    try {
      if (full && !config_.degrade) {
        // Admission refusal: no job is created, the slot in the response
        // order carries an explicit overloaded answer with a backoff
        // hint. (The reader is the only thread that admits, so the
        // depth read above cannot race another admission.)
        pending.overloaded = true;
        pending.retry_after_ms = retry_after_estimate(depth);
        pending.immediate_error =
            "server overloaded: " + std::to_string(depth) +
            " requests pending (max " + std::to_string(config_.max_pending) +
            ")";
        c_overloaded_.inc();
        enqueue(std::move(pending));
        return;
      }
      // The wire decoders give the request an *owning* platform, so the
      // in-flight job can never outlive it.
      wire::PlanLine line = decode();
      PlanRequest& plan_request = line.request;
      if (line.budget_ms.has_value())
        plan_request.options.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(
                static_cast<long long>(*line.budget_ms * 1000.0));
      const std::string& planner = line.planner;
      if (full) {
        // Degrade-on-overload: answer right here on the reader thread
        // with the cheap planner — the synchronous run throttles an
        // overloading client to the degrade planner's pace, which is
        // the graceful half of admission control.
        pending.degraded = true;
        pending.degraded_run = run_degraded(plan_request);
        pending.counts = true;
        c_degraded_.inc();
        enqueue(std::move(pending));
        return;
      }
      if (config_.degrade)
        pending.request = std::make_shared<const PlanRequest>(plan_request);
      if (planner == "portfolio") {
        pending.is_portfolio = true;
        pending.portfolio = service_.submit_portfolio(std::move(plan_request));
      } else {
        pending.plan = service_.submit(std::move(plan_request), planner);
      }
      pending.counts = true;
      pending.occupies = true;
    } catch (const Error& e) {
      // Still queued (not written out directly): the error answer takes
      // its slot in request order like every other response.
      pending.immediate_error = e.what();
    }
    enqueue(std::move(pending));
  }

  /// Degrade-planner run for `request`, stripped of its budget and
  /// cancellation — a degraded answer must always arrive.
  PlannerRun run_degraded(const PlanRequest& request) {
    PlanRequest cheap = request;
    cheap.options.deadline.reset();
    cheap.options.cancel = nullptr;
    return service_.run(cheap, "homogeneous");
  }

  /// Backoff hint on an overloaded answer when no job has completed yet:
  /// with zero observed wall time there is no basis for the mean-per-job
  /// estimate below, and scaling a made-up mean by the queue depth only
  /// amplifies the guess. Part of the wire contract (docs/WIRE.md) and
  /// pinned by tests — clients may assume a cold server says exactly this.
  static constexpr double kRetryAfterDefaultMs = 100.0;

  /// Backoff hint for overloaded answers: the service's observed mean
  /// per-job wall time, times the queue rounds ahead of the caller.
  /// Before any job has completed it returns kRetryAfterDefaultMs.
  double retry_after_estimate(std::size_t depth) const {
    const PlanningStats stats = service_.stats();
    if (stats.jobs == 0) return kRetryAfterDefaultMs;
    const double mean_ms = stats.wall_ms / static_cast<double>(stats.jobs);
    const double lanes =
        static_cast<double>(std::max<std::size_t>(1, service_.thread_count()));
    const double estimate =
        mean_ms * (static_cast<double>(depth) + 1.0) / lanes;
    return std::clamp(estimate, 1.0, 60000.0);
  }

  void queue_error(json::Value id, const std::string& message) {
    Pending pending;
    pending.id = std::move(id);
    pending.immediate_error = message;
    enqueue(std::move(pending));
  }

  void enqueue(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending.occupies) {
        ++open_requests_;
        g_pending_.set(static_cast<double>(open_requests_));
      }
      pending_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

  /// Writer thread: pops responses strictly in request order, blocking
  /// on each job's completion, and writes them as they finish.
  void writer_loop() {
    for (;;) {
      Pending front;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !pending_.empty() || done_reading_; });
        if (pending_.empty()) return;
        front = std::move(pending_.front());
        pending_.pop_front();
      }
      emit(front);
    }
  }

  void emit(Pending& front) {
    json::Value response = json::Value::object();
    if (front.is_stats) {
      response.set("ok", true);
      json::Value stats = stats_to_json(service_.stats());
      stats.set("shard_cache", shard_cache_to_json());
      stats.set("serve", serve_stats_to_json());
      response.set("stats", std::move(stats));
      write(response);
      return;
    }
    if (front.is_cancel) {
      response.set("ok", true);
      response.set("cancelled", front.cancelled_count);
      write(response);
      return;
    }
    if (front.is_metrics) {
      // Service-scoped metrics (planning, cache, serve counters) merged
      // with the process-wide registry (dist fleet counters) into one
      // exposition.
      obs::RegistrySnapshot snapshot = service_.metrics().snapshot();
      snapshot.merge(obs::MetricsRegistry::process().snapshot());
      response.set("ok", true);
      response.set("metrics", obs::to_json(snapshot));
      write(response);
      return;
    }
    // Answers to requests are written straight to bytes: the envelope
    // {"id", "ok", ["status"], ["degraded"], ["error" iff !ok], payload}.
    line_.clear();
    json::Writer out(line_);
    out.begin_object();
    out.key("id").value(front.id);
    if (front.overloaded) {
      out.key("ok").boolean(false);
      out.key("status").string("overloaded");
      out.key("error").string(front.immediate_error);
      out.key("retry_after_ms").number(front.retry_after_ms);
    } else if (!front.immediate_error.empty()) {
      out.key("ok").boolean(false);
      out.key("error").string(front.immediate_error);
    } else if (front.degraded) {
      write_run(out, front.degraded_run, /*degraded=*/true);
    } else if (front.is_portfolio) {
      const PortfolioResult& portfolio = front.portfolio.wait();
      const bool ok = portfolio.has_winner();
      out.key("ok").boolean(ok);
      if (!ok)
        out.key("error").string(portfolio.runs.empty()
                                    ? "portfolio produced no runs"
                                    : portfolio.runs.front().error);
      out.key("portfolio");
      wire::write(out, portfolio);
    } else {
      const PlannerRun& run = front.plan.wait();
      if (config_.degrade && front.request != nullptr && !run.ok &&
          run.skipped && run.error.find("deadline") != std::string::npos) {
        // Over-budget rescue: the full-quality plan missed its deadline,
        // so answer with a budget-free run of the degrade planner
        // instead of surfacing the deadline error. (Cancelled jobs stay
        // skipped — the client asked for that.)
        const PlannerRun rescue = run_degraded(*front.request);
        write_run(out, rescue, /*degraded=*/true);
        c_degraded_.inc();
      } else {
        write_run(out, run, /*degraded=*/false);
      }
    }
    out.end_object();
    write_line();
    if (front.overloaded || !front.immediate_error.empty()) return;
    if (front.counts) {
      ++answered_count_;
      c_answered_.inc();
      // End-to-end span: request line read → response line written
      // (queue wait + planning + in-order write discipline).
      h_request_ms_.record(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               front.received)
                               .count());
    }
    if (front.occupies) {
      std::lock_guard<std::mutex> lock(mutex_);
      --open_requests_;
      g_pending_.set(static_cast<double>(open_requests_));
    }
  }

  static void write_run(json::Writer& out, const PlannerRun& run,
                        bool degraded) {
    out.key("ok").boolean(run.ok);
    if (degraded) out.key("degraded").boolean(true);
    if (!run.ok) out.key("error").string(run.error);
    out.key("run");
    wire::write(out, run);
  }

  /// The worker-side shard-level sub-plan cache: occupancy plus lifetime
  /// traffic (planner/shard_cache.hpp). A serve worker that plans shard
  /// jobs for a coordinator — or runs sharded plans itself — answers
  /// repeats of content-identical shards from here.
  json::Value shard_cache_to_json() {
    const ShardPlanCache& cache = service_.shard_cache();
    const ShardPlanCache::Stats stats = cache.stats();
    json::Value out = json::Value::object();
    out.set("capacity", cache.capacity());
    out.set("size", cache.size());
    out.set("hits", stats.hits);
    out.set("misses", stats.misses);
    out.set("evictions", stats.evictions);
    out.set("insertions", stats.insertions);
    out.set("invalidations", stats.invalidations);
    out.set("flushes", stats.flushes);
    return out;
  }

  json::Value serve_stats_to_json() {
    json::Value out = json::Value::object();
    out.set("max_pending", config_.max_pending);
    out.set("degrade", config_.degrade);
    // The session's effective cache configuration (CacheConfig over the
    // wire: plan_capacity / shard_capacity / coalesce).
    out.set("cache", wire::to_json(config_.cache));
    out.set("service_pending", service_.pending_jobs());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out.set("pending", open_requests_);
    }
    out.set("overloaded", c_overloaded_.value());
    out.set("degraded", c_degraded_.value());
    out.set("cancelled", c_cancelled_.value());
    return out;
  }

  /// Control answers (stats, metrics, cancel) are cold: built as a DOM.
  void write(const json::Value& response) {
    line_.clear();
    json::Writer(line_).value(response);
    write_line();
  }

  /// Writes line_ and its newline in one call: on a TCP_NODELAY socket
  /// that is one syscall, and one segment, per answer.
  void write_line() {
    line_ += '\n';
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    out_.flush();
  }

  std::ostream& out_;
  std::string line_;  ///< The answer being written (writer thread only).
  ServeConfig config_;
  /// Stdio mode owns its service here; listener mode leaves it null and
  /// service_ refers to the process-shared one.
  std::unique_ptr<PlanningService> owned_service_;
  PlanningService& service_;
  /// Planning requests this session answered (writer thread writes,
  /// read after finish()'s join).
  std::size_t answered_count_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool done_reading_ = false;
  /// Admitted planning requests not yet written (guarded by mutex_) —
  /// the admission-control queue depth. Mirrored into the serve.pending
  /// gauge for exposition.
  std::size_t open_requests_ = 0;
  // Session counters/spans live on the service's metrics registry
  // (serve.* names) so `stats`, `metrics` and the CLI all read one
  // source of truth; references resolved once in the constructor.
  obs::Counter& c_overloaded_;
  obs::Counter& c_degraded_;
  obs::Counter& c_cancelled_;
  obs::Counter& c_answered_;
  obs::Gauge& g_pending_;
  obs::Histogram& h_request_ms_;
  bool quitting_ = false;
  std::thread writer_;  ///< Last member: starts after everything it uses.
};

/// The reader loop shared by stdio and socket sessions.
std::size_t run_session(std::istream& in, Session& session) {
  std::string line;
  while (!session.quitting() && std::getline(in, line)) {
    if (strings::trim(line).empty()) continue;
    session.handle_line(line);
  }
  session.finish();
  return session.answered();
}

// --------------------------------------------------------------- listening --

/// An unbuffered, EINTR-safe std::streambuf over a connected socket fd.
/// Reads block until data or EOF (a session waiting for its next request
/// line simply sleeps in read()); writes push whole lines — the Session
/// hands over each answer and its '\n' in one xsputn, so a response
/// costs one syscall on a TCP_NODELAY socket. Write failures (client
/// gone) set the stream's error state; the session then drains without
/// a reader.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) { setg(in_, in_, in_); }

 protected:
  int_type underflow() final {
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof in_);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) final {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    return write_all(&c, 1) ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* data, std::streamsize count) final {
    return write_all(data, static_cast<std::size_t>(count)) ? count : 0;
  }

 private:
  bool write_all(const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
      const ssize_t n = ::write(fd_, data + written, size - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // EPIPE/ECONNRESET: the client disconnected
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_;
  char in_[8192];
};

/// Binds a listening socket for "host:port"; returns the fd and the
/// kernel-resolved port (meaningful when the caller asked for port 0).
int bind_listener(const std::string& endpoint, std::string& host,
                  int& port) {
  const std::size_t colon = endpoint.rfind(':');
  ADEPT_CHECK(colon != std::string::npos && colon > 0 &&
                  colon + 1 < endpoint.size(),
              "listen endpoint must be host:port, got '" + endpoint + "'");
  host = endpoint.substr(0, colon);
  const std::string service = endpoint.substr(colon + 1);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  ADEPT_CHECK(rc == 0, "cannot resolve listen endpoint '" + endpoint +
                           "': " + ::gai_strerror(rc));
  int fd = -1;
  std::string reason = "no addresses";
  for (struct addrinfo* a = addrs; a != nullptr && fd < 0; a = a->ai_next) {
    const int sock = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                              a->ai_protocol);
    if (sock < 0) {
      reason = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(sock, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(sock, a->ai_addr, a->ai_addrlen) != 0 ||
        ::listen(sock, 64) != 0) {
      reason = std::strerror(errno);
      ::close(sock);
      continue;
    }
    fd = sock;
  }
  ::freeaddrinfo(addrs);
  ADEPT_CHECK(fd >= 0,
              "cannot listen on '" + endpoint + "': " + reason);
  // Recover the kernel-picked port for the announce line.
  struct sockaddr_storage bound;
  socklen_t len = sizeof bound;
  ADEPT_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                            &len) == 0,
              "getsockname failed: " + std::string(std::strerror(errno)));
  if (bound.ss_family == AF_INET6)
    port = ntohs(reinterpret_cast<struct sockaddr_in6&>(bound).sin6_port);
  else
    port = ntohs(reinterpret_cast<struct sockaddr_in&>(bound).sin_port);
  return fd;
}

}  // namespace

std::size_t serve_session(std::istream& in, std::ostream& out,
                          const ServeConfig& config) {
  Session session(out, config);
  return run_session(in, session);
}

std::size_t serve_listen(const std::string& endpoint,
                         const ServeConfig& config, std::ostream& announce,
                         std::size_t max_sessions) {
  // A client that disconnects mid-response must surface as a failed
  // write(), not a process-killing SIGPIPE.
  static std::once_flag ignore_sigpipe;
  std::call_once(ignore_sigpipe, [] { ::signal(SIGPIPE, SIG_IGN); });

  std::string host;
  int port = 0;
  const int listen_fd = bind_listener(endpoint, host, port);
  announce << "listening on " << host << ":" << port << "\n";
  announce.flush();

  // The one warm service every session shares — the point of the
  // listener: caches and worker threads stay hot across coordinators.
  PlanningService service(config.threads, PlannerRegistry::instance(),
                          config.cache);

  std::mutex mutex;  // guards `answered` and `finished`
  std::size_t answered = 0;
  std::vector<std::thread::id> finished;
  std::vector<std::thread> sessions;
  const auto reap = [&] {
    std::vector<std::thread::id> ids;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ids.swap(finished);
    }
    for (const std::thread::id id : ids) {
      for (auto it = sessions.begin(); it != sessions.end(); ++it) {
        if (it->get_id() != id) continue;
        it->join();
        sessions.erase(it);
        break;
      }
    }
  };

  std::size_t accepted = 0;
  while (max_sessions == 0 || accepted < max_sessions) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // listener torn down under us
    }
    ::fcntl(client, F_SETFD, FD_CLOEXEC);
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ++accepted;
    reap();  // bound the live-thread set before growing it
    sessions.emplace_back([client, &service, &config, &mutex, &answered,
                           &finished] {
      std::size_t count = 0;
      {
        FdStreamBuf in_buf(client);
        FdStreamBuf out_buf(client);
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        Session session(out, config, service);
        count = run_session(in, session);
      }
      ::close(client);
      std::lock_guard<std::mutex> lock(mutex);
      answered += count;
      finished.push_back(std::this_thread::get_id());
    });
  }
  ::close(listen_fd);
  for (std::thread& session : sessions) session.join();
  return answered;
}

}  // namespace adept::io
