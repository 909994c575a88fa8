#pragma once
/// \file planning_service.hpp
/// \brief Concurrent + asynchronous execution of planning requests.
///
/// The PlanningService turns the registry's planners into a throughput
/// machine: it owns a ThreadPool and executes
///   - single runs        (one request, one named planner),
///   - batches            (independent request×planner jobs in parallel),
///   - portfolio runs     (every applicable planner on one request in
///                         parallel; the best-throughput, smallest-
///                         deployment result wins, per-planner wall time
///                         and model-evaluation counts reported),
///   - async submissions  (submit()/submit_portfolio() enqueue a job and
///                         return a ticket immediately; the caller wait()s,
///                         poll()s or cancel()s at leisure — the service
///                         front door that `adept serve` drives). A
///                         submit() that finds a finished plan-cache entry
///                         answers on the caller's thread instead, with a
///                         ticket that is already done.
/// A stats sink accumulates job counts, failures, wall time, model
/// evaluations and plan-cache traffic across the service's lifetime.
///
/// Plan cache: an optional bounded LRU keyed by wire::request_key — the
/// canonical wire-format fingerprint of (planner, request)
/// (wire::request_fingerprint), walked by its own writers as bits into
/// two SipHash-2-4 streams under per-process random keys, so no text is
/// formatted and a client cannot aim a key collision. Keys are equal exactly when
/// fingerprints are (see request_key for the one, finer, exception).
/// The key covers the full platform *content*, the middleware parameters,
/// the service and every plan-relevant option, so a platform edited in
/// place (add_node / set_link) fingerprints differently and stale entries
/// simply age out; runtime-only options (deadline, cancel token, pool) do
/// not affect the key. Only successful runs are cached. Capacity 0 (the
/// default) disables caching entirely.
///
/// Hits answered at submit: submit() keys the request on the caller's
/// thread, and a finished entry answers it there — one key and one copy
/// of the cached result, no pool job, no thread hop. The ticket comes
/// back done. The run is booked exactly as a pool hit is: one job, a
/// cache hit, zero wall time and a zero queue wait. A cancelled or late
/// request, a key a leader is still planning (it coalesces on the pool),
/// and a miss (its job reuses the key) all take the pool path. run(),
/// run_batch() and portfolios key and probe on the thread that executes
/// them.
///
/// Identical *concurrent* requests are single-flighted: the first job to
/// miss on a key becomes the leader and plans; followers that arrive
/// while it is in flight wait for its verdict instead of planning the
/// same problem on another core (counted as cache_coalesced hits). A
/// leader that fails releases its followers, and the first to wake
/// retries as the new leader — a failure is never cached, and a follower
/// is never failed by proxy. Waiting followers honour their own
/// cancellation and deadline.
///
/// Planner exceptions never escape a job: they are captured into the
/// PlannerRun so one bad request cannot take down a batch (the pool
/// terminates on escaping exceptions). Cancellation and deadlines are
/// honoured both at admission — a job observed cancelled or late is not
/// started — and *during* planning: the heuristic's growth loops and the
/// improver's rounds poll a StopGuard, so a cancel() or a passed deadline
/// stops an in-flight job at its next checkpoint (reported as skipped).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "planner/cache_config.hpp"
#include "planner/registry.hpp"
#include "planner/request.hpp"
#include "planner/shard_cache.hpp"

namespace adept {

/// Outcome of one planner execution (or non-execution).
struct PlannerRun {
  std::string planner;        ///< Registry name of the planner that ran.
  bool ok = false;            ///< The run completed with a valid plan.
  bool skipped = false;       ///< Not run: cancelled or past the deadline.
  bool cached = false;        ///< Result served from the plan cache.
  std::string error;          ///< Why the run failed / was skipped.
  PlanResult result;          ///< Meaningful only when ok.
  double wall_ms = 0.0;       ///< Planner wall time (~0 on cache hits).
  std::uint64_t evaluations = 0;  ///< Eq-16 evaluations during the run.
};

/// Result of a portfolio run over one request.
struct PortfolioResult {
  /// Sentinel winner index: no planner produced a usable plan.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Index of the winning run in `runs`; npos when every planner failed.
  std::size_t winner = npos;
  std::vector<PlannerRun> runs;  ///< One run per portfolio member.
  /// Comparable score per run (aligned with `runs`; 0 for failed ones).
  /// Equals the run's reported overall throughput except on
  /// heterogeneous-link platforms, where every candidate is re-scored
  /// under the per-link evaluator — link-blind planners report their
  /// homogeneous-model belief, which is not comparable across planners.
  /// The winner is chosen on this scale; display these, not the raw
  /// reports, when ranking runs side by side.
  std::vector<RequestRate> scores;

  /// True when some planner produced a usable plan.
  bool has_winner() const { return winner != npos; }
  const PlannerRun& best() const;  ///< Throws adept::Error when no winner.
};

/// Lifetime counters of a PlanningService (monotone; snapshot via
/// stats()). Since the obs layer landed this is a *view*: the service
/// records into its obs::MetricsRegistry (service.plan.latency_ms,
/// service.cache.*, ...) and stats() assembles this struct from a
/// registry snapshot, so the wire `stats` response keeps its shape while
/// metrics() exposes the full histograms.
struct PlanningStats {
  std::uint64_t jobs = 0;         ///< Planner runs attempted.
  std::uint64_t failures = 0;     ///< Runs that threw.
  std::uint64_t cancelled = 0;    ///< Runs skipped (cancelled / deadline).
  std::uint64_t evaluations = 0;  ///< Model evaluations across all runs.
  double wall_ms = 0.0;           ///< Summed per-run wall time.
  std::uint64_t cache_hits = 0;       ///< Jobs answered from the plan cache.
  std::uint64_t cache_misses = 0;     ///< Cache-enabled jobs that planned.
  std::uint64_t cache_evictions = 0;  ///< LRU entries displaced.
  /// Subset of cache_hits that waited on an identical in-flight job
  /// (single-flight coalescing) instead of finding a finished entry.
  std::uint64_t cache_coalesced = 0;
  // Shard-level sub-plan cache traffic (service.shard_cache.* counters;
  // see planner/shard_cache.hpp for the per-shard memoization contract).
  std::uint64_t shard_cache_hits = 0;       ///< Leaf shards served cached.
  std::uint64_t shard_cache_misses = 0;     ///< Leaf shards planned fresh.
  std::uint64_t shard_cache_evictions = 0;  ///< LRU entries displaced.
  std::uint64_t shard_cache_invalidations = 0;  ///< Churn-invalidated entries.
  std::uint64_t shard_cache_flushes = 0;        ///< Whole-cache flushes.
};

namespace detail {

/// Shared completion state behind a ticket. The job-side writer and any
/// number of ticket copies synchronise on `mutex`/`cv`; the per-job
/// cancel token layers over the caller's request-level token.
template <typename Result>
struct TicketState {
  explicit TicketState(const CancelToken* parent) : cancel(parent) {}

  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool done = false;
  Result result;
  CancelToken cancel;
  std::chrono::steady_clock::time_point submitted =
      std::chrono::steady_clock::now();
};

}  // namespace detail

/// Handle to an asynchronously submitted planning job. Cheap to copy
/// (all copies share one state); safe to destroy before the job finishes
/// — the job owns its request (shared platform ownership included), so
/// nothing dangles. Obtain from PlanningService::submit*().
template <typename Result>
class Ticket {
 public:
  /// Point-in-time view of the job's lifecycle.
  struct Progress {
    bool started = false;  ///< A worker has picked the job up.
    bool done = false;     ///< The result is available.
    bool cancel_requested = false;  ///< cancel() has been called.
    double waited_ms = 0.0;  ///< Time since submission.
  };

  /// An empty handle (valid() is false); assign a submitted ticket to it.
  Ticket() = default;

  /// True when this handle refers to a submitted job.
  bool valid() const { return state_ != nullptr; }

  /// Non-blocking: true when the result is available.
  bool poll() const {
    std::lock_guard<std::mutex> lock(state().mutex);
    return state().done;
  }

  /// Blocks until the job finishes and returns its result. May be called
  /// repeatedly. Call from a thread that is not one of the service's
  /// workers (a worker waiting on a ticket could starve the queue).
  const Result& wait() const& {
    std::unique_lock<std::mutex> lock(state().mutex);
    state().cv.wait(lock, [this] { return state().done; });
    return state().result;
  }

  /// Rvalue form: `service.submit(...).wait()` would otherwise hand back
  /// a reference into the temporary ticket's state — return a copy
  /// instead (a copy, not a move: other handles may share the state).
  Result wait() && {
    const Ticket& self = *this;
    return self.wait();
  }

  /// Requests cooperative cancellation. A queued job is skipped at
  /// admission; a running planner stops at its next StopGuard checkpoint.
  /// The job still completes (with skipped == true) — wait() never hangs.
  void cancel() { state().cancel.cancel(); }

  Progress progress() const {
    Progress out;
    std::lock_guard<std::mutex> lock(state().mutex);
    out.started = state().started;
    out.done = state().done;
    out.cancel_requested = state().cancel.cancelled();
    out.waited_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - state().submitted)
                        .count();
    return out;
  }

 private:
  friend class PlanningService;
  using State = detail::TicketState<Result>;

  explicit Ticket(std::shared_ptr<State> state) : state_(std::move(state)) {}

  State& state() const {
    ADEPT_CHECK(state_ != nullptr, "ticket is empty (default-constructed)");
    return *state_;
  }

  std::shared_ptr<State> state_;
};

/// Ticket for one asynchronous planner run.
using PlanTicket = Ticket<PlannerRun>;
/// Ticket for one asynchronous portfolio run.
using PortfolioTicket = Ticket<PortfolioResult>;

/// Concurrent, asynchronous executor of planning requests (see the
/// file comment for the full service contract).
class PlanningService {
 public:
  /// One request × one planner, ready for run_batch.
  struct Job {
    PlanRequest request;  ///< The planning problem.
    std::string planner;  ///< Registry name to run it with.
  };

  /// `threads` = 0 means hardware_concurrency. The registry defaults to
  /// the process-wide instance; tests may inject their own.
  /// `cache` configures the whole-request plan cache, the shard-level
  /// sub-plan cache and single-flight coalescing (see CacheConfig); the
  /// default disables both caches.
  /// `metrics` is the registry the service records into; nullptr (the
  /// default) gives the service its own always-enabled registry, so each
  /// service's metrics are isolated. Inject a disabled registry to
  /// measure the instrumentation's overhead (bench_service does).
  explicit PlanningService(std::size_t threads = 0,
                           const PlannerRegistry& registry =
                               PlannerRegistry::instance(),
                           CacheConfig cache = {},
                           obs::MetricsRegistry* metrics = nullptr);

  /// \deprecated Positional plan-cache capacity form, kept one release
  /// as a delegating overload: equivalent to CacheConfig{cache_capacity,
  /// 0, true}. New code passes a CacheConfig.
  PlanningService(std::size_t threads, const PlannerRegistry& registry,
                  std::size_t cache_capacity,
                  obs::MetricsRegistry* metrics = nullptr);

  PlanningService(const PlanningService&) = delete;             ///< Non-copyable.
  PlanningService& operator=(const PlanningService&) = delete;  ///< Non-copyable.

  /// Runs one planner synchronously on the calling thread. The service's
  /// pool is offered to the planner for its internal parallelism (e.g.
  /// the sharded planner's leaves) unless the request already carries
  /// one.
  PlannerRun run(const PlanRequest& request, const std::string& planner);

  /// Runs independent jobs across the pool; results align with `jobs`.
  /// The calling thread participates, so batches submitted from inside a
  /// pool worker (nested portfolios) cannot deadlock.
  std::vector<PlannerRun> run_batch(const std::vector<Job>& jobs);

  /// Runs the named planners (default: every applicable one) on `request`
  /// in parallel and picks the winner: highest demand-clipped throughput,
  /// ties (1 part in 1e9) broken by fewest nodes, then by name for
  /// determinism.
  PortfolioResult run_portfolio(const PlanRequest& request,
                                const std::vector<std::string>& planners = {});

  /// Asynchronous front door: enqueues the job and returns immediately.
  /// The request is taken by value — give it an owning platform
  /// (std::shared_ptr) when the call site may return before the job runs.
  /// With the plan cache on, the request is keyed here first, and a
  /// finished cache entry answers it on this thread: the ticket returns
  /// done (see the file comment). Never waits on another job.
  PlanTicket submit(PlanRequest request, std::string planner);

  /// As submit(), for a whole portfolio. The ticket's cancel() stops the
  /// portfolio's member runs at their next checkpoint.
  PortfolioTicket submit_portfolio(PlanRequest request,
                                   std::vector<std::string> planners = {});

  /// Resizes the plan cache; 0 disables and clears it. Shrinking evicts
  /// least-recently-used entries (counted as evictions).
  /// \deprecated Prefer set_cache_config(); this adjusts plan_capacity
  /// only.
  void set_cache_capacity(std::size_t capacity);
  /// Current plan-cache capacity in entries (0 = caching disabled).
  std::size_t cache_capacity() const;

  /// Applies a full cache configuration at runtime: plan-cache capacity
  /// (shrinking evicts), shard-cache capacity, coalescing switch.
  void set_cache_config(const CacheConfig& config);
  /// The effective cache configuration.
  CacheConfig cache_config() const;
  /// The service-owned shard-level sub-plan cache, plumbed into every
  /// executed request that does not bring its own
  /// (PlanOptions::shard_cache). The ReplanOrchestrator invalidates
  /// through this handle.
  ShardPlanCache& shard_cache() { return shard_cache_; }
  const ShardPlanCache& shard_cache() const { return shard_cache_; }

  /// Snapshot of the lifetime counters, assembled from the metrics
  /// registry (see PlanningStats).
  PlanningStats stats() const;
  /// The registry this service records into: per-planner latency
  /// histograms (`service.planner.<name>.latency_ms`), queue-wait and
  /// aggregate plan-latency histograms, cache and failure counters.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Workers a batch/portfolio fans out over (the pool itself is created
  /// lazily on the first executed job).
  std::size_t thread_count() const;
  /// Jobs submitted through submit()/submit_portfolio() that have not
  /// completed yet (queued or running). The serve tier's admission
  /// control reads this as its queue-depth signal.
  std::size_t pending_jobs() const;

 private:
  /// One run, through the plan cache when it is on; `cache_key` is the
  /// request's key when the caller has already computed it.
  PlannerRun execute(const PlanRequest& request, const std::string& planner,
                     std::string cache_key = {});
  void record(const PlannerRun& run);
  /// Makes `run` a cache hit on `result` and counts it: the one place a
  /// hit is booked, whichever path found it.
  void book_hit(PlannerRun& run, const PlanResult& result, bool coalesced);
  /// Books the finished entry for `key` into `run` as a hit and moves it
  /// to the LRU front; false when there is none. Caller holds
  /// cache_mutex_.
  bool take_cached(const std::string& key, PlannerRun& run, bool coalesced);
  /// Single-flight cache front: true (and fills `run`) when the job is
  /// answered — by a cached entry, by a coalesced in-flight result, or
  /// by the waiter's own cancellation/deadline. False makes the caller
  /// the leader for `key`; it MUST call cache_finish() with its outcome.
  bool cache_wait_or_begin(const std::string& key, PlannerRun& run,
                           const PlanOptions& options);
  /// Leader's epilogue: publishes the outcome to followers, caches a
  /// successful result, and releases the in-flight entry.
  void cache_finish(const std::string& key, const PlannerRun& run);
  ThreadPool& pool();

  const PlannerRegistry& registry_;
  std::size_t threads_;

  /// Owned fallback registry when none is injected. Declared before the
  /// pool (last members below) so draining jobs can still record.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Hot-path metrics resolved once in the constructor (registry lookups
  // take a mutex; these references are stable for the registry's life).
  obs::Histogram* h_plan_ms_ = nullptr;     ///< Every run's wall time.
  obs::Histogram* h_queue_wait_ms_ = nullptr;  ///< submit → job start.
  obs::Counter* c_failures_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_evaluations_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_cache_misses_ = nullptr;
  obs::Counter* c_cache_evictions_ = nullptr;
  obs::Counter* c_cache_coalesced_ = nullptr;

  /// Per-planner metric handles, resolved on a planner's first job and
  /// cached: the steady-state path pays one short-string map lookup
  /// instead of building "service.planner.<name>.*" keys per job.
  struct PlannerMetrics {
    obs::Histogram* latency = nullptr;
    obs::Counter* cache_hits = nullptr;
  };
  const PlannerMetrics& planner_metrics(const std::string& planner);
  std::mutex planner_metrics_mutex_;
  std::map<std::string, PlannerMetrics> planner_metrics_;

  /// submit()ed jobs not yet completed (see pending_jobs()).
  std::atomic<std::size_t> pending_jobs_{0};

  /// LRU plan cache: list front = most recent; map points into the list.
  /// Keys are 16-byte wire::request_key digests of the canonical request
  /// fingerprint, so per-entry key storage is O(1) regardless of
  /// platform size.
  struct CacheEntry {
    std::string key;
    PlanResult result;
  };
  mutable std::mutex cache_mutex_;
  std::size_t cache_capacity_ = 0;
  bool cache_coalesce_ = true;
  std::list<CacheEntry> cache_lru_;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_map_;

  /// Shard-level sub-plan cache (own mutex; see shard_cache.hpp).
  /// Declared before the pool members so draining jobs can still probe.
  ShardPlanCache shard_cache_;

  /// One in-flight (leader-owned) plan per key; followers hold the
  /// shared_ptr and wait on inflight_cv_ (paired with cache_mutex_).
  struct Inflight {
    bool done = false;
    bool ok = false;
    PlanResult result;  ///< Meaningful only when done && ok.
  };
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  std::condition_variable inflight_cv_;

  // Last members: destroyed first, so the pool joins (draining queued
  // ticket jobs, which touch the stats and cache above) while the rest
  // of the service is still alive.
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace adept
