#include "planner/planning_service.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"
// The cache key is produced by the io layer's canonical writer — a
// deliberate .cpp-local upward reference: planner and io ship as one
// static library (libadept), and hand-rolling a second canonical
// encoding down here would just be a drift hazard.
#include "io/wire.hpp"
#include "model/evaluate.hpp"
#include "model/hetero_comm.hpp"

namespace adept {

namespace {

/// Score used to rank portfolio candidates. Planner reports are not
/// directly comparable on heterogeneous-link platforms: link-blind
/// planners report their homogeneous-model belief, which overstates what
/// a slow link delivers. Re-scoring every candidate under the per-link
/// evaluator (which reduces to the paper's model on homogeneous links)
/// puts them on one scale.
RequestRate portfolio_score(const PlannerRun& run, const PlanRequest& request) {
  if (request.platform->has_homogeneous_links())
    return run.result.report.overall;
  return model::evaluate_hetero(run.result.hierarchy, *request.platform,
                                request.params, request.service)
      .overall;
}

/// Portfolio ranking: demand-clipped score first, then fewest nodes,
/// then name (total order → deterministic winner under any completion
/// interleaving).
bool beats(RequestRate score_a, const PlannerRun& a, RequestRate score_b,
           const PlannerRun& b, RequestRate demand) {
  const RequestRate rho_a = std::min(score_a, demand);
  const RequestRate rho_b = std::min(score_b, demand);
  const double tolerance = 1e-9 * std::max(rho_a, rho_b);
  if (rho_a > rho_b + tolerance) return true;
  if (rho_b > rho_a + tolerance) return false;
  if (a.result.nodes_used() != b.result.nodes_used())
    return a.result.nodes_used() < b.result.nodes_used();
  return a.planner < b.planner;
}

}  // namespace

const PlannerRun& PortfolioResult::best() const {
  ADEPT_CHECK(has_winner(), "portfolio produced no successful plan");
  return runs[winner];
}

PlanningService::PlanningService(std::size_t threads,
                                 const PlannerRegistry& registry,
                                 CacheConfig cache,
                                 obs::MetricsRegistry* metrics)
    : registry_(registry), threads_(threads),
      cache_capacity_(cache.plan_capacity), cache_coalesce_(cache.coalesce),
      shard_cache_(cache.shard_capacity) {
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>(true);
    metrics = own_metrics_.get();
  }
  metrics_ = metrics;
  h_plan_ms_ = &metrics_->histogram("service.plan.latency_ms");
  h_queue_wait_ms_ = &metrics_->histogram("service.queue_wait_ms");
  c_failures_ = &metrics_->counter("service.plan.failures");
  c_cancelled_ = &metrics_->counter("service.plan.cancelled");
  c_evaluations_ = &metrics_->counter("service.evaluations");
  c_cache_hits_ = &metrics_->counter("service.cache.hits");
  c_cache_misses_ = &metrics_->counter("service.cache.misses");
  c_cache_evictions_ = &metrics_->counter("service.cache.evictions");
  c_cache_coalesced_ = &metrics_->counter("service.cache.coalesced");
  shard_cache_.bind_metrics(*metrics_);
}

PlanningService::PlanningService(std::size_t threads,
                                 const PlannerRegistry& registry,
                                 std::size_t cache_capacity,
                                 obs::MetricsRegistry* metrics)
    : PlanningService(threads, registry, CacheConfig{cache_capacity, 0, true},
                      metrics) {}

ThreadPool& PlanningService::pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(threads_);
  });
  return *pool_;
}

std::size_t PlanningService::thread_count() const {
  // Computed from the configuration, not the lazily-created pool (whose
  // pointer would race with pool()'s call_once); ThreadPool resolves a
  // zero thread count the same way.
  if (threads_ != 0) return threads_;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// -------------------------------------------------------------- plan cache --

void PlanningService::book_hit(PlannerRun& run, const PlanResult& result,
                               bool coalesced) {
  run.ok = true;
  run.cached = true;
  run.result = result;
  c_cache_hits_->inc();
  if (coalesced) c_cache_coalesced_->inc();
  planner_metrics(run.planner).cache_hits->inc();
}

bool PlanningService::take_cached(const std::string& key, PlannerRun& run,
                                  bool coalesced) {
  const auto found = cache_map_.find(key);
  if (found == cache_map_.end()) return false;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, found->second);
  book_hit(run, found->second->result, coalesced);
  return true;
}

bool PlanningService::cache_wait_or_begin(const std::string& key,
                                          PlannerRun& run,
                                          const PlanOptions& options) {
  std::unique_lock<std::mutex> lock(cache_mutex_);
  bool coalesced = false;
  for (;;) {
    if (take_cached(key, run, coalesced)) return true;
    if (!cache_coalesce_) {
      // Coalescing disabled (CacheConfig::coalesce = false): every miss
      // plans for itself. No inflight entry is created; cache_finish
      // tolerates the absence and still fills the LRU on success.
      c_cache_misses_->inc();
      return false;
    }
    const auto inflight = inflight_.find(key);
    if (inflight == inflight_.end()) {
      // No finished entry and nobody planning it: this job leads.
      inflight_.emplace(key, std::make_shared<Inflight>());
      c_cache_misses_->inc();
      return false;
    }
    // An identical request is in flight; wait for the leader's verdict
    // instead of planning the same problem on another core. The entry is
    // held by shared_ptr: the leader may erase it from the map while
    // followers still examine it.
    const std::shared_ptr<Inflight> entry = inflight->second;
    coalesced = true;
    while (!entry->done) {
      if (options.should_stop()) {
        run.skipped = true;
        run.error = options.cancelled() ? "cancelled" : "deadline exceeded";
        return true;
      }
      // Bounded waits keep a follower's own deadline/cancel responsive
      // without a cv per token.
      inflight_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
    if (entry->ok) {
      book_hit(run, entry->result, /*coalesced=*/true);
      return true;
    }
    // The leader failed; its failure is not this job's failure. Loop:
    // the cache may have been filled meanwhile, or this job becomes the
    // new leader and plans for itself.
  }
}

void PlanningService::cache_finish(const std::string& key,
                                   const PlannerRun& run) {
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    if (const auto found = inflight_.find(key); found != inflight_.end()) {
      found->second->done = true;
      found->second->ok = run.ok;
      if (run.ok) found->second->result = run.result;
      inflight_.erase(found);
    }
    if (run.ok && cache_capacity_ != 0 &&
        cache_map_.find(key) == cache_map_.end()) {
      while (cache_map_.size() >= cache_capacity_) {
        cache_map_.erase(cache_lru_.back().key);
        cache_lru_.pop_back();
        ++evicted;
      }
      cache_lru_.push_front(CacheEntry{key, run.result});
      cache_map_.emplace(key, cache_lru_.begin());
    }
  }
  inflight_cv_.notify_all();
  if (evicted != 0) c_cache_evictions_->inc(evicted);
}

void PlanningService::set_cache_capacity(std::size_t capacity) {
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    cache_capacity_ = capacity;
    while (cache_map_.size() > cache_capacity_) {
      cache_map_.erase(cache_lru_.back().key);
      cache_lru_.pop_back();
      ++evicted;
    }
  }
  if (evicted != 0) c_cache_evictions_->inc(evicted);
}

std::size_t PlanningService::cache_capacity() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_capacity_;
}

void PlanningService::set_cache_config(const CacheConfig& config) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_coalesce_ = config.coalesce;
  }
  set_cache_capacity(config.plan_capacity);
  shard_cache_.set_capacity(config.shard_capacity);
}

CacheConfig PlanningService::cache_config() const {
  CacheConfig out;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    out.plan_capacity = cache_capacity_;
    out.coalesce = cache_coalesce_;
  }
  out.shard_capacity = shard_cache_.capacity();
  return out;
}

// --------------------------------------------------------------- execution --

PlannerRun PlanningService::execute(const PlanRequest& request,
                                    const std::string& planner,
                                    std::string cache_key) {
  PlannerRun run;
  run.planner = planner;
  if (request.options.should_stop()) {
    run.skipped = true;
    run.error = request.options.cancelled() ? "cancelled"
                                            : "deadline exceeded";
    return run;
  }
  const std::uint64_t evals_before = model::evaluations_on_this_thread();
  const auto start = std::chrono::steady_clock::now();
  bool leads = false;
  try {
    // Consult the plan cache before spending planner time. The key
    // covers platform content + params + service + plan-relevant
    // options, so a hit is guaranteed to be the same planning problem.
    // Keying is inside the try: an invalid request (null platform, NaN
    // demand) must land in run.error like any planner failure — never
    // escape into a pool worker.
    if (cache_capacity() != 0) {
      if (cache_key.empty()) cache_key = wire::request_key(request, planner);
      // Answered from the cache, coalesced onto an identical in-flight
      // job, or stopped while waiting; otherwise this job is the leader
      // for the key and must publish its outcome via cache_finish below.
      if (cache_wait_or_begin(cache_key, run, request.options)) return run;
      leads = true;
    }
    // Offer the service's pool for the planner's internal parallelism
    // (the sharded planner's leaves). Safe when this job itself runs on a
    // pool worker: ThreadPool::for_each has the submitting thread
    // participate, so nested fan-out cannot deadlock — and results are
    // bit-identical with or without the pool.
    PlanRequest effective = request;
    if (effective.options.pool == nullptr) effective.options.pool = &pool();
    // Likewise offer the shard-level sub-plan cache to shard-aware
    // planners; a disabled cache (capacity 0) stays out of the options so
    // planners can treat a non-null pointer as "enabled".
    if (effective.options.shard_cache == nullptr &&
        shard_cache_.capacity() != 0)
      effective.options.shard_cache = &shard_cache_;
    const IPlanner& impl = registry_.at(planner);
    run.result = impl.plan(effective);
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  } catch (...) {
    run.error = "unknown planner failure";
  }
  // A cancel/deadline that lands after the pre-check above — or stops the
  // planner mid-flight at a StopGuard checkpoint — surfaces as a planner
  // exception; classify it as skipped, not failed.
  if (!run.ok && request.options.should_stop()) run.skipped = true;
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  run.evaluations = model::evaluations_on_this_thread() - evals_before;
  if (leads) cache_finish(cache_key, run);
  // Per-planner latency covers runs that actually planned (cache hits
  // return above; skipped runs never exercised this planner).
  if (!run.skipped) planner_metrics(planner).latency->record(run.wall_ms);
  return run;
}

const PlanningService::PlannerMetrics& PlanningService::planner_metrics(
    const std::string& planner) {
  std::lock_guard<std::mutex> lock(planner_metrics_mutex_);
  PlannerMetrics& entry = planner_metrics_[planner];
  if (entry.latency == nullptr) {
    entry.latency =
        &metrics_->histogram("service.planner." + planner + ".latency_ms");
    entry.cache_hits =
        &metrics_->counter("service.planner." + planner + ".cache_hits");
  }
  return entry;
}

void PlanningService::record(const PlannerRun& run) {
  // The aggregate latency histogram doubles as the jobs/wall_ms ledger:
  // its count is stats().jobs and its sum is stats().wall_ms, so every
  // attempted run — cached, failed or skipped — is recorded.
  h_plan_ms_->record(run.wall_ms);
  if (!run.ok) (run.skipped ? c_cancelled_ : c_failures_)->inc();
  if (run.evaluations != 0) c_evaluations_->inc(run.evaluations);
}

PlannerRun PlanningService::run(const PlanRequest& request,
                                const std::string& planner) {
  PlannerRun out = execute(request, planner);
  record(out);
  return out;
}

std::vector<PlannerRun> PlanningService::run_batch(
    const std::vector<Job>& jobs) {
  std::vector<PlannerRun> out(jobs.size());
  if (jobs.empty()) return out;
  // for_each has the calling thread participate, so a batch started from
  // inside a pool worker (submit_portfolio's orchestration job) makes
  // progress even on a single-worker pool.
  pool().for_each(jobs.size(), [this, &jobs, &out](std::size_t i) {
    // execute() never throws (the pool terminates on escaping
    // exceptions); failures land in the PlannerRun.
    PlannerRun run = execute(jobs[i].request, jobs[i].planner);
    record(run);
    out[i] = std::move(run);
  });
  return out;
}

PortfolioResult PlanningService::run_portfolio(
    const PlanRequest& request, const std::vector<std::string>& planners) {
  std::vector<std::string> names = planners;
  if (names.empty())
    for (const IPlanner* planner : registry_.applicable(request))
      names.push_back(planner->info().name);
  ADEPT_CHECK(!names.empty(), "portfolio has no planners to run");

  std::vector<Job> jobs;
  jobs.reserve(names.size());
  for (const auto& name : names) jobs.push_back(Job{request, name});

  PortfolioResult portfolio;
  portfolio.runs = run_batch(jobs);
  portfolio.scores.assign(portfolio.runs.size(), 0.0);
  RequestRate winner_score = 0.0;
  for (std::size_t i = 0; i < portfolio.runs.size(); ++i) {
    if (!portfolio.runs[i].ok) continue;
    portfolio.scores[i] = portfolio_score(portfolio.runs[i], request);
    if (portfolio.winner == PortfolioResult::npos ||
        beats(portfolio.scores[i], portfolio.runs[i], winner_score,
              portfolio.runs[portfolio.winner], request.options.demand)) {
      portfolio.winner = i;
      winner_score = portfolio.scores[i];
    }
  }
  return portfolio;
}

// ------------------------------------------------------------------- async --

PlanTicket PlanningService::submit(PlanRequest request, std::string planner) {
  auto state = std::make_shared<detail::TicketState<PlannerRun>>(
      request.options.cancel);
  request.options.cancel = &state->cancel;
  // A finished plan-cache entry answers here, on the caller's thread: one
  // key and one copy, no pool job and no wake-up. A late or cancelled
  // request goes to the pool, which reports it skipped; so does a key a
  // leader is still planning, which coalesces there. On a miss the key
  // travels with the job.
  std::string key;
  if (!request.options.should_stop() && cache_capacity() != 0) {
    try {
      key = wire::request_key(request, planner);
    } catch (const std::exception&) {
      // An invalid request: its job reports the error in run.error.
    }
    PlannerRun run;
    run.planner = planner;
    bool hit = false;
    if (!key.empty()) {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      hit = take_cached(key, run, /*coalesced=*/false);
    }
    if (hit) {
      // The pool path's ledger: the job, its zero wall time, and a zero
      // queue wait, so every histogram still counts stats().jobs.
      h_queue_wait_ms_->record(0.0);
      record(run);
      state->result = std::move(run);
      state->started = true;
      state->done = true;
      return PlanTicket(std::move(state));
    }
  }
  pending_jobs_.fetch_add(1, std::memory_order_relaxed);
  pool().submit([this, state, request = std::move(request),
                 planner = std::move(planner),
                 key = std::move(key)]() mutable {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->started = true;
    }
    h_queue_wait_ms_->record(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() -
                                 state->submitted)
                                 .count());
    PlannerRun run = execute(request, planner, std::move(key));
    record(run);
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->result = std::move(run);
      state->done = true;
    }
    state->cv.notify_all();
    pending_jobs_.fetch_sub(1, std::memory_order_relaxed);
  });
  return PlanTicket(std::move(state));
}

PortfolioTicket PlanningService::submit_portfolio(
    PlanRequest request, std::vector<std::string> planners) {
  auto state = std::make_shared<detail::TicketState<PortfolioResult>>(
      request.options.cancel);
  request.options.cancel = &state->cancel;
  pending_jobs_.fetch_add(1, std::memory_order_relaxed);
  pool().submit([this, state, request = std::move(request),
                 planners = std::move(planners)] {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->started = true;
    }
    h_queue_wait_ms_->record(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() -
                                 state->submitted)
                                 .count());
    PortfolioResult portfolio;
    try {
      portfolio = run_portfolio(request, planners);
    } catch (const std::exception& e) {
      // e.g. "portfolio has no planners to run" — deliver an empty,
      // winnerless result carrying the error instead of killing the pool.
      PlannerRun failure;
      failure.error = e.what();
      portfolio.runs.push_back(std::move(failure));
      portfolio.scores.push_back(0.0);
    }
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->result = std::move(portfolio);
      state->done = true;
    }
    state->cv.notify_all();
    pending_jobs_.fetch_sub(1, std::memory_order_relaxed);
  });
  return PortfolioTicket(std::move(state));
}

PlanningStats PlanningService::stats() const {
  // A view over the metrics registry: counts are exact (the recording
  // side is sequenced before any ticket/pool completion the caller can
  // observe), wall_ms is the latency histogram's sum.
  PlanningStats out;
  const obs::HistogramSnapshot plan = h_plan_ms_->snapshot();
  out.jobs = plan.count;
  out.wall_ms = plan.sum;
  out.failures = c_failures_->value();
  out.cancelled = c_cancelled_->value();
  out.evaluations = c_evaluations_->value();
  out.cache_hits = c_cache_hits_->value();
  out.cache_misses = c_cache_misses_->value();
  out.cache_evictions = c_cache_evictions_->value();
  out.cache_coalesced = c_cache_coalesced_->value();
  const ShardPlanCache::Stats shard = shard_cache_.stats();
  out.shard_cache_hits = shard.hits;
  out.shard_cache_misses = shard.misses;
  out.shard_cache_evictions = shard.evictions;
  out.shard_cache_invalidations = shard.invalidations;
  out.shard_cache_flushes = shard.flushes;
  return out;
}

std::size_t PlanningService::pending_jobs() const {
  return pending_jobs_.load(std::memory_order_relaxed);
}

}  // namespace adept
