/// \file worker_pool.cpp
/// \brief Dispatch, drain, retry, respawn and fallback over a worker
/// fleet.

#include "dist/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/stats.hpp"
#include "io/wire.hpp"
#include "obs/metrics.hpp"

namespace adept::dist {

namespace {

/// Serializes one job as a serve request line, keyed by its job index.
std::string encode(std::size_t id, const ShardJob& job) {
  std::string line;
  json::Writer out(line);
  out.begin_object();
  wire::write_members(out, job.request);
  out.key("id").index(id);
  out.key("planner").string(job.planner);
  // A deadline is an instant on this process's clock; workers get the
  // remaining budget instead (the serve convention, io/wire.hpp).
  if (job.request.options.deadline.has_value()) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(
            *job.request.options.deadline - std::chrono::steady_clock::now())
            .count();
    out.key("budget_ms").number(std::max(remaining_ms, 0.001));
  }
  out.end_object();
  return line;
}

}  // namespace

const char* worker_phase_name(WorkerPhase phase) {
  switch (phase) {
    case WorkerPhase::Idle: return "idle";
    case WorkerPhase::Dispatched: return "dispatched";
    case WorkerPhase::Responded: return "responded";
    case WorkerPhase::Failed: return "failed";
  }
  return "unknown";
}

WorkerPool::WorkerPool(Transport& transport, std::size_t workers,
                       WorkerPoolConfig config)
    : config_(config), transport_(&transport) {
  ADEPT_CHECK(workers >= 1, "a worker pool needs at least one worker");
  slots_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    Slot slot;
    try {
      slot.worker = transport.spawn();
    } catch (const std::exception&) {
      // Spawn failure is a worker failure, not a pool failure: run()'s
      // fallback still answers every job (and respawn may refill the
      // slot later).
      slot.phase = WorkerPhase::Failed;
      slot.failures = 1;
      slot.retry_at = std::chrono::steady_clock::now() + backoff_delay(1);
      ++detail::counters().worker_failures;
    }
    slots_.push_back(std::move(slot));
  }
}

WorkerPool::WorkerPool(std::vector<std::unique_ptr<Worker>> workers,
                       WorkerPoolConfig config)
    : config_(config) {
  ADEPT_CHECK(!workers.empty(), "a worker pool needs at least one worker");
  slots_.reserve(workers.size());
  for (auto& worker : workers) {
    Slot slot;
    slot.worker = std::move(worker);
    if (slot.worker == nullptr) slot.phase = WorkerPhase::Failed;
    slots_.push_back(std::move(slot));
  }
}

std::size_t WorkerPool::healthy_count() const {
  return healthy_indices().size();
}

WorkerPhase WorkerPool::phase(std::size_t index) const {
  ADEPT_CHECK(index < slots_.size(), "worker index out of range");
  return slots_[index].phase;
}

std::vector<std::size_t> WorkerPool::healthy_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].phase != WorkerPhase::Failed &&
        slots_[i].worker != nullptr && slots_[i].worker->alive())
      out.push_back(i);
  return out;
}

std::chrono::steady_clock::duration WorkerPool::backoff_delay(
    int failures) const {
  if (config_.respawn_backoff_ms <= 0.0 || failures <= 0)
    return std::chrono::steady_clock::duration::zero();
  // Capped exponential: backoff * 2^(failures-1), saturating well before
  // the shift could overflow.
  const int exponent = std::min(failures - 1, 30);
  const double ms =
      std::min(config_.respawn_backoff_ms *
                   static_cast<double>(std::uint64_t{1} << exponent),
               config_.respawn_backoff_max_ms);
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

void WorkerPool::fail(Slot& slot) {
  slot.phase = WorkerPhase::Failed;
  ++slot.failures;
  slot.retry_at =
      std::chrono::steady_clock::now() + backoff_delay(slot.failures);
  ++detail::counters().worker_failures;
  // Per-worker counter so a respawn storm can be attributed to the one
  // flapping slot instead of reading as fleet-wide churn.
  obs::MetricsRegistry::process()
      .counter("dist.worker." + std::to_string(&slot - slots_.data()) +
               ".failures")
      .inc();
  // A failed worker may be wedged mid-plan; a stale late response must
  // never reach a later round, so the worker is killed, not benched.
  if (slot.worker != nullptr) slot.worker->kill();
}

std::size_t WorkerPool::respawn_due() {
  if (transport_ == nullptr || !config_.respawn) return 0;
  std::size_t respawned = 0;
  const auto now = std::chrono::steady_clock::now();
  for (Slot& slot : slots_) {
    if (slot.phase != WorkerPhase::Failed || now < slot.retry_at) continue;
    try {
      slot.worker = transport_->spawn();
      slot.phase = WorkerPhase::Idle;
      ++respawned;
      ++detail::counters().workers_respawned;
      obs::MetricsRegistry::process()
          .counter("dist.worker." + std::to_string(&slot - slots_.data()) +
                   ".respawns")
          .inc();
    } catch (const std::exception&) {
      // The replacement could not even start; escalate the backoff and
      // leave the slot failed for a later pass.
      ++slot.failures;
      slot.retry_at = now + backoff_delay(slot.failures);
      ++detail::counters().respawn_failures;
    }
  }
  return respawned;
}

double WorkerPool::receive_timeout_ms(const ShardJob& job) const {
  double timeout = config_.shard_timeout_ms;
  if (job.request.options.deadline.has_value()) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(
            *job.request.options.deadline - std::chrono::steady_clock::now())
            .count();
    // May clamp to <= 0: an expired budget turns the receive into an
    // immediate timeout, which fails the (possibly hung) worker instead
    // of waiting out the flat shard timeout.
    timeout = std::min(timeout, remaining_ms);
  }
  return timeout;
}

void WorkerPool::drain(Slot& slot, const std::vector<ShardJob>& jobs,
                       const std::vector<std::size_t>& job_ids,
                       const StreamResultFn& on_result,
                       std::vector<std::size_t>& unanswered,
                       std::vector<std::size_t>& remote_failed) {
  slot.phase = WorkerPhase::Dispatched;
  // Pipeline the worker's whole share before reading: serve overlaps
  // planning with request parsing and answers strictly in order.
  std::size_t sent = 0;
  for (const std::size_t id : job_ids) {
    if (!slot.worker->send(encode(id, jobs[id]))) break;
    ++sent;
    ++detail::counters().dispatched;
  }
  bool failed = sent != job_ids.size();
  std::size_t answered = 0;
  while (!failed && answered < sent) {
    const std::size_t id = job_ids[answered];
    std::string line;
    if (!slot.worker->receive(line, receive_timeout_ms(jobs[id]))) {
      failed = true;  // crash (EOF), hang (timeout / expired budget) or
                      // dead pipe
      break;
    }
    try {
      wire::RunAnswer answer = wire::decode_run_answer(line);
      ADEPT_CHECK(answer.id == id, "worker answered out of order");
      if (answer.ok) {
        // Streamed straight off this drain thread: the caller's sink
        // sees the result while other workers are still planning. A
        // throw here (the sink rejecting a protocol-level-broken run)
        // lands in the catch below — worker failure, job re-dispatched.
        on_result(id, std::move(answer.run));
      } else {
        // The *job* failed remotely (planner error, budget); the worker
        // is fine. Re-plan locally so the error (or late success) is
        // decided by the same code path the local planner would use.
        remote_failed.push_back(id);
      }
      ++answered;
      ++detail::counters().responded;
    } catch (const std::exception&) {
      failed = true;  // garbage, truncated JSON, protocol violation
    }
  }
  if (failed) {
    fail(slot);
    for (std::size_t k = answered; k < job_ids.size(); ++k)
      unanswered.push_back(job_ids[k]);
  } else {
    slot.phase = WorkerPhase::Responded;
  }
}

std::vector<PlannerRun> WorkerPool::run(const std::vector<ShardJob>& jobs,
                                        const LocalPlanFn& local_fallback) {
  std::vector<PlannerRun> results(jobs.size());
  // Distinct drain threads write distinct job indices of a pre-sized
  // vector, so the collecting sink needs no lock.
  run_streamed(jobs, local_fallback,
               [&results](std::size_t id, PlannerRun&& run) {
                 results[id] = std::move(run);
               });
  return results;
}

void WorkerPool::run_streamed(const std::vector<ShardJob>& jobs,
                              const LocalPlanFn& local_fallback,
                              const StreamResultFn& on_result) {
  ADEPT_CHECK(local_fallback != nullptr,
              "worker pool needs a local fallback planner");
  ADEPT_CHECK(on_result != nullptr, "worker pool needs a result sink");
  std::vector<std::size_t> pending(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) pending[i] = i;
  std::vector<std::size_t> local_jobs;

  // One sample per dispatch round (assignment + pipelined drain of every
  // healthy worker), so a storm of retries shows up as a fat tail here.
  static obs::Histogram& round_latency =
      obs::MetricsRegistry::process().histogram("dist.round.latency_ms");

  for (int round = 0; !pending.empty() && round <= config_.max_retries;
       ++round) {
    obs::ScopedTimer round_timer(round_latency);
    // Supervised pools refill failed slots before every round, so a
    // crash in round k can be answered by a fresh worker in round k+1.
    respawn_due();
    // Jobs already past their deadline (or cancelled) skip dispatch —
    // waiting on a worker for them would only burn healthy workers on
    // guaranteed timeouts. The fallback gives them the same skipped /
    // deadline-exceeded outcome the local sharded path would.
    std::vector<std::size_t> due;
    due.reserve(pending.size());
    for (const std::size_t id : pending) {
      if (jobs[id].request.options.should_stop())
        local_jobs.push_back(id);
      else
        due.push_back(id);
    }
    pending.swap(due);
    if (pending.empty()) {
      round_timer.dismiss();  // nothing dispatched; not a real round
      break;
    }

    const std::vector<std::size_t> healthy = healthy_indices();
    if (healthy.empty()) {
      round_timer.dismiss();
      break;
    }
    if (round > 0) detail::counters().retried += pending.size();

    // Deterministic round-robin assignment over the healthy workers.
    std::vector<std::vector<std::size_t>> assigned(healthy.size());
    for (std::size_t k = 0; k < pending.size(); ++k)
      assigned[k % healthy.size()].push_back(pending[k]);

    std::vector<std::vector<std::size_t>> unanswered(healthy.size());
    std::vector<std::vector<std::size_t>> remote_failed(healthy.size());
    std::vector<std::thread> drains;
    for (std::size_t g = 0; g < healthy.size(); ++g) {
      if (assigned[g].empty()) continue;
      drains.emplace_back([this, g, &healthy, &jobs, &assigned, &on_result,
                           &unanswered, &remote_failed] {
        drain(slots_[healthy[g]], jobs, assigned[g], on_result,
              unanswered[g], remote_failed[g]);
      });
    }
    for (std::thread& thread : drains) thread.join();

    pending.clear();
    for (const auto& leftover : unanswered)
      pending.insert(pending.end(), leftover.begin(), leftover.end());
    std::sort(pending.begin(), pending.end());
    for (const auto& rejected : remote_failed)
      local_jobs.insert(local_jobs.end(), rejected.begin(), rejected.end());
  }

  // A successful round leaves the worker ready for the next batch, with
  // its failure streak (and therefore its backoff) cleared. This runs
  // *before* the fallback deliveries: the sink may throw there (a
  // genuine planning error surfacing), and a long-lived fleet must come
  // out of the batch with clean phases either way.
  for (Slot& slot : slots_)
    if (slot.phase == WorkerPhase::Responded) {
      slot.phase = WorkerPhase::Idle;
      slot.failures = 0;
    }

  // Whatever no worker could answer — plus jobs workers answered with an
  // error — is planned in-process and delivered in ascending job order.
  local_jobs.insert(local_jobs.end(), pending.begin(), pending.end());
  std::sort(local_jobs.begin(), local_jobs.end());
  for (const std::size_t id : local_jobs) {
    PlannerRun run = local_fallback(jobs[id]);
    ++detail::counters().fallbacks;
    on_result(id, std::move(run));
  }
}

bool WorkerPool::health_check() {
  ++detail::counters().health_checks;
  for (Slot& slot : slots_) {
    if (slot.phase == WorkerPhase::Failed || slot.worker == nullptr) continue;
    bool ok = false;
    if (slot.worker->send(R"({"cmd":"stats"})")) {
      std::string line;
      if (slot.worker->receive(line, config_.health_timeout_ms)) {
        try {
          ok = json::parse(line).at("ok").as_bool();
        } catch (const std::exception&) {
          ok = false;
        }
      }
    }
    if (ok)
      slot.failures = 0;  // a responsive worker has redeemed itself
    else
      fail(slot);
  }
  return healthy_count() == slots_.size();
}

}  // namespace adept::dist
