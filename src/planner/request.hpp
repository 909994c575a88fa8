#pragma once
/// \file request.hpp
/// \brief The value types of the unified planning API.
///
/// A PlanRequest is a complete, self-contained planning problem: which
/// platform to deploy on, under which middleware cost model, for which
/// service, and with which options (demand, degree hint, excluded hosts,
/// trace verbosity, deadline, cancellation). Every registered planner
/// (see registry.hpp) consumes a PlanRequest; the PlanningService ships
/// batches of them across a thread pool and — since API v2 — accepts them
/// asynchronously (submit() returns a PlanTicket), so a request may
/// outlive the scope that built it. The platform is therefore held
/// through shared ownership: pass a std::shared_ptr<const Platform> and
/// the request keeps the platform alive for as long as any in-flight job
/// needs it. The historical `const Platform&` constructor still works as
/// a borrowed (non-owning) reference for synchronous call sites; with it,
/// the caller keeps the platform alive until every job built from the
/// request has finished — exactly the old contract.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/flat_set.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "platform/platform.hpp"

namespace adept {

class ThreadPool;
class ShardPlanCache;

/// Unlimited client demand: the planner maximises raw throughput.
inline constexpr RequestRate kUnlimitedDemand =
    std::numeric_limits<RequestRate>::infinity();

/// Cooperative cancellation flag shared between a caller and in-flight
/// planning jobs. The caller keeps the token alive for as long as any
/// request referencing it may still run. A token may be linked to a
/// parent token (PlanTicket::cancel layers a per-job token over the
/// caller's request-level one); cancelling either cancels the job.
class CancelToken {
 public:
  /// A fresh, uncancelled token with no parent.
  CancelToken() = default;
  /// A token that also observes `parent` (not owned; may be null). The
  /// parent must outlive this token.
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  /// Requests cancellation; safe from any thread, idempotent.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  /// True when this token or any parent has been cancelled.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancelToken* parent_ = nullptr;
};

/// Options understood by every registered planner. Each planner consumes
/// the subset its capabilities cover (see PlannerCaps) and ignores the
/// rest: a degree hint does not change the star planner, and demand does
/// not change the balanced one.
struct PlanOptions {
  /// Client demand in req/s; demand-aware planners stop growing the
  /// deployment once it is met (preferring fewer resources).
  RequestRate demand = kUnlimitedDemand;
  /// Tree degree for degree-parameterised planners; 0 means "planner's
  /// default" (the balanced planner picks ceil(sqrt(n))).
  std::size_t degree = 0;
  /// Nodes that must not appear in the deployment (failed or reserved
  /// hosts). Honoured by every planner: the registry plans on the
  /// surviving sub-platform and maps the result back to original ids.
  NodeSet excluded;
  /// Shard count for shard-aware planners (the "sharded" backend): 0
  /// lets the planner partition automatically (explicit cluster labels
  /// from node names, or the power/link-affinity partitioner); >= 1
  /// forces an affinity partition into that many shards. Ignored by
  /// every other planner, like degree is by the star planner.
  std::size_t shards = 0;
  /// When false the decision log (PlanResult::trace) is dropped, which
  /// keeps batch runs lean.
  bool verbose_trace = true;
  /// Jobs observed past this instant are not started, and in-flight
  /// planners abandon the run at their next StopGuard checkpoint (the
  /// heuristic's growth loops, the improver's rounds).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional cancellation token; not owned, may be null.
  const CancelToken* cancel = nullptr;
  /// Optional pool for a planner's *internal* parallelism (the sharded
  /// planners plan their leaves over it; the heuristic ignores it). Not
  /// owned, may be null; the PlanningService plumbs its own pool in, and
  /// results are identical with or without one.
  ThreadPool* pool = nullptr;
  /// Optional shard-level plan cache (planner/shard_cache.hpp) the
  /// sharded/distributed planners' leaf path consults. Not owned, may be
  /// null; the PlanningService plumbs its own cache in. Runtime-only
  /// like `pool` — it never travels on the wire or enters a fingerprint,
  /// and by the cache's determinism contract results are bit-identical
  /// with or without one.
  ShardPlanCache* shard_cache = nullptr;

  /// True when a cancel token is attached and has been cancelled.
  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
  /// True when a deadline is set and the clock has passed it.
  bool past_deadline() const {
    return deadline.has_value() && std::chrono::steady_clock::now() > *deadline;
  }
  /// True when the job should not start (or continue): cancelled or late.
  bool should_stop() const { return cancelled() || past_deadline(); }
};

/// Periodic cooperative stop checkpoint for planner hot loops. Checking
/// the cancel flag is one relaxed atomic load — done every call — but
/// checking the deadline costs a steady_clock::now(), so it runs every
/// kDeadlineStride-th call only, keeping the clock off the hot path.
/// check() throws adept::Error when the run must stop; the
/// PlanningService classifies such a late abort as skipped, not failed.
/// Thread-safe (the trial counter is atomic), so pool workers may share
/// one guard; a throw propagates through ThreadPool::for_each.
class StopGuard {
 public:
  /// The deadline clock is read once per this many check() calls.
  static constexpr std::uint32_t kDeadlineStride = 64;

  /// `options` may be null (legacy free-function callers): every check
  /// is then a no-op, so plans stay bit-identical to the historical path.
  explicit StopGuard(const PlanOptions* options) : options_(options) {
    armed_ = options != nullptr &&
             (options->cancel != nullptr || options->deadline.has_value());
  }

  StopGuard(const StopGuard&) = delete;             ///< Non-copyable.
  StopGuard& operator=(const StopGuard&) = delete;  ///< Non-copyable.

  /// One checkpoint: throws "planning cancelled" / "planning deadline
  /// exceeded" when the run should stop.
  void check() {
    if (!armed_) return;
    if (options_->cancelled()) throw Error("planning cancelled");
    if (!options_->deadline.has_value()) return;
    if (trials_.fetch_add(1, std::memory_order_relaxed) % kDeadlineStride != 0)
      return;
    if (options_->past_deadline()) throw Error("planning deadline exceeded");
  }

 private:
  const PlanOptions* options_;
  bool armed_ = false;
  std::atomic<std::uint32_t> trials_{0};
};

/// A complete planning problem with shared platform ownership: copies of
/// a request (queued jobs, tickets) all keep the platform alive.
struct PlanRequest {
  std::shared_ptr<const Platform> platform;  ///< The pool to deploy on.
  MiddlewareParams params;                   ///< Middleware cost model.
  ServiceSpec service;                       ///< Service being deployed.
  PlanOptions options;                       ///< Planner options.

  /// An empty request (no platform); fill the fields before planning.
  PlanRequest() = default;

  /// Owning form (API v2): the request participates in the platform's
  /// lifetime — safe to submit() and let the call site return.
  PlanRequest(std::shared_ptr<const Platform> platform_ptr,
              MiddlewareParams params_in, ServiceSpec service_in,
              PlanOptions options_in = {})
      : platform(std::move(platform_ptr)), params(std::move(params_in)),
        service(std::move(service_in)), options(std::move(options_in)) {}

  /// Borrowed-reference compatibility form: wraps the platform in a
  /// non-owning shared_ptr (aliasing constructor with no control block).
  /// The caller keeps `platform_ref` alive until every job built from
  /// this request has finished — the pre-v2 contract, kept for
  /// synchronous call sites.
  PlanRequest(const Platform& platform_ref, MiddlewareParams params_in,
              ServiceSpec service_in, PlanOptions options_in = {})
      : platform(std::shared_ptr<const Platform>(), &platform_ref),
        params(std::move(params_in)), service(std::move(service_in)),
        options(std::move(options_in)) {}
};

}  // namespace adept
