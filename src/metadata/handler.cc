#include "metadata/handler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/provider.h"

namespace pipes {

const char* HandlerHealthToString(HandlerHealth h) {
  switch (h) {
    case HandlerHealth::kHealthy:
      return "healthy";
    case HandlerHealth::kDegraded:
      return "degraded";
    case HandlerHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

/// Evaluation context backed by a handler's resolved dependencies. It reads
/// the previous value only if the evaluator asks: the evaluating thread
/// holds the handler's eval_mu_, so the slot cannot change meanwhile.
class MetadataHandler::HandlerEvalContext final : public EvalContext {
 public:
  HandlerEvalContext(const MetadataHandler& handler, Timestamp now,
                     Duration elapsed, uint64_t eval_index)
      : handler_(handler),
        now_(now),
        elapsed_(elapsed),
        eval_index_(eval_index) {}

  MetadataProvider& provider() const override { return handler_.owner_; }
  Timestamp now() const override { return now_; }
  Duration elapsed() const override { return elapsed_; }
  size_t dep_count() const override { return handler_.deps_.size(); }
  MetadataValue Dep(size_t i) const override {
    assert(i < handler_.deps_.size());
    return handler_.deps_[i]->Get();
  }
  MetadataValue Previous() const override { return handler_.LoadValue(); }
  uint64_t eval_index() const override { return eval_index_; }

 private:
  const MetadataHandler& handler_;
  Timestamp now_;
  Duration elapsed_;
  uint64_t eval_index_;
};

MetadataHandler::MetadataHandler(
    MetadataProvider& owner, std::shared_ptr<const MetadataDescriptor> desc,
    MetadataManager& manager,
    std::vector<std::shared_ptr<MetadataHandler>> deps)
    : owner_(owner),
      desc_(std::move(desc)),
      manager_(manager),
      deps_(std::move(deps)),
      backoff_rng_(std::hash<std::string>()(owner.label()) ^
                   (std::hash<std::string>()(desc_->key()) << 1)) {}

MetadataHandler::~MetadataHandler() {
  // Replaced plans belong to the manager's retire list; the current one is
  // this handler's own.
  delete wave_plan_.load(std::memory_order_acquire);
}

MetadataValue MetadataHandler::Get() {
  if (retired()) {
    // The provider is (being) torn down: neither the evaluator nor the
    // owner may be touched. Serve the declared fallback, else whatever was
    // last computed.
    if (desc_->has_fallback()) return desc_->fallback_value();
    return LoadValue();
  }
  return DoGet();
}

Timestamp MetadataHandler::last_updated() const {
  return last_updated_.load(std::memory_order_acquire);
}

Duration MetadataHandler::staleness(Timestamp now) const {
  Timestamp updated = last_updated_.load(std::memory_order_acquire);
  if (updated == kTimestampNever) return 0;
  return std::max<Duration>(0, now - updated);
}

HandlerHealth MetadataHandler::health() const {
  return health_.load(std::memory_order_relaxed);
}

std::string MetadataHandler::last_error() const {
  MutexLock lock(eval_mu_);
  return last_error_;
}

int MetadataHandler::consecutive_failures() const {
  return consecutive_failures_.load(std::memory_order_relaxed);
}

void MetadataHandler::Retire() {
  bool expected = false;
  if (!retired_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;
  }
  // Cancel mechanism tasks so no periodic tick can reach the evaluator (and
  // through it the dying provider) after this point.
  Deactivate();
  // Cached wave plans stay valid: every edge stays in place until the last
  // reference goes and MaybeRemove excludes the handler under the exclusive
  // structure lock, and meanwhile EvaluateAndStore turns a wave's refresh of
  // this handler into a read of its frozen value.
  // Journaled exactly once, while the owner is still alive (Retire is
  // called from the owner's registry teardown).
  if (MetadataDurability* d = manager_.durability()) {
    d->OnRetire(owner_, desc_->key());
  }
}

bool MetadataHandler::InBackoff(Timestamp now) const {
  return health_.load(std::memory_order_relaxed) ==
             HandlerHealth::kQuarantined &&
         retry_at_ != kTimestampNever && now < retry_at_;
}

MetadataValue MetadataHandler::EvaluateAndStore(Timestamp now, Duration elapsed,
                                                bool* updated,
                                                bool* evaluated) {
  if (updated != nullptr) *updated = false;
  if (evaluated != nullptr) *evaluated = false;
  if (retired()) return LoadValueOrFallback();

  // Quarantine gate: inside the backoff window the evaluator is not invoked
  // at all — the item degrades gracefully to its last-known-good value.
  if (InBackoff(now)) {
    skipped_evals_.fetch_add(1, std::memory_order_relaxed);
    manager_.CountSkippedEvaluation();
    return LoadValueOrFallback();
  }

  bool ok = true;
  std::string error;
  MetadataValue v;
  if (desc_->evaluator()) {
    uint64_t index = eval_count_.load(std::memory_order_relaxed);
    eval_count_.store(index + 1, std::memory_order_relaxed);
    if (evaluated != nullptr) {
      *evaluated = true;
    } else {
      manager_.CountEvaluation();
    }
    HandlerEvalContext ctx(*this, now, elapsed, index);
    try {
      v = desc_->evaluator()(ctx);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    } catch (...) {
      ok = false;
      error = "non-standard exception from evaluator";
    }
  }
  if (ok && v.is_double() && !std::isfinite(v.AsDouble())) {
    ok = false;
    error = "non-finite evaluator result";
  }

  if (ok) {
    StoreValue(v, now);
    RecordSuccess();
    if (updated != nullptr) *updated = true;
    return v;
  }

  fault_count_.fetch_add(1, std::memory_order_relaxed);
  manager_.CountEvaluationFailure();
  RecordFailure(now, std::move(error));
  return LoadValueOrFallback();
}

void MetadataHandler::RecordSuccess() {
  consecutive_failures_.store(0, std::memory_order_relaxed);
  current_backoff_ = 0;
  retry_at_ = kTimestampNever;  // probes succeeded; stop gating evals
  const HandlerHealth old_health = health_.load(std::memory_order_relaxed);
  if (old_health == HandlerHealth::kHealthy) return;
  if (++consecutive_successes_ < desc_->retry_policy().successes_to_recover) {
    return;
  }
  health_.store(HandlerHealth::kHealthy, std::memory_order_relaxed);
  consecutive_successes_ = 0;
  last_error_.clear();
  recovery_count_.fetch_add(1, std::memory_order_relaxed);
  manager_.CountHealthTransition(old_health, HandlerHealth::kHealthy);
}

void MetadataHandler::RecordFailure(Timestamp now, std::string error) {
  const RetryPolicy& policy = desc_->retry_policy();
  const HandlerHealth old_health = health_.load(std::memory_order_relaxed);
  HandlerHealth new_health = old_health;
  const int failures =
      consecutive_failures_.load(std::memory_order_relaxed) + 1;
  consecutive_failures_.store(failures, std::memory_order_relaxed);
  consecutive_successes_ = 0;
  last_error_ = std::move(error);
  if (failures >= policy.failures_to_quarantine) {
    new_health = HandlerHealth::kQuarantined;
  } else if (failures >= policy.failures_to_degrade) {
    new_health = HandlerHealth::kDegraded;
  }
  health_.store(new_health, std::memory_order_relaxed);
  if (new_health == HandlerHealth::kQuarantined) {
    // Exponential backoff between retry probes, capped by the policy.
    if (current_backoff_ <= 0) {
      current_backoff_ = std::max<Duration>(1, policy.initial_backoff);
    } else {
      double next = static_cast<double>(current_backoff_) *
                    std::max(1.0, policy.backoff_multiplier);
      current_backoff_ = static_cast<Duration>(
          std::min(next, static_cast<double>(policy.max_backoff)));
    }
    // The growth above stays deterministic; only the applied delay is
    // jittered, so handlers quarantined by one correlated fault do not
    // probe in lockstep (each handler's RNG is seeded from its identity).
    Duration delay = current_backoff_;
    double jitter = std::clamp(policy.backoff_jitter, 0.0, 1.0);
    if (jitter > 0.0) {
      double factor = backoff_rng_.UniformDouble(1.0 - jitter, 1.0 + jitter);
      delay = std::max<Duration>(
          1, static_cast<Duration>(static_cast<double>(delay) * factor));
      delay = std::min(delay, std::max<Duration>(1, policy.max_backoff));
    }
    retry_at_ = now + delay;
  }
  if (old_health != new_health) {
    manager_.CountHealthTransition(old_health, new_health);
  }
}

void MetadataHandler::PublishSlot(const MetadataValue& v, Timestamp now) {
  SlotTag tag = SlotTag::kNull;
  uint64_t bits = 0;
  MetadataValue::SharedString str;
  if (v.is_bool()) {
    tag = SlotTag::kBool;
    bits = v.AsBool() ? 1 : 0;
  } else if (v.is_int()) {
    tag = SlotTag::kInt;
    bits = std::bit_cast<uint64_t>(v.AsInt());
  } else if (v.is_double()) {
    tag = SlotTag::kDouble;
    bits = std::bit_cast<uint64_t>(v.AsDouble());
  } else if (v.is_string()) {
    tag = SlotTag::kString;
    str = v.shared_string();
  }

  // Seqlock write (Boehm's fence recipe): make the counter odd, publish the
  // payload with relaxed stores, make it even again with release ordering.
  // The release fence keeps the odd store from sinking below the payload
  // stores; the final release store keeps the payload from sinking below it.
  // The string slot is non-null only under a kString tag, so a number over a
  // number leaves it alone, while a number over a string still nulls it and
  // releases the string at once. eval_mu_ makes the tag read our own.
  const bool was_string = static_cast<SlotTag>(value_tag_.load(
                              std::memory_order_relaxed)) == SlotTag::kString;
  uint64_t seq = value_seq_.load(std::memory_order_relaxed);
  value_seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  value_tag_.store(static_cast<uint8_t>(tag), std::memory_order_relaxed);
  value_bits_.store(bits, std::memory_order_relaxed);
  if (tag == SlotTag::kString || was_string) {
    value_str_.store(std::move(str), std::memory_order_relaxed);
  }
  last_updated_.store(now, std::memory_order_relaxed);
  value_seq_.store(seq + 2, std::memory_order_release);
}

MetadataValue MetadataHandler::ReadSlot() const {
  for (;;) {
    uint64_t s1 = value_seq_.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // write in progress; writers are brief
    SlotTag tag =
        static_cast<SlotTag>(value_tag_.load(std::memory_order_relaxed));
    uint64_t bits = value_bits_.load(std::memory_order_relaxed);
    MetadataValue::SharedString str;
    if (tag == SlotTag::kString) {
      str = value_str_.load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (value_seq_.load(std::memory_order_relaxed) != s1) continue;
    switch (tag) {
      case SlotTag::kNull:
        return MetadataValue::Null();
      case SlotTag::kBool:
        return MetadataValue(bits != 0);
      case SlotTag::kInt:
        return MetadataValue(std::bit_cast<int64_t>(bits));
      case SlotTag::kDouble:
        return MetadataValue(std::bit_cast<double>(bits));
      case SlotTag::kString:
        return MetadataValue(std::move(str));
    }
    return MetadataValue::Null();  // unreachable
  }
}

void MetadataHandler::StoreValue(const MetadataValue& v, Timestamp now) {
  PublishSlot(v, now);
  update_count_.store(update_count_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  // Journal inside eval_mu_ so journal order matches publish order: the
  // last kValue record for this key is the value the slot held at the
  // crash. The hook is one atomic load when durability is off.
  if (MetadataDurability* d = manager_.durability()) {
    d->OnValue(owner_, desc_->key(), v, now);
  }
}

MetadataValue MetadataHandler::LoadValue() const { return ReadSlot(); }

MetadataValue MetadataHandler::LoadValueOrFallback() const {
  MetadataValue v = LoadValue();
  if (v.is_null() && desc_->has_fallback()) return desc_->fallback_value();
  return v;
}

bool MetadataHandler::RefreshFromWave(Timestamp) { return false; }

void MetadataHandler::AddDependent(MetadataHandler* h) {
  // Planning drops duplicate dependencies, so a dependent subscribes once
  // and is notified once (paper §3.2.3).
  assert(std::find(dependents_.begin(), dependents_.end(), h) ==
         dependents_.end());
  dependents_.push_back(h);
}

void MetadataHandler::RemoveDependent(MetadataHandler* h) {
  dependents_.erase(std::remove(dependents_.begin(), dependents_.end(), h),
                    dependents_.end());
}

// --- StaticMetadataHandler ---------------------------------------------------

void StaticMetadataHandler::Activate(Timestamp now) {
  // Either a literal value or a one-time evaluation.
  MutexLock lock(eval_mu_);
  if (desc_->evaluator()) {
    EvaluateAndStore(now, 0);
  } else {
    StoreValue(desc_->static_value(), now);
  }
}

// --- OnDemandMetadataHandler -------------------------------------------------

void OnDemandMetadataHandler::Activate(Timestamp now) {
  // No pre-computation; remember the inclusion time so the first access has
  // a meaningful elapsed().
  MutexLock lock(eval_mu_);
  StoreValue(MetadataValue::Null(), now);
}

MetadataValue OnDemandMetadataHandler::DoGet() {
  // The one read that depends on the time. elapsed() spans back to the last
  // *successful* evaluation, so a contained failure leaves rate
  // computations consistent. The time is read under the lock: a racing read
  // then sees this read's publish and counts no interval twice.
  MutexLock lock(eval_mu_);
  Timestamp now = manager_.clock().Now();
  return EvaluateAndStore(now, now - last_updated());
}

// --- PeriodicMetadataHandler -------------------------------------------------

void PeriodicMetadataHandler::Activate(Timestamp now) {
  assert(period() > 0 && "periodic metadata item requires a positive period");
  // The value for the (empty) zeroth window; evaluators guard elapsed()==0.
  {
    MutexLock lock(eval_mu_);
    EvaluateAndStore(now, 0);
  }
  effective_period_.store(period(), std::memory_order_release);
  MutexLock lock(period_mu_);
  Reschedule(period());
}

void PeriodicMetadataHandler::Deactivate() {
  MutexLock lock(period_mu_);
  task_.Cancel();
}

void PeriodicMetadataHandler::Reschedule(Duration new_period) {
  task_.Cancel();
  std::weak_ptr<MetadataHandler> weak = weak_from_this();
  Timestamp now = manager_.clock().Now();
  // The first tick preserves the item's staleness bound across cadence
  // changes: it lands one new_period after the last evaluation — immediately
  // if that instant already passed (a restore after a long stretch). Without
  // this, a stretch would restart the cadence from `now` and let staleness
  // peak at old-staleness + new_period, overshooting max_staleness.
  Timestamp first = now + new_period;
  Timestamp last = last_updated();
  if (last != kTimestampNever) {
    first = std::max(now, last + new_period);
  }
  task_ = manager_.scheduler().SchedulePeriodic(
      new_period,
      [weak] {
        if (auto self = weak.lock()) {
          auto* h = static_cast<PeriodicMetadataHandler*>(self.get());
          h->Tick(h->manager_.clock().Now());
        }
      },
      first);
}

Duration PeriodicMetadataHandler::ApplyDegradationFactor(double factor) {
  const Duration base = period();
  Duration cap = desc_->max_staleness();
  if (cap <= 0) {
    cap = static_cast<Duration>(static_cast<double>(base) *
                                kDefaultStalenessFactor);
  }
  cap = std::max(cap, base);
  Duration target = base;
  if (factor > 1.0) {
    target = static_cast<Duration>(static_cast<double>(base) * factor);
    target = std::min(std::max(target, base), cap);
  }
  MutexLock lock(period_mu_);
  // Retired/deactivated handlers have no task to re-arm; leave them alone.
  if (retired() || !task_.active()) return effective_period();
  if (target == effective_period()) return target;
  effective_period_.store(target, std::memory_order_release);
  Reschedule(target);
  return target;
}

void PeriodicMetadataHandler::Tick(Timestamp now) {
  bool updated = false;
  {
    // elapsed() is the width of the window that just closed — the
    // *effective* cadence, so rate evaluators stay correct while degraded.
    MutexLock lock(eval_mu_);
    EvaluateAndStore(now, effective_period(), &updated);
  }
  // A contained failure leaves the published value untouched, so there is
  // nothing for dependents to react to: the wave starts only on success,
  // and it runs after the origin's lock is released.
  if (updated) manager_.PropagateFrom(*this, now);
}

// --- TriggeredMetadataHandler ------------------------------------------------

void TriggeredMetadataHandler::Activate(Timestamp now) {
  // "The values of metadata items with triggered handlers are pre-computed
  // on the first subscription." (§3.2.3)
  MutexLock lock(eval_mu_);
  EvaluateAndStore(now, 0);
}

bool TriggeredMetadataHandler::RefreshFromWave(Timestamp now) {
  MutexLock lock(eval_mu_);
  bool evaluated = false;
  EvaluateAndStore(now, now - last_updated(), /*updated=*/nullptr, &evaluated);
  return evaluated;
}

}  // namespace pipes
