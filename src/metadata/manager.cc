#include "metadata/manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "metadata/persistence.h"

namespace pipes {

// ---------------------------------------------------------------------------
// MetadataSubscription
// ---------------------------------------------------------------------------

MetadataSubscription::~MetadataSubscription() { Reset(); }

MetadataSubscription::MetadataSubscription(MetadataSubscription&& other) noexcept
    : manager_(other.manager_), handler_(std::move(other.handler_)) {
  other.manager_ = nullptr;
  other.handler_ = nullptr;
}

MetadataSubscription& MetadataSubscription::operator=(
    MetadataSubscription&& other) noexcept {
  if (this != &other) {
    Reset();
    manager_ = other.manager_;
    handler_ = std::move(other.handler_);
    other.manager_ = nullptr;
    other.handler_ = nullptr;
  }
  return *this;
}

MetadataValue MetadataSubscription::Get() const {
  return handler_ ? handler_->Get() : MetadataValue::Null();
}

void MetadataSubscription::Reset() {
  if (handler_ && manager_) {
    manager_->UnsubscribeExternal(handler_);
  }
  handler_ = nullptr;
  manager_ = nullptr;
}

// ---------------------------------------------------------------------------
// Dependency resolution context
// ---------------------------------------------------------------------------

namespace {

class ResolutionContextImpl final : public ResolutionContext {
 public:
  ResolutionContextImpl(
      MetadataProvider& self,
      const std::unordered_set<MetadataRef, MetadataRefHash>& planned)
      : self_(self), planned_(planned) {}

  MetadataProvider& self() const override { return self_; }

  bool IsIncluded(const MetadataRef& ref) const override {
    if (ref.provider == nullptr) return false;
    if (ref.provider->metadata_registry().IsIncluded(ref.key)) return true;
    return planned_.count(ref) > 0;
  }

  bool IsAvailable(const MetadataRef& ref) const override {
    return ref.provider != nullptr &&
           ref.provider->metadata_registry().IsAvailable(ref.key);
  }

  std::vector<MetadataRef> ResolveSpec(const DependencySpec& spec) const override {
    std::vector<MetadataRef> out;
    switch (spec.target) {
      case DependencySpec::Target::kSelf:
        out.push_back(MetadataRef{&self_, spec.key});
        break;
      case DependencySpec::Target::kUpstream: {
        auto ups = self_.MetadataUpstreams();
        if (spec.index < 0) {
          for (auto* p : ups) out.push_back(MetadataRef{p, spec.key});
        } else if (static_cast<size_t>(spec.index) < ups.size()) {
          out.push_back(MetadataRef{ups[spec.index], spec.key});
        } else {
          error_ = "upstream index " + std::to_string(spec.index) +
                   " out of range for '" + self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kDownstream: {
        auto downs = self_.MetadataDownstreams();
        if (spec.index < 0) {
          for (auto* p : downs) out.push_back(MetadataRef{p, spec.key});
        } else if (static_cast<size_t>(spec.index) < downs.size()) {
          out.push_back(MetadataRef{downs[spec.index], spec.key});
        } else {
          error_ = "downstream index " + std::to_string(spec.index) +
                   " out of range for '" + self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kModule: {
        MetadataProvider* module = self_.MetadataModule(spec.module);
        if (module != nullptr) {
          out.push_back(MetadataRef{module, spec.key});
        } else {
          error_ = "unknown module '" + spec.module + "' on '" +
                   self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kExplicit:
        if (spec.provider != nullptr) {
          out.push_back(MetadataRef{spec.provider, spec.key});
        } else {
          error_ = "explicit dependency with null provider on '" +
                   self_.label() + "'";
        }
        break;
    }
    return out;
  }

  const std::string& error() const { return error_; }

 private:
  MetadataProvider& self_;
  const std::unordered_set<MetadataRef, MetadataRefHash>& planned_;
  mutable std::string error_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MetadataManager
// ---------------------------------------------------------------------------

const char* PressureStateToString(PressureState s) {
  switch (s) {
    case PressureState::kNormal:
      return "normal";
    case PressureState::kPressured:
      return "pressured";
    case PressureState::kBrownout:
      return "brownout";
  }
  return "unknown";
}

MetadataManager::MetadataManager(TaskScheduler& scheduler)
    : scheduler_(scheduler) {}

MetadataManager::~MetadataManager() {
  // Stop durability first: its flush/checkpoint tasks walk manager state.
  DisableDurability();
  // Stop the governor before members start dying; a tick scheduled but not
  // yet run sees the cancelled handle and never fires.
  MutexLock lock(pressure_mu_);
  governor_task_.Cancel();
}

Result<MetadataSubscription> MetadataManager::Subscribe(
    MetadataProvider& provider, const MetadataKey& key) {
  ExclusiveLock lock(structure_mu_);

  // Phase 1: plan the inclusion closure (validates everything up front so
  // the subscription is atomic).
  std::vector<PlanEntry> plan;
  std::unordered_set<MetadataRef, MetadataRefHash> planned;
  std::unordered_set<MetadataRef, MetadataRefHash> in_path;
  MetadataRef root{&provider, key};
  Status st = PlanInclude(root, &plan, &planned, &in_path);
  if (!st.ok()) return st;

  // Phase 2: instantiate handlers dependencies-first.
  Timestamp now = clock().Now();
  for (const PlanEntry& entry : plan) {
    Instantiate(entry, now);
  }
  // New handlers (and their dependent edges) change the graph shape: cached
  // wave plans must be rebuilt before the next wave.
  if (!plan.empty()) BumpStructureEpoch();

  std::shared_ptr<MetadataHandler> handler =
      provider.metadata_registry().GetHandler(key);
  assert(handler != nullptr);
  handler->external_refs_ += 1;
  stats_subscriptions_.fetch_add(1, std::memory_order_relaxed);
  // Journaled under the exclusive structure lock, after the ref-count
  // mutation: the checkpoint gather (shared structure lock) sees the count
  // and the record's LSN move together, so replay never double-applies.
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnSubscribe(provider, key);
  }
  return MetadataSubscription(this, std::move(handler));
}

Status MetadataManager::PlanInclude(
    const MetadataRef& ref, std::vector<PlanEntry>* plan,
    std::unordered_set<MetadataRef, MetadataRefHash>* planned,
    std::unordered_set<MetadataRef, MetadataRefHash>* in_path) {
  if (ref.provider == nullptr) {
    return Status::InvalidArgument("metadata reference with null provider");
  }
  // "The traversal stops at items already provided." (§2.4)
  if (ref.provider->metadata_registry().IsIncluded(ref.key)) return Status::OK();
  if (planned->count(ref) > 0) return Status::OK();
  if (in_path->count(ref) > 0) {
    return Status::CycleDetected("metadata dependency cycle through '" +
                                 ref.provider->label() + "." + ref.key + "'");
  }
  std::shared_ptr<const MetadataDescriptor> desc =
      ref.provider->metadata_registry().Find(ref.key);
  if (desc == nullptr) {
    return Status::NotFound("no metadata item '" + ref.key + "' on '" +
                            ref.provider->label() + "'");
  }

  in_path->insert(ref);

  std::vector<MetadataRef> deps;
  if (desc->dependency_resolver()) {
    ResolutionContextImpl ctx(*ref.provider, *planned);
    deps = desc->dependency_resolver()(ctx);
    if (!ctx.error().empty()) {
      in_path->erase(ref);
      return Status::InvalidArgument("resolving dependencies of '" + ref.key +
                                     "': " + ctx.error());
    }
    // De-duplicate while preserving resolver order: hashed membership test
    // instead of a quadratic scan, since wide resolvers (e.g. all-upstream
    // fan-in at an aggregation point) can return hundreds of refs.
    std::unordered_set<MetadataRef, MetadataRefHash> seen;
    seen.reserve(deps.size());
    std::vector<MetadataRef> unique;
    unique.reserve(deps.size());
    for (const auto& d : deps) {
      if (seen.insert(d).second) unique.push_back(d);
    }
    deps = std::move(unique);
  }

  for (const MetadataRef& dep : deps) {
    Status st = PlanInclude(dep, plan, planned, in_path);
    if (!st.ok()) {
      in_path->erase(ref);
      return st;
    }
  }

  in_path->erase(ref);
  planned->insert(ref);
  plan->push_back(PlanEntry{ref.provider, ref.key, std::move(desc),
                            std::move(deps)});
  return Status::OK();
}

std::shared_ptr<MetadataHandler> MetadataManager::Instantiate(
    const PlanEntry& entry, Timestamp now) {
  // Collect dependency handlers (created earlier in the plan or preexisting).
  std::vector<std::shared_ptr<MetadataHandler>> dep_handlers;
  dep_handlers.reserve(entry.deps.size());
  for (const MetadataRef& dep : entry.deps) {
    auto h = dep.provider->metadata_registry().GetHandler(dep.key);
    assert(h != nullptr && "dependency handler missing during instantiation");
    dep_handlers.push_back(std::move(h));
  }

  std::shared_ptr<MetadataHandler> handler;
  switch (entry.desc->mechanism()) {
    case UpdateMechanism::kStatic:
      handler = std::shared_ptr<MetadataHandler>(new StaticMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kOnDemand:
      handler = std::shared_ptr<MetadataHandler>(new OnDemandMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kPeriodic:
      handler = std::shared_ptr<MetadataHandler>(new PeriodicMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kTriggered:
      handler = std::shared_ptr<MetadataHandler>(new TriggeredMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
  }

  // Wire the inverted dependency graph and internal reference counts.
  for (const auto& dep : handler->dependencies()) {
    dep->AddDependent(handler.get());
    dep->internal_refs_ += 1;
  }

  // Providers learn their manager on first inclusion, so that
  // FireMetadataEvent works without explicit attachment.
  if (entry.provider->metadata_manager() == nullptr) {
    entry.provider->AttachMetadataManager(this);
  }

  entry.provider->metadata_registry().AddHandler(entry.key, handler);

  // Activate the node-side monitoring code (paper §4.4.1), then the handler.
  if (entry.desc->activate_monitoring()) {
    entry.desc->activate_monitoring()(*entry.provider);
  }
  handler->Activate(now);

  // Periodic items register with the overload governor; one included while
  // the manager is already degraded starts degraded too, so a brownout
  // cannot be escaped by re-subscribing.
  if (entry.desc->mechanism() == UpdateMechanism::kPeriodic) {
    MutexLock plock(pressure_mu_);
    periodic_handlers_.push_back(handler);
    if (overload_enabled_ && current_factor_ > 1.0) {
      auto* ph = static_cast<PeriodicMetadataHandler*>(handler.get());
      Duration before = ph->effective_period();
      Duration after = ph->ApplyDegradationFactor(
          current_factor_, overload_options_.default_staleness_factor);
      if (after > before) {
        stats_period_stretches_.fetch_add(1, std::memory_order_relaxed);
        stats_stretched_now_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  stats_created_.fetch_add(1, std::memory_order_relaxed);
  stats_active_.fetch_add(1, std::memory_order_relaxed);
  return handler;
}

void MetadataManager::UnsubscribeExternal(
    const std::shared_ptr<MetadataHandler>& handler) {
  ExclusiveLock lock(structure_mu_);
  assert(handler->external_refs_ > 0);
  handler->external_refs_ -= 1;
  stats_unsubscriptions_.fetch_add(1, std::memory_order_relaxed);
  // Skipped for retired handlers: their owner may already be destroyed (the
  // kRetire record has zeroed the durable subscription count anyway).
  if (!handler->retired()) {
    if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
      d->OnUnsubscribe(handler->owner(), handler->key());
    }
  }
  MaybeRemove(handler);
}

void MetadataManager::CountHealthTransition(HandlerHealth from,
                                            HandlerHealth to) {
  switch (to) {
    case HandlerHealth::kDegraded:
      stats_degradations_.fetch_add(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kQuarantined:
      stats_quarantines_.fetch_add(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kHealthy:
      stats_recoveries_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (from == HandlerHealth::kDegraded) {
    stats_degraded_now_.fetch_sub(1, std::memory_order_relaxed);
  } else if (from == HandlerHealth::kQuarantined) {
    stats_quarantined_now_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (to == HandlerHealth::kDegraded) {
    stats_degraded_now_.fetch_add(1, std::memory_order_relaxed);
  } else if (to == HandlerHealth::kQuarantined) {
    stats_quarantined_now_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MetadataManager::MaybeRemove(
    const std::shared_ptr<MetadataHandler>& handler) {
  if (handler->external_refs_ > 0 || handler->internal_refs_ > 0) return;

  // The handler leaves the graph: cached wave plans may hold raw pointers to
  // it, so invalidate them before the removal proceeds. The exclusive
  // structure lock keeps any concurrent wave out until we are done.
  BumpStructureEpoch();

  handler->Deactivate();
  if (handler->mechanism() == UpdateMechanism::kPeriodic) {
    // The governor's list holds only included handlers; an entry left
    // behind would pin its control block until the next pressure change.
    MutexLock plock(pressure_mu_);
    std::erase_if(periodic_handlers_,
                  [&](const std::weak_ptr<MetadataHandler>& w) {
                    return w.lock() == handler;
                  });
  }
  // A retired handler's owner is gone (or going): its registry and the
  // monitoring hooks (which take the provider) must not be touched.
  if (!handler->retired()) {
    if (handler->descriptor().deactivate_monitoring()) {
      handler->descriptor().deactivate_monitoring()(handler->owner());
    }
    handler->owner().metadata_registry().RemoveHandler(handler->key());
  }
  // Keep the health gauges consistent when an unhealthy handler dies.
  switch (handler->health()) {
    case HandlerHealth::kDegraded:
      stats_degraded_now_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kQuarantined:
      stats_quarantined_now_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kHealthy:
      break;
  }
  stats_removed_.fetch_add(1, std::memory_order_relaxed);
  stats_active_.fetch_sub(1, std::memory_order_relaxed);

  // "For an unsubscription, the same traversal cancels the provision of
  // dependent metadata items by an implicit exclusion." (§2.4)
  for (const auto& dep : handler->dependencies()) {
    dep->RemoveDependent(handler.get());
    assert(dep->internal_refs_ > 0);
    dep->internal_refs_ -= 1;
    MaybeRemove(dep);
  }
}

void MetadataManager::FireEvent(MetadataProvider& provider,
                                const MetadataKey& key) {
  // One shared hold covers the lookup and the wave; PropagateFrom's own
  // SharedLock nests as a per-thread depth bump.
  SharedLock lock(structure_mu_);
  std::shared_ptr<MetadataHandler> handler =
      provider.metadata_registry().GetHandler(key);
  if (handler == nullptr) return;
  stats_events_.Increment();
  PropagateFrom(*handler, clock().Now());
}

void MetadataManager::FireEventDeferred(MetadataProvider& provider,
                                        const MetadataKey& key) {
  // Resolve the handler now, through the registry alone: the caller may hold
  // a node state lock exclusively, and taking the structure lock under it
  // would invert Subscribe's structure -> state order. Hand the task a
  // weak_ptr: the provider may be torn down before the scheduler runs the
  // task, so capturing `&provider` (or a raw handler pointer) would dangle.
  // A dead or retired handler means the event has nothing left to notify —
  // drop it.
  std::weak_ptr<MetadataHandler> weak =
      provider.metadata_registry().GetHandler(key);
  if (weak.expired()) return;
  scheduler_.ScheduleAt(clock().Now(), [this, weak] {
    std::shared_ptr<MetadataHandler> handler = weak.lock();
    if (handler == nullptr || handler->retired()) return;
    stats_events_.Increment();
    PropagateFrom(*handler, clock().Now());
  });
}

void MetadataManager::RefreshContained(MetadataHandler& h, Timestamp now) {
  // Handler-level containment (EvaluateAndStore) already catches evaluator
  // faults; this guard additionally isolates the wave from anything a future
  // handler override might let escape, so one poisoned refresh can never
  // abort a whole propagation wave.
  try {
    h.RefreshFromWave(now);
  } catch (...) {
    stats_eval_failures_.Increment();
  }
}

void MetadataManager::PropagateFrom(MetadataHandler& origin, Timestamp now) {
  SharedLock lock(structure_mu_);
  if (storm_damping_enabled_.load(std::memory_order_relaxed)) {
    MutexLock storm(storm_mu_);
    if (!AdmitWave(origin, now)) return;
  }
  RunWave(origin, now);
}

void MetadataManager::RunWave(MetadataHandler& origin, Timestamp now) {
  // Fast path: on an unchanged graph, a wave is one epoch compare and a
  // linear walk over the cached flattened plan — no set, no map, no Kahn
  // re-run, and zero heap allocations. Read the epoch *before* any rebuild
  // so the stamp is conservative: a structural change racing with the
  // rebuild (possible only for lock-free bumpers like handler retirement)
  // makes the fresh plan look stale and costs one extra rebuild, never a
  // stale walk. A nested wave finding a stale plan rebuilds it right here,
  // like any other wave.
  const uint64_t epoch = structure_epoch();
  std::shared_ptr<const MetadataHandler::WavePlan> plan =
      origin.wave_plan_.load(std::memory_order_acquire);
  if (plan == nullptr || plan->epoch != epoch) {
    plan = RebuildWavePlan(origin, epoch);
    origin.wave_plan_.store(plan, std::memory_order_release);
    stats_wave_plan_rebuilds_.Increment();
  } else {
    stats_wave_plan_hits_.Increment();
  }
  stats_waves_.Increment();

  if (plan->refresh.empty()) return;
  for (MetadataHandler* h : plan->refresh) {
    RefreshContained(*h, now);
  }
  stats_wave_refreshes_.Add(plan->refresh.size());
}

std::shared_ptr<const MetadataHandler::WavePlan>
MetadataManager::RebuildWavePlan(MetadataHandler& origin, uint64_t epoch) {
  // Iterate a handler's dependents in place (under its dependents lock, a
  // leaf) instead of via dependents(), whose snapshot copy would allocate
  // per handler.
  auto for_each_dependent = [](MetadataHandler& h, auto&& fn) {
    MutexLock deps_lock(h.dependents_mu_);
    for (MetadataHandler* d : h.dependents_) fn(d);
  };

  // Collect the affected closure: dependents reachable through triggered and
  // on-demand handlers. Periodic handlers update on their own cadence and
  // static handlers never change, so the wave does not continue past them.
  // `indegree` is both the closure's membership set and, below, Kahn's
  // in-degree table.
  std::vector<MetadataHandler*> closure;
  std::unordered_map<MetadataHandler*, int> indegree;
  auto discover = [&](MetadataHandler* d) {
    if (indegree.emplace(d, 0).second) closure.push_back(d);
  };
  for_each_dependent(origin, discover);
  for (size_t i = 0; i < closure.size(); ++i) {
    MetadataHandler* h = closure[i];
    if (!h->PropagatesThrough()) continue;
    for_each_dependent(*h, discover);
  }

  auto plan = std::make_shared<MetadataHandler::WavePlan>();
  plan->epoch = epoch;
  if (closure.empty()) return plan;

  // Order the closure topologically (dependencies-first): Kahn's algorithm
  // over the dependency edges restricted to the closure, with the ready
  // queue consumed by index. This is the paper's "update order is basically
  // determined by the inverted dependency graph" (§3.2.3); flattening only
  // the triggered handlers into the plan guarantees each refreshes at most
  // once per wave with all its affected inputs already up to date.
  for (MetadataHandler* h : closure) {
    int& deg = indegree[h];
    for (const auto& dep : h->dependencies()) {
      if (indegree.count(dep.get()) > 0) ++deg;
    }
  }
  std::vector<MetadataHandler*> ready;
  for (MetadataHandler* h : closure) {
    if (indegree[h] == 0) ready.push_back(h);
  }
  for (size_t i = 0; i < ready.size(); ++i) {
    MetadataHandler* h = ready[i];
    if (h->mechanism() == UpdateMechanism::kTriggered) {
      plan->refresh.push_back(h);
    }
    for_each_dependent(*h, [&](MetadataHandler* d) {
      auto it = indegree.find(d);
      if (it != indegree.end() && --it->second == 0) ready.push_back(d);
    });
  }
  assert(ready.size() == closure.size() && "dependency cycle in propagation");
  return plan;
}

// ---------------------------------------------------------------------------
// Triggered-wave storm damping
// ---------------------------------------------------------------------------

void MetadataManager::EnableStormDamping(const StormDampingOptions& opts) {
  assert(opts.max_waves_per_sec > 0 && "damping needs a positive wave budget");
  MutexLock lock(storm_mu_);
  storm_options_ = opts;
  storm_damping_enabled_.store(true, std::memory_order_relaxed);
}

void MetadataManager::DisableStormDamping() {
  storm_damping_enabled_.store(false, std::memory_order_relaxed);
}

bool MetadataManager::AdmitWave(MetadataHandler& origin, Timestamp now) {
  MetadataHandler::StormState& st = origin.storm_;
  const StormDampingOptions& opt = storm_options_;

  // Token refill since the last admission decision; the bucket starts full
  // so the first waves of a well-behaved origin are never deferred.
  if (st.refill_at == kTimestampNever) {
    st.tokens = opt.burst;
  } else if (now > st.refill_at) {
    double refill = static_cast<double>(now - st.refill_at) *
                    opt.max_waves_per_sec / 1e6;
    st.tokens = std::min(opt.burst, st.tokens + refill);
  }
  st.refill_at = now;

  if (!st.breaker && st.tokens >= 1.0) {
    st.tokens -= 1.0;
    st.coalesced_run = 0;
    return true;
  }

  // Out of budget (or batch-refreshing): coalesce. Metadata is
  // last-writer-wins, so the deferred flush wave sees everything the
  // collapsed events would have propagated.
  ++st.coalesced_run;
  stats_events_coalesced_.fetch_add(1, std::memory_order_relaxed);

  if (!st.breaker && st.coalesced_run >= opt.breaker_trip_coalesced) {
    st.breaker = true;
    stats_breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    stats_breakers_now_.fetch_add(1, std::memory_order_relaxed);
    // Batch refresh starts on the breaker cadence now — not at the possibly
    // distant next-token instant a pre-trip flush was deferred to.
    st.flush_task.Cancel();
    st.flush_scheduled = false;
  }

  if (!st.flush_scheduled) {
    Timestamp when;
    if (st.breaker) {
      when = now + opt.breaker_batch_interval;
    } else {
      // Earliest instant the bucket holds a whole token again.
      double deficit = std::max(0.0, 1.0 - st.tokens);
      when = now +
             static_cast<Duration>(deficit * 1e6 / opt.max_waves_per_sec) + 1;
    }
    ScheduleStormFlush(origin, when);
  }
  return false;
}

void MetadataManager::ScheduleStormFlush(MetadataHandler& origin,
                                         Timestamp when) {
  std::weak_ptr<MetadataHandler> weak = origin.weak_from_this();
  TaskHandle task =
      scheduler_.ScheduleAt(when, [this, weak] { FlushStorm(weak); });
  // A rejected admission (scheduler queue bound under overload) sheds the
  // flush; flush_scheduled stays false so the next event tries again.
  origin.storm_.flush_scheduled = task.valid();
  origin.storm_.flush_task = std::move(task);
}

void MetadataManager::FlushStorm(const std::weak_ptr<MetadataHandler>& weak) {
  std::shared_ptr<MetadataHandler> origin = weak.lock();
  if (origin == nullptr || origin->retired()) return;
  Timestamp now = clock().Now();

  SharedLock lock(structure_mu_);
  {
    MutexLock storm(storm_mu_);
    MetadataHandler::StormState& st = origin->storm_;
    st.flush_scheduled = false;
    if (st.coalesced_run == 0) {
      // A whole deferral interval without one event: the storm is over.
      if (st.breaker) {
        st.breaker = false;
        stats_breakers_now_.fetch_sub(1, std::memory_order_relaxed);
      }
      return;
    }
    st.coalesced_run = 0;
    st.tokens = std::max(0.0, st.tokens - 1.0);
    stats_storm_flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  RunWave(*origin, now);

  // A tripped origin keeps batch-refreshing on the breaker cadence; the
  // quiet-interval branch above is the only way out while damping is on.
  // With damping off no flush comes back, so the breaker closes here. An
  // event coalesced during the wave may already have armed the next flush.
  MutexLock storm(storm_mu_);
  MetadataHandler::StormState& st = origin->storm_;
  if (!storm_damping_enabled_.load(std::memory_order_relaxed)) {
    if (st.breaker) {
      st.breaker = false;
      stats_breakers_now_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  if (st.breaker && !st.flush_scheduled) {
    ScheduleStormFlush(*origin, now + storm_options_.breaker_batch_interval);
  }
}

// ---------------------------------------------------------------------------
// Overload control (pressure governor)
// ---------------------------------------------------------------------------

void MetadataManager::EnableOverloadControl(const OverloadControlOptions& opts) {
  MutexLock lock(pressure_mu_);
  assert(opts.governor_period > 0 && "governor needs a positive period");
  overload_options_ = opts;
  governor_task_.Cancel();
  overload_enabled_ = true;
  governor_task_ =
      scheduler_.SchedulePeriodic(opts.governor_period, [this] { GovernorTick(); });
}

void MetadataManager::DisableOverloadControl() {
  MutexLock lock(pressure_mu_);
  governor_task_.Cancel();
  if (!overload_enabled_) return;
  overload_enabled_ = false;
  hot_ticks_ = 0;
  cool_ticks_ = 0;
  pressure_state_.store(static_cast<int>(PressureState::kNormal),
                        std::memory_order_release);
  if (current_factor_ != 1.0) {
    current_factor_ = 1.0;
    ApplyPressureFactorLocked(1.0);
  }
}

void MetadataManager::SetPressureProbe(std::function<bool()> probe) {
  MutexLock lock(pressure_mu_);
  pressure_probe_ = std::move(probe);
}

void MetadataManager::GovernorTick() {
  MutexLock lock(pressure_mu_);
  if (!overload_enabled_) return;

  bool hot = pressure_probe_ ? pressure_probe_() : scheduler_.overloaded();
  if (hot) {
    ++hot_ticks_;
    cool_ticks_ = 0;
  } else {
    ++cool_ticks_;
    hot_ticks_ = 0;
  }

  const OverloadControlOptions& opt = overload_options_;
  PressureState cur = pressure_state();
  PressureState next = cur;
  switch (cur) {
    case PressureState::kNormal:
      if (hot_ticks_ >= opt.ticks_to_pressure) next = PressureState::kPressured;
      break;
    case PressureState::kPressured:
      if (hot_ticks_ >= opt.ticks_to_brownout) {
        next = PressureState::kBrownout;
      } else if (cool_ticks_ >= opt.ticks_to_recover) {
        next = PressureState::kNormal;
      }
      break;
    case PressureState::kBrownout:
      // Recovery steps down one state at a time: brownout -> pressured ->
      // normal, each step needing a fresh run of calm ticks.
      if (cool_ticks_ >= opt.ticks_to_recover) next = PressureState::kPressured;
      break;
  }
  if (next == cur) return;

  // Tick counters restart per state, so every threshold above reads as
  // "consecutive ticks in the current state".
  hot_ticks_ = 0;
  cool_ticks_ = 0;
  pressure_state_.store(static_cast<int>(next), std::memory_order_release);
  switch (next) {
    case PressureState::kPressured:
      if (cur == PressureState::kNormal) {
        stats_pressure_enters_.fetch_add(1, std::memory_order_relaxed);
      }
      current_factor_ = opt.pressured_factor;
      break;
    case PressureState::kBrownout:
      stats_brownout_enters_.fetch_add(1, std::memory_order_relaxed);
      current_factor_ = opt.brownout_factor;
      break;
    case PressureState::kNormal:
      stats_pressure_exits_.fetch_add(1, std::memory_order_relaxed);
      current_factor_ = 1.0;
      break;
  }
  ApplyPressureFactorLocked(current_factor_);
}

void MetadataManager::ApplyPressureFactorLocked(double factor) {
  const double cap = overload_options_.default_staleness_factor;
  uint64_t stretched = 0;
  for (const std::weak_ptr<MetadataHandler>& weak : periodic_handlers_) {
    std::shared_ptr<MetadataHandler> h = weak.lock();
    if (h == nullptr || h->retired()) continue;
    auto* ph = static_cast<PeriodicMetadataHandler*>(h.get());
    Duration before = ph->effective_period();
    Duration after = ph->ApplyDegradationFactor(factor, cap);
    if (after > before) {
      stats_period_stretches_.fetch_add(1, std::memory_order_relaxed);
    } else if (after < before) {
      stats_period_restores_.fetch_add(1, std::memory_order_relaxed);
    }
    if (after > ph->period()) ++stretched;
  }
  stats_stretched_now_.store(stretched, std::memory_order_relaxed);
}

MetadataManagerStats MetadataManager::stats() const {
  MetadataManagerStats s;
  s.subscriptions = stats_subscriptions_.load(std::memory_order_relaxed);
  s.unsubscriptions = stats_unsubscriptions_.load(std::memory_order_relaxed);
  s.handlers_created = stats_created_.load(std::memory_order_relaxed);
  s.handlers_removed = stats_removed_.load(std::memory_order_relaxed);
  s.active_handlers = stats_active_.load(std::memory_order_relaxed);
  s.evaluations = stats_evaluations_.Value();
  s.waves = stats_waves_.Value();
  s.wave_refreshes = stats_wave_refreshes_.Value();
  s.events_fired = stats_events_.Value();
  s.wave_plan_hits = stats_wave_plan_hits_.Value();
  s.wave_plan_rebuilds = stats_wave_plan_rebuilds_.Value();
  s.eval_failures = stats_eval_failures_.Value();
  s.evals_skipped = stats_evals_skipped_.Value();
  s.degradations = stats_degradations_.load(std::memory_order_relaxed);
  s.quarantines = stats_quarantines_.load(std::memory_order_relaxed);
  s.recoveries = stats_recoveries_.load(std::memory_order_relaxed);
  s.degraded_handlers = stats_degraded_now_.load(std::memory_order_relaxed);
  s.quarantined_handlers =
      stats_quarantined_now_.load(std::memory_order_relaxed);
  s.pressure_state = pressure_state_.load(std::memory_order_relaxed);
  s.pressure_enters = stats_pressure_enters_.load(std::memory_order_relaxed);
  s.brownout_enters = stats_brownout_enters_.load(std::memory_order_relaxed);
  s.pressure_exits = stats_pressure_exits_.load(std::memory_order_relaxed);
  s.periods_stretched = stats_stretched_now_.load(std::memory_order_relaxed);
  s.period_stretches = stats_period_stretches_.load(std::memory_order_relaxed);
  s.period_restores = stats_period_restores_.load(std::memory_order_relaxed);
  s.events_coalesced = stats_events_coalesced_.load(std::memory_order_relaxed);
  s.storm_flushes = stats_storm_flushes_.load(std::memory_order_relaxed);
  s.breaker_trips = stats_breaker_trips_.load(std::memory_order_relaxed);
  s.breakers_active = stats_breakers_now_.load(std::memory_order_relaxed);
  SchedulerStats sched = scheduler_.stats();
  s.scheduler_deadline_misses = sched.deadline_misses;
  s.scheduler_rejections = sched.tasks_rejected;
  s.scheduler_overloaded = sched.overloaded;
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    DurabilityStats ds = d->stats();
    s.durability_enabled = true;
    s.journal_records = ds.journal_records;
    s.journal_bytes = ds.journal_bytes;
    s.journal_fsyncs = ds.fsyncs;
    s.group_flushes = ds.group_flushes;
    s.checkpoints = ds.checkpoints;
    s.snapshot_generation = ds.current_generation;
    s.last_checkpoint_duration = ds.last_checkpoint_duration;
    s.journal_write_failures = ds.journal_write_failures;
    s.checkpoint_failures = ds.checkpoint_failures;
    s.durability_degraded = ds.degraded;
  }
  s.last_recovery_duration =
      stats_recovery_duration_.load(std::memory_order_relaxed);
  s.values_recovered = stats_values_recovered_.load(std::memory_order_relaxed);
  s.corrupt_records_skipped =
      stats_corrupt_skipped_.load(std::memory_order_relaxed);
  s.torn_bytes_truncated =
      stats_torn_truncated_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

Status MetadataManager::EnableDurability(
    const DurabilityConfig& config,
    const std::vector<MetadataProvider*>& providers) {
  MutexLock lock(durability_admin_mu_);
  if (durability_owner_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  auto engine = std::make_unique<MetadataDurability>(*this, config);
  Status started = engine->Start();
  if (!started.ok()) return started;
  for (MetadataProvider* p : providers) {
    if (p == nullptr) continue;
    // Attach so the provider's teardown reaches NotifyProviderTeardown —
    // the roster must never hold a pointer to a silently-dead provider.
    if (p->metadata_manager() == nullptr) p->AttachMetadataManager(this);
    engine->RegisterProvider(p);
  }
  // Capture everything that existed before enabling: the initial checkpoint
  // is the durable baseline the journal then extends.
  Status ckpt = engine->CheckpointNow();
  if (!ckpt.ok()) {
    engine->Stop();
    return ckpt;
  }
  durability_.store(engine.get(), std::memory_order_release);
  durability_owner_ = std::move(engine);
  return Status::OK();
}

void MetadataManager::DisableDurability() {
  std::unique_ptr<MetadataDurability> engine;
  {
    MutexLock lock(durability_admin_mu_);
    if (durability_owner_ == nullptr) return;
    durability_.store(nullptr, std::memory_order_release);
    engine = std::move(durability_owner_);
  }
  // Stop outside the admin lock: Stop() waits for the flush/checkpoint
  // tasks, which must not be serialized against a concurrent RecoverFrom.
  engine->Stop();
  MutexLock lock(durability_admin_mu_);
  // Hooks that loaded the raw pointer just before the swap may still be
  // inside the (now stopped) engine; keep it alive for the manager's
  // lifetime rather than freeing under them.
  durability_graveyard_.push_back(std::move(engine));
}

Result<RecoveryReport> MetadataManager::RecoverFrom(
    const std::string& dir, const std::vector<MetadataProvider*>& providers) {
  if (durability_enabled()) {
    return Status::FailedPrecondition(
        "disable durability before recovering (recover first, then enable)");
  }
  Result<RecoveryReport> result =
      MetadataDurability::Recover(*this, dir, providers);
  if (result.ok()) {
    const RecoveryReport& r = result.value();
    stats_recovery_duration_.store(r.recovery_duration,
                                   std::memory_order_relaxed);
    stats_values_recovered_.store(r.values_restored, std::memory_order_relaxed);
    stats_corrupt_skipped_.store(r.corrupt_records_skipped,
                                 std::memory_order_relaxed);
    stats_torn_truncated_.store(r.torn_bytes_truncated,
                                std::memory_order_relaxed);
  }
  return result;
}

void MetadataManager::JournalDefine(const MetadataProvider& provider,
                                    const MetadataDescriptor& desc) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnDefine(provider, desc);
  }
}

void MetadataManager::JournalUndefine(const MetadataProvider& provider,
                                      const MetadataKey& key) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnUndefine(provider, key);
  }
}

void MetadataManager::JournalValue(const MetadataProvider& provider,
                                   const MetadataKey& key,
                                   const MetadataValue& value, Timestamp now) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnValue(provider, key, value, now);
  }
}

void MetadataManager::JournalRetire(const MetadataProvider& provider,
                                    const MetadataKey& key) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnRetire(provider, key);
  }
}

void MetadataManager::RegisterDurabilityProvider(
    const MetadataProvider& provider) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->RegisterProvider(&provider);
  }
}

void MetadataManager::NotifyProviderTeardown(const MetadataProvider& provider) {
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnProviderTeardown(provider);
  }
}

void MetadataManager::InjectRecoveredValue(MetadataHandler& handler,
                                           const MetadataValue& v,
                                           Timestamp ts) {
  handler.StoreValue(v, ts);
}

MetadataValue MetadataManager::LoadHandlerValue(const MetadataHandler& handler) {
  return handler.LoadValue();
}

}  // namespace pipes
