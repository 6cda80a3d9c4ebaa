#include "metadata/manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

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

/// A metadata reference whose key is borrowed. Inclusion planning keys its
/// bookkeeping on views of refs that outlive it, so it copies no key.
struct RefView {
  const MetadataProvider* provider;
  std::string_view key;

  bool operator==(const RefView&) const = default;
};

RefView ViewOf(const MetadataRef& ref) { return RefView{ref.provider, ref.key}; }

/// The boost-style combiner keeps provider and key bits spread across the
/// word, where a plain multiply-xor leaves the low bits dominated by the
/// pointer alignment.
struct RefViewHash {
  size_t operator()(const RefView& r) const {
    size_t h = std::hash<const void*>()(r.provider);
    h ^= std::hash<std::string_view>()(r.key) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    return h;
  }
};

/// Where planning stands with an item it has visited: on the current
/// depth-first path (meeting it again is a cycle), or planned.
enum class PlanMark : uint8_t { kOnPath, kPlanned };
using PlanMarks = std::pmr::unordered_map<RefView, PlanMark, RefViewHash>;

/// Bytes of Subscribe's stack that planning draws from before it turns to
/// the heap. A 9-item chain takes about 2 KiB, so closures of up to about
/// 18 items plan without a heap allocation.
constexpr size_t kPlanningArenaBytes = 4096;

/// Drops repeated refs from an item's resolved dependencies, keeping the
/// first of each in resolution order. Hashed rather than a quadratic scan,
/// since wide resolutions (e.g. all-upstream fan-in at an aggregation point)
/// can return hundreds of refs. The set borrows the keys of kept refs, which
/// no longer move once kept.
void DropDuplicates(std::pmr::vector<MetadataRef>* refs,
                    std::pmr::memory_resource* arena) {
  if (refs->size() < 2) return;
  std::pmr::unordered_set<RefView, RefViewHash> seen(
      refs->size(), RefViewHash(), std::equal_to<RefView>(), arena);
  size_t kept = 0;
  for (MetadataRef& ref : *refs) {
    if (seen.contains(ViewOf(ref))) continue;
    MetadataRef& slot = (*refs)[kept++];
    if (&slot != &ref) slot = std::move(ref);
    seen.insert(ViewOf(slot));
  }
  refs->erase(refs->begin() + static_cast<std::ptrdiff_t>(kept), refs->end());
}

/// Appends what `spec` resolves to on `self`'s topology, or sets `*error`.
/// Planning and ResolutionContext::ResolveSpec share it.
template <typename Refs>
void ResolveSpecInto(MetadataProvider& self, const DependencySpec& spec,
                     Refs* out, std::string* error) {
  switch (spec.target) {
    case DependencySpec::Target::kSelf:
      out->push_back(MetadataRef{&self, spec.key});
      break;
    case DependencySpec::Target::kUpstream:
    case DependencySpec::Target::kDownstream: {
      const bool up = spec.target == DependencySpec::Target::kUpstream;
      auto peers = up ? self.MetadataUpstreams() : self.MetadataDownstreams();
      if (spec.index < 0) {
        for (auto* p : peers) out->push_back(MetadataRef{p, spec.key});
      } else if (static_cast<size_t>(spec.index) < peers.size()) {
        out->push_back(MetadataRef{peers[spec.index], spec.key});
      } else {
        *error = std::string(up ? "upstream" : "downstream") + " index " +
                 std::to_string(spec.index) + " out of range for '" +
                 self.label() + "'";
      }
      break;
    }
    case DependencySpec::Target::kModule: {
      MetadataProvider* module = self.MetadataModule(spec.module);
      if (module != nullptr) {
        out->push_back(MetadataRef{module, spec.key});
      } else {
        *error = "unknown module '" + spec.module + "' on '" + self.label() +
                 "'";
      }
      break;
    }
    case DependencySpec::Target::kExplicit:
      if (spec.provider != nullptr) {
        out->push_back(MetadataRef{spec.provider, spec.key});
      } else {
        *error = "explicit dependency with null provider on '" +
                 self.label() + "'";
      }
      break;
  }
}

class ResolutionContextImpl final : public ResolutionContext {
 public:
  ResolutionContextImpl(MetadataProvider& self, const PlanMarks& marks)
      : self_(self), marks_(marks) {}

  MetadataProvider& self() const override { return self_; }

  bool IsIncluded(const MetadataRef& ref) const override {
    if (ref.provider == nullptr) return false;
    if (ref.provider->metadata_registry().IsIncluded(ref.key)) return true;
    auto it = marks_.find(ViewOf(ref));
    return it != marks_.end() && it->second == PlanMark::kPlanned;
  }

  bool IsAvailable(const MetadataRef& ref) const override {
    return ref.provider != nullptr &&
           ref.provider->metadata_registry().IsAvailable(ref.key);
  }

  std::vector<MetadataRef> ResolveSpec(const DependencySpec& spec) const override {
    std::vector<MetadataRef> out;
    ResolveSpecInto(self_, spec, &out, &error_);
    return out;
  }

  const std::string& error() const { return error_; }

 private:
  MetadataProvider& self_;
  const PlanMarks& marks_;
  mutable std::string error_;
};

}  // namespace

/// Every container draws from `arena`, and every key is a view of a ref
/// that stays put until Subscribe returns: the root, or an element of a
/// planned item's `deps`, whose buffer moves into its PlanEntry whole. A
/// resolver that re-enters Subscribe plans in an arena of its own.
struct MetadataManager::Planning {
  explicit Planning(std::pmr::memory_resource* arena_in)
      : arena(arena_in), plan(arena_in), marks(arena_in) {}

  std::pmr::memory_resource* arena;
  /// The items to include, dependencies first.
  std::pmr::vector<PlanEntry> plan;
  PlanMarks marks;
};

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
  // No wave can run any more: the plans replaced since the last exclusive
  // hold go now, and each handler frees its current one.
  ReclaimWavePlans();
  // Stop the governor before members start dying; a tick scheduled but not
  // yet run sees the cancelled handle and never fires.
  ExclusiveLock lock(structure_mu_);
  governor_task_.Cancel();
}

Result<MetadataSubscription> MetadataManager::Subscribe(
    MetadataProvider& provider, const MetadataKey& key) {
  ExclusiveLock lock(structure_mu_);

  // Phase 1: plan the inclusion closure (validates everything up front so
  // the subscription is atomic). Its bookkeeping allocates from this frame.
  const MetadataRef root{&provider, key};
  std::byte arena_buffer[kPlanningArenaBytes];
  std::pmr::monotonic_buffer_resource arena(arena_buffer, sizeof arena_buffer);
  Planning planning(&arena);
  Status st = PlanInclude(root, &planning);
  if (!st.ok()) return st;

  // Phase 2: instantiate handlers dependencies-first.
  Timestamp now = clock().Now();
  for (const PlanEntry& entry : planning.plan) {
    Instantiate(entry, now);
  }
  // New handlers (and their dependent edges) change the graph shape: cached
  // wave plans must be rebuilt before the next wave.
  if (!planning.plan.empty()) {
    ++structure_epoch_;
    ReclaimWavePlans();
  }

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

Status MetadataManager::PlanInclude(const MetadataRef& ref,
                                    Planning* planning) {
  if (ref.provider == nullptr) {
    return Status::InvalidArgument("metadata reference with null provider");
  }
  // "The traversal stops at items already provided." (§2.4)
  if (ref.provider->metadata_registry().IsIncluded(ref.key)) return Status::OK();
  // A failed plan is dropped whole, so an error leaves its marks behind.
  auto [it, first_visit] =
      planning->marks.try_emplace(ViewOf(ref), PlanMark::kOnPath);
  PlanMark& mark = it->second;  // node-based: stays put as marks grow
  if (!first_visit) {
    if (mark == PlanMark::kPlanned) return Status::OK();
    return Status::CycleDetected("metadata dependency cycle through '" +
                                 ref.provider->label() + "." + ref.key + "'");
  }
  std::shared_ptr<const MetadataDescriptor> desc =
      ref.provider->metadata_registry().Find(ref.key);
  if (desc == nullptr) {
    return Status::NotFound("no metadata item '" + ref.key + "' on '" +
                            ref.provider->label() + "'");
  }

  std::pmr::vector<MetadataRef> deps(planning->arena);
  std::string error;
  if (const DependencyResolver& resolve = desc->dependency_resolver()) {
    ResolutionContextImpl ctx(*ref.provider, planning->marks);
    std::vector<MetadataRef> resolved = resolve(ctx);
    deps.reserve(resolved.size());
    for (MetadataRef& dep : resolved) deps.push_back(std::move(dep));
    error = ctx.error();
  } else {
    for (const DependencySpec& spec : desc->dependency_specs()) {
      ResolveSpecInto(*ref.provider, spec, &deps, &error);
    }
  }
  if (!error.empty()) {
    return Status::InvalidArgument("resolving dependencies of '" + ref.key +
                                   "': " + error);
  }
  DropDuplicates(&deps, planning->arena);

  for (const MetadataRef& dep : deps) {
    Status st = PlanInclude(dep, planning);
    if (!st.ok()) return st;
  }

  mark = PlanMark::kPlanned;
  planning->plan.push_back(PlanEntry{&ref, std::move(desc), std::move(deps)});
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

  MetadataProvider& provider = *entry.ref->provider;
  // Not make_shared: a cancelled periodic task keeps its callback's weak_ptr
  // until its due time, and a shared block would keep the whole handler.
  std::shared_ptr<MetadataHandler> handler;
  switch (entry.desc->mechanism()) {
    case UpdateMechanism::kStatic:
      handler = std::shared_ptr<MetadataHandler>(new StaticMetadataHandler(
          provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kOnDemand:
      handler = std::shared_ptr<MetadataHandler>(new OnDemandMetadataHandler(
          provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kPeriodic:
      handler = std::shared_ptr<MetadataHandler>(new PeriodicMetadataHandler(
          provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kTriggered:
      handler = std::shared_ptr<MetadataHandler>(new TriggeredMetadataHandler(
          provider, entry.desc, *this, std::move(dep_handlers)));
      break;
  }

  // Wire the inverted dependency graph and internal reference counts.
  for (const auto& dep : handler->dependencies()) {
    dep->AddDependent(handler.get());
    dep->internal_refs_ += 1;
  }

  // Providers learn their manager on first inclusion, so that
  // FireMetadataEvent works without explicit attachment.
  if (provider.metadata_manager() == nullptr) {
    provider.AttachMetadataManager(this);
  }

  provider.metadata_registry().AddHandler(entry.ref->key, handler);

  // Activate the node-side monitoring code (paper §4.4.1), then the handler.
  if (entry.desc->activate_monitoring()) {
    entry.desc->activate_monitoring()(provider);
  }
  handler->Activate(now);

  // Periodic items register with the overload governor; one included while
  // the manager is already degraded starts degraded too, so a brownout
  // cannot be escaped by re-subscribing.
  if (entry.desc->mechanism() == UpdateMechanism::kPeriodic) {
    auto* ph = static_cast<PeriodicMetadataHandler*>(handler.get());
    periodic_handlers_.push_back(ph);
    if (overload_enabled_ && current_factor_ > 1.0) {
      Duration before = ph->effective_period();
      Duration after = ph->ApplyDegradationFactor(current_factor_);
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
  ++structure_epoch_;
  ReclaimWavePlans();

  handler->Deactivate();
  if (handler->mechanism() == UpdateMechanism::kPeriodic) {
    // The governor walks raw pointers: the entry goes before the handler can.
    std::erase(periodic_handlers_,
               static_cast<PeriodicMetadataHandler*>(handler.get()));
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
  // SharedLock nests as a per-thread depth bump. The hold also keeps the
  // handler alive without a reference: registry entries leave only under
  // the exclusive hold.
  SharedLock lock(structure_mu_);
  MetadataHandler* handler = provider.metadata_registry().FindIncluded(key);
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

bool MetadataManager::RefreshContained(MetadataHandler& h, Timestamp now) {
  // Handler-level containment (EvaluateAndStore) already catches evaluator
  // faults; this guard additionally isolates the wave from anything a future
  // handler override might let escape, so one poisoned refresh can never
  // abort a whole propagation wave.
  try {
    return h.RefreshFromWave(now);
  } catch (...) {
    stats_eval_failures_.Increment();
    return false;
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
  // re-run, and zero heap allocations. A nested wave finding a stale plan
  // rebuilds it right here, like any other wave.
  const uint64_t epoch = structure_epoch_;
  const MetadataHandler::WavePlan* plan =
      origin.wave_plan_.load(std::memory_order_acquire);
  if (plan != nullptr && plan->epoch == epoch) {
    stats_wave_plan_hits_.Increment();
  } else {
    // Install a current plan with one compare-exchange. Waves racing to
    // rebuild this origin build equal plans (the epoch and the graph cannot
    // change under their shared holds): the first install wins, and a loser
    // frees its own plan and walks the winner's.
    std::unique_ptr<MetadataHandler::WavePlan> fresh =
        RebuildWavePlan(origin, epoch);
    if (origin.wave_plan_.compare_exchange_strong(
            plan, fresh.get(), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (plan != nullptr) RetireWavePlan(plan);
      plan = fresh.release();
    }
    assert(plan->epoch == epoch);
    stats_wave_plan_rebuilds_.Increment();
  }

  if (plan->refresh.empty()) return;
  uint64_t evaluations = 0;
  for (MetadataHandler* h : plan->refresh) {
    if (RefreshContained(*h, now)) ++evaluations;
  }
  stats_wave_refreshes_.Add(plan->refresh.size());
  stats_evaluations_.Add(evaluations);
}

void MetadataManager::RetireWavePlan(const MetadataHandler::WavePlan* plan) {
  // A Treiber push. Nothing pops concurrently: ReclaimWavePlans runs under
  // the exclusive hold, and retiring happens only under a shared one.
  plan->next_retired = retired_plans_.load(std::memory_order_relaxed);
  while (!retired_plans_.compare_exchange_weak(plan->next_retired, plan,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
}

void MetadataManager::ReclaimWavePlans() {
  // Under the exclusive hold no wave pushes, so an empty list stays empty.
  if (retired_plans_.load(std::memory_order_relaxed) == nullptr) return;
  // A reader frame on this thread (a shared level inside its exclusive
  // hold) may be a wave still walking one of these plans.
  if (structure_mu_.HeldSharedByCaller()) return;
  const MetadataHandler::WavePlan* plan =
      retired_plans_.exchange(nullptr, std::memory_order_acquire);
  while (plan != nullptr) {
    const MetadataHandler::WavePlan* next = plan->next_retired;
    delete plan;
    plan = next;
  }
}

namespace {

/// \brief RebuildWavePlan's working memory, one per thread, kept across
/// rebuilds so that a warm rebuild allocates only the plan it publishes.
///
/// The in-degree table maps each closure member to its Kahn in-degree by
/// open addressing. Its slots carry the stamp of the rebuild that wrote
/// them, so a rebuild starts with one increment instead of a clear.
class WaveScratch {
 public:
  /// Starts a rebuild: empty closure, ready queue and table.
  void Reset() {
    closure.clear();
    ready.clear();
    if (++stamp_ == 0) {  // wrapped: no old slot may pass for current
      std::fill(slots_.begin(), slots_.end(), Slot{});
      stamp_ = 1;
    }
  }

  /// Adds `h` to the closure, with in-degree 0, unless it is there already.
  void Discover(MetadataHandler* h) {
    if (2 * (closure.size() + 1) > slots_.size()) Grow();
    Slot* slot = Probe(h);
    if (slot->stamp == stamp_) return;
    *slot = Slot{h, stamp_, 0};
    closure.push_back(h);
  }

  /// `h`'s in-degree, or nullptr when `h` is outside the closure.
  int* InDegree(MetadataHandler* h) {
    if (slots_.empty()) return nullptr;
    Slot* slot = Probe(h);
    return slot->stamp == stamp_ ? &slot->indegree : nullptr;
  }

  /// Closure members in discovery order: the table's entries.
  std::vector<MetadataHandler*> closure;
  /// Kahn's ready queue, consumed by index.
  std::vector<MetadataHandler*> ready;

 private:
  struct Slot {
    MetadataHandler* handler = nullptr;
    uint32_t stamp = 0;
    int indegree = 0;
  };

  /// The slot holding `h` in this rebuild, else the free slot for it. The
  /// table is at most half full, so the probe ends.
  Slot* Probe(MetadataHandler* h) {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the multiply spreads the aligned pointer's bits,
    // the shift keeps the best-mixed high ones.
    size_t i = (reinterpret_cast<uintptr_t>(h) * 0x9e3779b97f4a7c15ULL) >>
               shift_;
    for (;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_ || slot.handler == h) return &slot;
    }
  }

  /// Doubles the table (16 slots at first) and re-homes this rebuild's
  /// entries. Only a closure larger than any before on this thread gets here.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.stamp == stamp_) *Probe(slot.handler) = slot;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, or empty
  int shift_ = 0;            ///< 64 - log2(slots_.size()), set by Grow
  uint32_t stamp_ = 0;
};

thread_local WaveScratch t_wave_scratch;

}  // namespace

std::unique_ptr<MetadataHandler::WavePlan>
MetadataManager::RebuildWavePlan(MetadataHandler& origin, uint64_t epoch) {
  // The caller's shared structure lock keeps every dependents list still:
  // only Instantiate and MaybeRemove change them, under the exclusive one.
  //
  // Collect the affected closure: dependents reachable through triggered and
  // on-demand handlers. Periodic handlers update on their own cadence and
  // static handlers never change, so the wave does not continue past them.
  // The scratch table is both the closure's membership set and, below,
  // Kahn's in-degree table.
  WaveScratch& scratch = t_wave_scratch;
  scratch.Reset();
  for (MetadataHandler* d : origin.dependents_) scratch.Discover(d);
  for (size_t i = 0; i < scratch.closure.size(); ++i) {
    MetadataHandler* h = scratch.closure[i];
    if (!h->PropagatesThrough()) continue;
    for (MetadataHandler* d : h->dependents_) scratch.Discover(d);
  }

  auto plan = std::make_unique<MetadataHandler::WavePlan>();
  plan->epoch = epoch;
  if (scratch.closure.empty()) return plan;

  // Order the closure topologically (dependencies-first): Kahn's algorithm
  // over the dependency edges restricted to the closure, with the ready
  // queue consumed by index. This is the paper's "update order is basically
  // determined by the inverted dependency graph" (§3.2.3); flattening only
  // the triggered handlers into the plan guarantees each refreshes at most
  // once per wave with all its affected inputs already up to date.
  size_t triggered = 0;
  for (MetadataHandler* h : scratch.closure) {
    int& deg = *scratch.InDegree(h);
    for (const auto& dep : h->dependencies()) {
      if (scratch.InDegree(dep.get()) != nullptr) ++deg;
    }
    if (deg == 0) scratch.ready.push_back(h);
    if (h->mechanism() == UpdateMechanism::kTriggered) ++triggered;
  }
  plan->refresh.reserve(triggered);
  for (size_t i = 0; i < scratch.ready.size(); ++i) {
    MetadataHandler* h = scratch.ready[i];
    if (h->mechanism() == UpdateMechanism::kTriggered) {
      plan->refresh.push_back(h);
    }
    for (MetadataHandler* d : h->dependents_) {
      int* deg = scratch.InDegree(d);
      if (deg != nullptr && --*deg == 0) scratch.ready.push_back(d);
    }
  }
  assert(scratch.ready.size() == scratch.closure.size() &&
         "dependency cycle in propagation");
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
  ExclusiveLock lock(structure_mu_);
  assert(opts.governor_period > 0 && "governor needs a positive period");
  overload_options_ = opts;
  governor_task_.Cancel();
  overload_enabled_ = true;
  governor_task_ =
      scheduler_.SchedulePeriodic(opts.governor_period, [this] { GovernorTick(); });
}

void MetadataManager::DisableOverloadControl() {
  ExclusiveLock lock(structure_mu_);
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
  ExclusiveLock lock(structure_mu_);
  pressure_probe_ = std::move(probe);
}

void MetadataManager::GovernorTick() {
  // The exclusive hold guards the governor state; locks nest as in
  // Instantiate: structure, then each handler's period lock, then scheduler.
  ExclusiveLock lock(structure_mu_);
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
      current_factor_ = kPressuredStretchFactor;
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
  uint64_t stretched = 0;
  for (PeriodicMetadataHandler* ph : periodic_handlers_) {
    if (ph->retired()) continue;
    Duration before = ph->effective_period();
    Duration after = ph->ApplyDegradationFactor(factor);
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
  s.wave_refreshes = stats_wave_refreshes_.Value();
  s.events_fired = stats_events_.Value();
  s.wave_plan_hits = stats_wave_plan_hits_.Value();
  s.wave_plan_rebuilds = stats_wave_plan_rebuilds_.Value();
  // Every wave either hits its cached plan or rebuilds it.
  s.waves = s.wave_plan_hits + s.wave_plan_rebuilds;
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
    // Attach so the provider's teardown reaches OnProviderTeardown — the
    // roster must never hold a pointer to a silently-dead provider.
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
  return MetadataDurability::Recover(*this, dir, providers);
}

void MetadataManager::InjectRecoveredValue(MetadataHandler& handler,
                                           const MetadataValue& v,
                                           Timestamp ts) {
  MutexLock lock(handler.eval_mu_);
  handler.StoreValue(v, ts);
}

}  // namespace pipes
