#include "testing/sim_harness.h"

#include <stdio.h>
#include <stdlib.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "metadata/descriptor.h"
#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/provider.h"
#include "metadata/remote.h"
#include "net/loopback.h"
#include "net/transport.h"
#include "testing/reference_model.h"

namespace pipes {
namespace sim {

namespace {

constexpr const char* kScopeS2C = "sim.s2c";
constexpr const char* kScopeC2S = "sim.c2s";

std::string KeyName(int key) { return "k" + std::to_string(key); }

/// Endpoint shim for --inject-bug: re-delivers every third update push with
/// a forged (incremented) sequence number. The forged frame carries an *old*
/// value under a *new* seq, so the mirror's duplicate suppression — which is
/// keyed on seq — admits it and a duplicate notification reaches dependents.
/// The observed-value oracle must catch exactly this.
class DuplicatingEndpoint final : public net::Endpoint {
 public:
  explicit DuplicatingEndpoint(net::Endpoint& inner) : inner_(inner) {}

  Status Send(const net::Frame& frame) override { return inner_.Send(frame); }

  void SetReceiver(Receiver receiver) override {
    inner_.SetReceiver(
        [this, receiver = std::move(receiver)](const net::Frame& f) {
          receiver(f);
          if (f.type == kFrameUpdatePush && ++pushes_ % 3 == 0) {
            net::Frame dup = f;
            dup.seq += 1;
            receiver(dup);
          }
        });
  }

  bool connected() const override { return inner_.connected(); }
  void Close() override { inner_.Close(); }

 private:
  net::Endpoint& inner_;
  uint64_t pushes_ = 0;
};

bool ValueMatches(const MetadataValue& v, const std::optional<double>& want) {
  if (!want.has_value()) return v.is_null();
  return !v.is_null() && v.AsDouble() == *want;
}

std::string ValueStr(const MetadataValue& v) {
  if (v.is_null()) return "null";
  std::ostringstream os;
  os << v.AsDouble();
  return os.str();
}

std::string OptStr(const std::optional<double>& v) {
  if (!v.has_value()) return "null";
  std::ostringstream os;
  os << *v;
  return os.str();
}

/// One schedule execution: the real stack + the reference model, lock-step.
class SimHarness {
 public:
  SimHarness(const SimSchedule& schedule, const SimRunOptions& opts)
      : schedule_(schedule),
        profile_(schedule.profile),
        opts_(opts),
        model_(schedule.profile),
        rng_(schedule.seed * 0x9E3779B97F4A7C15ULL + 0x100001B3ULL),
        injector_(schedule.seed * 0x100001B3ULL + 0xC0FFEEULL) {}

  ~SimHarness() { Teardown(); }

  SimRunResult Run() {
    SimRunResult result;
    std::string err = Setup();
    sysclock_baseline_ = SystemClockUseCount();
    if (err.empty()) {
      for (size_t i = 0; i < schedule_.ops.size(); ++i) {
        err = ExecuteOp(i, schedule_.ops[i]);
        log_ << "\n";
        if (!err.empty()) {
          result.failed_op = static_cast<int>(i);
          break;
        }
      }
    }
    if (!err.empty()) {
      result.ok = false;
      result.failure = err;
    }
    result.event_log = log_.str();
    return result;
  }

 private:
  struct Slot {
    int provider = 0;
    int key = 0;
    MetadataSubscription sub;
  };

  int P() const { return profile_.providers; }
  int K() const { return profile_.keys; }
  size_t CellIndex(int p, int k) const {
    return static_cast<size_t>(p) * static_cast<size_t>(K()) +
           static_cast<size_t>(k);
  }

  std::vector<MetadataProvider*> RawProviders() const {
    std::vector<MetadataProvider*> out;
    for (const auto& p : providers_) {
      if (p) out.push_back(p.get());
    }
    return out;
  }

  /// The shared evaluator convention: value-bearing mechanisms read their
  /// source cell; derived items compute Dep(0) + kDerivedOffset.
  MetadataDescriptor MakeDescriptor(int p, int k, SimMechanism mech,
                                    int dep_provider, int dep_key) {
    const MetadataKey key = KeyName(k);
    double* cell = &cells_[CellIndex(p, k)];
    auto cell_eval = [cell](EvalContext&) { return MetadataValue(*cell); };
    switch (mech) {
      case SimMechanism::kStatic:
        return MetadataDescriptor::Static(key,
                                          MetadataValue(StaticValueFor(p, k)));
      case SimMechanism::kOnDemand:
        return MetadataDescriptor::OnDemand(key).WithEvaluator(cell_eval);
      case SimMechanism::kPeriodic:
        return MetadataDescriptor::Periodic(key, profile_.periodic_period)
            .WithEvaluator(cell_eval);
      case SimMechanism::kTriggered:
        return MetadataDescriptor::Triggered(key).WithEvaluator(cell_eval);
      case SimMechanism::kDerived:
        break;
    }
    return MetadataDescriptor::Triggered(key)
        .DependsOn({DependencySpec::Explicit(providers_[dep_provider].get(),
                                             KeyName(dep_key))})
        .WithEvaluator([](EvalContext& ctx) {
          MetadataValue v = ctx.Dep(0);
          if (v.is_null()) return v;
          return MetadataValue(v.AsDouble() + kDerivedOffset);
        });
  }

  /// Maps a live descriptor back to its model-level definition (for the
  /// recovered view). Unresolvable dependency targets become kUnknownDep.
  DurableState::Def DefFromDescriptor(const MetadataDescriptor& desc) const {
    DurableState::Def def;
    switch (desc.mechanism()) {
      case UpdateMechanism::kStatic:
        def.mech = SimMechanism::kStatic;
        break;
      case UpdateMechanism::kOnDemand:
        def.mech = SimMechanism::kOnDemand;
        break;
      case UpdateMechanism::kPeriodic:
        def.mech = SimMechanism::kPeriodic;
        break;
      case UpdateMechanism::kTriggered: {
        if (desc.dependency_specs().empty()) {
          def.mech = SimMechanism::kTriggered;
          break;
        }
        def.mech = SimMechanism::kDerived;
        const DependencySpec& spec = desc.dependency_specs()[0];
        def.dep_provider = kUnknownDep;
        def.dep_key = kUnknownDep;
        for (int i = 0; i < static_cast<int>(providers_.size()); ++i) {
          if (providers_[i] && providers_[i].get() == spec.provider) {
            def.dep_provider = i;
            break;
          }
        }
        if (spec.key.size() >= 2 && spec.key[0] == 'k') {
          def.dep_key = std::atoi(spec.key.c_str() + 1);
        }
        break;
      }
    }
    return def;
  }

  ItemId IdOfHandler(const MetadataHandler& handler) const {
    const std::string& label = handler.owner().label();
    const MetadataKey& key = handler.key();
    ItemId id{-1, -1};
    if (label.size() >= 2 && label[0] == 'p') {
      id.first = std::atoi(label.c_str() + 1);
    }
    if (key.size() >= 2 && key[0] == 'k') {
      id.second = std::atoi(key.c_str() + 1);
    }
    return id;
  }

  std::string EnableDurabilityNow() {
    DurabilityConfig cfg;
    cfg.dir = dir_;
    cfg.checkpoint_period = 0;  // checkpoints are schedule ops
    Status st = manager_->EnableDurability(cfg, RawProviders());
    if (!st.ok()) return "EnableDurability failed: " + st.ToString();
    return "";
  }

  std::string Setup() {
    cells_.assign(static_cast<size_t>(P()) * static_cast<size_t>(K()), 0.0);
    slots_.resize(static_cast<size_t>(profile_.sub_slots));
    if (profile_.durability) {
      if (opts_.durability_dir.empty()) {
        char tmpl[] = "/tmp/pipes-sim-XXXXXX";
        char* d = ::mkdtemp(tmpl);
        if (d == nullptr) return "mkdtemp failed";
        dir_ = d;
        owns_dir_ = true;
      } else {
        dir_ = opts_.durability_dir;
      }
    }
    manager_ = std::make_unique<MetadataManager>(sched_);
    providers_.reserve(static_cast<size_t>(P()));
    for (int p = 0; p < P(); ++p) {
      providers_.push_back(
          std::make_unique<MetadataProvider>("p" + std::to_string(p)));
    }
    if (profile_.durability) {
      std::string err = EnableDurabilityNow();
      if (!err.empty()) return err;
    }
    if (profile_.federation) return SetupFederation();
    return "";
  }

  std::string SetupFederation() {
    net::LoopbackLink::Options lo;
    lo.latency = 1 * kMicrosPerMilli;
    lo.injector = &injector_;
    lo.scope_a_to_b = kScopeS2C;
    lo.scope_b_to_a = kScopeC2S;
    link_ = std::make_unique<net::LoopbackLink>(sched_, lo);
    server_ = std::make_unique<MetadataFederationServer>(*manager_);
    Status st = server_->ExportProvider(*providers_[0]);
    if (!st.ok()) return "ExportProvider failed: " + st.ToString();
    server_->Serve(link_->a());

    client_mgr_ = std::make_unique<MetadataManager>(sched_);
    net::Endpoint* client_ep = &link_->b();
    if (opts_.inject_duplicates) {
      dup_endpoint_ = std::make_unique<DuplicatingEndpoint>(link_->b());
      client_ep = dup_endpoint_.get();
    }
    FederationOptions fo;
    fo.heartbeat_period = 20 * kMicrosPerMilli;
    fo.rng_seed = schedule_.seed * 0x9E3779B9ULL + 0xFEDBEEFULL;
    remote_provider_ = std::make_unique<RemoteMetadataProvider>(
        "p0", *client_mgr_, *client_ep, fo);
    st = remote_provider_->Mirror(KeyName(0), profile_.max_staleness);
    if (!st.ok()) return "Mirror failed: " + st.ToString();

    observed_ = std::make_shared<std::vector<double>>();
    observer_provider_ = std::make_unique<MetadataProvider>("obs");
    auto obs = observed_;
    st = observer_provider_->metadata_registry().Define(
        MetadataDescriptor::Triggered("watch")
            .DependsOn(
                {DependencySpec::Explicit(remote_provider_.get(), KeyName(0))})
            .WithEvaluator([obs](EvalContext& ctx) {
              MetadataValue v = ctx.Dep(0);
              if (!v.is_null()) obs->push_back(v.AsDouble());
              return v;
            }));
    if (!st.ok()) return "observer define failed: " + st.ToString();
    auto sub = client_mgr_->Subscribe(*observer_provider_, "watch");
    if (!sub.ok()) return "observer subscribe failed";
    observer_sub_ = std::move(sub.value());
    return "";
  }

  void Teardown() {
    observer_sub_.Reset();
    observer_provider_.reset();
    remote_provider_.reset();
    server_.reset();
    client_mgr_.reset();
    for (auto& s : slots_) s.reset();
    if (manager_ && manager_->durability_enabled()) {
      manager_->DisableDurability();
    }
    providers_.clear();
    manager_.reset();
    dup_endpoint_.reset();
    link_.reset();
    if (owns_dir_ && !dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::string Divergence(const char* what, OpOutcome expect,
                         const Status& real) {
    std::ostringstream os;
    os << what << ": model expected "
       << (expect == OpOutcome::kOk ? "success" : "failure") << ", real "
       << (real.ok() ? "succeeded" : ("failed: " + real.ToString()));
    return os.str();
  }

  std::string ExecuteOp(size_t index, const SimOp& op) {
    log_ << "#" << index << " t=" << sched_.virtual_clock().Now() << " "
         << ToString(op);
    const int p = op.provider;
    const int k = op.key;
    switch (op.kind) {
      case SimOpKind::kDefine:
      case SimOpKind::kRedefine: {
        const bool redefine = op.kind == SimOpKind::kRedefine;
        SimMechanism mech = static_cast<SimMechanism>(op.mech);
        OpOutcome expect =
            redefine ? model_.Redefine(p, k, mech, op.dep_provider, op.dep_key)
                     : model_.Define(p, k, mech, op.dep_provider, op.dep_key);
        log_ << " -> " << ToString(expect);
        if (expect == OpOutcome::kSkip) break;
        MetadataDescriptor desc =
            MakeDescriptor(p, k, mech, op.dep_provider, op.dep_key);
        Status st = redefine
                        ? providers_[p]->metadata_registry().Redefine(
                              std::move(desc))
                        : providers_[p]->metadata_registry().Define(
                              std::move(desc));
        if (st.ok() != (expect == OpOutcome::kOk)) {
          return Divergence(redefine ? "redefine" : "define", expect, st);
        }
        break;
      }
      case SimOpKind::kUndefine: {
        OpOutcome expect = model_.Undefine(p, k);
        log_ << " -> " << ToString(expect);
        if (expect == OpOutcome::kSkip) break;
        Status st = providers_[p]->metadata_registry().Undefine(KeyName(k));
        if (st.ok() != (expect == OpOutcome::kOk)) {
          return Divergence("undefine", expect, st);
        }
        break;
      }
      case SimOpKind::kSubscribe: {
        auto& slot = slots_[op.slot % slots_.size()];
        if (slot.has_value()) {
          OpOutcome rel = model_.Unsubscribe(slot->provider, slot->key);
          if (rel != OpOutcome::kOk) {
            return "internal: model rejected release of a live slot";
          }
          slot->sub.Reset();
          slot.reset();
        }
        OpOutcome expect = model_.Subscribe(p, k);
        log_ << " -> " << ToString(expect);
        if (expect == OpOutcome::kSkip) break;
        auto res = manager_->Subscribe(*providers_[p], KeyName(k));
        if (res.ok() != (expect == OpOutcome::kOk)) {
          return Divergence("subscribe", expect,
                            res.ok() ? Status::OK() : res.status());
        }
        if (res.ok()) slot = Slot{p, k, std::move(res.value())};
        break;
      }
      case SimOpKind::kUnsubscribe: {
        auto& slot = slots_[op.slot % slots_.size()];
        if (!slot.has_value()) {
          log_ << " -> noop";
          break;
        }
        OpOutcome expect = model_.Unsubscribe(slot->provider, slot->key);
        if (expect != OpOutcome::kOk) {
          return "internal: model rejected unsubscribe of a live slot";
        }
        slot->sub.Reset();
        slot.reset();
        log_ << " -> ok";
        break;
      }
      case SimOpKind::kCommit: {
        const double value = next_commit_value_;
        next_commit_value_ += 1.0;
        cells_[CellIndex(p, k)] = value;
        OpOutcome expect = model_.Commit(p, k, value);
        log_ << " -> " << ToString(expect) << " v=" << value;
        if (expect == OpOutcome::kOk) {
          manager_->FireEvent(*providers_[p], KeyName(k));
          if (profile_.federation && p == 0 && k == 0 && fed_pinned_) {
            // The export item's evaluator re-read the anchor on this wave.
            model_.OnDemandEvaluated(0, 0);
          }
        }
        break;
      }
      case SimOpKind::kAdvance:
        sched_.RunFor(op.arg);
        MaybePinFederation();
        log_ << " -> ok";
        break;
      case SimOpKind::kRetireProvider: {
        OpOutcome expect = model_.RetireProvider(p);
        log_ << " -> " << ToString(expect);
        if (expect == OpOutcome::kOk) providers_[p].reset();
        break;
      }
      case SimOpKind::kCheckpoint: {
        if (manager_->durability() == nullptr) {
          log_ << " -> noop";
          break;
        }
        Status st = manager_->durability()->CheckpointNow();
        if (!st.ok()) return "CheckpointNow failed: " + st.ToString();
        model_.Checkpoint();
        log_ << " -> ok";
        break;
      }
      case SimOpKind::kFlushJournal: {
        if (manager_->durability() == nullptr) {
          log_ << " -> noop";
          break;
        }
        Status st = manager_->durability()->FlushJournal(true);
        if (!st.ok()) return "FlushJournal failed: " + st.ToString();
        log_ << " -> ok";
        break;
      }
      case SimOpKind::kCrashRestart:
        return CrashRestart(op.arg);
      case SimOpKind::kPartition:
        injector_.PartitionLink(kScopeS2C);
        injector_.PartitionLink(kScopeC2S);
        partitioned_ = true;
        log_ << " -> ok";
        break;
      case SimOpKind::kHeal:
        injector_.HealLink(kScopeS2C);
        injector_.HealLink(kScopeC2S);
        injector_.DisarmMessages(kScopeS2C);
        injector_.DisarmMessages(kScopeC2S);
        partitioned_ = false;
        log_ << " -> ok";
        break;
      case SimOpKind::kFaultBurst: {
        MessageFaultSpec spec;
        spec.drop_probability = static_cast<double>(op.arg % 1000) / 1000.0;
        spec.duplicate_probability =
            static_cast<double>((op.arg / 1000) % 1000) / 1000.0;
        const int delay_ms = static_cast<int>(op.arg / 1000000);
        if (delay_ms > 0) {
          spec.delay_probability = 0.2;
          spec.delay = delay_ms * kMicrosPerMilli;
        }
        injector_.ArmMessages(kScopeS2C, spec);
        injector_.ArmMessages(kScopeC2S, spec);
        log_ << " -> ok";
        break;
      }
      case SimOpKind::kQuiesce:
        return QuiesceSweep();
    }
    return "";
  }

  /// Tears the world down as a crash would, truncates the journal tail when
  /// requested, recovers into a fresh manager, and cross-checks the
  /// recovered state against the model's durable expectation.
  std::string CrashRestart(int64_t tear_bytes) {
    const bool torn = tear_bytes > 0;
    // The application decides, before restarting, which of its items it
    // re-defines eagerly (predefined, live) vs. lazily (recovered shells).
    std::map<ItemId, DurableState::Def> predefined;
    for (const auto& [id, def] : model_.durable().defs) {
      if (rng_.Bernoulli(0.5)) predefined[id] = def;
    }
    manager_->DisableDurability();
    for (auto& s : slots_) s.reset();
    providers_.clear();
    manager_.reset();
    if (torn) {
      std::string newest = NewestJournal();
      if (!newest.empty()) {
        if (!TruncateFileTail(newest, static_cast<uint64_t>(tear_bytes))) {
          return "TruncateFileTail failed";
        }
      }
    }
    manager_ = std::make_unique<MetadataManager>(sched_);
    for (int p = 0; p < P(); ++p) {
      providers_.push_back(
          std::make_unique<MetadataProvider>("p" + std::to_string(p)));
    }
    for (const auto& [id, def] : predefined) {
      Status st = providers_[id.first]->metadata_registry().Define(
          MakeDescriptor(id.first, id.second, def.mech, def.dep_provider,
                         def.dep_key));
      if (!st.ok()) return "crash predefine failed: " + st.ToString();
    }
    auto recovered = manager_->RecoverFrom(dir_, RawProviders());
    if (!recovered.ok()) {
      return "RecoverFrom failed: " + recovered.status().ToString();
    }
    RecoveryReport report = std::move(recovered.value());

    RecoveredView view;
    for (int p = 0; p < P(); ++p) {
      auto& reg = providers_[p]->metadata_registry();
      for (int k = 0; k < K(); ++k) {
        auto desc = reg.Find(KeyName(k));
        if (desc) view.defs[{p, k}] = DefFromDescriptor(*desc);
        auto handler = reg.GetHandler(KeyName(k));
        if (handler) {
          MetadataValue v = MetadataManager::PeekValue(*handler);
          view.values[{p, k}] =
              v.is_null() ? std::nullopt : std::optional<double>(v.AsDouble());
        }
      }
    }
    for (const auto& sub : report.subscriptions) {
      if (!sub.handler()) return "recovered subscription without handler";
      ItemId id = IdOfHandler(*sub.handler());
      if (id.first < 0 || id.second < 0) {
        return "recovered subscription on unknown item";
      }
      ++view.subs[id];
    }

    std::string err = model_.ApplyCrashRecovery(view, predefined, torn);
    if (!err.empty()) return err;

    size_t next = 0;
    for (auto& sub : report.subscriptions) {
      if (next >= slots_.size()) {
        return "more recovered subscriptions than slots";
      }
      ItemId id = IdOfHandler(*sub.handler());
      slots_[next++] = Slot{id.first, id.second, std::move(sub)};
    }

    err = EnableDurabilityNow();
    if (!err.empty()) return err;
    log_ << " -> ok defs=" << view.defs.size() << " subs="
         << report.subscriptions.size() << " vals=" << view.values.size();
    return "";
  }

  std::string NewestJournal() const {
    // Generations carry a zero-padded suffix, so the lexically greatest
    // journal file is the newest one (the only one a tear can hit).
    std::string best;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      std::string name = entry.path().filename().string();
      if (name.rfind("journal-", 0) == 0 && name > best) best = name;
    }
    if (best.empty()) return "";
    return dir_ + "/" + best;
  }

  std::string CheckObserved() const {
    if (!observed_) return "";
    for (size_t i = 1; i < observed_->size(); ++i) {
      if (!((*observed_)[i] > (*observed_)[i - 1])) {
        std::ostringstream os;
        os << "duplicate or regressing remote notification: observed[" << i - 1
           << "]=" << (*observed_)[i - 1] << " then observed[" << i
           << "]=" << (*observed_)[i];
        return os.str();
      }
    }
    return "";
  }

  /// Mirrors the server-side export inclusion into the model. The mirror's
  /// subscribe-req is sent at setup (t=0) and lands after one link latency,
  /// i.e. during the first RunFor of any kind; the export item then includes
  /// the anchor and evaluates it once at activation. If the anchor is not
  /// subscribable (a shrunk schedule may have lost its define), the server's
  /// export fails the same way and keeps retrying, so both sides stay
  /// unpinned.
  void MaybePinFederation() {
    if (!profile_.federation || fed_pinned_) return;
    if (model_.Subscribe(0, 0) != OpOutcome::kOk) return;
    model_.OnDemandEvaluated(0, 0);
    fed_pinned_ = true;
  }

  std::string QuiesceSweep() {
    sched_.RunFor(profile_.quiesce_settle);
    MaybePinFederation();
    if (SystemClockUseCount() != sysclock_baseline_) {
      return "SystemClock was used on a sim-reachable path";
    }

    size_t included_total = 0;
    for (int p = 0; p < P(); ++p) {
      if (!providers_[p]) {
        if (!model_.ProviderRetired(p)) {
          return "provider p" + std::to_string(p) +
                 " destroyed but model says live";
        }
        continue;
      }
      if (model_.ProviderRetired(p)) {
        return "provider p" + std::to_string(p) +
               " live but model says retired";
      }
      auto& reg = providers_[p]->metadata_registry();
      std::vector<int> model_keys = model_.AvailableKeys(p);
      std::vector<MetadataKey> real_keys = reg.AvailableKeys();
      if (model_keys.size() != real_keys.size()) {
        return "p" + std::to_string(p) + ": available-key count mismatch (" +
               std::to_string(real_keys.size()) + " real vs " +
               std::to_string(model_keys.size()) + " model)";
      }
      for (size_t i = 0; i < model_keys.size(); ++i) {
        if (real_keys[i] != KeyName(model_keys[i])) {
          return "p" + std::to_string(p) + ": available keys diverge at " +
                 real_keys[i];
        }
      }
      const size_t real_included = reg.included_count();
      if (real_included != model_.IncludedCount(p)) {
        return "p" + std::to_string(p) + ": included_count " +
               std::to_string(real_included) + " real vs " +
               std::to_string(model_.IncludedCount(p)) + " model";
      }
      included_total += real_included;
      for (int k = 0; k < K(); ++k) {
        const bool inc = reg.IsIncluded(KeyName(k));
        if (inc != model_.IsIncluded(p, k)) {
          return "p" + std::to_string(p) + "/k" + std::to_string(k) +
                 ": inclusion diverges (real " + (inc ? "yes" : "no") + ")";
        }
        if (!inc) continue;
        auto handler = reg.GetHandler(KeyName(k));
        if (!handler) {
          return "p" + std::to_string(p) + "/k" + std::to_string(k) +
                 ": included but no handler";
        }
        const ModelItem* item = model_.FindItem(p, k);
        if (item && item->value_checked) {
          MetadataValue v = MetadataManager::PeekValue(*handler);
          if (!ValueMatches(v, item->value)) {
            return "p" + std::to_string(p) + "/k" + std::to_string(k) +
                   ": stored value " + ValueStr(v) + " != model " +
                   OptStr(item->value);
          }
        }
      }
    }

    // Slot sweep: Get() through every live subscription — this also covers
    // handlers frozen by provider retirement, which the registry walk above
    // cannot reach.
    for (auto& slot : slots_) {
      if (!slot.has_value()) continue;
      const ModelItem* item = model_.FindItem(slot->provider, slot->key);
      if (!item) {
        return "slot holds p" + std::to_string(slot->provider) + "/k" +
               std::to_string(slot->key) + " but model lost the item";
      }
      MetadataValue v = slot->sub.Get();
      if (item->mech == SimMechanism::kOnDemand && !item->shell &&
          !item->retired) {
        model_.OnDemandEvaluated(slot->provider, slot->key);
        item = model_.FindItem(slot->provider, slot->key);
      }
      if (item->value_checked && !ValueMatches(v, item->value)) {
        return "slot get p" + std::to_string(slot->provider) + "/k" +
               std::to_string(slot->key) + ": " + ValueStr(v) + " != model " +
               OptStr(item->value);
      }
    }

    std::string err;
    if (profile_.federation) {
      err = CheckObserved();
      if (!err.empty()) return err;
      if (!partitioned_) {
        // Convergence: the healed mirror must reach the model's anchor value
        // (resyncs fire at heartbeat cadence, so allow several rounds).
        const double want = model_.cell(0, 0);
        bool converged = false;
        for (int round = 0; round < 40 && !converged; ++round) {
          auto handler = remote_provider_->metadata_registry().GetHandler(
              KeyName(0));
          if (handler) {
            MetadataValue v = MetadataManager::PeekValue(*handler);
            if (!v.is_null() && v.AsDouble() == want) {
              converged = true;
              break;
            }
          }
          sched_.RunFor(50 * kMicrosPerMilli);
        }
        if (!converged) {
          std::ostringstream os;
          os << "mirror failed to converge to " << want;
          return os.str();
        }
        err = CheckObserved();
        if (!err.empty()) return err;
      }
    }
    log_ << " -> ok inc=" << included_total;
    if (profile_.federation) log_ << " obs=" << observed_->size();
    return "";
  }

  const SimSchedule& schedule_;
  const SimProfile& profile_;
  SimRunOptions opts_;
  uint64_t sysclock_baseline_ = 0;

  VirtualTimeScheduler sched_;
  ReferenceModel model_;
  Rng rng_;  ///< harness-level choices (crash predefinitions)
  FaultInjector injector_;

  std::string dir_;
  bool owns_dir_ = false;
  std::vector<double> cells_;  ///< evaluator-visible source cells
  double next_commit_value_ = 1.0;
  std::ostringstream log_;

  std::unique_ptr<MetadataManager> manager_;
  std::vector<std::unique_ptr<MetadataProvider>> providers_;
  std::vector<std::optional<Slot>> slots_;

  // Federation fixture (present only when profile_.federation).
  std::unique_ptr<net::LoopbackLink> link_;
  std::unique_ptr<DuplicatingEndpoint> dup_endpoint_;
  std::unique_ptr<MetadataFederationServer> server_;
  std::unique_ptr<MetadataManager> client_mgr_;
  std::unique_ptr<RemoteMetadataProvider> remote_provider_;
  std::unique_ptr<MetadataProvider> observer_provider_;
  MetadataSubscription observer_sub_;
  std::shared_ptr<std::vector<double>> observed_;
  bool partitioned_ = false;
  bool fed_pinned_ = false;
};

}  // namespace

SimRunResult RunSchedule(const SimSchedule& schedule,
                         const SimRunOptions& opts) {
  SimHarness harness(schedule, opts);
  return harness.Run();
}

}  // namespace sim
}  // namespace pipes
