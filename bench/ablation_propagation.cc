/// Ablation A1 — topological vs. naive-recursive update propagation
/// (the design choice of §3.2.3: "updates have to be performed in the right
/// order" along the inverted dependency graph).
///
/// A diamond lattice of triggered handlers of growing depth sits on top of
/// one on-demand base item. One update is propagated per mode — by the
/// manager's topological wave, and by a naive recursion this bench runs
/// itself over the lattice's descriptors — and two quantities are compared:
///  - refreshes per wave (topological: exactly one per affected handler;
///    naive recursion: one per *path*, exponential in diamond depth), and
///  - glitches: a "difference" handler computes left-right of two handlers
///    that always carry equal values; any nonzero observation during a wave
///    is an inconsistent intermediate state. Topological order never
///    produces one.

#include <cinttypes>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/support.h"
#include "metadata/handler.h"

namespace pipes::bench {
namespace {

struct ProviderOnly : MetadataProvider {
  using MetadataProvider::MetadataProvider;
};

struct WaveResult {
  uint64_t refreshes;
  uint64_t glitches;
};

/// Diamond lattice: base -> (l0, r0) -> join0 -> (l1, r1) -> join1 -> ...
/// Every joinK checks that its two inputs agree.
struct Lattice {
  ProviderOnly provider{"p"};
  /// Every item's descriptor, in definition order (dependencies first).
  std::vector<MetadataDescriptor> items;
  std::shared_ptr<uint64_t> glitches = std::make_shared<uint64_t>(0);
  std::shared_ptr<double> base = std::make_shared<double>(0.0);

  explicit Lattice(int depth) {
    auto b = base;
    auto g = glitches;
    Define(MetadataDescriptor::OnDemand("j0").WithEvaluator(
        [b](EvalContext&) { return MetadataValue(*b); }));
    for (int k = 0; k < depth; ++k) {
      std::string in = "j" + std::to_string(k);
      std::string l = "l" + std::to_string(k);
      std::string r = "r" + std::to_string(k);
      std::string out = "j" + std::to_string(k + 1);
      for (const std::string& side : {l, r}) {
        Define(MetadataDescriptor::Triggered(side)
                   .DependsOnSelf(in)
                   .WithEvaluator([](EvalContext& ctx) {
                     return MetadataValue(ctx.DepDouble(0) + 1);
                   }));
      }
      Define(MetadataDescriptor::Triggered(out)
                 .DependsOnSelf(l)
                 .DependsOnSelf(r)
                 .WithEvaluator([g](EvalContext& ctx) -> MetadataValue {
                   double lhs = ctx.DepDouble(0);
                   double rhs = ctx.DepDouble(1);
                   if (lhs != rhs) ++*g;  // inconsistent intermediate state
                   return MetadataValue(std::max(lhs, rhs));
                 }));
    }
  }

  void Define(MetadataDescriptor desc) {
    items.push_back(desc);
    (void)provider.metadata_registry().Define(std::move(desc));
  }
};

/// The paper's design: one topological wave through the manager.
WaveResult RunTopological(int depth) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  Lattice lattice(depth);
  auto sub =
      manager.Subscribe(lattice.provider, "j" + std::to_string(depth)).value();
  uint64_t refreshes_before = manager.stats().wave_refreshes;
  *lattice.base = 1.0;
  manager.FireEvent(lattice.provider, "j0");
  return WaveResult{manager.stats().wave_refreshes - refreshes_before,
                    *lattice.glitches};
}

/// Evaluation context over already-computed dependency values.
class ValuesContext final : public EvalContext {
 public:
  ValuesContext(MetadataProvider& provider, std::vector<MetadataValue> deps)
      : provider_(provider), deps_(std::move(deps)) {}

  MetadataProvider& provider() const override { return provider_; }
  Timestamp now() const override { return 0; }
  Duration elapsed() const override { return 0; }
  size_t dep_count() const override { return deps_.size(); }
  MetadataValue Dep(size_t i) const override { return deps_[i]; }
  MetadataValue Previous() const override { return MetadataValue::Null(); }
  uint64_t eval_index() const override { return 0; }

 private:
  MetadataProvider& provider_;
  std::vector<MetadataValue> deps_;
};

/// Ablation baseline, computed here rather than by the manager: every
/// update recurses into its dependents at once, with no deduplication.
/// Diamonds then refresh items once per path, and joins see one input
/// updated and the other not yet.
class NaiveRecursion {
 public:
  explicit NaiveRecursion(Lattice& lattice) : lattice_(lattice) {
    // Items depending on each item, in inclusion order — the order a
    // handler's dependents are registered in.
    for (const MetadataDescriptor& desc : lattice_.items) {
      descriptors_[desc.key()] = &desc;
      for (const DependencySpec& spec : desc.dependency_specs()) {
        dependents_[spec.key].push_back(desc.key());
      }
    }
    // Triggered items are pre-computed on subscription (§3.2.3).
    for (const MetadataDescriptor& desc : lattice_.items) {
      if (desc.mechanism() == UpdateMechanism::kTriggered) {
        values_[desc.key()] = Evaluate(desc.key());
      }
    }
  }

  /// Refreshes `key`'s dependents depth-first, per update.
  void Propagate(const MetadataKey& key) {
    for (const MetadataKey& d : dependents_[key]) {
      if (Find(d).mechanism() == UpdateMechanism::kTriggered) {
        values_[d] = Evaluate(d);
        ++refreshes_;
      }
      Propagate(d);
    }
  }

  uint64_t refreshes() const { return refreshes_; }

 private:
  const MetadataDescriptor& Find(const MetadataKey& key) {
    return *descriptors_.at(key);
  }

  /// On-demand items compute on every read; the rest serve their value.
  MetadataValue Value(const MetadataKey& key) {
    if (Find(key).mechanism() == UpdateMechanism::kOnDemand) {
      return Evaluate(key);
    }
    return values_[key];
  }

  MetadataValue Evaluate(const MetadataKey& key) {
    const MetadataDescriptor& desc = Find(key);
    std::vector<MetadataValue> deps;
    deps.reserve(desc.dependency_specs().size());
    for (const DependencySpec& spec : desc.dependency_specs()) {
      deps.push_back(Value(spec.key));
    }
    ValuesContext ctx(lattice_.provider, std::move(deps));
    return desc.evaluator()(ctx);
  }

  Lattice& lattice_;
  std::map<MetadataKey, const MetadataDescriptor*> descriptors_;
  std::map<MetadataKey, std::vector<MetadataKey>> dependents_;
  std::map<MetadataKey, MetadataValue> values_;
  uint64_t refreshes_ = 0;
};

WaveResult RunNaive(int depth) {
  Lattice lattice(depth);
  NaiveRecursion naive(lattice);
  *lattice.base = 1.0;
  naive.Propagate("j0");
  return WaveResult{naive.refreshes(), *lattice.glitches};
}

void Run() {
  Banner("A1", "propagation: topological wave vs. naive recursion",
         "topological: refreshes = handlers, zero glitches; naive: "
         "refreshes grow exponentially with diamond depth and intermediate "
         "states are inconsistent");

  TablePrinter table({"diamond depth", "handlers", "topo refreshes",
                      "topo glitches", "naive refreshes", "naive glitches"});
  for (int depth : {1, 2, 3, 4, 6, 8}) {
    WaveResult topo = RunTopological(depth);
    WaveResult naive = RunNaive(depth);
    table.AddRow({std::to_string(depth), std::to_string(3 * depth),
                  TablePrinter::Fmt(topo.refreshes),
                  TablePrinter::Fmt(topo.glitches),
                  TablePrinter::Fmt(naive.refreshes),
                  TablePrinter::Fmt(naive.glitches)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace pipes::bench

int main() {
  pipes::bench::Run();
  return 0;
}
