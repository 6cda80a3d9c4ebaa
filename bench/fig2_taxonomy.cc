/// Figure 2 — "Metadata types and maintenance concepts".
///
/// Demonstrates the taxonomy with measured numbers: one representative item
/// per (metadata class x update mechanism), subscribed on a live window-join
/// plan and driven for 10 simulated seconds. The table shows how often each
/// mechanism evaluates and updates — static never, on-demand per access,
/// periodic per window, triggered per underlying change.

#include <cinttypes>

#include "bench/support.h"
#include "metadata/handler.h"

namespace pipes::bench {
namespace {

void Run() {
  Banner("Figure 2", "metadata types and maintenance concepts",
         "static: 1 evaluation; on-demand: one per access; periodic: one per "
         "window; triggered: one per underlying update");

  WindowJoinPlan plan(/*rate_per_sec=*/100.0, /*window=*/Seconds(1),
                      /*keys=*/10);
  auto& mgr = plan.engine.metadata();

  struct Item {
    const char* cls;
    MetadataProvider* provider;
    MetadataKey key;
  };
  Item items[] = {
      {"static", plan.left.get(), keys::kSchema},
      {"static", plan.left.get(), keys::kElementSize},
      {"dynamic", plan.join.get(), keys::kMemoryUsage},      // on-demand
      {"dynamic", plan.join.get(), keys::kStateSize},        // on-demand
      {"dynamic", plan.left.get(), keys::kOutputRate},       // periodic
      {"dynamic", plan.join.get(), keys::kSelectivity},      // periodic
      {"dynamic", plan.left.get(), keys::kAvgOutputRate},    // triggered
      {"dynamic", plan.lwin.get(), keys::kEstElementValidity},  // triggered
  };

  std::vector<MetadataSubscription> subs;
  for (const Item& item : items) {
    subs.push_back(mgr.Subscribe(*item.provider, item.key).value());
  }

  plan.Start();
  // 10 simulated seconds; every item is read 3 times along the way. Only
  // these reads count: a dependent's evaluation reads its inputs too.
  uint64_t reads = 0;
  for (int s = 0; s < 10; ++s) {
    plan.engine.RunFor(Seconds(1));
    if (s == 2 || s == 5 || s == 8) {
      for (auto& sub : subs) (void)sub.Get();
      ++reads;
    }
  }

  TablePrinter table({"item", "class", "mechanism", "evaluations",
                      "value updates", "reads", "current value"});
  for (size_t i = 0; i < subs.size(); ++i) {
    const auto& h = subs[i].handler();
    table.AddRow({items[i].provider->label() + "." + items[i].key,
                  items[i].cls,
                  UpdateMechanismToString(h->mechanism()),
                  TablePrinter::Fmt(h->eval_count()),
                  TablePrinter::Fmt(h->update_count()),
                  TablePrinter::Fmt(reads),
                  h->Get().ToString()});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace pipes::bench

int main() {
  pipes::bench::Run();
  return 0;
}
