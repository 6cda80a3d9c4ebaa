#include "runtime/profiler.h"

#include <cctype>
#include <sstream>

#include "metadata/handler.h"
#include "metadata/manager.h"

namespace pipes {

std::string SystemProfiler::DumpProvider(const MetadataProvider& provider,
                                         int indent) {
  std::ostringstream os;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << "provider '" << provider.label() << "'\n";
  const MetadataRegistry& reg = provider.metadata_registry();
  for (const MetadataKey& key : reg.AvailableKeys()) {
    auto desc = reg.Find(key);
    auto handler = reg.GetHandler(key);
    os << pad << "  " << key << " [" << UpdateMechanismToString(desc->mechanism())
       << "]";
    if (handler != nullptr) {
      // The reference counts change under the exclusive structure lock, so
      // they are read under a shared hold, which Get() (it may evaluate)
      // stays out of.
      std::string value = handler->Get().ToString();
      SharedLock structure(provider.metadata_manager()->structure_mutex());
      os << " included refs=" << handler->external_refs() << "+"
         << handler->internal_refs() << " value=" << value
         << " evals=" << handler->eval_count()
         << " updates=" << handler->update_count();
    } else {
      os << " available";
    }
    if (!desc->description().empty()) {
      os << "  -- " << desc->description();
    }
    os << "\n";
  }
  for (const std::string& name : provider.ModuleNames()) {
    const MetadataProvider* module = provider.MetadataModule(name);
    if (module != nullptr) {
      os << DumpProvider(*module, indent + 1);
    }
  }
  return os.str();
}

std::string SystemProfiler::DumpGraph(const QueryGraph& graph) {
  std::ostringstream os;
  auto& g = const_cast<QueryGraph&>(graph);
  os << "query graph: " << g.node_count() << " nodes, " << g.query_count()
     << " queries\n";
  for (const auto& node : g.nodes()) {
    os << DumpProvider(*node, 1);
  }
  MetadataManagerStats stats = g.metadata_manager().stats();
  os << "metadata manager: active=" << stats.active_handlers
     << " created=" << stats.handlers_created
     << " removed=" << stats.handlers_removed
     << " evaluations=" << stats.evaluations << " waves=" << stats.waves
     << " wave_refreshes=" << stats.wave_refreshes
     << " events=" << stats.events_fired << "\n";
  return os.str();
}

void SystemProfiler::SummarizeProvider(const MetadataProvider& provider,
                                       InventorySummary* out) {
  out->providers += 1;
  out->available_items += provider.metadata_registry().AvailableKeys().size();
  out->included_items += provider.metadata_registry().included_count();
  for (const std::string& name : provider.ModuleNames()) {
    const MetadataProvider* module = provider.MetadataModule(name);
    if (module != nullptr) SummarizeProvider(*module, out);
  }
}

namespace {

const char* MechanismColor(UpdateMechanism m) {
  switch (m) {
    case UpdateMechanism::kStatic:
      return "gray80";
    case UpdateMechanism::kOnDemand:
      return "lightblue";
    case UpdateMechanism::kPeriodic:
      return "palegreen";
    case UpdateMechanism::kTriggered:
      return "lightsalmon";
  }
  return "white";
}

void EmitProviderCluster(const MetadataProvider& provider, std::ostream& os,
                         int* cluster_id) {
  auto handler_node_id = [](const MetadataHandler& h) {
    std::ostringstream id;
    id << "h" << h.owner().provider_id() << "_" << h.key();
    std::string s = id.str();
    for (char& c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return s;
  };

  auto included = provider.metadata_registry().IncludedKeys();
  if (!included.empty()) {
    os << "  subgraph cluster_" << (*cluster_id)++ << " {\n";
    os << "    label=\"" << provider.label() << "\";\n";
    for (const auto& key : included) {
      auto h = provider.metadata_registry().GetHandler(key);
      if (h == nullptr) continue;
      os << "    " << handler_node_id(*h) << " [label=\"" << key << "\\n("
         << UpdateMechanismToString(h->mechanism())
         << ")\", style=filled, fillcolor=" << MechanismColor(h->mechanism())
         << "];\n";
    }
    os << "  }\n";
    for (const auto& key : included) {
      auto h = provider.metadata_registry().GetHandler(key);
      if (h == nullptr) continue;
      for (const auto& dep : h->dependencies()) {
        os << "  " << handler_node_id(*h) << " -> " << handler_node_id(*dep)
           << ";\n";
      }
    }
  }
  for (const std::string& name : provider.ModuleNames()) {
    const MetadataProvider* module = provider.MetadataModule(name);
    if (module != nullptr) EmitProviderCluster(*module, os, cluster_id);
  }
}

}  // namespace

std::string SystemProfiler::DumpDependencyGraphDot(const QueryGraph& graph) {
  std::ostringstream os;
  os << "digraph metadata_dependencies {\n";
  os << "  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  int cluster_id = 0;
  auto& g = const_cast<QueryGraph&>(graph);
  for (const auto& node : g.nodes()) {
    EmitProviderCluster(*node, os, &cluster_id);
  }
  os << "}\n";
  return os.str();
}

SystemProfiler::InventorySummary SystemProfiler::Summarize(
    const QueryGraph& graph) {
  InventorySummary out;
  auto& g = const_cast<QueryGraph&>(graph);
  for (const auto& node : g.nodes()) {
    SummarizeProvider(*node, &out);
  }
  return out;
}

}  // namespace pipes
