#include "metadata/provider.h"

#include "metadata/manager.h"
#include "metadata/persistence.h"

namespace pipes {

std::atomic<uint64_t> MetadataProvider::next_id_{1};

MetadataProvider::MetadataProvider(std::string label)
    : label_(std::move(label)),
      provider_id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {
  registry_.AttachOwner(this);
}

MetadataProvider::~MetadataProvider() {
  // Subscriptions may outlive their provider (e.g. a consumer still holds
  // one while the query graph is torn down). Retire the remaining handlers
  // so those subscriptions serve fallback values instead of reaching into
  // freed provider state, and so no periodic task fires afterwards.
  registry_.RetireAllHandlers();
  // With durability on, a provider destroyed mid-run is gone for good: drop
  // it from the checkpoint roster and journal kProviderGone so recovery does
  // not resurrect its items. Planned shutdowns that want the state preserved
  // call DisableDurability() before tearing providers down.
  if (MetadataManager* mgr = metadata_manager()) {
    if (MetadataDurability* d = mgr->durability()) d->OnProviderTeardown(*this);
  }
}

void MetadataProvider::AttachMetadataManager(MetadataManager* manager) {
  manager_.store(manager, std::memory_order_release);
  MutexLock lock(modules_mu_);
  for (auto& [name, module] : modules_) {
    module->AttachMetadataManager(manager);
  }
}

void MetadataProvider::RegisterModule(const std::string& name,
                                      MetadataProvider* module) {
  {
    MutexLock lock(modules_mu_);
    modules_[name] = module;
  }
  if (MetadataManager* mgr = metadata_manager()) {
    module->AttachMetadataManager(mgr);
  }
}

void MetadataProvider::UnregisterModule(const std::string& name) {
  MutexLock lock(modules_mu_);
  modules_.erase(name);
}

MetadataProvider* MetadataProvider::MetadataModule(
    const std::string& name) const {
  MutexLock lock(modules_mu_);
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second;
}

std::vector<std::string> MetadataProvider::ModuleNames() const {
  MutexLock lock(modules_mu_);
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const auto& [name, module] : modules_) names.push_back(name);
  return names;
}

void MetadataProvider::FireMetadataEvent(const MetadataKey& key) {
  if (MetadataManager* mgr = metadata_manager()) {
    mgr->FireEvent(*this, key);
  }
}

}  // namespace pipes
