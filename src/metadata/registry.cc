#include "metadata/registry.h"

#include <cassert>

#include "metadata/handler.h"
#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/provider.h"

namespace pipes {

MetadataDurability* MetadataRegistry::Durability() const {
  if (owner_ == nullptr) return nullptr;
  MetadataManager* manager = owner_->metadata_manager();
  return manager != nullptr ? manager->durability() : nullptr;
}

Status MetadataRegistry::Define(MetadataDescriptor desc) {
  if (MetadataDurability* d = Durability()) d->RegisterProvider(owner_);
  MetadataKey key = desc.key();
  MutexLock lock(mu_);
  auto [it, inserted] = descriptors_.emplace(
      key, std::make_shared<const MetadataDescriptor>(std::move(desc)));
  if (!inserted) {
    return Status::AlreadyExists("metadata item already defined: " + key);
  }
  if (MetadataDurability* d = Durability()) d->OnDefine(*owner_, *it->second);
  return Status::OK();
}

Status MetadataRegistry::Redefine(MetadataDescriptor desc) {
  if (MetadataDurability* d = Durability()) d->RegisterProvider(owner_);
  MetadataKey key = desc.key();
  MutexLock lock(mu_);
  auto it = descriptors_.find(key);
  if (it == descriptors_.end()) {
    return Status::NotFound("cannot redefine unknown metadata item: " + key);
  }
  if (handlers_.count(key) > 0) {
    return Status::FailedPrecondition(
        "cannot redefine currently included metadata item: " + key);
  }
  it->second = std::make_shared<const MetadataDescriptor>(std::move(desc));
  // A redefinition journals as kDefine: replay applies records in LSN
  // order, so the last definition wins — exactly the redefine semantics.
  if (MetadataDurability* d = Durability()) d->OnDefine(*owner_, *it->second);
  return Status::OK();
}

Status MetadataRegistry::DefineOrRedefine(MetadataDescriptor desc) {
  if (MetadataDurability* d = Durability()) d->RegisterProvider(owner_);
  MetadataKey key = desc.key();
  MutexLock lock(mu_);
  if (handlers_.count(key) > 0) {
    return Status::FailedPrecondition(
        "cannot redefine currently included metadata item: " + key);
  }
  auto stored = std::make_shared<const MetadataDescriptor>(std::move(desc));
  descriptors_[key] = stored;
  if (MetadataDurability* d = Durability()) d->OnDefine(*owner_, *stored);
  return Status::OK();
}

Status MetadataRegistry::Undefine(const MetadataKey& key) {
  MutexLock lock(mu_);
  if (handlers_.count(key) > 0) {
    return Status::FailedPrecondition(
        "cannot undefine currently included metadata item: " + key);
  }
  if (descriptors_.erase(key) == 0) {
    return Status::NotFound("unknown metadata item: " + key);
  }
  if (MetadataDurability* d = Durability()) d->OnUndefine(*owner_, key);
  return Status::OK();
}

std::shared_ptr<const MetadataDescriptor> MetadataRegistry::Find(
    const MetadataKey& key) const {
  MutexLock lock(mu_);
  auto it = descriptors_.find(key);
  return it == descriptors_.end() ? nullptr : it->second;
}

bool MetadataRegistry::IsAvailable(const MetadataKey& key) const {
  MutexLock lock(mu_);
  return descriptors_.count(key) > 0;
}

std::vector<MetadataKey> MetadataRegistry::AvailableKeys() const {
  MutexLock lock(mu_);
  std::vector<MetadataKey> keys;
  keys.reserve(descriptors_.size());
  for (const auto& [k, d] : descriptors_) keys.push_back(k);
  return keys;
}

std::shared_ptr<MetadataHandler> MetadataRegistry::GetHandler(
    const MetadataKey& key) const {
  MutexLock lock(mu_);
  auto it = handlers_.find(key);
  return it == handlers_.end() ? nullptr : it->second;
}

MetadataHandler* MetadataRegistry::FindIncluded(const MetadataKey& key) const {
  MutexLock lock(mu_);
  auto it = handlers_.find(key);
  return it == handlers_.end() ? nullptr : it->second.get();
}

bool MetadataRegistry::IsIncluded(const MetadataKey& key) const {
  MutexLock lock(mu_);
  return handlers_.count(key) > 0;
}

std::vector<MetadataKey> MetadataRegistry::IncludedKeys() const {
  MutexLock lock(mu_);
  std::vector<MetadataKey> keys;
  keys.reserve(handlers_.size());
  for (const auto& [k, h] : handlers_) keys.push_back(k);
  return keys;
}

size_t MetadataRegistry::included_count() const {
  MutexLock lock(mu_);
  return handlers_.size();
}

void MetadataRegistry::AddHandler(const MetadataKey& key,
                                  std::shared_ptr<MetadataHandler> h) {
  MutexLock lock(mu_);
  assert(handlers_.count(key) == 0);
  handlers_.emplace(key, std::move(h));
}

void MetadataRegistry::RemoveHandler(const MetadataKey& key) {
  MutexLock lock(mu_);
  handlers_.erase(key);
}

void MetadataRegistry::RetireAllHandlers() {
  std::vector<std::shared_ptr<MetadataHandler>> retired;
  {
    MutexLock lock(mu_);
    retired.reserve(handlers_.size());
    for (const auto& [k, h] : handlers_) retired.push_back(h);
  }
  // Outside the registry lock: Retire cancels scheduler tasks.
  for (const auto& h : retired) h->Retire();
}

}  // namespace pipes
