/// \file registry.h
/// \brief Per-provider catalog of available and included metadata items.
///
/// "The metadata items and handlers are stored at the respective graph
/// nodes ... This direct assignment of metadata to the individual graph
/// nodes facilitates metadata discovery because each node gives information
/// about available metadata items." (paper §2.2)

#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/reentrant_shared_mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "metadata/descriptor.h"

namespace pipes {

class MetadataDurability;
class MetadataHandler;
class MetadataProvider;

/// \brief Holds the metadata descriptors (available items) and the active
/// handlers (included items) of one provider.
///
/// Thread safety: all public methods are safe to call concurrently. The
/// registry mutex guards the descriptors; the handler table is graph state
/// under the structure lock of the owner's manager. The handler readers,
/// Redefine, DefineOrRedefine and Undefine take that lock shared, so, like
/// MetadataManager::FireEvent, they must not run under an exclusively held
/// provider state lock.
class MetadataRegistry {
 public:
  MetadataRegistry() = default;
  MetadataRegistry(const MetadataRegistry&) = delete;
  MetadataRegistry& operator=(const MetadataRegistry&) = delete;

  // --- descriptors (available items) ---------------------------------------

  /// Declares a new item. Fails with AlreadyExists if the key is defined.
  Status Define(MetadataDescriptor desc);

  /// Replaces an existing definition — the redefinition facility used by
  /// metadata inheritance (paper §4.4.2). Fails with NotFound when the key
  /// is undefined and FailedPrecondition when the item is currently included
  /// (a live handler would not see the new definition).
  Status Redefine(MetadataDescriptor desc);

  /// Defines or replaces, with the same included-item restriction.
  Status DefineOrRedefine(MetadataDescriptor desc);

  /// Removes a definition. Fails when the item is currently included.
  Status Undefine(const MetadataKey& key);

  /// Looks up a definition; nullptr when unknown. The pointer stays valid
  /// until the definition is redefined or undefined.
  std::shared_ptr<const MetadataDescriptor> Find(const MetadataKey& key) const;

  /// True iff a descriptor for `key` exists.
  bool IsAvailable(const MetadataKey& key) const;

  /// All declared keys, sorted (metadata discovery).
  std::vector<MetadataKey> AvailableKeys() const;

  // --- handlers (included items) --------------------------------------------

  /// The active handler for `key`, or nullptr when the item is not included.
  std::shared_ptr<MetadataHandler> GetHandler(const MetadataKey& key) const;

  /// Like GetHandler, without taking a reference or a lock: for a caller
  /// holding the manager's structure lock (any level), which keeps the
  /// handler included, and so alive.
  MetadataHandler* FindIncluded(const MetadataKey& key) const;

  /// True iff the item currently has a handler.
  bool IsIncluded(const MetadataKey& key) const;

  /// Keys of all currently included items, sorted.
  std::vector<MetadataKey> IncludedKeys() const;

  /// Number of active handlers.
  size_t included_count() const;

  // --- internal (used by MetadataManager, under its exclusive structure lock)
  void AddHandler(const MetadataKey& key, std::shared_ptr<MetadataHandler> h);
  void RemoveHandler(const MetadataKey& key);

  /// Ties this registry to the provider that owns it, whose manager's
  /// structure lock guards the handler table, and through which definition
  /// changes reach the journal, with the provider's identity, when
  /// durability is on. Called once from the MetadataProvider constructor
  /// (before the registry is visible to any other thread).
  void AttachOwner(const MetadataProvider* owner) { owner_ = owner; }

  /// Retires every still-included handler (provider teardown): cancels their
  /// mechanism tasks and freezes them on fallback/last-known-good values so
  /// outstanding subscriptions degrade gracefully instead of hitting UB.
  /// Called by ~MetadataProvider.
  void RetireAllHandlers();

 private:
  /// The durability engine of the owner's manager: nullptr while durability
  /// is off, or before an owner and a manager are attached. A definition
  /// change adds the owner to the checkpoint roster *before* mu_ (the
  /// roster lock, rank 250, must not nest inside the registry lock), and
  /// journals *under* mu_, right after the map mutation, so the journal's
  /// LSN order matches the in-memory mutation order for concurrent
  /// Define/Undefine of the same key (the journal mutex, rank 580, legally
  /// nests inside the registry lock, rank 570).
  MetadataDurability* Durability() const;

  /// A shared hold of the owner's manager's structure lock, the guard of
  /// `handlers_`; empty while no manager is attached (nothing is included).
  std::shared_lock<ReentrantSharedMutex> HoldStructure() const;

  mutable Mutex mu_{"MetadataRegistry::mu", lockorder::kRankRegistry};
  std::map<MetadataKey, std::shared_ptr<const MetadataDescriptor>> descriptors_
      PIPES_GUARDED_BY(mu_);
  // pipes-analyze: unguarded(MetadataManager structure lock)
  std::map<MetadataKey, std::shared_ptr<MetadataHandler>> handlers_;
  /// The owning provider (set once at construction, before concurrency).
  const MetadataProvider* owner_ = nullptr;
};

}  // namespace pipes
