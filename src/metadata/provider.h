/// \file provider.h
/// \brief Base class for everything that carries metadata: graph nodes and
/// exchangeable modules (paper §2.2, §4.5).

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/reentrant_shared_mutex.h"
#include "common/thread_annotations.h"
#include "metadata/registry.h"

namespace pipes {

class MetadataManager;

/// \brief Owner of a MetadataRegistry.
///
/// Graph nodes (sources, operators, sinks) and exchangeable modules (e.g. a
/// join's sweep areas) are providers. Modules nest recursively: "The metadata
/// framework is applied recursively to access metadata items of nested
/// modules." (§4.5)
class MetadataProvider {
 public:
  explicit MetadataProvider(std::string label);
  virtual ~MetadataProvider();

  MetadataProvider(const MetadataProvider&) = delete;
  MetadataProvider& operator=(const MetadataProvider&) = delete;

  /// Human-readable name, e.g. "join#3" or "join#3/left_state".
  const std::string& label() const { return label_; }

  /// Process-unique identity, assigned at construction.
  uint64_t provider_id() const { return provider_id_; }

  /// This provider's metadata catalog.
  MetadataRegistry& metadata_registry() { return registry_; }
  const MetadataRegistry& metadata_registry() const { return registry_; }

  /// The manager coordinating subscriptions, or nullptr before attachment.
  MetadataManager* metadata_manager() const {
    return manager_.load(std::memory_order_acquire);
  }

  /// Attaches this provider (and, recursively, its modules) to a manager.
  /// Called by QueryGraph when a node is added.
  void AttachMetadataManager(MetadataManager* manager);

  /// Operator-level reentrant read/write lock (paper §4.2): guards the
  /// provider's processing state against concurrent metadata evaluation.
  ReentrantSharedMutex& state_mutex() const
      PIPES_RETURN_CAPABILITY(state_mu_) {
    return state_mu_;
  }

  /// \name Topology hooks for dependency resolution
  /// Nodes override these; modules and standalone providers keep the empty
  /// defaults.
  ///@{
  virtual std::vector<MetadataProvider*> MetadataUpstreams() const { return {}; }
  virtual std::vector<MetadataProvider*> MetadataDownstreams() const { return {}; }
  ///@}

  /// \name Exchangeable modules (paper §4.5)
  ///@{
  /// Registers a named module; the module inherits this provider's manager.
  void RegisterModule(const std::string& name, MetadataProvider* module);
  void UnregisterModule(const std::string& name);
  MetadataProvider* MetadataModule(const std::string& name) const;
  std::vector<std::string> ModuleNames() const;
  ///@}

  /// Fires the manual event notification for item `key` (paper §3.2.3:
  /// "the definition of event notifications enables the developer to fire
  /// triggers manually"). No-op when the item is not included or no manager
  /// is attached.
  void FireMetadataEvent(const MetadataKey& key);

 private:
  static std::atomic<uint64_t> next_id_;

  std::string label_;      // pipes-analyze: unguarded(fixed at construction)
  uint64_t provider_id_;   // pipes-analyze: unguarded(fixed at construction)
  MetadataRegistry registry_;  // pipes-analyze: unguarded(internally synchronized: its mutex and the manager structure lock)
  std::atomic<MetadataManager*> manager_{nullptr};
  mutable ReentrantSharedMutex state_mu_{"MetadataProvider::state_mu",
                                         lockorder::kRankOperatorState};
  mutable Mutex modules_mu_{"MetadataProvider::modules_mu",
                            lockorder::kRankModules};
  std::map<std::string, MetadataProvider*> modules_
      PIPES_GUARDED_BY(modules_mu_);
};

}  // namespace pipes
