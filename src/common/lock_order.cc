#include "common/lock_order.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace pipes {
namespace lockorder {

class LockClass {
 public:
  LockClass(std::string name, int rank, bool reentrant)
      : name_(std::move(name)), rank_(rank), reentrant_(reentrant) {}
  const std::string& name() const { return name_; }
  int rank() const { return rank_; }
  bool reentrant() const { return reentrant_; }

 private:
  std::string name_;
  int rank_;
  bool reentrant_;
};

const char* LockClassName(const LockClass* cls) { return cls->name().c_str(); }
int LockClassRank(const LockClass* cls) { return cls->rank(); }

const char* ViolationKindToString(LockOrderViolation::Kind k) {
  switch (k) {
    case LockOrderViolation::Kind::kCycle:
      return "cycle";
    case LockOrderViolation::Kind::kRankInversion:
      return "rank-inversion";
    case LockOrderViolation::Kind::kSelfDeadlock:
      return "self-deadlock";
    case LockOrderViolation::Kind::kUpgrade:
      return "upgrade";
  }
  return "unknown";
}

namespace {

/// One entry in a thread's hold stack. `depth` counts reentrant
/// re-acquisitions of the same instance.
struct Held {
  const LockClass* cls;
  const void* instance;
  int depth;
  bool shared;
};

thread_local std::vector<Held> t_held;

/// Per-thread cache of class pairs already pushed into the global graph, so
/// steady-state acquisitions skip the global mutex entirely. Invalidated by
/// ResetGraphForTest via the epoch counter.
struct EdgeCache {
  std::uint64_t epoch = 0;
  std::unordered_set<std::uint64_t> seen;
};

thread_local EdgeCache t_edge_cache;

std::uint64_t PairKey(const LockClass* from, const LockClass* to) {
  auto a = reinterpret_cast<std::uintptr_t>(from);
  auto b = reinterpret_cast<std::uintptr_t>(to);
  std::uint64_t h = static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(b) + 0x9E3779B97F4A7C15ULL + (h << 6) +
       (h >> 2);
  return h;
}

std::vector<std::string> HeldNames() {
  std::vector<std::string> names;
  names.reserve(t_held.size());
  for (const Held& h : t_held) {
    std::string n = LockClassName(h.cls);
    if (h.shared) n += " (shared)";
    if (h.depth > 1) n += " (x" + std::to_string(h.depth) + ")";
    names.push_back(std::move(n));
  }
  return names;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out.empty() ? "<nothing>" : out;
}

}  // namespace

struct LockOrderValidator::Impl {
  struct EdgeRec {
    std::vector<std::string> while_holding;
  };

  mutable std::mutex mu;
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> epoch{1};
  std::map<std::pair<const LockClass*, const LockClass*>, EdgeRec> edge_info;
  std::unordered_map<const LockClass*, std::vector<const LockClass*>> adj;
  std::vector<LockOrderViolation> violations;
  std::unordered_set<std::uint64_t> reported_pairs;

  /// True when `to` can already reach `from` through recorded edges; fills
  /// `path` with the witness chain to -> ... -> from.
  bool Reaches(const LockClass* to, const LockClass* from,
               std::vector<const LockClass*>* path) {
    std::unordered_set<const LockClass*> visited;
    return Dfs(to, from, &visited, path);
  }

  bool Dfs(const LockClass* node, const LockClass* target,
           std::unordered_set<const LockClass*>* visited,
           std::vector<const LockClass*>* path) {
    if (!visited->insert(node).second) return false;
    path->push_back(node);
    if (node == target) return true;
    auto it = adj.find(node);
    if (it != adj.end()) {
      for (const LockClass* next : it->second) {
        if (Dfs(next, target, visited, path)) return true;
      }
    }
    path->pop_back();
    return false;
  }

  void Report(LockOrderViolation v) {
    std::fprintf(stderr, "[lock-order] %s: %s\n",
                 ViolationKindToString(v.kind), v.message.c_str());
    violations.push_back(std::move(v));
  }
};

LockOrderValidator::LockOrderValidator() : impl_(new Impl) {
  if (const char* dump = std::getenv("PIPES_LOCK_ORDER_DUMP")) {
    static std::string dump_path;  // atexit callback cannot capture
    dump_path = dump;
    std::atexit([] {
      std::ofstream out(dump_path, std::ios::app);
      if (out) LockOrderValidator::Instance().WriteEdges(out);
    });
  }
}

LockOrderValidator& LockOrderValidator::Instance() {
  static LockOrderValidator* instance = new LockOrderValidator();  // leaked
  return *instance;
}

namespace {

/// One entry of a thread's cache of interned classes, keyed by the address
/// of the name string the caller passed (a string literal at every lock in
/// this codebase, so one entry per construction site).
struct InternedClass {
  const char* name;
  const LockClass* cls;
};
constexpr std::size_t kInternCacheSize = 64;
thread_local InternedClass t_interned[kInternCacheSize];

}  // namespace

const LockClass* RegisterLockClass(const char* name, int rank,
                                   bool reentrant) {
  // Constructing a lock must touch no shared state once its name is
  // interned: a hit in the calling thread's cache reads only the immutable
  // class. The name comparison keeps a reused name buffer from hitting.
  const std::uintptr_t key = reinterpret_cast<std::uintptr_t>(name) >> 3;
  InternedClass& entry = t_interned[key % kInternCacheSize];
  if (entry.name == name && entry.cls->name() == name) return entry.cls;

  LockOrderValidator::Instance();  // force construction before first use
  // Interning shares one class across every lock with the same name; the
  // first registration wins.
  static std::mutex mu;
  static auto* classes = new std::unordered_map<std::string, LockClass*>();
  const LockClass* cls;
  {
    std::lock_guard<std::mutex> lock(mu);
    LockClass*& interned = (*classes)[name];
    if (interned == nullptr) {
      interned = new LockClass(name, rank, reentrant);  // leaked (interned)
    }
    cls = interned;
  }
  entry = {name, cls};
  return cls;
}

void LockOrderValidator::Acquire(const LockClass* cls, const void* instance,
                                 bool shared) {
  if (!impl_->enabled.load(std::memory_order_relaxed)) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->instance == instance) {
      ++it->depth;
      if (!cls->reentrant()) {
        std::lock_guard<std::mutex> lock(impl_->mu);
        LockOrderViolation v;
        v.kind = LockOrderViolation::Kind::kSelfDeadlock;
        v.holding = HeldNames();
        v.message = "thread re-acquired non-reentrant lock '" +
                    cls->name() + "' it already holds (holding: " +
                    JoinNames(v.holding) + ")";
        impl_->Report(std::move(v));
      }
      return;
    }
  }

  if (!shared) {
    // Held-before edges and rank checks apply to exclusive acquisitions
    // only; see the file comment in lock_order.h for why.
    const std::uint64_t epoch =
        impl_->epoch.load(std::memory_order_relaxed);
    if (t_edge_cache.epoch != epoch) {
      t_edge_cache.epoch = epoch;
      t_edge_cache.seen.clear();
    }
    for (const Held& h : t_held) {
      if (h.cls == cls) continue;  // sibling instances of one class
      const std::uint64_t key = PairKey(h.cls, cls);
      if (!t_edge_cache.seen.insert(key).second) continue;

      std::lock_guard<std::mutex> lock(impl_->mu);
      if (h.cls->rank() > 0 && cls->rank() > 0 &&
          cls->rank() < h.cls->rank() &&
          impl_->reported_pairs.insert(key).second) {
        LockOrderViolation v;
        v.kind = LockOrderViolation::Kind::kRankInversion;
        v.holding = HeldNames();
        v.message = "acquired '" + cls->name() + "' (rank " +
                    std::to_string(cls->rank()) + ") while holding '" +
                    h.cls->name() + "' (rank " +
                    std::to_string(h.cls->rank()) +
                    "); lower ranks must be acquired first (holding: " +
                    JoinNames(v.holding) + ")";
        impl_->Report(std::move(v));
      }

      auto edge = std::make_pair(h.cls, cls);
      if (impl_->edge_info.count(edge) > 0) continue;
      impl_->edge_info[edge].while_holding = HeldNames();

      std::vector<const LockClass*> path;
      if (impl_->Reaches(cls, h.cls, &path) &&
          impl_->reported_pairs.insert(key ^ 0x1ULL).second) {
        // `path` runs cls -> ... -> h.cls: the pre-existing chain that the
        // new edge h.cls -> cls closes into a cycle.
        LockOrderViolation v;
        v.kind = LockOrderViolation::Kind::kCycle;
        v.holding = HeldNames();
        std::string chain;
        for (std::size_t i = 0; i < path.size(); ++i) {
          if (i > 0) chain += " -> ";
          chain += path[i]->name();
        }
        if (path.size() >= 2) {
          auto prior = impl_->edge_info.find(
              std::make_pair(path[0], path[1]));
          if (prior != impl_->edge_info.end()) {
            v.prior_holding = prior->second.while_holding;
          }
        }
        v.message = "POTENTIAL DEADLOCK: acquiring '" + cls->name() +
                    "' while holding '" + h.cls->name() +
                    "' closes the cycle [" + chain + " -> " + cls->name() +
                    "]; this thread holds: " + JoinNames(v.holding) +
                    "; the reverse edge was first recorded while holding: " +
                    JoinNames(v.prior_holding);
        impl_->Report(std::move(v));
      } else {
        impl_->adj[h.cls].push_back(cls);
      }
    }
  }

  t_held.push_back(Held{cls, instance, 1, shared});
}

void LockOrderValidator::AcquireTry(const LockClass* cls,
                                    const void* instance, bool shared) {
  if (!impl_->enabled.load(std::memory_order_relaxed)) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->instance == instance) {
      ++it->depth;
      return;
    }
  }
  // A successful try-lock never blocked, so it adds no wait edges; the hold
  // still matters for edges created by later blocking acquisitions.
  t_held.push_back(Held{cls, instance, 1, shared});
}

void LockOrderValidator::Release(const LockClass*, const void* instance) {
  // Deliberately ignores the enabled flag: if tracking was toggled while
  // locks were held, releasing an untracked instance is simply a no-op.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->instance == instance) {
      if (--it->depth == 0) {
        t_held.erase(std::next(it).base());
      }
      return;
    }
  }
}

void LockOrderValidator::ReportUpgrade(const char* lock_name) {
  // Active in all builds: upgrades self-deadlock by construction.
  std::lock_guard<std::mutex> lock(impl_->mu);
  LockOrderViolation v;
  v.kind = LockOrderViolation::Kind::kUpgrade;
  v.holding = HeldNames();
  v.message = std::string("shared->exclusive upgrade attempted on '") +
              lock_name +
              "': the writer would wait for its own read to drain "
              "(holding: " +
              JoinNames(v.holding) + ")";
  impl_->Report(std::move(v));
}

void LockOrderValidator::SetEnabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool LockOrderValidator::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

std::vector<LockOrderViolation> LockOrderValidator::violations() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->violations;
}

std::size_t LockOrderValidator::violation_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->violations.size();
}

void LockOrderValidator::ClearViolations() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->violations.clear();
  impl_->reported_pairs.clear();
}

std::vector<LockOrderEdge> LockOrderValidator::edges() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<LockOrderEdge> out;
  out.reserve(impl_->edge_info.size());
  for (const auto& [pair, rec] : impl_->edge_info) {
    out.push_back(LockOrderEdge{pair.first->name(), pair.second->name(),
                                rec.while_holding});
  }
  return out;
}

void LockOrderValidator::WriteEdges(std::ostream& out) const {
  for (const LockOrderEdge& e : edges()) {  // map order: sorted by pointer,
    out << e.from << " -> " << e.to        // stable within one process
        << "  [holding: " << JoinNames(e.while_holding) << "]\n";
  }
}

void LockOrderValidator::ResetGraphForTest() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->edge_info.clear();
  impl_->adj.clear();
  impl_->reported_pairs.clear();
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lockorder
}  // namespace pipes
