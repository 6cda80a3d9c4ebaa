/// \file remote.h
/// \brief Metadata federation: remote subscriptions over a net::Endpoint
/// (paper §3.2.3, inter-node update propagation).
///
/// The paper's dependency graph spans nodes; this layer lets it span
/// *processes*. A `MetadataFederationServer` exports a manager's providers:
/// each remote subscription becomes an ordinary local triggered item (keyed
/// per peer) whose evaluator pushes the new value over the wire — so remote
/// fan-out rides the same inclusion, wave-propagation, and storm-damping
/// machinery as local dependents. A `RemoteMetadataProvider` mirrors one
/// peer provider into the local manager: mirrored items are real local
/// items (subscribable, includable, wave origins), updated by
/// sequence-numbered pushes. The sequence numbers give cross-link
/// duplicate-notification suppression: a duplicated or reordered frame
/// whose seq is not newer than the last applied one is counted and dropped
/// before any local wave fires, so downstream handlers never observe a
/// duplicate notification.
///
/// Robustness model (the headline):
///  - heartbeat failure detection: a periodic heartbeat/ack exchange drives
///    the peer's health through the same healthy → degraded → quarantined
///    machine handlers use;
///  - circuit breaker: a quarantined peer stops heartbeating at cadence and
///    probes with jittered exponential backoff instead;
///  - request retries: subscribe requests time out and retry with jittered
///    exponential backoff;
///  - reconnect + reconciliation: the first ack from a quarantined peer
///    closes the breaker and resubscribes every mirror with its last-seen
///    sequence, so the server re-sends exactly the values that are newer;
///  - partition-mode serving: while the link is down, mirrored items keep
///    serving their last-known-good value with *true*, growing staleness —
///    value timestamps cross the wire wall-anchored (pipes::Clock), so
///    staleness survives the process boundary.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "metadata/handler.h"
#include "metadata/manager.h"
#include "metadata/provider.h"
#include "net/transport.h"

namespace pipes {

/// \name Federation frame types (net::Frame::type)
///@{
inline constexpr uint32_t kFrameSubscribeReq = 1;  ///< seq = last-seen
inline constexpr uint32_t kFrameSubscribeAck = 2;
inline constexpr uint32_t kFrameUpdatePush = 3;    ///< seq = item sequence
inline constexpr uint32_t kFrameHeartbeat = 4;
inline constexpr uint32_t kFrameHeartbeatAck = 5;  ///< seq echoed
inline constexpr uint32_t kFrameUnsubscribe = 6;
///@}

/// \brief Tuning of a RemoteMetadataProvider's failure detection. Defaults
/// suit virtual-time tests (milliseconds).
///
/// The rest of the machinery is fixed in remote.cc, in units of these: the
/// peer is degraded after 2 and quarantined after 4 heartbeat periods
/// without an ack; a healthy mirror whose value is older than 2 heartbeat
/// periods re-fetches; a subscribe request retries after 20 ms plus a
/// backoff; and retry and probe backoffs start at 10 ms, double up to 1 s,
/// and are jittered by ±20 % (decorrelates peers that quarantined on the
/// same fault).
struct FederationOptions {
  /// Heartbeat cadence while the peer is not quarantined.
  Duration heartbeat_period = 50 * kMicrosPerMilli;
  /// Seed of the provider's private jitter RNG (deterministic tests).
  uint64_t rng_seed = 0xFEDBEEFULL;
};

/// \brief Counters describing one peer link, for monitoring and tests.
struct PeerStats {
  HandlerHealth health = HandlerHealth::kHealthy;
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeat_acks = 0;
  uint64_t probes = 0;       ///< breaker-open probe heartbeats
  uint64_t retries = 0;      ///< subscribe-request retries
  uint64_t reconnects = 0;   ///< breaker closes (quarantined -> healthy)
  uint64_t resyncs = 0;      ///< staleness-triggered re-fetches
  uint64_t pushes_applied = 0;
  uint64_t duplicates_suppressed = 0;
  Duration lag = 0;          ///< now - last ack (the failure-detector input)
};

/// \brief Per-mirror counters (sequence cursor and suppression evidence).
struct MirrorStats {
  uint64_t last_seen_seq = 0;
  uint64_t pushes_applied = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t resubscribes = 0;
  /// Local-timeline update time of the last applied value (kTimestampNever
  /// before the first one). Staleness = now - last_value_ts.
  Timestamp last_value_ts = kTimestampNever;
  Duration max_staleness = 0;  ///< configured serving bound (0 = none)
};

/// \brief Local proxy for one remote provider: mirrors its items into the
/// local MetadataManager over an Endpoint.
///
/// Mirror(key, ...) defines a local triggered item under this provider and
/// keeps it included; sequence-numbered pushes from the peer update it and
/// start ordinary local propagation waves. Consumers subscribe to mirrored
/// items exactly like local ones (and may declare dependencies on them via
/// DependencySpec::Explicit).
class RemoteMetadataProvider : public MetadataProvider {
 public:
  /// `remote_label` names the peer provider being mirrored (the topic
  /// prefix). `endpoint` must outlive this provider; its receiver is taken
  /// over. Starts the heartbeat immediately.
  RemoteMetadataProvider(std::string remote_label, MetadataManager& manager,
                         net::Endpoint& endpoint, FederationOptions options = {});
  ~RemoteMetadataProvider() override;

  /// \brief Mirrors remote item `key`: defines the local proxy item, holds
  /// it included, and subscribes over the wire (with timeout/retry).
  ///
  /// `max_staleness` bounds partition-mode serving: the mirror keeps serving
  /// last-known-good while the link is down, and the staleness-triggered
  /// resync re-fetches once the value ages past the resync threshold.
  /// `fallback` (optional) is served before the first value arrives.
  Status Mirror(const MetadataKey& key, Duration max_staleness = 0,
                MetadataValue fallback = MetadataValue());

  /// Stops mirroring `key`: sends an unsubscribe and retires the local item
  /// once external subscribers are gone.
  void Unmirror(const MetadataKey& key);

  /// The peer provider label this proxy mirrors.
  const std::string& remote_label() const { return remote_label_; }

  /// Health of the peer link (the circuit-breaker state).
  HandlerHealth health() const;

  /// Failure-detector lag: now - last ack from the peer.
  Duration lag(Timestamp now) const;

  /// Snapshot of link counters.
  PeerStats peer_stats() const;

  /// Snapshot of one mirror's counters; NotFound when `key` is not mirrored.
  Result<MirrorStats> mirror_stats(const MetadataKey& key) const;

  /// Staleness of the mirrored value for `key` at `now` (a very large value
  /// before the first applied update). NotFound when not mirrored.
  Result<Duration> mirror_staleness(const MetadataKey& key,
                                    Timestamp now) const;

 private:
  struct MirrorState {
    MetadataKey key;
    std::string topic;  ///< "<remote_label>/<key>"
    uint64_t last_seen = 0;
    uint64_t applied = 0;
    uint64_t suppressed = 0;
    uint64_t resubscribes = 0;
    Timestamp last_value_ts = kTimestampNever;
    Duration max_staleness = 0;
    bool pending = false;       ///< subscribe in flight, awaiting ack
    uint64_t attempt = 0;       ///< invalidates stale retry tasks
    Duration retry_backoff = 0;
    TaskHandle retry_task;
    /// The proxy item's handler, pinned by the internal subscription.
    MetadataSubscription internal_sub;
  };

  void HandleFrame(const net::Frame& frame);
  void HandleSubscribeAck(const net::Frame& frame, Timestamp now);
  void HandleUpdatePush(const net::Frame& frame, Timestamp now);

  /// Applies one remote update if its sequence is new; returns the handler
  /// to propagate from (null when suppressed). Updates the mirror cursor
  /// and injects the value while still holding fed_mu_, so concurrent
  /// deliveries apply in sequence order; the wave itself runs unlocked.
  std::shared_ptr<MetadataHandler> ApplyLocked(MirrorState& m, uint64_t seq,
                                               int64_t wall_ts,
                                               const MetadataValue& value,
                                               Timestamp now)
      PIPES_REQUIRES(fed_mu_);

  /// Sends the subscribe request for `m` and schedules the timeout retry.
  void SendSubscribeLocked(MirrorState& m) PIPES_REQUIRES(fed_mu_);
  void RetrySubscribe(const MetadataKey& key, uint64_t attempt);

  /// An ack of any kind proves the link: resets the failure detector and,
  /// when the breaker was open, closes it and reconciles every mirror.
  void NoteLinkAliveLocked(Timestamp now) PIPES_REQUIRES(fed_mu_);

  void HeartbeatTick();
  void ProbeTick();
  void ScheduleProbeLocked() PIPES_REQUIRES(fed_mu_);

  /// `d` ± the jitter fraction (floor 1 µs).
  Duration JitteredLocked(Duration d) PIPES_REQUIRES(fed_mu_);

  MetadataManager& manager_;
  net::Endpoint& endpoint_;
  const std::string remote_label_;
  const FederationOptions options_;

  /// Per-peer federation state. Ranks above the structure lock: held while
  /// injecting values (handler value lock) and while scheduling; released
  /// before propagation waves run.
  mutable Mutex fed_mu_{"RemoteMetadataProvider::fed_mu",
                        lockorder::kRankFederation};
  std::unordered_map<MetadataKey, MirrorState> mirrors_ PIPES_GUARDED_BY(fed_mu_);
  HandlerHealth health_ PIPES_GUARDED_BY(fed_mu_) = HandlerHealth::kHealthy;
  Timestamp last_ack_at_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t hb_seq_ PIPES_GUARDED_BY(fed_mu_) = 0;
  Duration probe_backoff_ PIPES_GUARDED_BY(fed_mu_) = 0;
  TaskHandle heartbeat_task_ PIPES_GUARDED_BY(fed_mu_);
  TaskHandle probe_task_ PIPES_GUARDED_BY(fed_mu_);
  Rng rng_ PIPES_GUARDED_BY(fed_mu_);
  bool closed_ PIPES_GUARDED_BY(fed_mu_) = false;

  // Link counters (see PeerStats).
  uint64_t stats_heartbeats_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t stats_acks_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t stats_probes_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t stats_retries_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t stats_reconnects_ PIPES_GUARDED_BY(fed_mu_) = 0;
  uint64_t stats_resyncs_ PIPES_GUARDED_BY(fed_mu_) = 0;
};

/// \brief Counters describing a federation server's activity.
struct FederationServerStats {
  uint64_t subscribe_requests = 0;
  uint64_t subscribe_rejects = 0;  ///< unknown provider/key
  uint64_t pushes_sent = 0;
  uint64_t heartbeats_answered = 0;
  uint64_t exports_active = 0;  ///< live per-peer export items (gauge)
};

/// \brief Serves a manager's metadata to remote peers.
///
/// Each remote subscription becomes a per-peer *export item*: a local
/// triggered item depending on the exported (provider, key) whose evaluator
/// pushes the refreshed value (sequence-numbered, wall-anchored) to the
/// peer. Because the export item is an ordinary dependent, triggered waves
/// from the exported item — including storm-damped and deferred ones —
/// drive remote pushes with no federation-specific hooks in the wave path.
class MetadataFederationServer {
 public:
  explicit MetadataFederationServer(MetadataManager& manager);
  ~MetadataFederationServer();

  MetadataFederationServer(const MetadataFederationServer&) = delete;
  MetadataFederationServer& operator=(const MetadataFederationServer&) = delete;

  /// Makes `provider`'s items subscribable by peers, addressed by label.
  /// The provider must outlive the server.
  Status ExportProvider(MetadataProvider& provider);

  /// Starts serving `endpoint` (takes over its receiver). One server may
  /// serve several endpoints; per-peer export items keep their sequence
  /// streams independent. The endpoint must outlive the server.
  void Serve(net::Endpoint& endpoint);

  /// Snapshot of activity counters.
  FederationServerStats stats() const;

 private:
  /// Wall-anchored sequence state shared with one export evaluator.
  struct PushState {
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> wall_ts{0};
  };
  struct Export {
    MetadataSubscription sub;  ///< pins the export item (and its upstream)
    std::shared_ptr<PushState> push;
    std::string topic;
  };

  void HandleFrame(net::Endpoint* endpoint, uint64_t peer_id,
                   const net::Frame& frame);
  void HandleSubscribe(net::Endpoint* endpoint, uint64_t peer_id,
                       const net::Frame& frame);

  MetadataManager& manager_;
  /// Owner of the per-peer export items.
  MetadataProvider exports_provider_{"__federation__"};  // pipes-analyze: unguarded(internally synchronized, like every provider)

  /// Server-side federation state (peer roster, export table). Same rank as
  /// the client lock: held while defining/subscribing export items.
  mutable Mutex server_mu_{"MetadataFederationServer::server_mu",
                           lockorder::kRankFederation};
  std::unordered_map<std::string, MetadataProvider*> exported_
      PIPES_GUARDED_BY(server_mu_);
  /// export key ("<topic>#<peer>") -> export state.
  std::unordered_map<std::string, Export> exports_ PIPES_GUARDED_BY(server_mu_);
  uint64_t next_peer_id_ PIPES_GUARDED_BY(server_mu_) = 0;

  std::atomic<uint64_t> stats_subscribes_{0};
  std::atomic<uint64_t> stats_rejects_{0};
  std::atomic<uint64_t> stats_pushes_{0};
  std::atomic<uint64_t> stats_heartbeats_{0};
};

}  // namespace pipes
