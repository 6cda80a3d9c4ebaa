#include "metadata/remote.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "common/journal.h"
#include "metadata/persistence.h"

namespace pipes {

namespace {

/// Heartbeat periods without an ack after which the peer is degraded /
/// quarantined.
constexpr int kMissesToDegrade = 2;
constexpr int kMissesToQuarantine = 4;
/// Subscribe-request timeout before a retry is sent.
constexpr Duration kRequestTimeout = 20 * kMicrosPerMilli;
/// Retry/probe backoff: initial delay, growth factor, ceiling, and the ±
/// jitter fraction applied to every delay.
constexpr Duration kInitialBackoff = 10 * kMicrosPerMilli;
constexpr double kBackoffMultiplier = 2.0;
constexpr Duration kMaxBackoff = kMicrosPerSecond;
constexpr double kBackoffJitter = 0.2;

/// Grows a backoff delay by kBackoffMultiplier, capped at kMaxBackoff.
Duration GrowBackoff(Duration current) {
  if (current <= 0) return 1;
  return static_cast<Duration>(
      std::min(static_cast<double>(current) * kBackoffMultiplier,
               static_cast<double>(kMaxBackoff)));
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteMetadataProvider
// ---------------------------------------------------------------------------

RemoteMetadataProvider::RemoteMetadataProvider(std::string remote_label,
                                               MetadataManager& manager,
                                               net::Endpoint& endpoint,
                                               FederationOptions options)
    : MetadataProvider("mirror:" + remote_label),
      manager_(manager),
      endpoint_(endpoint),
      remote_label_(std::move(remote_label)),
      options_(options),
      rng_(options.rng_seed) {
  AttachMetadataManager(&manager_);
  {
    MutexLock lock(fed_mu_);
    last_ack_at_ = manager_.clock().Now();
    probe_backoff_ = kInitialBackoff;
    heartbeat_task_ = manager_.scheduler().SchedulePeriodic(
        options_.heartbeat_period, [this] { HeartbeatTick(); });
  }
  endpoint_.SetReceiver([this](const net::Frame& f) { HandleFrame(f); });
}

RemoteMetadataProvider::~RemoteMetadataProvider() {
  endpoint_.SetReceiver(nullptr);
  MutexLock lock(fed_mu_);
  closed_ = true;
  heartbeat_task_.Cancel();
  probe_task_.Cancel();
  for (auto& entry : mirrors_) {
    entry.second.retry_task.Cancel();
    net::Frame f;
    f.type = kFrameUnsubscribe;
    f.topic = entry.second.topic;
    endpoint_.Send(f);  // best effort; the server also reaps on link close
  }
  mirrors_.clear();  // drops the internal subscriptions
}

Status RemoteMetadataProvider::Mirror(const MetadataKey& key,
                                      Duration max_staleness,
                                      MetadataValue fallback) {
  {
    MutexLock lock(fed_mu_);
    if (closed_) return Status::FailedPrecondition("provider closed");
    if (mirrors_.count(key) != 0) {
      return Status::AlreadyExists("already mirrored: " + key);
    }
  }
  MetadataDescriptor desc =
      MetadataDescriptor::Triggered(key)
          // The mirror item has no local inputs: waves never refresh their
          // own origin, so the injected remote value is the only writer and
          // Previous() simply re-publishes it at activation time.
          .WithEvaluator([](EvalContext& ctx) { return ctx.Previous(); })
          .WithDescription("mirror of " + remote_label_ + "/" + key);
  if (max_staleness > 0) {
    std::move(desc).WithMaxStaleness(max_staleness);
  }
  if (!fallback.is_null()) {
    std::move(desc).WithFallbackValue(std::move(fallback));
  }
  PIPES_RETURN_NOT_OK(metadata_registry().DefineOrRedefine(std::move(desc)));
  Result<MetadataSubscription> sub = manager_.Subscribe(*this, key);
  if (!sub.ok()) return sub.status();

  MutexLock lock(fed_mu_);
  MirrorState& m = mirrors_[key];
  m.key = key;
  m.topic = remote_label_ + "/" + key;
  m.max_staleness = max_staleness;
  m.retry_backoff = kInitialBackoff;
  m.internal_sub = std::move(sub.value());
  SendSubscribeLocked(m);
  return Status::OK();
}

void RemoteMetadataProvider::Unmirror(const MetadataKey& key) {
  {
    MutexLock lock(fed_mu_);
    auto it = mirrors_.find(key);
    if (it == mirrors_.end()) return;
    it->second.retry_task.Cancel();
    net::Frame f;
    f.type = kFrameUnsubscribe;
    f.topic = it->second.topic;
    endpoint_.Send(f);
    mirrors_.erase(it);
  }
  // Gone unless an external subscriber still includes the item — it then
  // keeps serving last-known-good until the last subscriber lets go.
  metadata_registry().Undefine(key);
}

HandlerHealth RemoteMetadataProvider::health() const {
  MutexLock lock(fed_mu_);
  return health_;
}

Duration RemoteMetadataProvider::lag(Timestamp now) const {
  MutexLock lock(fed_mu_);
  return now - last_ack_at_;
}

PeerStats RemoteMetadataProvider::peer_stats() const {
  MutexLock lock(fed_mu_);
  PeerStats s;
  s.health = health_;
  s.heartbeats_sent = stats_heartbeats_;
  s.heartbeat_acks = stats_acks_;
  s.probes = stats_probes_;
  s.retries = stats_retries_;
  s.reconnects = stats_reconnects_;
  s.resyncs = stats_resyncs_;
  s.lag = manager_.clock().Now() - last_ack_at_;
  for (const auto& entry : mirrors_) {
    s.pushes_applied += entry.second.applied;
    s.duplicates_suppressed += entry.second.suppressed;
  }
  return s;
}

Result<MirrorStats> RemoteMetadataProvider::mirror_stats(
    const MetadataKey& key) const {
  MutexLock lock(fed_mu_);
  auto it = mirrors_.find(key);
  if (it == mirrors_.end()) return Status::NotFound("not mirrored: " + key);
  const MirrorState& m = it->second;
  MirrorStats s;
  s.last_seen_seq = m.last_seen;
  s.pushes_applied = m.applied;
  s.duplicates_suppressed = m.suppressed;
  s.resubscribes = m.resubscribes;
  s.last_value_ts = m.last_value_ts;
  s.max_staleness = m.max_staleness;
  return s;
}

Result<Duration> RemoteMetadataProvider::mirror_staleness(
    const MetadataKey& key, Timestamp now) const {
  MutexLock lock(fed_mu_);
  auto it = mirrors_.find(key);
  if (it == mirrors_.end()) return Status::NotFound("not mirrored: " + key);
  if (it->second.last_value_ts == kTimestampNever) {
    return std::numeric_limits<Duration>::max();
  }
  return now - it->second.last_value_ts;
}

void RemoteMetadataProvider::HandleFrame(const net::Frame& frame) {
  Timestamp now = manager_.clock().Now();
  switch (frame.type) {
    case kFrameSubscribeAck:
      HandleSubscribeAck(frame, now);
      break;
    case kFrameUpdatePush:
      HandleUpdatePush(frame, now);
      break;
    case kFrameHeartbeatAck: {
      MutexLock lock(fed_mu_);
      if (closed_) return;
      ++stats_acks_;
      NoteLinkAliveLocked(now);
      break;
    }
    default:
      break;
  }
}

void RemoteMetadataProvider::HandleSubscribeAck(const net::Frame& frame,
                                                Timestamp now) {
  RecordDecoder dec(frame.payload);
  uint8_t status = 0;
  uint8_t has_value = 0;
  uint64_t seq = 0;
  int64_t wall_ts = 0;
  MetadataValue value;
  if (!dec.GetU8(&status) || !dec.GetU8(&has_value)) return;
  if (has_value != 0 &&
      (!dec.GetU64(&seq) || !dec.GetI64(&wall_ts) ||
       !DecodeValue(&dec, &value))) {
    return;
  }
  const std::string prefix = remote_label_ + "/";
  if (frame.topic.rfind(prefix, 0) != 0) return;
  MetadataKey key = frame.topic.substr(prefix.size());

  std::shared_ptr<MetadataHandler> origin;
  {
    MutexLock lock(fed_mu_);
    if (closed_) return;
    NoteLinkAliveLocked(now);  // a reply of any kind proves the link
    auto it = mirrors_.find(key);
    if (it == mirrors_.end()) return;
    MirrorState& m = it->second;
    m.retry_task.Cancel();
    m.retry_backoff = kInitialBackoff;
    if (status != 0) {
      // Not exported (yet): stop the timeout retries; the staleness-driven
      // resync keeps re-asking at heartbeat cadence.
      m.pending = false;
      return;
    }
    m.pending = false;
    if (has_value != 0) {
      origin = ApplyLocked(m, seq, wall_ts, value, now);
    }
  }
  if (origin) manager_.PropagateFrom(*origin, now);
}

void RemoteMetadataProvider::HandleUpdatePush(const net::Frame& frame,
                                              Timestamp now) {
  RecordDecoder dec(frame.payload);
  int64_t wall_ts = 0;
  MetadataValue value;
  if (!dec.GetI64(&wall_ts) || !DecodeValue(&dec, &value)) return;
  const std::string prefix = remote_label_ + "/";
  if (frame.topic.rfind(prefix, 0) != 0) return;
  MetadataKey key = frame.topic.substr(prefix.size());

  std::shared_ptr<MetadataHandler> origin;
  {
    MutexLock lock(fed_mu_);
    if (closed_) return;
    auto it = mirrors_.find(key);
    if (it == mirrors_.end()) return;
    origin = ApplyLocked(it->second, frame.seq, wall_ts, value, now);
  }
  if (origin) manager_.PropagateFrom(*origin, now);
}

std::shared_ptr<MetadataHandler> RemoteMetadataProvider::ApplyLocked(
    MirrorState& m, uint64_t seq, int64_t wall_ts, const MetadataValue& value,
    Timestamp now) {
  if (seq <= m.last_seen) {
    // Duplicate or reordered-behind frame: suppressed before any local wave
    // fires, so downstream handlers never see a duplicate notification.
    ++m.suppressed;
    return nullptr;
  }
  m.last_seen = seq;
  // The mirror's own subscription keeps its handler included. Copied, not
  // borrowed: the caller runs the wave after releasing fed_mu_.
  std::shared_ptr<MetadataHandler> handler = m.internal_sub.handler();
  assert(handler != nullptr);
  // Wall-anchored timestamps keep staleness true across the process
  // boundary; clamp peer clocks running ahead so staleness is never
  // negative.
  Timestamp ts = manager_.clock().FromWallMicros(wall_ts);
  if (ts > now) ts = now;
  manager_.InjectRecoveredValue(*handler, value, ts);
  m.last_value_ts = ts;
  ++m.applied;
  return handler;
}

void RemoteMetadataProvider::SendSubscribeLocked(MirrorState& m) {
  m.pending = true;
  uint64_t attempt = ++m.attempt;
  net::Frame f;
  f.type = kFrameSubscribeReq;
  f.seq = m.last_seen;  // the server resends only what is newer than this
  f.topic = m.topic;
  endpoint_.Send(f);  // best effort: the timeout retry covers a down link
  Duration wait = kRequestTimeout + JitteredLocked(m.retry_backoff);
  MetadataKey key = m.key;
  m.retry_task = manager_.scheduler().ScheduleAfter(
      wait, [this, key, attempt] { RetrySubscribe(key, attempt); });
}

void RemoteMetadataProvider::RetrySubscribe(const MetadataKey& key,
                                            uint64_t attempt) {
  MutexLock lock(fed_mu_);
  if (closed_) return;
  auto it = mirrors_.find(key);
  if (it == mirrors_.end()) return;
  MirrorState& m = it->second;
  if (!m.pending || m.attempt != attempt) return;
  ++stats_retries_;
  m.retry_backoff = GrowBackoff(m.retry_backoff);
  SendSubscribeLocked(m);
}

void RemoteMetadataProvider::NoteLinkAliveLocked(Timestamp now) {
  last_ack_at_ = now;
  if (health_ == HandlerHealth::kHealthy) return;
  bool was_quarantined = health_ == HandlerHealth::kQuarantined;
  health_ = HandlerHealth::kHealthy;
  if (!was_quarantined) return;
  // Breaker closes: back to cadence heartbeats, and reconcile every mirror —
  // the subscribe request carries the last-seen sequence, so the server
  // answers with the current value only when something newer exists.
  ++stats_reconnects_;
  probe_task_.Cancel();
  probe_backoff_ = kInitialBackoff;
  heartbeat_task_ = manager_.scheduler().SchedulePeriodic(
      options_.heartbeat_period, [this] { HeartbeatTick(); });
  for (auto& entry : mirrors_) {
    MirrorState& m = entry.second;
    ++m.resubscribes;
    m.retry_backoff = kInitialBackoff;
    SendSubscribeLocked(m);
  }
}

void RemoteMetadataProvider::HeartbeatTick() {
  Timestamp now = manager_.clock().Now();
  uint64_t seq = 0;
  {
    MutexLock lock(fed_mu_);
    if (closed_) return;
    seq = ++hb_seq_;
    ++stats_heartbeats_;
  }
  net::Frame hb;
  hb.type = kFrameHeartbeat;
  hb.seq = seq;
  endpoint_.Send(hb);

  MutexLock lock(fed_mu_);
  if (closed_) return;
  Duration elapsed = now - last_ack_at_;
  if (health_ != HandlerHealth::kQuarantined &&
      elapsed > kMissesToQuarantine * options_.heartbeat_period) {
    // Breaker opens: stop heartbeating at cadence, probe with jittered
    // exponential backoff instead. Mirrors keep serving last-known-good.
    health_ = HandlerHealth::kQuarantined;
    heartbeat_task_.Cancel();
    probe_backoff_ = kInitialBackoff;
    ScheduleProbeLocked();
    return;
  }
  if (health_ == HandlerHealth::kHealthy &&
      elapsed > kMissesToDegrade * options_.heartbeat_period) {
    health_ = HandlerHealth::kDegraded;
    return;
  }
  if (health_ != HandlerHealth::kHealthy) return;
  // Staleness-triggered resync: silent message loss must not starve a
  // bounded-staleness mirror, so a value older than two heartbeat periods
  // re-fetches proactively.
  const Duration threshold = 2 * options_.heartbeat_period;
  for (auto& entry : mirrors_) {
    MirrorState& m = entry.second;
    if (m.pending || m.max_staleness <= 0) continue;
    bool stale = m.last_value_ts == kTimestampNever ||
                 now - m.last_value_ts > threshold;
    if (stale) {
      ++stats_resyncs_;
      SendSubscribeLocked(m);
    }
  }
}

void RemoteMetadataProvider::ProbeTick() {
  uint64_t seq = 0;
  {
    MutexLock lock(fed_mu_);
    if (closed_ || health_ != HandlerHealth::kQuarantined) return;
    seq = ++hb_seq_;
    ++stats_probes_;
  }
  net::Frame hb;
  hb.type = kFrameHeartbeat;
  hb.seq = seq;
  endpoint_.Send(hb);

  MutexLock lock(fed_mu_);
  if (closed_ || health_ != HandlerHealth::kQuarantined) return;
  probe_backoff_ = GrowBackoff(probe_backoff_);
  ScheduleProbeLocked();
}

void RemoteMetadataProvider::ScheduleProbeLocked() {
  probe_task_ = manager_.scheduler().ScheduleAfter(
      JitteredLocked(probe_backoff_), [this] { ProbeTick(); });
}

Duration RemoteMetadataProvider::JitteredLocked(Duration d) {
  if (d <= 0) return 1;
  double factor =
      rng_.UniformDouble(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
  return std::max<Duration>(
      1, static_cast<Duration>(static_cast<double>(d) * factor));
}

// ---------------------------------------------------------------------------
// MetadataFederationServer
// ---------------------------------------------------------------------------

MetadataFederationServer::MetadataFederationServer(MetadataManager& manager)
    : manager_(manager) {
  exports_provider_.AttachMetadataManager(&manager_);
}

MetadataFederationServer::~MetadataFederationServer() {
  MutexLock lock(server_mu_);
  exports_.clear();  // drops the export subscriptions
}

Status MetadataFederationServer::ExportProvider(MetadataProvider& provider) {
  MutexLock lock(server_mu_);
  auto inserted = exported_.emplace(provider.label(), &provider);
  if (!inserted.second && inserted.first->second != &provider) {
    return Status::AlreadyExists("another provider exported as '" +
                                 provider.label() + "'");
  }
  return Status::OK();
}

void MetadataFederationServer::Serve(net::Endpoint& endpoint) {
  uint64_t peer_id = 0;
  {
    MutexLock lock(server_mu_);
    peer_id = next_peer_id_++;
  }
  net::Endpoint* ep = &endpoint;
  endpoint.SetReceiver([this, ep, peer_id](const net::Frame& f) {
    HandleFrame(ep, peer_id, f);
  });
}

FederationServerStats MetadataFederationServer::stats() const {
  FederationServerStats s;
  s.subscribe_requests = stats_subscribes_.load(std::memory_order_relaxed);
  s.subscribe_rejects = stats_rejects_.load(std::memory_order_relaxed);
  s.pushes_sent = stats_pushes_.load(std::memory_order_relaxed);
  s.heartbeats_answered = stats_heartbeats_.load(std::memory_order_relaxed);
  MutexLock lock(server_mu_);
  s.exports_active = exports_.size();
  return s;
}

void MetadataFederationServer::HandleFrame(net::Endpoint* endpoint,
                                           uint64_t peer_id,
                                           const net::Frame& frame) {
  switch (frame.type) {
    case kFrameSubscribeReq:
      HandleSubscribe(endpoint, peer_id, frame);
      break;
    case kFrameHeartbeat: {
      stats_heartbeats_.fetch_add(1, std::memory_order_relaxed);
      net::Frame ack;
      ack.type = kFrameHeartbeatAck;
      ack.seq = frame.seq;
      endpoint->Send(ack);
      break;
    }
    case kFrameUnsubscribe: {
      std::string export_key = frame.topic + "#" + std::to_string(peer_id);
      MutexLock lock(server_mu_);
      auto it = exports_.find(export_key);
      if (it != exports_.end()) {
        exports_.erase(it);  // the subscription dtor excludes the item
        exports_provider_.metadata_registry().Undefine(export_key);
      }
      break;
    }
    default:
      break;
  }
}

void MetadataFederationServer::HandleSubscribe(net::Endpoint* endpoint,
                                               uint64_t peer_id,
                                               const net::Frame& frame) {
  stats_subscribes_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t last_seen = frame.seq;
  const std::string& topic = frame.topic;
  const size_t slash = topic.find('/');

  bool exported = false;
  uint64_t seq = 0;
  int64_t wall = 0;
  MetadataValue value;
  {
    MutexLock lock(server_mu_);
    do {
      if (slash == std::string::npos) break;
      auto pit = exported_.find(topic.substr(0, slash));
      if (pit == exported_.end()) break;
      MetadataProvider* source = pit->second;
      MetadataKey key = topic.substr(slash + 1);
      if (!source->metadata_registry().IsAvailable(key)) break;
      std::string export_key = topic + "#" + std::to_string(peer_id);
      auto eit = exports_.find(export_key);
      if (eit == exports_.end()) {
        // First subscription from this peer: define the per-peer export
        // item. Its evaluator runs inside ordinary triggered waves of the
        // exported item and pushes each refresh over the wire.
        auto push = std::make_shared<PushState>();
        Clock* clk = &manager_.clock();
        net::Endpoint* dest = endpoint;
        std::string t = topic;
        MetadataFederationServer* server = this;
        MetadataDescriptor desc =
            MetadataDescriptor::Triggered(export_key)
                .DependsOn({DependencySpec::Explicit(source, key)})
                .WithEvaluator([dest, t, push, clk,
                                server](EvalContext& ctx) {
                  MetadataValue v = ctx.Dep(0);
                  uint64_t s =
                      push->seq.fetch_add(1, std::memory_order_acq_rel) + 1;
                  int64_t w = clk->ToWallMicros(ctx.now());
                  push->wall_ts.store(w, std::memory_order_release);
                  RecordEncoder enc;
                  enc.PutI64(w);
                  EncodeValue(&enc, v);
                  net::Frame push_frame;
                  push_frame.type = kFrameUpdatePush;
                  push_frame.seq = s;
                  push_frame.topic = t;
                  push_frame.payload = enc.Take();
                  dest->Send(push_frame);
                  server->stats_pushes_.fetch_add(1,
                                                  std::memory_order_relaxed);
                  return v;
                })
                .WithDescription("federation export of " + topic);
        Status st =
            exports_provider_.metadata_registry().DefineOrRedefine(
                std::move(desc));
        if (!st.ok()) break;
        Result<MetadataSubscription> sub =
            manager_.Subscribe(exports_provider_, export_key);
        if (!sub.ok()) {
          exports_provider_.metadata_registry().Undefine(export_key);
          break;
        }
        Export e;
        e.sub = std::move(sub.value());
        e.push = push;
        e.topic = topic;
        eit = exports_.emplace(export_key, std::move(e)).first;
      }
      seq = eit->second.push->seq.load(std::memory_order_acquire);
      wall = eit->second.push->wall_ts.load(std::memory_order_acquire);
      value = eit->second.sub.Get();
      exported = true;
    } while (false);
  }
  if (!exported) stats_rejects_.fetch_add(1, std::memory_order_relaxed);

  net::Frame ack;
  ack.type = kFrameSubscribeAck;
  ack.topic = topic;
  RecordEncoder enc;
  enc.PutU8(exported ? 0 : 1);
  // The value rides along only when the peer's cursor is behind — the
  // reconciliation contract: re-fetch exactly what is newer than last-seen.
  const bool has_value = exported && seq > last_seen;
  enc.PutU8(has_value ? 1 : 0);
  if (has_value) {
    enc.PutU64(seq);
    enc.PutI64(wall);
    EncodeValue(&enc, value);
  }
  ack.payload = enc.Take();
  endpoint->Send(ack);
}

}  // namespace pipes
