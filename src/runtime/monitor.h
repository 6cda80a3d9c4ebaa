/// \file monitor.h
/// \brief A monitoring tool: subscribes to metadata items and records their
/// values over time (the consumer of the paper's Figure 3 example and of
/// motivation 4, system profiling).

#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/scheduler.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "metadata/manager.h"
#include "metadata/remote.h"

namespace pipes {

/// \brief Samples a set of subscribed metadata items into time series.
///
/// Every watched series is one sampler, a function of the sampling time
/// stored next to the subscription (if any) that keeps its source included;
/// SampleOnce calls each sampler and records what it returns.
class MetadataMonitor {
 public:
  /// `manager` coordinates subscriptions; `scheduler` drives sampling.
  MetadataMonitor(MetadataManager& manager, TaskScheduler& scheduler);
  ~MetadataMonitor();

  MetadataMonitor(const MetadataMonitor&) = delete;
  MetadataMonitor& operator=(const MetadataMonitor&) = delete;

  /// Subscribes to (provider, key) and records it under `series_name`
  /// (defaults to "<provider label>.<key>").
  Status Watch(MetadataProvider& provider, const MetadataKey& key,
               std::string series_name = "");

  /// Subscribes to (provider, key) and records the handler's *health* as a
  /// numeric series (0 = healthy, 1 = degraded, 2 = quarantined; see
  /// HandlerHealth). Default series name "<provider label>.<key>:health".
  /// Together with WatchStaleness this makes fault containment observable.
  Status WatchHealth(MetadataProvider& provider, const MetadataKey& key,
                     std::string series_name = "");

  /// Subscribes to (provider, key) and records the value's staleness in
  /// seconds (age of last successful update). Default series name
  /// "<provider label>.<key>:staleness".
  Status WatchStaleness(MetadataProvider& provider, const MetadataKey& key,
                        std::string series_name = "");

  /// Records the manager's overload-governor state as a numeric series
  /// (0 = normal, 1 = pressured, 2 = brownout; see PressureState). Needs no
  /// provider or subscription — the manager itself is the source. Feeds the
  /// LoadShedder's pressure input in the runtime wiring.
  Status WatchPressure(std::string series_name = "metadata:pressure");

  /// Records a federation peer link's circuit-breaker state as a numeric
  /// series (0 = healthy, 1 = degraded, 2 = quarantined). Default series
  /// name "<remote label>:peer_health". The caller keeps `remote` alive for
  /// the monitor's lifetime (Unwatch first otherwise).
  Status WatchPeerHealth(RemoteMetadataProvider& remote,
                         std::string series_name = "");

  /// Records a federation peer link's failure-detector lag (seconds since
  /// the last ack/heartbeat from the peer). Default series name
  /// "<remote label>:peer_lag".
  Status WatchPeerLag(RemoteMetadataProvider& remote,
                      std::string series_name = "");

  /// Stops watching a series and drops its subscription (recorded samples
  /// are kept).
  Status Unwatch(const std::string& series_name);

  /// Starts periodic sampling of all watched items.
  void StartSampling(Duration interval);

  /// Stops periodic sampling.
  void StopSampling();

  /// Takes one sample of every watched item now.
  void SampleOnce();

  /// The recorded series (empty series if unknown).
  const TimeSeries& series(const std::string& name) const;

  /// Names of all series (watched or historical).
  std::vector<std::string> series_names() const;

  /// Latest sampled value of a series (0 if none).
  double LastValue(const std::string& name) const;

  /// Writes all series as CSV (`time_s,series,value` rows, header included)
  /// — the raw material for the paper-style profiling plots
  /// ("metadata profiling is often useful for ... experimental performance
  /// evaluations", §1).
  void ExportCsv(std::ostream& out) const;

 private:
  /// Reads one sample at the given time; an empty result records nothing.
  using Sampler = std::function<std::optional<double>(Timestamp)>;

  struct Watched {
    /// Keeps the sampled item included; empty for a series read from the
    /// manager or a peer link.
    MetadataSubscription subscription;
    Sampler sample;
  };

  /// Adds `series_name` unless it is already watched.
  Status Insert(std::string series_name, MetadataSubscription subscription,
                Sampler sample);

  MetadataManager& manager_;
  TaskScheduler& scheduler_;
  /// Held while dropping subscriptions (Unwatch -> UnsubscribeExternal ->
  /// structure lock), so it ranks before the metadata structure lock.
  mutable Mutex mu_{"MetadataMonitor::mu", lockorder::kRankMonitor};
  std::map<std::string, Watched> watched_ PIPES_GUARDED_BY(mu_);
  std::map<std::string, TimeSeries> series_ PIPES_GUARDED_BY(mu_);
  // Written only by Start/Stop from the owning thread (monitor.cc); the
  // handle's shared state is itself thread-safe.
  TaskHandle sampling_task_;  // pipes-analyze: unguarded(Start/Stop serialization)
};

}  // namespace pipes
