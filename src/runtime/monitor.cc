#include "runtime/monitor.h"

#include <ostream>

namespace pipes {

namespace {

/// "<provider label>.<key><suffix>" unless the caller named the series.
std::string ItemSeries(std::string series_name,
                       const MetadataProvider& provider,
                       const MetadataKey& key, const char* suffix) {
  if (!series_name.empty()) return series_name;
  return provider.label() + "." + key + suffix;
}

}  // namespace

MetadataMonitor::MetadataMonitor(MetadataManager& manager,
                                 TaskScheduler& scheduler)
    : manager_(manager), scheduler_(scheduler) {}

MetadataMonitor::~MetadataMonitor() { StopSampling(); }

// The item samplers hold the handler by raw pointer: the subscription stored
// beside each sampler keeps it alive for as long as the sampler exists.

Status MetadataMonitor::Watch(MetadataProvider& provider,
                              const MetadataKey& key,
                              std::string series_name) {
  Result<MetadataSubscription> sub = manager_.Subscribe(provider, key);
  if (!sub.ok()) return sub.status();
  MetadataHandler* h = sub.value().handler().get();
  return Insert(ItemSeries(std::move(series_name), provider, key, ""),
                std::move(sub.value()),
                [h](Timestamp) -> std::optional<double> {
                  MetadataValue v = h->Get();
                  if (v.is_null()) return std::nullopt;
                  return v.AsDouble();
                });
}

Status MetadataMonitor::WatchHealth(MetadataProvider& provider,
                                    const MetadataKey& key,
                                    std::string series_name) {
  Result<MetadataSubscription> sub = manager_.Subscribe(provider, key);
  if (!sub.ok()) return sub.status();
  MetadataHandler* h = sub.value().handler().get();
  return Insert(ItemSeries(std::move(series_name), provider, key, ":health"),
                std::move(sub.value()), [h](Timestamp) {
                  return static_cast<double>(h->health());
                });
}

Status MetadataMonitor::WatchStaleness(MetadataProvider& provider,
                                       const MetadataKey& key,
                                       std::string series_name) {
  Result<MetadataSubscription> sub = manager_.Subscribe(provider, key);
  if (!sub.ok()) return sub.status();
  MetadataHandler* h = sub.value().handler().get();
  return Insert(
      ItemSeries(std::move(series_name), provider, key, ":staleness"),
      std::move(sub.value()),
      [h](Timestamp now) { return ToSeconds(h->staleness(now)); });
}

Status MetadataMonitor::WatchPressure(std::string series_name) {
  if (series_name.empty()) series_name = "metadata:pressure";
  return Insert(std::move(series_name), MetadataSubscription(),
                [this](Timestamp) {
                  return static_cast<double>(manager_.pressure_state());
                });
}

Status MetadataMonitor::WatchPeerHealth(RemoteMetadataProvider& remote,
                                        std::string series_name) {
  if (series_name.empty()) series_name = remote.remote_label() + ":peer_health";
  return Insert(std::move(series_name), MetadataSubscription(),
                [&remote](Timestamp) {
                  return static_cast<double>(remote.health());
                });
}

Status MetadataMonitor::WatchPeerLag(RemoteMetadataProvider& remote,
                                     std::string series_name) {
  if (series_name.empty()) series_name = remote.remote_label() + ":peer_lag";
  return Insert(std::move(series_name), MetadataSubscription(),
                [&remote](Timestamp now) { return ToSeconds(remote.lag(now)); });
}

Status MetadataMonitor::Insert(std::string series_name,
                               MetadataSubscription subscription,
                               Sampler sample) {
  MutexLock lock(mu_);
  if (watched_.count(series_name) > 0) {
    return Status::AlreadyExists("series already watched: " + series_name);
  }
  series_[series_name];  // ensure the series exists
  watched_.emplace(std::move(series_name),
                   Watched{std::move(subscription), std::move(sample)});
  return Status::OK();
}

Status MetadataMonitor::Unwatch(const std::string& series_name) {
  MutexLock lock(mu_);
  if (watched_.erase(series_name) == 0) {
    return Status::NotFound("series not watched: " + series_name);
  }
  return Status::OK();
}

void MetadataMonitor::StartSampling(Duration interval) {
  StopSampling();
  sampling_task_ =
      scheduler_.SchedulePeriodic(interval, [this] { SampleOnce(); });
}

void MetadataMonitor::StopSampling() { sampling_task_.Cancel(); }

void MetadataMonitor::SampleOnce() {
  Timestamp now = scheduler_.clock().Now();
  MutexLock lock(mu_);
  for (auto& [name, watched] : watched_) {
    if (std::optional<double> v = watched.sample(now)) {
      series_[name].Record(now, *v);
    }
  }
}

const TimeSeries& MetadataMonitor::series(const std::string& name) const {
  static const TimeSeries kEmpty;
  MutexLock lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second;
}

std::vector<std::string> MetadataMonitor::series_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

void MetadataMonitor::ExportCsv(std::ostream& out) const {
  MutexLock lock(mu_);
  out << "time_s,series,value\n";
  for (const auto& [name, series] : series_) {
    for (const auto& [t, v] : series.points()) {
      out << ToSeconds(t) << "," << name << "," << v << "\n";
    }
  }
}

double MetadataMonitor::LastValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end() || it->second.empty()) return 0.0;
  return it->second.points().back().second;
}

}  // namespace pipes
