/// MetadataMonitor: watch/unwatch, periodic sampling, series recording.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/loopback.h"
#include "runtime/monitor.h"
#include "stream/engine.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace pipes {
namespace {

struct MonitorFixture {
  StreamEngine engine;
  std::shared_ptr<SyntheticSource> src;
  MetadataMonitor monitor{engine.metadata(), engine.scheduler()};

  MonitorFixture() {
    src = engine.graph().AddNode<SyntheticSource>(
        "src", PairSchema(), std::make_unique<ConstantArrivals>(Millis(10)),
        MakeUniformPairGenerator(10));
  }
};

TEST(MonitorTest, WatchSubscribesAndSamples) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate).ok());
  EXPECT_TRUE(fx.src->metadata_registry().IsIncluded(keys::kOutputRate));
  fx.src->Start();
  fx.monitor.StartSampling(Seconds(1));
  fx.engine.RunFor(Seconds(5));
  const TimeSeries& series = fx.monitor.series("src.output_rate");
  EXPECT_EQ(series.size(), 5u);
  EXPECT_NEAR(fx.monitor.LastValue("src.output_rate"), 100.0, 1.0);
}

TEST(MonitorTest, CustomSeriesName) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate, "rate").ok());
  fx.src->Start();
  fx.engine.RunFor(Seconds(2));
  fx.monitor.SampleOnce();
  EXPECT_EQ(fx.monitor.series("rate").size(), 1u);
  auto names = fx.monitor.series_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "rate");
}

TEST(MonitorTest, DuplicateWatchFails) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate, "r").ok());
  EXPECT_EQ(fx.monitor.Watch(*fx.src, keys::kOutputRate, "r").code(),
            StatusCode::kAlreadyExists);
}

TEST(MonitorTest, WatchUnknownItemFails) {
  MonitorFixture fx;
  EXPECT_EQ(fx.monitor.Watch(*fx.src, "bogus").code(), StatusCode::kNotFound);
}

TEST(MonitorTest, UnwatchDropsSubscriptionKeepsHistory) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate, "r").ok());
  fx.src->Start();
  fx.engine.RunFor(Seconds(2));
  fx.monitor.SampleOnce();
  ASSERT_TRUE(fx.monitor.Unwatch("r").ok());
  EXPECT_FALSE(fx.src->metadata_registry().IsIncluded(keys::kOutputRate));
  EXPECT_EQ(fx.monitor.series("r").size(), 1u);
  EXPECT_EQ(fx.monitor.Unwatch("r").code(), StatusCode::kNotFound);
}

TEST(MonitorTest, NullValuesAreNotRecorded) {
  MonitorFixture fx;
  // avg_output_rate is null until the first measured window.
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kAvgOutputRate, "avg").ok());
  fx.monitor.SampleOnce();
  EXPECT_EQ(fx.monitor.series("avg").size(), 0u);
}

TEST(MonitorTest, CsvExportContainsAllSeries) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate, "rate").ok());
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kElementCount, "count").ok());
  fx.src->Start();
  fx.engine.RunFor(Seconds(2));
  fx.monitor.SampleOnce();
  std::ostringstream os;
  fx.monitor.ExportCsv(os);
  std::string csv = os.str();
  EXPECT_NE(csv.find("time_s,series,value"), std::string::npos);
  EXPECT_NE(csv.find(",rate,"), std::string::npos);
  EXPECT_NE(csv.find(",count,"), std::string::npos);
  EXPECT_NE(csv.find("2,count,200"), std::string::npos);
}

TEST(MonitorTest, EveryWatchRecordsItsSeries) {
  // One series from each Watch*: an item's value, health and staleness, the
  // governor's pressure state, and a peer link's health and lag. Nobody
  // serves the peer's end of the link, so no ack ever arrives: after 1.5 s
  // the breaker is open and the lag is the whole run.
  MonitorFixture fx;
  net::LoopbackLink link(fx.engine.scheduler());
  RemoteMetadataProvider peer("remote", fx.engine.metadata(), link.b());
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate).ok());
  ASSERT_TRUE(fx.monitor.WatchHealth(*fx.src, keys::kOutputRate).ok());
  ASSERT_TRUE(fx.monitor.WatchStaleness(*fx.src, keys::kOutputRate).ok());
  ASSERT_TRUE(fx.monitor.WatchPressure().ok());
  ASSERT_TRUE(fx.monitor.WatchPeerHealth(peer).ok());
  ASSERT_TRUE(fx.monitor.WatchPeerLag(peer).ok());
  fx.src->Start();
  fx.engine.RunFor(Millis(1500));
  fx.monitor.SampleOnce();

  for (const char* name :
       {"src.output_rate", "src.output_rate:health",
        "src.output_rate:staleness", "metadata:pressure", "remote:peer_health",
        "remote:peer_lag"}) {
    EXPECT_EQ(fx.monitor.series(name).size(), 1u) << name;
  }
  EXPECT_NEAR(fx.monitor.LastValue("src.output_rate"), 100.0, 1.0);
  EXPECT_EQ(fx.monitor.LastValue("src.output_rate:health"), 0.0);
  // The rate's window closed at 1 s.
  EXPECT_NEAR(fx.monitor.LastValue("src.output_rate:staleness"), 0.5, 1e-6);
  EXPECT_EQ(fx.monitor.LastValue("metadata:pressure"), 0.0);
  EXPECT_EQ(fx.monitor.LastValue("remote:peer_health"), 2.0);
  EXPECT_NEAR(fx.monitor.LastValue("remote:peer_lag"), 1.5, 1e-6);

  // `peer` is destroyed before the monitor, so its series go first.
  ASSERT_TRUE(fx.monitor.Unwatch("remote:peer_health").ok());
  ASSERT_TRUE(fx.monitor.Unwatch("remote:peer_lag").ok());
}

TEST(MonitorTest, StopSamplingHalts) {
  MonitorFixture fx;
  ASSERT_TRUE(fx.monitor.Watch(*fx.src, keys::kOutputRate, "r").ok());
  fx.src->Start();
  fx.monitor.StartSampling(Seconds(1));
  fx.engine.RunFor(Seconds(3));
  fx.monitor.StopSampling();
  size_t at_stop = fx.monitor.series("r").size();
  fx.engine.RunFor(Seconds(3));
  EXPECT_EQ(fx.monitor.series("r").size(), at_stop);
}

}  // namespace
}  // namespace pipes
