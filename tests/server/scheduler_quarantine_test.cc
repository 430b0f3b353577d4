// Device quarantine: a device that keeps returning corrupted bytes (caught
// by the integrity layer's checksums/audits, healed by re-execution) builds
// up a corruption score and gets quarantined — new batches drain to its
// siblings — while periodic probes keep testing it for re-admission.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <vector>

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::server {
namespace {

using core::NodeId;
using relational::Expr;
using relational::OperatorDesc;
using relational::Table;

core::RandomQuery MakeChainQuery(std::uint64_t seed, std::size_t rows) {
  kf::Rng rng(seed);
  core::RandomQuery q;
  const Table fact = core::RandomKV(rng, rows);
  const NodeId src = q.graph.AddSource("fact", fact.schema(), rows);
  q.sources.emplace(src, fact);
  NodeId node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Le(Expr::FieldRef(1), Expr::Lit(30))), src);
  q.graph.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(-30))), node);
  return q;
}

QueryRequest MakeRequest(const core::RandomQuery& q) {
  QueryRequest request;
  request.graph = q.graph;
  request.sources = q.sources;
  return request;
}

core::IntegrityOptions FullVerification() {
  core::IntegrityOptions integrity;
  integrity.verify_transfers = true;
  integrity.audit_fraction = 1.0;
  return integrity;
}

TEST(SchedulerQuarantineTest, CorruptingDeviceIsQuarantinedAndDrains) {
  // Device 1 silently corrupts half its commands; the scheduler-level
  // integrity policy catches every flip and re-execution heals it, so
  // results stay correct — but its first corrupt batch quarantines it
  // (threshold 1; healing also inflates its virtual clock, so least-loaded
  // placement avoids it even before the quarantine reacts) and the
  // remaining work drains to device 0.
  sim::FaultConfig config;
  config.seed = 77;
  config.corrupt_h2d_rate = 0.5;
  config.corrupt_d2h_rate = 0.5;
  config.corrupt_kernel_rate = 0.5;
  const sim::FaultInjector corrupter(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {nullptr, &corrupter};
  options.integrity = FullVerification();
  options.breaker_threshold = 0;       // isolate the quarantine machinery
  options.quarantine_threshold = 1;
  options.probe_interval = 0;  // never probe: dev1 stays out
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(MakeChainQuery(800 + static_cast<std::uint64_t>(i), 300));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  int on_corrupter = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    if (result.device == 1) ++on_corrupter;
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      ASSERT_EQ(result.results.count(sink), 1u) << "query " << i;
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "query " << i << " on device " << result.device;
    }
    EXPECT_EQ(result.report.corruption_undetected, 0u) << "query " << i;
  }
  EXPECT_TRUE(scheduler.quarantined(1));
  EXPECT_FALSE(scheduler.quarantined(0));
  EXPECT_FALSE(scheduler.breaker_open(1));  // corruption, not loud faults
  // One strike, then dev1 got no more work.
  EXPECT_LE(on_corrupter, 2);
  EXPECT_GE(registry
                .GetCounter("server.device.corrupt_batches", {{"device", "dev1"}})
                .value(),
            1u);
  EXPECT_GE(registry
                .GetCounter("server.device.quarantined", {{"device", "dev1"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("server.device.corrupt_batches", {{"device", "dev0"}})
                .value(),
            0u);
}

TEST(SchedulerQuarantineTest, ProbesKeepTestingAQuarantinedDevice) {
  // With probing enabled, every probe_interval-th batch tries the
  // quarantined device again. This corrupter never goes clean, so it stays
  // quarantined — but the probes are visible and results stay correct.
  sim::FaultConfig config;
  config.seed = 13;
  config.corrupt_kernel_rate = 1.0;
  const sim::FaultInjector corrupter(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {nullptr, &corrupter};
  options.integrity = FullVerification();
  options.breaker_threshold = 0;
  options.quarantine_threshold = 1;
  options.probe_interval = 2;
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(MakeChainQuery(900 + static_cast<std::uint64_t>(i), 300));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "query " << i << " on device " << result.device;
    }
  }
  EXPECT_TRUE(scheduler.quarantined(1));
  EXPECT_GE(registry
                .GetCounter("server.device.quarantine_probes",
                            {{"device", "dev1"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("server.device.unquarantined", {{"device", "dev1"}})
                .value(),
            0u);
}

TEST(SchedulerQuarantineTest, CleanProbeReadmitsTheDevice) {
  // Corruption at a moderate rate: the first corrupt batches quarantine
  // device 1; sooner or later a probe batch draws no flips, comes back
  // clean, and re-admits it (score reset to zero). Batches are submitted
  // one at a time so each one's placement sees the latest state.
  sim::FaultConfig config;
  config.seed = 5;
  config.corrupt_h2d_rate = 0.25;
  const sim::FaultInjector corrupter(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.device_injectors = {nullptr, &corrupter};
  options.integrity = FullVerification();
  options.breaker_threshold = 0;
  options.quarantine_threshold = 1;
  options.probe_interval = 1;  // probe on every batch
  QueryScheduler scheduler(group, options);

  bool was_quarantined = false;
  bool readmitted = false;
  for (int i = 0; i < 80 && !readmitted; ++i) {
    core::RandomQuery q =
        MakeChainQuery(700 + static_cast<std::uint64_t>(i), 200);
    QueryRequest request = MakeRequest(q);
    request.options.chunk_count = 2;  // few commands: clean draws do happen
    request.options.fission_segments = 2;
    auto future = scheduler.Submit(std::move(request));
    (void)future.get();
    scheduler.Drain();
    if (scheduler.quarantined(1)) was_quarantined = true;
    if (was_quarantined && !scheduler.quarantined(1)) readmitted = true;
  }
  EXPECT_TRUE(was_quarantined);
  EXPECT_TRUE(readmitted);
  EXPECT_EQ(scheduler.corruption_score(1), 0u);  // reset on re-admission
  EXPECT_GE(registry
                .GetCounter("server.device.unquarantined", {{"device", "dev1"}})
                .value(),
            1u);
}

}  // namespace
}  // namespace kf::server
