// QueryScheduler across a DeviceGroup: least-loaded placement, sharded
// serving, per-device circuit breakers (a permanently broken device drains
// to the healthy ones), per-device virtual-clock accounting, and the
// single-device scheduler as a group of one.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "core/multi_device.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "relational/csv.h"
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

// A shardable SELECT chain over one source (see MultiDeviceExecutor docs).
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

QueryRequest MakeRequest(const core::RandomQuery& q, bool allow_sharding = false) {
  QueryRequest request;
  request.graph = q.graph;
  request.sources = q.sources;
  request.allow_sharding = allow_sharding;
  return request;
}

TEST(SchedulerGroupTest, LeastLoadedPlacementSpreadsAcrossDevices) {
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;  // deterministic batch order
  options.start_paused = true;
  options.metrics = &registry;
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeChainQuery(100 + static_cast<std::uint64_t>(i), 400));
    futures.push_back(scheduler.Submit(MakeRequest(queries.back())));
  }
  scheduler.Start();

  std::vector<int> devices;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    EXPECT_FALSE(result.sharded);
    EXPECT_EQ(result.devices_used, 1);
    EXPECT_GE(result.sim_latency(), 0.0);
    devices.push_back(result.device);
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)));
    }
  }
  // Equal-cost queries on an idle group alternate between the two devices.
  EXPECT_EQ(std::count(devices.begin(), devices.end(), 0), 2);
  EXPECT_EQ(std::count(devices.begin(), devices.end(), 1), 2);
  EXPECT_GE(registry.GetCounter("server.device.batches", {{"device", "dev0"}})
                .value(),
            1u);
  EXPECT_GE(registry.GetCounter("server.device.batches", {{"device", "dev1"}})
                .value(),
            1u);
}

TEST(SchedulerGroupTest, ShardingOptInServesAcrossTheGroup) {
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  QueryScheduler scheduler(group, options);

  const core::RandomQuery q = MakeChainQuery(7, 1200);
  auto sharded_future = scheduler.Submit(MakeRequest(q, /*allow_sharding=*/true));
  auto whole_future = scheduler.Submit(MakeRequest(q, /*allow_sharding=*/false));
  scheduler.Start();

  const std::map<NodeId, Table> truth = core::ReferenceResults(q);
  QueryResult sharded = sharded_future.get();
  EXPECT_TRUE(sharded.sharded);
  EXPECT_EQ(sharded.devices_used, 4);
  QueryResult whole = whole_future.get();
  EXPECT_FALSE(whole.sharded);
  EXPECT_EQ(whole.devices_used, 1);
  for (NodeId sink : q.graph.Sinks()) {
    EXPECT_TRUE(core::ByteIdentical(sharded.results.at(sink), truth.at(sink)));
    EXPECT_TRUE(core::ByteIdentical(whole.results.at(sink), truth.at(sink)));
  }
  EXPECT_GE(registry.GetCounter("server.device.sharded_batches").value(), 1u);
  EXPECT_GT(scheduler.sim_clock(), 0.0);
}

TEST(SchedulerGroupTest, BrokenDeviceDrainsToHealthySiblings) {
  // Device 0 faults on nearly every command; its first degraded batch trips
  // the breaker (threshold 1), and with probing disabled it stays open, so
  // the remaining work drains to device 1. (A degraded batch also inflates
  // dev0's virtual clock — host rerun time — so least-loaded placement
  // naturally avoids it even before the breaker reacts.) Every query still
  // completes byte-identically.
  sim::FaultConfig config;
  config.seed = 99;
  config.copy_fault_rate = 0.95;
  config.kernel_fault_rate = 0.95;
  const sim::FaultInjector faulty(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {&faulty, nullptr};
  options.breaker_threshold = 1;
  options.probe_interval = 0;  // never probe: dev0's breaker stays open
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(MakeChainQuery(500 + static_cast<std::uint64_t>(i), 300));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  int on_broken = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    if (result.device == 0) ++on_broken;
    EXPECT_GE(result.sim_latency(), 0.0);
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "query " << i << " on device " << result.device;
    }
  }
  EXPECT_TRUE(scheduler.breaker_open(0));
  EXPECT_FALSE(scheduler.breaker_open(1));
  // The breaker needed one strike, then dev0 got no more work.
  EXPECT_LE(on_broken, 2);
  EXPECT_GE(registry
                .GetCounter("server.device.breaker_opened", {{"device", "dev0"}})
                .value(),
            1u);
}

TEST(SchedulerGroupTest, AllBreakersOpenRoutesHostSide) {
  sim::FaultConfig config;
  config.seed = 5;
  config.copy_fault_rate = 0.95;
  config.kernel_fault_rate = 0.95;
  const sim::FaultInjector faulty(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {&faulty, &faulty};
  options.breaker_threshold = 1;
  options.probe_interval = 0;
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(MakeChainQuery(900 + static_cast<std::uint64_t>(i), 200));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  bool saw_host_run = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    saw_host_run = saw_host_run || result.ran_on_host;
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)));
    }
  }
  EXPECT_TRUE(scheduler.breaker_open(0));
  EXPECT_TRUE(scheduler.breaker_open(1));
  EXPECT_TRUE(saw_host_run);
}

// What one run of the faulty workload below let a client and an operator
// observe, for comparing two schedulers.
struct WorkloadOutcome {
  std::vector<std::string> answers;  // per query: sink CSVs, or the error code
  std::vector<double> sim_submit;
  std::vector<double> sim_complete;
  double sim_clock = 0.0;
  bool breaker_open = false;
  bool quarantined = false;
  std::map<std::string, double> resilience;  // every resilience.* counter
  std::uint64_t device_breaker_probes = 0;
  std::uint64_t corrupt_batches = 0;
};

// A seeded single-worker workload under a tracer. Alternating blocks of four
// queries see loud faults (transient copy/kernel faults and reservation OOMs
// that throw kf::DeviceFault) or silent H2D corruption caught by checksummed
// transfers. Served by `target` (a device or a device group).
template <typename Target>
WorkloadOutcome RunFaultyWorkload(const Target& target) {
  sim::FaultConfig loud_config;
  loud_config.seed = 41;
  loud_config.copy_fault_rate = 0.2;
  loud_config.kernel_fault_rate = 0.2;
  loud_config.oom_rate = 0.3;
  const sim::FaultInjector loud(loud_config);
  sim::FaultConfig silent_config;
  silent_config.seed = 43;
  silent_config.corrupt_h2d_rate = 0.3;
  const sim::FaultInjector silent(silent_config);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.fault_injector = &loud;
  options.integrity.verify_transfers = true;
  options.breaker_threshold = 2;
  QueryScheduler scheduler(target, options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 32; ++i) {
    QueryRequest request =
        MakeRequest(MakeChainQuery(300 + static_cast<std::uint64_t>(i), 400));
    if ((i / 4) % 2 == 1) request.options.fault_injector = &silent;
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  scheduler.Start();

  WorkloadOutcome outcome;
  for (auto& future : futures) {
    try {
      const QueryResult result = future.get();
      std::string csv;
      for (const auto& [sink, table] : result.results) csv += relational::ToCsv(table);
      outcome.answers.push_back(csv);
      outcome.sim_submit.push_back(result.sim_submit);
      outcome.sim_complete.push_back(result.sim_complete);
    } catch (const Error& e) {
      outcome.answers.push_back(std::string("error: ") + ToString(e.code()));
    }
  }
  scheduler.Drain();
  outcome.sim_clock = scheduler.sim_clock();
  outcome.breaker_open = scheduler.breaker_open(0);
  outcome.quarantined = scheduler.quarantined(0);
  const obs::Json metrics = registry.ToJson();
  for (const auto& [key, value] : metrics.at("counters").object()) {
    if (key.rfind("resilience.", 0) == 0) outcome.resilience[key] = value.number();
  }
  outcome.device_breaker_probes =
      registry.CounterValue("server.device.breaker_probes{device=dev0}");
  outcome.corrupt_batches =
      registry.CounterValue("server.device.corrupt_batches{device=dev0}");
  return outcome;
}

TEST(SchedulerGroupTest, SingleDeviceServesExactlyAsAGroupOfOne) {
  sim::DeviceSimulator device;
  WorkloadOutcome solo = RunFaultyWorkload(device);
  const sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(1);
  const WorkloadOutcome grouped = RunFaultyWorkload(group);

  EXPECT_EQ(solo.answers, grouped.answers);
  EXPECT_EQ(solo.sim_submit, grouped.sim_submit);
  EXPECT_EQ(solo.sim_complete, grouped.sim_complete);
  EXPECT_EQ(solo.sim_clock, grouped.sim_clock);
  EXPECT_EQ(solo.breaker_open, grouped.breaker_open);
  EXPECT_EQ(solo.quarantined, grouped.quarantined);
  EXPECT_EQ(solo.resilience, grouped.resilience);
  EXPECT_EQ(solo.corrupt_batches, grouped.corrupt_batches);
  // The workload exercised what it claims: retries, a breaker, its probes —
  // counted in the aggregate and per device alike — and corrupt batches that
  // never quarantine the only device.
  EXPECT_GT(solo.resilience["resilience.query_retries"], 0.0);
  EXPECT_GT(solo.resilience["resilience.breaker_opened"], 0.0);
  EXPECT_GT(solo.resilience["resilience.breaker_probes"], 0.0);
  EXPECT_EQ(solo.resilience["resilience.breaker_probes"],
            static_cast<double>(solo.device_breaker_probes));
  EXPECT_GE(solo.corrupt_batches, 3u);  // the default quarantine threshold
  EXPECT_FALSE(grouped.quarantined);
}

TEST(SchedulerGroupTest, BreakerAndQuarantineProbeCadencesAdvanceTogether) {
  // Device 1 both fails every kernel (each batch degrades) and corrupts its
  // transfers (caught by checksums), so its first batch opens its breaker
  // and its quarantine at once. Every later placement pass advances both
  // gates' probe cadences — also while the other gate drains the device —
  // so both gates come due on the same passes and every probe is counted
  // in the aggregate and per-device counters alike.
  sim::FaultConfig config;
  config.seed = 17;
  config.kernel_fault_rate = 1.0;
  config.corrupt_h2d_rate = 1.0;
  const sim::FaultInjector broken(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {nullptr, &broken};
  options.integrity.verify_transfers = true;
  options.breaker_threshold = 1;
  options.quarantine_threshold = 1;
  options.probe_interval = 2;
  QueryScheduler scheduler(group, options);

  // Batch 1 lands on dev0 (ties go to the first device), batch 2 on the
  // then less-loaded dev1, which opens both gates; batches 3..10 make 8
  // placement passes while they are open, 4 of them probe passes.
  constexpr int kBatches = 10;
  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < kBatches; ++i) {
    queries.push_back(MakeChainQuery(600 + static_cast<std::uint64_t>(i), 300));
    futures.push_back(scheduler.Submit(MakeRequest(queries.back())));
  }
  scheduler.Start();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult result = futures[i].get();
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "query " << i << " on device " << result.device;
    }
  }

  EXPECT_TRUE(scheduler.breaker_open(1));
  EXPECT_TRUE(scheduler.quarantined(1));
  EXPECT_FALSE(scheduler.breaker_open(0));
  EXPECT_FALSE(scheduler.quarantined(0));
  const obs::Labels dev1 = {{"device", "dev1"}};
  EXPECT_EQ(registry.GetCounter("server.device.breaker_probes", dev1).value(), 4u);
  EXPECT_EQ(registry.GetCounter("server.device.quarantine_probes", dev1).value(), 4u);
  EXPECT_EQ(registry.GetCounter("resilience.breaker_probes").value(), 4u);
  EXPECT_EQ(registry.GetCounter("integrity.quarantine_probes").value(), 4u);
  EXPECT_EQ(registry.CounterValue("server.device.breaker_probes{device=dev0}"), 0u);
}

}  // namespace
}  // namespace kf::server
