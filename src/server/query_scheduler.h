// Concurrent multi-query serving on top of QueryExecutor.
//
// The paper's stated ongoing work is sharing data paths *across* queries;
// `graph_merge` implements the graph splice, and this layer makes it a
// serving system: clients submit operator graphs asynchronously and get a
// future; a bounded admission queue applies backpressure; worker threads
// batch compatible in-flight queries through `MergeGraphs` so one scan of a
// shared relation feeds every query in the batch (cross-query kernel
// fusion); a `FusionPlanCache` keyed by canonical graph shape lets repeated
// query templates skip the fusion planner entirely; and an admission
// controller arbitrates the simulated device's 6 GB memory across
// concurrent batches.
//
// One serving path for N >= 1 devices: a scheduler built on a single
// DeviceSimulator serves it as a device group of one.
//
// Device-time accounting: each simulated device is a shared resource with
// its own virtual clock. A batch starts once its devices are free and no
// earlier than its latest member's submit, and moves their clocks to its
// completion; every query records its simulated submit/complete times
// against those clocks. Batching helps because a merged batch's makespan is
// far less than the sum of its members' solo makespans (shared scans
// amortize PCIe transfers); wall-clock concurrency additionally overlaps the
// host-side functional execution.
//
// Determinism: with `worker_count = 1` and paused start (submit everything,
// then Start()), batching, plan-cache hits, and all simulated times are
// fully deterministic — that is how bench_server_throughput produces its
// CI-gated numbers. With multiple workers, batching depends on arrival
// interleaving; results stay correct, only the grouping varies.
#ifndef KF_SERVER_QUERY_SCHEDULER_H_
#define KF_SERVER_QUERY_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/multi_device.h"
#include "core/query_executor.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "server/plan_cache.h"
#include "sim/device_group.h"
#include "sim/device_simulator.h"

namespace kf::server {

// One query submission: a graph, its bound source tables, and executor
// options. `merge_class` opts the query into cross-query batching: queries
// with the same non-empty class and identical executor options may be merged
// into one execution, and the caller guarantees that same-named sources
// across the class are bound to identical tables (the scheduler verifies
// schemas and row counts, not contents). An empty class never merges.
struct QueryRequest {
  core::OpGraph graph;
  std::map<core::NodeId, relational::Table> sources;
  core::ExecutorOptions options;
  std::string merge_class;

  // Allow this query to be sharded across every healthy device of the
  // group (when its graph is shardable — see
  // core::MultiDeviceExecutor::Shardable). Off, the query runs whole on the
  // least-loaded device. Part of batch compatibility.
  bool allow_sharding = false;
};

// What a client's future resolves to.
struct QueryResult {
  // This query's sink outputs, keyed by ITS OWN graph's node ids (results of
  // merged batches are split and remapped back before delivery).
  std::map<core::NodeId, relational::Table> results;

  // The executing run's report (shared by every query of a merged batch;
  // sink_results are stripped — use `results`).
  core::ExecutionReport report;

  std::size_t batch_size = 1;   // queries co-executed in the same run
  bool merged = false;          // batch_size > 1
  bool plan_cache_hit = false;  // the run skipped PlanFusion

  // Fault-recovery outcomes (see docs/resilience.md). Results are
  // byte-identical in every case; these report how the run got there.
  bool degraded = false;          // a cluster reran on the host engine
  bool ran_on_host = false;       // breaker host route or capacity fallback
  std::size_t device_retries = 0; // whole-query re-runs after kf::DeviceFault

  // Where the run landed (group device index; a single-device scheduler
  // reports device 0). For sharded runs `device` is the first shard's device.
  int device = 0;
  int devices_used = 1;
  bool sharded = false;

  // Virtual-device-clock times (seconds of simulated device time).
  double sim_submit = 0.0;
  double sim_complete = 0.0;
  double sim_latency() const { return sim_complete - sim_submit; }

  // Host wall-clock observability.
  double queue_wait_seconds = 0.0;  // submit -> batch pickup
  double wall_latency_seconds = 0.0;  // submit -> future fulfilled

  // Tracer query id assigned at submission (0 when no tracer is configured).
  // Look the query's span tree up via Tracer::FlightRecorder()/Snapshot().
  std::uint64_t trace_query_id = 0;
};

struct SchedulerOptions {
  // Worker threads picking and executing batches. One worker serializes
  // batch execution (deterministic); more overlap host-side work.
  std::size_t worker_count = 2;

  // Bounded admission queue: Submit blocks (backpressure) and TrySubmit
  // rejects when `max_queue_depth` queries are waiting.
  std::size_t max_queue_depth = 64;

  // Maximum queries merged into one execution.
  std::size_t max_batch = 8;

  std::size_t plan_cache_capacity = 128;

  // When true, workers do not pick up work until Start() — lets callers
  // enqueue a whole workload first for deterministic batching.
  bool start_paused = false;

  // Fraction of device memory the admission controller hands out to
  // concurrently executing batches (estimated by source + sink footprint).
  // A batch larger than the whole allowance still runs — alone.
  double admission_memory_fraction = 1.0;

  // Registry for scheduler metrics (`server.*`); nullptr = process default.
  obs::MetricsRegistry* metrics = nullptr;

  // End-to-end tracer. When set, every submitted query gets a span tree
  // (root + queue-wait at Submit, one execution-attempt span per whole-query
  // retry, the executor's plan/cluster/segment/command subtree underneath,
  // and breaker/quarantine/cache/batch annotations), finished into the
  // tracer's flight recorder when the future is fulfilled. Requests that
  // attach their own `ExecutorOptions::tracer` keep it — the scheduler only
  // wires the executor when the request left tracing unset. The tracer must
  // outlive the scheduler.
  obs::Tracer* tracer = nullptr;

  // Thread pool for intra-query functional execution (fused pipelines);
  // nullptr = none (single-threaded cluster execution).
  ThreadPool* execution_pool = nullptr;

  core::OperatorCostModel cost_model;

  // Fault injector applied to every execution whose request did not attach
  // its own (per-query `ExecutorOptions::fault_injector` wins). nullptr
  // disables scheduler-level fault handling.
  const sim::FaultInjector* fault_injector = nullptr;

  // Whole-query re-runs after a batch fails with kf::DeviceFault (e.g. an
  // injected reservation fault) before the error reaches the futures.
  std::size_t query_retry_limit = 2;

  // Circuit breaker (each device's `faults` DeviceHealth gate): after
  // `breaker_threshold` consecutive degraded or DeviceFault batches on a
  // device its breaker opens and new batches drain to its siblings, or run
  // host-side (force_host) when none is left. A threshold of 0 disables it.
  std::size_t breaker_threshold = 4;

  // Integrity verification applied to every execution whose request left
  // integrity fully off (per-query `ExecutorOptions::integrity` wins).
  core::IntegrityOptions integrity;

  // Device quarantine (each device's `corruption` DeviceHealth gate): a batch
  // with detected corruption adds 1 to its device's score, a clean one halves
  // it; at `quarantine_threshold` (0 disables) new batches drain to the
  // device's siblings, or the host when none are left. Armed only with two or
  // more devices: a lone device has no sibling to drain to.
  std::size_t quarantine_threshold = 3;

  // While a device's breaker or quarantine is open, every
  // `probe_interval`-th placement pass sends it one probe batch; a clean
  // probe closes that gate. 0 = never probe.
  std::size_t probe_interval = 4;

  // Shutdown(): fail still-queued queries with kf::Cancelled instead of
  // draining them (in-flight batches always complete).
  bool cancel_pending_on_shutdown = false;

  // Per-device fault injectors, indexed by group device index (nullptr
  // entries fall back to `fault_injector`; a single-device scheduler is
  // device 0).
  std::vector<const sim::FaultInjector*> device_injectors;

  // How sharded queries split rows across devices.
  core::ShardSplit shard_split = core::ShardSplit::kStatic;

  // --- Adaptive calibration (core/calibration.h). ------------------------
  // Scheduler-level calibrator applied to every execution whose request did
  // not attach its own (per-query `ExecutorOptions::calibration` wins).
  // Plan-cache entries are keyed by the calibration epoch of every
  // configured calibrator, so a plan cached before the model drifted is
  // invalidated — re-planned, never reused stale. The calibrator must
  // outlive the scheduler; nullptr keeps serving fully static.
  core::CostModelCalibrator* calibration = nullptr;

  // Per-device calibrators, indexed by group device index
  // (nullptr entries fall back to `calibration`). Each device learns its own
  // corrections — a degraded device's placement shifts without polluting its
  // healthy siblings' models.
  std::vector<core::CostModelCalibrator*> device_calibrations;
};

class QueryScheduler {
 public:
  // Serves one device: a copy of `device` as a device group of one.
  explicit QueryScheduler(const sim::DeviceSimulator& device,
                          SchedulerOptions options = SchedulerOptions());

  // Serves across `group`, which must outlive the scheduler.
  explicit QueryScheduler(const sim::DeviceGroup& group,
                          SchedulerOptions options = SchedulerOptions());

  // Drains outstanding work and joins the workers; queued queries still
  // complete. Futures never dangle.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Enqueues a query. Blocks while the queue is full (backpressure); throws
  // kf::Cancelled after Shutdown().
  std::future<QueryResult> Submit(QueryRequest request);

  // Non-blocking admission: returns nullopt (and counts a rejection) when
  // the queue is full.
  std::optional<std::future<QueryResult>> TrySubmit(QueryRequest request);

  // Releases paused workers (no-op when not started paused).
  void Start();

  // Blocks until the queue is empty and no batch is executing.
  void Drain();

  // Stops accepting new queries, drains, and joins workers (idempotent;
  // also run by the destructor).
  void Shutdown();

  // Simulated time consumed so far: the latest completion on any device's
  // virtual clock.
  double sim_clock() const;

  std::size_t queue_depth() const;
  const FusionPlanCache& plan_cache() const { return plan_cache_; }

  // Per-device health by group device index (false / 0 out of range).
  bool breaker_open(int device) const;
  bool quarantined(int device) const;
  std::size_t corruption_score(int device) const;

 private:
  struct Job {
    QueryRequest request;
    std::promise<QueryResult> promise;
    double sim_submit = 0.0;
    double queue_wait = 0.0;
    std::chrono::steady_clock::time_point wall_submit;
    // Tracing state (only used when SchedulerOptions::tracer is set).
    obs::TraceContext trace;
    obs::SpanId root_span = 0;   // "query" span, open submit -> fulfilled
    obs::SpanId queue_span = 0;  // "queue wait" span, open submit -> pickup
  };
  using JobPtr = std::unique_ptr<Job>;

  // One device-health gate. Bad batches raise its score and a clean batch
  // relieves it (kReset: back to 0; kHalve: halved). At `threshold` the gate
  // opens and placement drains the device, except that every
  // `probe_interval`-th placement pass while open admits one probe batch; a
  // clean batch while open closes the gate and zeroes the score. A threshold
  // of 0 never opens; a probe interval of 0 never probes. Guarded by mutex_.
  class DeviceHealth {
   public:
    enum class Relief : std::uint8_t { kReset, kHalve };
    enum class Admission : std::uint8_t { kHealthy, kProbe, kDrain };

    DeviceHealth(std::size_t threshold, std::size_t probe_interval, Relief relief)
        : threshold_(threshold), probe_interval_(probe_interval), relief_(relief) {}

    // One placement pass over the device (advances an open gate's cadence).
    Admission Admit();

    // Feed one batch outcome; each returns true when it flipped the gate.
    bool RecordBad();
    bool RecordClean();

    bool open() const { return open_; }
    std::size_t score() const { return score_; }

   private:
    std::size_t threshold_;
    std::size_t probe_interval_;
    Relief relief_;
    std::size_t score_ = 0;
    bool open_ = false;
    std::size_t passes_ = 0;  // placement passes while open (probe cadence)
  };

  // The two DeviceHealth gates every device carries.
  enum class Gate : std::uint8_t { kFaults, kCorruption };

  // Where one execution attempt runs.
  struct Placement {
    std::vector<int> devices;  // shard order; the accounting device on host routes
    bool host_route = false;   // no device admitted the batch: run host-side
    double start = 0.0;        // predicted start on the virtual clocks
  };

  QueryScheduler(std::unique_ptr<const sim::DeviceGroup> owned_group,
                 const sim::DeviceGroup* group, SchedulerOptions options);

  void WorkerLoop();
  // Assigns a tracer query id and opens the root + queue-wait spans for a
  // freshly admitted job (no-op when no tracer is configured).
  void BeginJobTrace(Job& job);
  // True when `candidate` can join a batch led by `leader`.
  static bool Compatible(const QueryRequest& leader, const QueryRequest& candidate);
  // Executes `batch` as one (possibly merged) run and fulfills its promises.
  // `arena` is the executing worker's private buffer pool — repeated queries
  // on one worker reuse warm staged-kernel workspaces without locking against
  // other workers.
  void ExecuteBatch(std::vector<JobPtr> batch, kf::BufferArena* arena);
  // Estimated device footprint of a batch (sources + sinks, deduplicated
  // shared sources by name).
  static std::uint64_t EstimateBytes(const std::vector<JobPtr>& batch);

  // Chooses the devices for one attempt of `batch`: every gate's probe
  // cadence advances, then the least-loaded admitted device (every admitted
  // device when `shard`), or a host route when none is admitted.
  Placement Place(const std::vector<JobPtr>& batch, bool shard);
  // Feeds one batch outcome on `device` into its `gate`; records the
  // transition's metrics and returns true when the gate flipped.
  bool RecordHealth(Gate gate, int device, bool bad);

  obs::MetricsRegistry& metrics() const {
    return options_.metrics != nullptr ? *options_.metrics
                                       : obs::MetricsRegistry::Default();
  }

  std::unique_ptr<const sim::DeviceGroup> owned_group_;  // single-device use
  const sim::DeviceGroup& group_;
  SchedulerOptions options_;
  core::MultiDeviceExecutor executor_;
  FusionPlanCache plan_cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;   // workers wait for jobs/Start
  std::condition_variable space_available_;  // submitters wait for room
  std::condition_variable admission_;        // batches wait for device memory
  std::condition_variable idle_;             // Drain waits here
  std::deque<JobPtr> queue_;
  bool started_ = true;
  bool stopping_ = false;
  std::size_t executing_ = 0;          // batches currently running
  std::uint64_t inflight_bytes_ = 0;   // admission-controller ledger
  double sim_clock_ = 0.0;

  // Per-device virtual clock and health gates (guarded by mutex_; one per
  // group device).
  struct DeviceState {
    double clock = 0.0;       // simulated busy-until time
    DeviceHealth faults;      // degraded / DeviceFault batches (the breaker)
    DeviceHealth corruption;  // batches with detected corruption (quarantine)
    DeviceHealth& health(Gate g) { return g == Gate::kFaults ? faults : corruption; }
  };
  std::vector<DeviceState> device_states_;

  std::vector<std::thread> workers_;
};

}  // namespace kf::server

#endif  // KF_SERVER_QUERY_SCHEDULER_H_
