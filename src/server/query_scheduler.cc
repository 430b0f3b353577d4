#include "server/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "core/graph_merge.h"

namespace kf::server {

namespace {

using core::NodeId;
using relational::Table;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Everything about ExecutorOptions that must match for two queries to share
// one execution. The fusion knobs go through EffectiveFusionOptions so two
// option structs that plan identically compare equal.
std::string ExecOptionsKey(const core::ExecutorOptions& options) {
  std::ostringstream os;
  os << static_cast<int>(options.strategy) << '|'
     << static_cast<int>(options.intermediates) << '|'
     << static_cast<int>(options.host_memory) << '|' << options.fission_segments
     << '|' << options.stream_count << '|' << options.chunk_count << '|'
     << options.device_memory_budget << '|'
     << static_cast<const void*>(options.fault_injector) << '|'
     << options.force_host << '|' << options.resilience.max_retries << '|'
     << options.resilience.backoff_base << '|'
     << options.resilience.backoff_factor << '|'
     << options.resilience.degrade_to_host << '|'
     << options.resilience.deadline << '|'
     << static_cast<const void*>(options.calibration) << '|'
     << options.integrity.verify_transfers << '|'
     << options.integrity.audit_fraction << '|'
     << options.integrity.audit_seed << '|'
     << options.integrity.max_reexecutions << '|'
     << FusionOptionsKey(core::EffectiveFusionOptions(options));
  return os.str();
}

// Per-device metric labels ({device=devN}, by group device index).
obs::Labels DeviceLabels(int device) {
  return {{"device", "dev" + std::to_string(device)}};
}

// What a DeviceHealth gate records: aggregate and per-device counters for
// its transitions and probes, and the trace annotations of its transitions.
struct GateRecord {
  const char* name;
  const char* opened;
  const char* closed;
  const char* probes;
  const char* device_opened;
  const char* device_closed;
  const char* device_probes;
  obs::SpanAnnotationKind open_kind;
  obs::SpanAnnotationKind close_kind;
};

// Indexed by QueryScheduler::Gate (kFaults, kCorruption).
constexpr GateRecord kGateRecords[] = {
    {"circuit breaker", "resilience.breaker_opened", "resilience.breaker_closed",
     "resilience.breaker_probes", "server.device.breaker_opened",
     "server.device.breaker_closed", "server.device.breaker_probes",
     obs::SpanAnnotationKind::kBreakerOpen, obs::SpanAnnotationKind::kBreakerClose},
    {"quarantine", "integrity.quarantine_opened", "integrity.quarantine_closed",
     "integrity.quarantine_probes", "server.device.quarantined",
     "server.device.unquarantined", "server.device.quarantine_probes",
     obs::SpanAnnotationKind::kQuarantine, obs::SpanAnnotationKind::kUnquarantine},
};

}  // namespace

QueryScheduler::QueryScheduler(const sim::DeviceSimulator& device,
                               SchedulerOptions options)
    : QueryScheduler(std::make_unique<const sim::DeviceGroup>(device), nullptr,
                     std::move(options)) {}

QueryScheduler::QueryScheduler(const sim::DeviceGroup& group,
                               SchedulerOptions options)
    : QueryScheduler(nullptr, &group, std::move(options)) {}

QueryScheduler::QueryScheduler(std::unique_ptr<const sim::DeviceGroup> owned_group,
                               const sim::DeviceGroup* group, SchedulerOptions options)
    : owned_group_(std::move(owned_group)),
      group_(group != nullptr ? *group : *owned_group_),
      options_(std::move(options)),
      executor_(group_, options_.cost_model, options_.execution_pool),
      plan_cache_(options_.plan_cache_capacity, options_.metrics),
      started_(!options_.start_paused) {
  if (options_.worker_count == 0) options_.worker_count = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  // Quarantine drains a corrupter to its siblings; with none it could only
  // reroute to the host, so a single device is never quarantined.
  const std::size_t quarantine_threshold =
      group_.device_count() >= 2 ? options_.quarantine_threshold : 0;
  const DeviceHealth faults(options_.breaker_threshold, options_.probe_interval,
                            DeviceHealth::Relief::kReset);
  const DeviceHealth corruption(quarantine_threshold, options_.probe_interval,
                                DeviceHealth::Relief::kHalve);
  for (int d = 0; d < group_.device_count(); ++d) {
    device_states_.push_back({0.0, faults, corruption});
  }
  workers_.reserve(options_.worker_count);
  for (std::size_t i = 0; i < options_.worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::BeginJobTrace(Job& job) {
  if (options_.tracer == nullptr) return;
  job.trace.query_id = options_.tracer->NextQueryId();
  job.root_span =
      options_.tracer->BeginSpan(job.trace, 0, "query", "scheduler", job.sim_submit);
  job.queue_span = options_.tracer->BeginSpan(job.trace, job.root_span,
                                              "queue wait", "scheduler",
                                              job.sim_submit);
}

std::future<QueryResult> QueryScheduler::Submit(QueryRequest request) {
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  std::future<QueryResult> future = job->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_available_.wait(lock, [&] {
      return stopping_ || queue_.size() < options_.max_queue_depth;
    });
    KF_REQUIRE_AS(::kf::Cancelled, !stopping_) << "QueryScheduler is shut down";
    job->sim_submit = sim_clock_;
    job->wall_submit = std::chrono::steady_clock::now();
    BeginJobTrace(*job);
    queue_.push_back(std::move(job));
    metrics().GetCounter("server.submitted").Increment();
    metrics().GetGauge("server.queue_depth").Set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
  return future;
}

std::optional<std::future<QueryResult>> QueryScheduler::TrySubmit(
    QueryRequest request) {
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  std::future<QueryResult> future = job->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= options_.max_queue_depth) {
      metrics().GetCounter("server.rejected").Increment();
      return std::nullopt;
    }
    job->sim_submit = sim_clock_;
    job->wall_submit = std::chrono::steady_clock::now();
    BeginJobTrace(*job);
    queue_.push_back(std::move(job));
    metrics().GetCounter("server.submitted").Increment();
    metrics().GetGauge("server.queue_depth").Set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
  return future;
}

void QueryScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
  }
  work_available_.notify_all();
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && executing_ == 0; });
}

void QueryScheduler::Shutdown() {
  std::deque<JobPtr> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    started_ = true;  // a paused scheduler still drains its queue
    // Cancel-on-shutdown: queued (unstarted) queries fail typed instead of
    // draining; batches already executing always complete.
    if (options_.cancel_pending_on_shutdown) cancelled.swap(queue_);
  }
  for (JobPtr& job : cancelled) {
    metrics().GetCounter("server.cancelled").Increment();
    if (options_.tracer != nullptr && job->root_span != 0) {
      job->trace.sim_offset = 0.0;
      options_.tracer->Annotate(job->trace, job->root_span,
                                obs::SpanAnnotationKind::kFailure,
                                "cancelled by scheduler shutdown",
                                job->sim_submit);
      options_.tracer->EndSpan(job->trace, job->queue_span, job->sim_submit);
      options_.tracer->EndSpan(job->trace, job->root_span, job->sim_submit);
      options_.tracer->FinishQuery(job->trace, true, "cancelled");
    }
    job->promise.set_exception(std::make_exception_ptr(
        ::kf::Cancelled("query cancelled by scheduler shutdown")));
  }
  work_available_.notify_all();
  space_available_.notify_all();
  admission_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

double QueryScheduler::sim_clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sim_clock_;
}

std::size_t QueryScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool QueryScheduler::breaker_open(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(device_states_.size())) return false;
  return device_states_[static_cast<std::size_t>(device)].faults.open();
}

bool QueryScheduler::quarantined(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(device_states_.size())) return false;
  return device_states_[static_cast<std::size_t>(device)].corruption.open();
}

std::size_t QueryScheduler::corruption_score(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(device_states_.size())) return 0;
  return device_states_[static_cast<std::size_t>(device)].corruption.score();
}

QueryScheduler::DeviceHealth::Admission QueryScheduler::DeviceHealth::Admit() {
  if (!open_) return Admission::kHealthy;
  ++passes_;
  const bool probe = probe_interval_ > 0 && passes_ % probe_interval_ == 0;
  return probe ? Admission::kProbe : Admission::kDrain;
}

bool QueryScheduler::DeviceHealth::RecordBad() {
  ++score_;
  if (open_ || threshold_ == 0 || score_ < threshold_) return false;
  open_ = true;
  passes_ = 0;
  return true;
}

bool QueryScheduler::DeviceHealth::RecordClean() {
  score_ = relief_ == Relief::kHalve ? score_ / 2 : 0;
  if (!open_) return false;
  // A clean batch while open is a probe (nothing else lands here): the
  // device is healthy again.
  open_ = false;
  score_ = 0;
  return true;
}

bool QueryScheduler::RecordHealth(Gate gate, int device, bool bad) {
  bool flipped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DeviceHealth& health =
        device_states_.at(static_cast<std::size_t>(device)).health(gate);
    flipped = bad ? health.RecordBad() : health.RecordClean();
  }
  if (flipped) {
    const GateRecord& record = kGateRecords[static_cast<std::size_t>(gate)];
    const char* aggregate = bad ? record.opened : record.closed;
    const char* per_device = bad ? record.device_opened : record.device_closed;
    metrics().GetCounter(aggregate).Increment();
    metrics().GetCounter(per_device, DeviceLabels(device)).Increment();
  }
  return flipped;
}

QueryScheduler::Placement QueryScheduler::Place(const std::vector<JobPtr>& batch,
                                                bool shard) {
  // The predicted start on the virtual clocks: no earlier than any member's
  // submit nor any placed device's busy-until time. Exact with one worker;
  // an estimate when workers race.
  Placement placement;
  for (const JobPtr& job : batch) {
    placement.start = std::max(placement.start, job->sim_submit);
  }
  std::vector<std::pair<Gate, int>> probes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto busy = [&](int d) { return device_states_[static_cast<std::size_t>(d)].clock; };
    std::vector<int> admitted;
    int least_loaded = 0;
    for (int d = 0; d < static_cast<int>(device_states_.size()); ++d) {
      if (busy(d) < busy(least_loaded)) least_loaded = d;
      // Both gates' probe cadences advance on every pass, also while the
      // other gate keeps the device drained.
      bool usable = true;
      for (Gate gate : {Gate::kFaults, Gate::kCorruption}) {
        const DeviceHealth::Admission admission =
            device_states_[static_cast<std::size_t>(d)].health(gate).Admit();
        if (admission == DeviceHealth::Admission::kProbe) probes.emplace_back(gate, d);
        usable = usable && admission != DeviceHealth::Admission::kDrain;
      }
      if (usable) admitted.push_back(d);
    }
    if (admitted.empty()) {
      placement.host_route = true;
      placement.devices.push_back(least_loaded);
    } else if (shard && admitted.size() > 1) {
      placement.devices = std::move(admitted);
    } else {
      int best = admitted.front();
      for (int d : admitted) {
        if (busy(d) < busy(best)) best = d;
      }
      placement.devices.push_back(best);
    }
    for (int d : placement.devices) {
      placement.start = std::max(placement.start, busy(d));
    }
  }
  for (const auto& [gate, d] : probes) {
    const GateRecord& record = kGateRecords[static_cast<std::size_t>(gate)];
    metrics().GetCounter(record.probes).Increment();
    metrics().GetCounter(record.device_probes, DeviceLabels(d)).Increment();
  }
  if (placement.host_route) {
    metrics().GetCounter("resilience.breaker_rerouted").Increment();
  }
  return placement;
}

bool QueryScheduler::Compatible(const QueryRequest& leader,
                                const QueryRequest& candidate) {
  if (leader.merge_class.empty() || leader.merge_class != candidate.merge_class) {
    return false;
  }
  if (leader.allow_sharding != candidate.allow_sharding) return false;
  if (leader.options.metrics != candidate.options.metrics) return false;
  if (ExecOptionsKey(leader.options) != ExecOptionsKey(candidate.options)) {
    return false;
  }
  // Same-named sources must agree on schema (MergeGraphs would throw) and on
  // row count (a cheap proxy for "same table"; identical contents are the
  // merge_class contract).
  for (NodeId lsrc : leader.graph.Sources()) {
    const core::OpNode& lnode = leader.graph.node(lsrc);
    for (NodeId csrc : candidate.graph.Sources()) {
      const core::OpNode& cnode = candidate.graph.node(csrc);
      if (lnode.name != cnode.name) continue;
      if (lnode.schema.ToString() != cnode.schema.ToString()) return false;
      auto lt = leader.sources.find(lsrc);
      auto ct = candidate.sources.find(csrc);
      if (lt != leader.sources.end() && ct != candidate.sources.end() &&
          lt->second.row_count() != ct->second.row_count()) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t QueryScheduler::EstimateBytes(const std::vector<JobPtr>& batch) {
  // Distinct sources by name (merged batches share same-named sources) plus
  // nothing for sinks — realized output sizes are unknown at admission time.
  std::map<std::string, std::uint64_t> by_name;
  for (const JobPtr& job : batch) {
    for (const auto& [id, table] : job->request.sources) {
      by_name[job->request.graph.node(id).name] =
          std::max(by_name[job->request.graph.node(id).name], table.byte_size());
    }
  }
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : by_name) total += bytes;
  return total;
}

void QueryScheduler::WorkerLoop() {
  // Worker-private buffer pool: staged-kernel workspaces stay warm across
  // every batch this worker executes, with no cross-worker contention.
  kf::BufferArena arena;
  for (;;) {
    std::vector<JobPtr> batch;
    std::uint64_t batch_bytes = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [&] { return (started_ && !queue_.empty()) || stopping_; });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        if (Compatible(batch.front()->request, (*it)->request)) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      metrics().GetGauge("server.queue_depth").Set(static_cast<double>(queue_.size()));

      // Admission control: concurrent batches share the device's memory; a
      // batch whose estimated footprint does not fit waits until enough
      // in-flight work retires (an oversized batch runs when nothing else
      // is executing, so progress is guaranteed).
      batch_bytes = EstimateBytes(batch);
      std::uint64_t capacity = 0;  // batches share the fleet's memory
      for (int d = 0; d < group_.device_count(); ++d) {
        capacity += group_.device(d).spec().mem_capacity_bytes;
      }
      const auto allowance = static_cast<std::uint64_t>(
          static_cast<double>(capacity) * options_.admission_memory_fraction);
      admission_.wait(lock, [&] {
        return executing_ == 0 || inflight_bytes_ + batch_bytes <= allowance;
      });
      inflight_bytes_ += batch_bytes;
      ++executing_;
      metrics().GetGauge("server.inflight_bytes")
          .Set(static_cast<double>(inflight_bytes_));
    }
    space_available_.notify_all();

    ExecuteBatch(std::move(batch), &arena);

    bool now_idle = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_bytes_ -= batch_bytes;
      --executing_;
      metrics().GetGauge("server.inflight_bytes")
          .Set(static_cast<double>(inflight_bytes_));
      now_idle = queue_.empty() && executing_ == 0;
    }
    admission_.notify_all();
    if (now_idle) idle_.notify_all();
  }
}

void QueryScheduler::ExecuteBatch(std::vector<JobPtr> batch,
                                  kf::BufferArena* arena) {
  const auto pickup = std::chrono::steady_clock::now();
  for (const JobPtr& job : batch) {
    const double wait =
        std::chrono::duration<double>(pickup - job->wall_submit).count();
    job->queue_wait = wait;
    metrics().GetHistogram("server.queue_wait_seconds").Record(wait);
  }

  obs::Tracer* const tracer = options_.tracer;
  const double pickup_sim = sim_clock();
  if (tracer != nullptr) {
    for (const JobPtr& job : batch) {
      if (job->queue_span != 0) {
        tracer->EndSpan(job->trace, job->queue_span, pickup_sim);
        job->queue_span = 0;  // merge-fallback solo reruns must not re-end it
      }
    }
  }
  Job& leader = *batch.front();
  // The scheduler only wires executor tracing when the request left
  // ExecutorOptions::tracer unset (per-query settings always win).
  const bool sched_trace = tracer != nullptr && leader.root_span != 0 &&
                           leader.request.options.tracer == nullptr;
  obs::SpanId attempt_span = 0;
  double attempt_start = pickup_sim;

  const bool merged = batch.size() > 1;
  try {
    // Splice the batch into one graph, remembering each query's node
    // mapping so results can be routed back.
    core::OpGraph merged_graph;
    std::map<NodeId, Table> merged_sources;
    std::vector<std::map<NodeId, NodeId>> mappings(batch.size());
    const core::OpGraph* exec_graph = &batch.front()->request.graph;
    const std::map<NodeId, Table>* exec_sources = &batch.front()->request.sources;
    if (merged) {
      merged_graph = batch.front()->request.graph;
      for (NodeId id = 0; id < merged_graph.node_count(); ++id) {
        mappings[0][id] = id;
      }
      for (std::size_t i = 1; i < batch.size(); ++i) {
        core::MergeResult step =
            core::MergeGraphs(merged_graph, batch[i]->request.graph);
        for (std::size_t j = 0; j < i; ++j) {
          for (auto& [orig, mapped] : mappings[j]) {
            mapped = step.first_mapping.at(mapped);
          }
        }
        mappings[i] = std::move(step.second_mapping);
        merged_graph = std::move(step.graph);
      }
      for (std::size_t j = 0; j < batch.size(); ++j) {
        for (const auto& [id, table] : batch[j]->request.sources) {
          merged_sources.emplace(mappings[j].at(id), table);
        }
      }
      exec_graph = &merged_graph;
      exec_sources = &merged_sources;
      metrics().GetCounter("server.merged_queries").Increment(batch.size());
    }

    core::ExecutorOptions options = batch.front()->request.options;
    if (options.metrics == nullptr) options.metrics = &metrics();
    if (options.arena == nullptr) options.arena = arena;
    if (options.fault_injector == nullptr) {
      options.fault_injector = options_.fault_injector;
    }
    if (options.calibration == nullptr) {
      options.calibration = options_.calibration;
    }
    if (!options.integrity.Enabled()) {
      // A request that configured nothing inherits the scheduler's
      // fleet-wide verification policy (per-query settings always win).
      options.integrity = options_.integrity;
    }
    // Cached plans are versioned by the calibration epoch of every calibrator
    // this run could consult (scheduler-level + per-device). A plan cached
    // before the cost model drifted simply misses — it is re-planned against
    // the current corrections, never reused stale.
    std::uint64_t plan_version = 0;
    if (options.calibration != nullptr) {
      plan_version += options.calibration->epoch();
    }
    for (core::CostModelCalibrator* calib : options_.device_calibrations) {
      if (calib != nullptr && calib != options.calibration) {
        plan_version += calib->epoch();
      }
    }
    bool cache_hit = false;
    const core::FusionPlan plan = plan_cache_.GetOrPlan(
        *exec_graph, core::EffectiveFusionOptions(options), &cache_hit,
        plan_version);
    options.plan = &plan;

    // Health transitions this batch triggers annotate the leading query's
    // root span.
    auto feed = [&](Gate gate, int device, bool bad) {
      if (!RecordHealth(gate, device, bad) || !sched_trace) return;
      const GateRecord& record = kGateRecords[static_cast<std::size_t>(gate)];
      const std::string note = std::string(record.name) + (bad ? " opened" : " closed");
      const auto kind = bad ? record.open_kind : record.close_kind;
      tracer->Annotate(leader.trace, leader.root_span, kind,
                       note + " on device " + std::to_string(device), attempt_start);
    };

    // Whole-query retry: a device fault thrown before the executor could
    // recover internally (e.g. an injected reservation failure) re-runs the
    // batch up to query_retry_limit times. Placement runs inside the loop,
    // so a retried batch can land on a different (healthy) device than the
    // one that faulted.
    const bool shard = leader.request.allow_sharding &&
                       core::MultiDeviceExecutor::Shardable(*exec_graph);
    core::MultiDeviceReport group_report;
    Placement placement;
    std::size_t device_retries = 0;
    for (;;) {
      attempt_start = pickup_sim;
      if (sched_trace) {
        leader.trace.attempt = static_cast<int>(device_retries);
        attempt_span = tracer->BeginSpan(leader.trace, leader.root_span,
                                         "execute attempt", "worker",
                                         attempt_start);
        tracer->Annotate(leader.trace, attempt_span,
                         cache_hit ? obs::SpanAnnotationKind::kCacheHit
                                   : obs::SpanAnnotationKind::kCacheMiss,
                         cache_hit ? "fusion plan cache hit"
                                   : "fusion plan cache miss",
                         attempt_start);
        if (merged) {
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kBatchMerge,
                           "leads merged batch of " +
                               std::to_string(batch.size()) + " queries",
                           attempt_start);
        }
      }
      try {
        placement = Place(batch, shard);
        if (sched_trace) {
          attempt_start = placement.start;
          std::ostringstream os;
          os << (placement.host_route ? "host route, accounted on device"
                                      : "placed on device");
          for (int d : placement.devices) os << ' ' << d;
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kPlacement, os.str(),
                           attempt_start);
          options.tracer = tracer;
          options.trace = leader.trace;
          options.trace.sim_offset = attempt_start;
          options.trace_parent = attempt_span;
        }

        core::MultiDeviceOptions group_options;
        group_options.base = options;
        group_options.base.force_host = options.force_host || placement.host_route;
        group_options.split = options_.shard_split;
        group_options.per_device_injectors = options_.device_injectors;
        group_options.per_device_calibrations = options_.device_calibrations;
        group_options.devices = placement.devices;
        group_report = executor_.Execute(*exec_graph, *exec_sources, group_options);
        break;
      } catch (const ::kf::Error& e) {
        if (e.code() != ::kf::ErrorCode::kDeviceFault) throw;
        if (sched_trace && attempt_span != 0) {
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kFault, e.what(),
                           attempt_start);
          tracer->EndSpan(leader.trace, attempt_span, attempt_start);
          attempt_span = 0;
        }
        for (int d : placement.devices) feed(Gate::kFaults, d, /*bad=*/true);
        if (device_retries >= options_.query_retry_limit) throw;
        ++device_retries;
        metrics().GetCounter("resilience.query_retries").Increment();
        if (sched_trace) {
          tracer->Annotate(
              leader.trace, leader.root_span,
              obs::SpanAnnotationKind::kReExecution,
              "whole-query retry " + std::to_string(device_retries) +
                  " after device fault",
              attempt_start);
        }
      }
    }
    core::ExecutionReport report = std::move(group_report.combined);

    if (!placement.host_route && !options.force_host &&
        !group_report.host_fallback) {
      // Per-shard health feed: a degraded shard (the executor gave up and
      // reran clusters on the host) is a fault on its device, a clean one
      // closes its breaker; a shard whose checks caught wrong bytes raises
      // its device's corruption score, a clean one decays it.
      for (const core::ShardReport& shard_run : group_report.shards) {
        const std::size_t detected = shard_run.report.corruption_detected;
        if (detected > 0) {
          const obs::Labels labels = DeviceLabels(shard_run.device);
          metrics().GetCounter("server.device.corrupt_batches", labels).Increment();
          metrics()
              .GetCounter("integrity.corruption_detected", labels)
              .Increment(detected);
        }
        feed(Gate::kFaults, shard_run.device, shard_run.report.degraded);
        feed(Gate::kCorruption, shard_run.device, detected > 0);
      }
    }

    // The batch starts when every involved device is free and no earlier
    // than its latest member's submit time; all involved device clocks
    // advance to the shared completion time.
    double complete = 0.0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      double start = 0.0;
      for (const JobPtr& job : batch) start = std::max(start, job->sim_submit);
      for (int d : placement.devices) {
        start = std::max(start, device_states_[static_cast<std::size_t>(d)].clock);
      }
      complete = start + report.makespan;
      for (int d : placement.devices) {
        device_states_[static_cast<std::size_t>(d)].clock = complete;
      }
      sim_clock_ = std::max(sim_clock_, complete);
    }
    for (int d : placement.devices) {
      metrics().GetCounter("server.device.batches", DeviceLabels(d)).Increment();
      metrics().GetGauge("server.device.sim_seconds", DeviceLabels(d)).Set(complete);
    }
    if (group_report.sharded) {
      metrics().GetCounter("server.device.sharded_batches").Increment();
    }
    metrics().GetCounter("server.batches").Increment();
    metrics().GetHistogram("server.batch_size")
        .Record(static_cast<double>(batch.size()));
    metrics().GetHistogram("server.batch_makespan_seconds").Record(report.makespan);

    // Now that the batch's position on the virtual clock is known, pin the
    // attempt span to the executed interval (the executor's subtree was
    // recorded against `sim_offset`, i.e. the predicted start).
    if (sched_trace && attempt_span != 0) {
      tracer->SetSpanInterval(leader.trace, attempt_span,
                              complete - report.makespan, complete);
      attempt_span = 0;
    }

    // The sink tables leave the shared report: each query takes its own
    // sinks (moved for a solo batch; merged queries may share a sink).
    std::map<NodeId, Table> sink_results = std::move(report.sink_results);
    report.sink_results.clear();
    for (std::size_t j = 0; j < batch.size(); ++j) {
      JobPtr& job = batch[j];
      QueryResult result;
      result.report = report;
      result.batch_size = batch.size();
      result.merged = merged;
      result.plan_cache_hit = cache_hit;
      result.degraded = report.degraded;
      result.ran_on_host = report.ran_on_host;
      result.device_retries = device_retries;
      result.device = !group_report.shards.empty()
                          ? group_report.shards.front().device
                          : placement.devices.front();
      result.devices_used = group_report.devices_used;
      result.sharded = group_report.sharded;
      result.sim_submit = job->sim_submit;
      result.sim_complete = complete;
      result.queue_wait_seconds = job->queue_wait;
      for (NodeId sink : job->request.graph.Sinks()) {
        const NodeId mapped = merged ? mappings[j].at(sink) : sink;
        auto it = sink_results.find(mapped);
        if (it != sink_results.end()) {
          result.results.emplace(sink, merged ? it->second : std::move(it->second));
        } else if (job->request.graph.node(sink).is_source) {
          // A bare source "query" — in a merged graph another query's
          // operators may consume it, so it is no longer a merged sink.
          result.results.emplace(sink, job->request.sources.at(sink));
        }
      }
      result.wall_latency_seconds = SecondsSince(job->wall_submit);
      result.trace_query_id = job->trace.query_id;
      metrics().GetHistogram("server.query_latency_seconds")
          .Record(result.wall_latency_seconds);
      metrics().GetHistogram("server.sim_latency_seconds")
          .Record(result.sim_latency());
      metrics().GetCounter("server.completed").Increment();
      if (tracer != nullptr && job->root_span != 0) {
        if (merged && j > 0) {
          tracer->Annotate(
              job->trace, job->root_span, obs::SpanAnnotationKind::kBatchMerge,
              "co-executed in batch of " + std::to_string(batch.size()) +
                  " led by query " + std::to_string(leader.trace.query_id),
              complete);
        }
        tracer->EndSpan(job->trace, job->root_span, complete);
        tracer->FinishQuery(job->trace, false, "");
        job->root_span = 0;
      }
      job->promise.set_value(std::move(result));
    }
  } catch (...) {
    if (sched_trace && attempt_span != 0) {
      tracer->EndSpan(leader.trace, attempt_span, attempt_start);
      attempt_span = 0;
    }
    if (!merged) {
      // Label the failure with its stable error code so dashboards can tell
      // device faults from timeouts from caller mistakes.
      const char* code = "unknown";
      try {
        throw;
      } catch (const ::kf::Error& e) {
        code = ::kf::ToString(e.code());
      } catch (...) {
      }
      metrics().GetCounter("server.failed", {{"code", code}}).Increment();
      if (tracer != nullptr && leader.root_span != 0) {
        leader.trace.sim_offset = 0.0;
        tracer->Annotate(leader.trace, leader.root_span,
                         obs::SpanAnnotationKind::kFailure, code, pickup_sim);
        tracer->EndSpan(leader.trace, leader.root_span, pickup_sim);
        // A failed query's full span tree is dumped by the flight recorder
        // (when KF_TRACE_DIR / TracerOptions::trace_dir is configured).
        tracer->FinishQuery(leader.trace, true, code);
        leader.root_span = 0;
      }
      batch.front()->promise.set_exception(std::current_exception());
      return;
    }
    // A merged execution failed (e.g. one query's sources were unbound):
    // fall back to solo runs so one bad query cannot poison the batch.
    metrics().GetCounter("server.merge_fallbacks").Increment();
    for (JobPtr& job : batch) {
      if (tracer != nullptr && job->root_span != 0) {
        tracer->Annotate(job->trace, job->root_span,
                         obs::SpanAnnotationKind::kSoloRetry,
                         "merged batch failed; re-running solo", pickup_sim);
      }
      std::vector<JobPtr> solo;
      solo.push_back(std::move(job));
      ExecuteBatch(std::move(solo), arena);
    }
  }
}

}  // namespace kf::server
