// Host wall-clock benchmark of the fusion/fission query stack.
//
// One process runs one workload against the public entry points
// (core::QueryExecutor::Execute, server::QueryScheduler::Submit,
// tpch::Build*Plan), checks every query result against a scalar reference,
// and prints its metrics as the last line of standard output:
//
//   kf_perfbench --workload tpch_mix|serve_merged|serve_guarded
//                --seed <n> --seconds <s> --trace 0|1 [--span-file <path>]
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates untraced
// units with traced ones; a traced unit records the benchmark's own spans
// around each query and then, outside the timed query, replays that query
// one public call at a time (PlanFusion, ExecuteCluster / ApplyOperator,
// EstimateOnly, ChecksumTable, MergeGraphs) to attribute its wall time to
// layers. perfbench/README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/dependence.h"
#include "core/fused_pipeline.h"
#include "core/fusion_planner.h"
#include "core/graph_merge.h"
#include "core/integrity.h"
#include "core/multi_device.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "relational/reference.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "span_log.h"
#include "tpch/q1.h"
#include "tpch/q21.h"
#include "tpch/q6.h"

namespace kf::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using core::NodeId;
using core::Strategy;
using relational::Table;
using Sources = std::map<NodeId, Table>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSerial: return "serial";
    case Strategy::kFused: return "fused";
    case Strategy::kFission: return "fission";
    case Strategy::kFusedFission: return "fused_fission";
  }
  return "unknown";
}

const char* OpKindName(relational::OpKind kind) {
  using relational::OpKind;
  switch (kind) {
    case OpKind::kSelect: return "select";
    case OpKind::kProject: return "project";
    case OpKind::kJoin: return "join";
    case OpKind::kAggregate: return "aggregate";
    case OpKind::kArith: return "arith";
    case OpKind::kSort: return "sort";
    default: return "other";
  }
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ValueOr0(const std::map<std::string, double>& values, const std::string& key) {
  auto it = values.find(key);
  return it != values.end() ? it->second : 0.0;
}

// What the timed units of one run accumulate.
struct Tally {
  std::vector<double> latencies;  // seconds, one per query
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       // threw, or differs from the reference
  double timed_seconds = 0.0;     // wall time inside timed regions
  std::vector<double> unit_sim_per_query;  // simulated seconds, one per unit
  std::vector<double> unit_seconds;        // timed wall seconds, one per unit

  void Record(double latency, bool correct) {
    latencies.push_back(latency);
    ++attempted;
    if (!correct) ++failed;
  }
};

// Spans and layer counters of the traced units. Counters are sums over
// traced queries; values shared by a merged batch are added once per batch.
struct Trace {
  SpanLog log;
  std::map<std::string, double> sums;
  std::uint64_t queries = 0;
  std::uint64_t next_query = 1;

  void Add(const std::string& name, double value) { sums[name] += value; }
};

// Adds the simulated-layer and recovery counters of one executed run.
void AddReportCounters(Trace& trace, const core::ExecutionReport& report,
                       double share) {
  auto add = [&](const char* name, double value) { trace.Add(name, share * value); };
  add("sim.kernel_launches", static_cast<double>(report.kernel_launches));
  add("sim.h2d_bytes", static_cast<double>(report.h2d_bytes));
  add("sim.d2h_bytes", static_cast<double>(report.d2h_bytes));
  add("sim.commands", static_cast<double>(report.timeline.commands.size()));
  add("integrity.detected", static_cast<double>(report.corruption_detected));
  add("integrity.reexecutions", static_cast<double>(report.corruption_reexecutions));
  add("integrity.audited_clusters", static_cast<double>(report.audited_clusters));
  add("resilience.faults", static_cast<double>(report.fault_count));
  add("resilience.retry_attempts", static_cast<double>(report.retry_attempts));
  add("resilience.degraded_clusters", static_cast<double>(report.degraded_clusters));
}

// Replays one executed graph outside the timed query, one public call per
// span, under `parent`: PlanFusion (core.planner), the functional pass the
// executor runs for this strategy — ExecuteCluster for fused clusters,
// ApplyOperator per operator otherwise (core.functional / relational) —
// EstimateOnly with the realized row counts and the replayed plan
// (core.executor), and ChecksumTable over every sink (core.integrity).
// `cluster_prefix` names the clusters in span details ("q1_fused.c0", ...).
void Replay(const core::QueryExecutor& executor, const core::OpGraph& graph,
            const Sources& sources, core::ExecutorOptions options, Trace& trace,
            std::uint64_t query, std::uint32_t parent,
            const std::string& cluster_prefix, double expected_makespan) {
  SpanLog& log = trace.log;
  options.tracer = nullptr;
  options.fault_injector = nullptr;
  options.plan = nullptr;

  core::FusionPlan plan;
  {
    ScopedSpan span(&log, query, parent, "core.planner");
    plan = core::PlanFusion(graph, core::EffectiveFusionOptions(options));
  }

  const bool fuse = options.strategy == Strategy::kFused ||
                    options.strategy == Strategy::kFusedFission;
  Sources computed;
  std::map<NodeId, std::uint64_t> rows;
  auto lookup = [&](NodeId id) -> const Table& {
    auto it = sources.find(id);
    return it != sources.end() ? it->second : computed.at(id);
  };
  for (const auto& [id, table] : sources) rows[id] = table.row_count();
  for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
    const core::FusionCluster& cluster = plan.clusters[c];
    ScopedSpan cluster_span(&log, query, parent, "core.functional",
                            cluster_prefix + ".c" + std::to_string(c));
    const bool barrier =
        cluster.nodes.size() == 1 &&
        core::Classify(graph.node(cluster.nodes[0]).desc.kind) ==
            core::FusionClass::kBarrier;
    if (fuse && !barrier) {
      core::ClusterExecution exec = core::ExecuteCluster(
          graph, cluster, lookup, options.chunk_count, nullptr, options.arena);
      for (auto& [id, table] : exec.outputs) {
        rows[id] = table.row_count();
        computed.emplace(id, std::move(table));
      }
      for (const auto& [id, count] : exec.member_rows) rows.emplace(id, count);
    } else {
      for (NodeId id : cluster.nodes) {
        const core::OpNode& node = graph.node(id);
        ScopedSpan op_span(&log, query, cluster_span.id(), "relational",
                           OpKindName(node.desc.kind));
        const Table* right = node.inputs.size() > 1 ? &lookup(node.inputs[1]) : nullptr;
        Table out = relational::ApplyOperator(node.desc, lookup(node.inputs[0]), right);
        rows[id] = out.row_count();
        computed.emplace(id, std::move(out));
      }
    }
  }
  for (const auto& [id, table] : computed) {
    trace.Add("core.rows_materialized", static_cast<double>(table.row_count()));
    trace.Add("core.bytes_materialized", static_cast<double>(table.byte_size()));
  }

  options.plan = &plan;
  core::ExecutionReport estimate;
  {
    ScopedSpan span(&log, query, parent, "core.executor");
    estimate = executor.EstimateOnly(graph, rows, options);
  }
  // Replay fidelity: the estimate over realized rows should reproduce the
  // executed run's simulated makespan (it cannot when faults were injected).
  if (expected_makespan >= 0.0 && estimate.makespan != expected_makespan) {
    trace.Add("replay.makespan_mismatches", 1.0);
  }

  for (NodeId sink : graph.Sinks()) {
    ScopedSpan span(&log, query, parent, "core.integrity");
    (void)core::ChecksumTable(lookup(sink));
  }
}

// Scalar reference of a SELECT chain: relational::reference::Apply over
// every operator in topological order.
Table ReferenceChain(const core::OpGraph& graph, const Table& source) {
  Sources tables;
  tables.emplace(graph.Sources().at(0), source);
  for (NodeId id : graph.TopologicalOrder()) {
    const core::OpNode& node = graph.node(id);
    if (node.is_source) continue;
    tables.emplace(id,
                   relational::reference::Apply(node.desc, tables.at(node.inputs[0])));
  }
  return tables.at(graph.Sinks().at(0));
}

bool SameBytes(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count() || a.column_count() != b.column_count() ||
      a.schema().ToString() != b.schema().ToString()) {
    return false;
  }
  for (std::size_t i = 0; i < a.column_count(); ++i) {
    const relational::Column& x = a.column(i);
    const relational::Column& y = b.column(i);
    switch (x.type()) {
      case relational::DataType::kInt32:
        if (x.AsInt32() != y.AsInt32()) return false;
        break;
      case relational::DataType::kInt64:
        if (x.AsInt64() != y.AsInt64()) return false;
        break;
      case relational::DataType::kFloat64:
        if (x.AsFloat64() != y.AsFloat64()) return false;
        break;
    }
  }
  return true;
}

// Checks results against a scalar reference result. SameRowMultiset keys
// every row by a formatted string, which costs more than the query itself,
// while repeats of one query return byte-identical tables: a result equal
// byte for byte to one that already passed is accepted without comparing
// again.
class Oracle {
 public:
  Oracle(Table reference, bool approximate)
      : reference_(std::move(reference)), approximate_(approximate) {}

  bool Check(const Table& result) {
    for (const Table& passed : passed_) {
      if (SameBytes(passed, result)) return true;
    }
    const bool same = approximate_ ? relational::ApproxSameRowMultiset(result, reference_)
                                   : relational::SameRowMultiset(result, reference_);
    if (same && passed_.size() < kMaxPassed) passed_.push_back(result);
    return same;
  }

 private:
  static constexpr std::size_t kMaxPassed = 4;
  Table reference_;
  bool approximate_;
  std::vector<Table> passed_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds inputs, plans, references and engines from `seed`.
  virtual void Setup(std::uint64_t seed) = 0;
  // Digest of the generated inputs (changes with the seed).
  virtual std::uint64_t InputsDigest() const = 0;
  // Runs one unit: a fixed, deterministic sequence of queries. With a trace,
  // records spans and layer counters as well.
  virtual void RunUnit(Tally& tally, Trace* trace) = 0;
};

// --- tpch_mix ---------------------------------------------------------------
// Q1, Q21 and Q6 under all four strategies through QueryExecutor::Execute on
// one thread, no ThreadPool: the functional Row interpreter and Row JOINs do
// nearly all the work.
class TpchMix : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    executor_.reset();
    queries_.clear();
    tpch::TpchConfig config;
    config.order_count = 10000;
    config.seed = seed;
    data_ = tpch::MakeTpchData(config);
    queries_.push_back({"q1", tpch::BuildQ1Plan(data_),
                        Oracle(tpch::ReferenceQ1(data_.lineitem), true)});
    queries_.push_back({"q21", tpch::BuildQ21Plan(data_),
                        Oracle(tpch::ReferenceQ21(data_), true)});
    queries_.push_back({"q6", tpch::BuildQ6Plan(data_),
                        Oracle(tpch::ReferenceQ6(data_.lineitem), true)});
    device_.emplace();
    executor_.emplace(*device_);
  }

  std::uint64_t InputsDigest() const override {
    return core::ChecksumTable(data_.lineitem) ^ core::ChecksumTable(data_.orders);
  }

  void RunUnit(Tally& tally, Trace* trace) override {
    double sim_seconds = 0.0;
    std::size_t queries = 0;
    for (Query& query : queries_) {
      for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                                Strategy::kFission, Strategy::kFusedFission}) {
        core::ExecutorOptions options;
        options.strategy = strategy;
        options.metrics = &registry_;
        const std::string name = query.name + "_" + StrategyName(strategy);
        const std::uint64_t id = trace != nullptr ? trace->next_query++ : 0;

        core::ExecutionReport report;
        bool ran = false;
        double latency = 0.0;
        AllocCounts allocs;
        {
          ScopedSpan span(trace != nullptr ? &trace->log : nullptr, id, 0, "query", name);
          const AllocCounts before = CurrentAllocCounts();
          const auto start = Clock::now();
          try {
            report = executor_->Execute(query.plan.graph, query.plan.sources, options);
            ran = true;
          } catch (const std::exception& e) {
            std::cerr << "perfbench: " << name << " threw: " << e.what() << "\n";
          }
          latency = SecondsSince(start);
          allocs = CurrentAllocCounts() - before;
        }
        auto sink = report.sink_results.find(query.plan.sink);
        const bool correct =
            ran && sink != report.sink_results.end() && query.oracle.Check(sink->second);
        if (ran && !correct) std::cerr << "perfbench: " << name << " result differs\n";
        tally.Record(latency, correct);
        tally.timed_seconds += latency;
        sim_seconds += report.makespan;
        ++queries;

        if (trace == nullptr) continue;
        ++trace->queries;
        trace->Add("execute_s", latency);
        trace->Add(std::string("exec_s.") + StrategyName(strategy), latency);
        trace->Add(std::string("exec_n.") + StrategyName(strategy), 1.0);
        trace->Add("alloc.count", static_cast<double>(allocs.count));
        trace->Add("alloc.bytes", static_cast<double>(allocs.bytes));
        AddReportCounters(*trace, report, 1.0);
        ScopedSpan replay(&trace->log, id, 0, "replay", name);
        Replay(*executor_, query.plan.graph, query.plan.sources, options, *trace, id,
               replay.id(), name, report.makespan);
      }
    }
    tally.unit_sim_per_query.push_back(sim_seconds / static_cast<double>(queries));
  }

 private:
  struct Query {
    std::string name;
    tpch::QueryPlan plan;
    Oracle oracle;
  };

  tpch::TpchData data_;
  std::vector<Query> queries_;
  obs::MetricsRegistry registry_;
  std::optional<sim::DeviceSimulator> device_;
  std::optional<core::QueryExecutor> executor_;
};

// --- Serving workloads -------------------------------------------------------

constexpr std::uint64_t kServeRows = 100'000;

// A serving query template with the oracle for its results.
struct Template {
  std::string name;
  server::QueryRequest request;
  std::optional<Oracle> oracle;
};

// Per-query scheduler-layer counters. `latency` is the benchmark's own
// measurement, from Start() of the paused scheduler to fulfilment.
void AddServerCounters(Trace& trace, const server::QueryResult& result,
                       double latency) {
  const double share = 1.0 / static_cast<double>(result.batch_size);
  const double execute = result.wall_latency_seconds - result.queue_wait_seconds;
  ++trace.queries;
  trace.Add("execute_s", share * execute);
  trace.Add("server.execute_s", execute);
  trace.Add("server.queue_wait_s", std::max(0.0, latency - execute));
  trace.Add("server.batch_size", static_cast<double>(result.batch_size));
  trace.Add("server.merged", result.merged ? 1.0 : 0.0);
  trace.Add("server.device_retries", share * static_cast<double>(result.device_retries));
  trace.Add("multi_device.sharded", result.sharded ? 1.0 : 0.0);
  trace.Add("multi_device.devices_used", static_cast<double>(result.devices_used));
  AddReportCounters(trace, result.report, share);
}

bool ResultMatches(const server::QueryResult& result, Template& t) {
  auto it = result.results.find(t.request.graph.Sinks().at(0));
  return it != result.results.end() && t.oracle->Check(it->second);
}

// One submitted serving query.
struct Pending {
  Template* t = nullptr;
  std::future<server::QueryResult> future;
  std::uint64_t id = 0;  // trace query id
  std::uint32_t span = 0;
  std::optional<server::QueryResult> result;
  double latency = 0.0;
};

// Waits for each query in submission order (the single worker completes
// them in that order) and notes when its result arrived after `start`.
void Await(std::vector<Pending>& queries, Clock::time_point start, SpanLog* log) {
  for (Pending& q : queries) {
    try {
      q.result = q.future.get();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << q.t->name << " threw: " << e.what() << "\n";
    }
    q.latency = SecondsSince(start);
    if (log != nullptr) log->End(q.span);
  }
}

// Checks and tallies awaited queries; runs after the timed window.
void Settle(std::vector<Pending>& queries, Tally& tally, Trace* trace) {
  for (Pending& q : queries) {
    const bool correct = q.result && ResultMatches(*q.result, *q.t);
    if (q.result && !correct) {
      std::cerr << "perfbench: " << q.t->name << " result differs\n";
    }
    tally.Record(q.latency, correct);
    if (trace != nullptr && q.result) AddServerCounters(*trace, *q.result, q.latency);
  }
}

// --- serve_merged ------------------------------------------------------------
// A pre-queued burst of kRounds rounds of the 8 dashboard templates into a
// paused single-worker scheduler with max_batch = 8, then Start(): every
// batch merges 8 graphs into one branching cluster (graph_merge, the Row
// interpreter and the result splitter). Pre-queuing makes the batches
// exactly 8 and the simulated clock repeatable; closed-loop submission made
// batch sizes depend on thread timing.
class ServeMerged : public Workload {
 public:
  static constexpr int kClients = 8;
  static constexpr int kRounds = 5;  // 40 queries per unit

  void Setup(std::uint64_t seed) override {
    executor_.reset();
    templates_.clear();
    events_ = core::MakeUniformInt32Table(kServeRows, seed);
    for (int c = 0; c < kClients; ++c) {
      Template t;
      t.name = "dashboard" + std::to_string(c);
      t.request.graph = DashboardQuery(c);
      t.request.sources.emplace(t.request.graph.Sources()[0], events_);
      t.request.options.strategy = Strategy::kFused;
      t.request.options.metrics = &registry_;
      t.request.merge_class = "dashboard";
      t.oracle.emplace(ReferenceChain(t.request.graph, events_), false);
      templates_.push_back(std::move(t));
    }
    device_.emplace();
    executor_.emplace(*device_);
    server::QueryScheduler(*device_, Options()).Shutdown();
  }

  std::uint64_t InputsDigest() const override { return core::ChecksumTable(events_); }

  void RunUnit(Tally& tally, Trace* trace) override {
    server::QueryScheduler scheduler(*device_, Options());
    SpanLog* log = trace != nullptr ? &trace->log : nullptr;
    std::vector<Pending> queries(static_cast<std::size_t>(kRounds) * kClients);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      Pending& q = queries[i];
      q.t = &templates_[i % kClients];
      q.future = scheduler.Submit(q.t->request);
      if (log != nullptr) {
        q.id = trace->next_query++;
        q.span = log->Begin(q.id, 0, "query", q.t->name);
      }
    }

    const AllocCounts before = CurrentAllocCounts();
    const auto start = Clock::now();
    scheduler.Start();
    Await(queries, start, log);
    tally.timed_seconds += SecondsSince(start);
    const AllocCounts allocs = CurrentAllocCounts() - before;
    tally.unit_sim_per_query.push_back(scheduler.sim_clock() /
                                       static_cast<double>(queries.size()));
    Settle(queries, tally, trace);
    if (trace == nullptr) return;
    trace->Add("alloc.count", static_cast<double>(allocs.count));
    trace->Add("alloc.bytes", static_cast<double>(allocs.bytes));

    trace->Add("server.cache_hits", static_cast<double>(scheduler.plan_cache().hits()));
    trace->Add("server.cache_lookups",
               static_cast<double>(scheduler.plan_cache().hits() +
                                   scheduler.plan_cache().misses()));
    // Each round ran as one merged batch of the 8 templates; replay each
    // such batch under its leader's query id.
    for (std::size_t first = 0; first < queries.size(); first += kClients) {
      const bool merged = std::all_of(
          queries.begin() + first, queries.begin() + first + kClients,
          [](const Pending& q) {
            return q.result && q.result->batch_size == static_cast<std::size_t>(kClients);
          });
      if (!merged) continue;
      const std::uint64_t leader = queries[first].id;
      ScopedSpan replay(&trace->log, leader, 0, "replay", "merged");
      core::OpGraph graph;
      Sources sources;
      {
        ScopedSpan span(&trace->log, leader, replay.id(), "server.merge_graphs");
        MergeTemplates(graph, sources);
      }
      Replay(*executor_, graph, sources, templates_[0].request.options, *trace, leader,
             replay.id(), "merged", -1.0);
    }
  }

 private:
  server::SchedulerOptions Options() {
    server::SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.max_batch = kClients;
    options.max_queue_depth = static_cast<std::size_t>(kClients) * kRounds;
    options.metrics = &registry_;
    return options;
  }

  // A two-step SELECT chain over the shared relation; thresholds differ per
  // client, so merged batches exercise the result splitter with distinct
  // graphs over one source.
  static core::OpGraph DashboardQuery(int client) {
    using relational::Expr;
    using relational::OperatorDesc;
    core::OpGraph g;
    const NodeId src = g.AddSource(
        "events", relational::Schema{{"v", relational::DataType::kInt32}}, kServeRows);
    const std::int64_t hi = (std::int64_t{1} << 30) + client * 1024;
    const std::int64_t lo = (std::int64_t{1} << 29) - client * 4096;
    const NodeId first = g.AddOperator(
        OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi)),
                             "recent" + std::to_string(client)),
        src);
    g.AddOperator(OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(lo)),
                                       "hot" + std::to_string(client)),
                  first);
    return g;
  }

  // The scheduler's splice of one batch: MergeGraphs in submission order.
  // Every template reads the one "events" relation, so the merged graph has
  // a single source.
  void MergeTemplates(core::OpGraph& graph, Sources& sources) const {
    graph = templates_[0].request.graph;
    for (std::size_t i = 1; i < templates_.size(); ++i) {
      graph = core::MergeGraphs(graph, templates_[i].request.graph).graph;
    }
    for (NodeId id : graph.Sources()) sources.emplace(id, events_);
  }

  Table events_;
  std::vector<Template> templates_;
  obs::MetricsRegistry registry_;
  std::optional<sim::DeviceSimulator> device_;
  std::optional<core::QueryExecutor> executor_;
};

// --- serve_guarded -----------------------------------------------------------
// Typed-path SELECT chains served over a 2-device group by one worker, with
// transfer verification, 25% audits, the program's tracer, loud faults on
// device 0 and silent transfer corruption on device 1. Four closed-loop
// clients submit from the benchmark thread in waves: each client's next
// query goes out once every query of the wave is back. Each wave is queued
// into a paused scheduler and then released; the device group, fault
// injectors and tracer live for the whole unit. Released waves keep the
// simulated clock repeatable: with free submission, whether the worker had
// finished a wave's first query before the next one was submitted decided
// its simulated submit time, and so device placement and fault draws.
class ServeGuarded : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr int kWaves = 32;  // 128 queries per unit
  static constexpr int kTemplates = 8;

  void Setup(std::uint64_t seed) override {
    executor_.reset();
    templates_.clear();
    events_ = core::MakeUniformInt32Table(kServeRows, seed);
    for (int i = 0; i < kTemplates; ++i) {
      Template t;
      t.name = "guarded" + std::to_string(i);
      t.request.graph = GuardedQuery(i);
      t.request.sources.emplace(t.request.graph.Sources()[0], events_);
      t.request.options.strategy =
          i / 2 % 2 == 0 ? Strategy::kFused : Strategy::kFusedFission;
      t.request.options.metrics = &registry_;
      t.request.allow_sharding = i % 2 == 1;
      t.oracle.emplace(ReferenceChain(t.request.graph, events_), false);
      templates_.push_back(std::move(t));
    }
    device_.emplace();
    executor_.emplace(*device_);
    Engines engines(*this);
    server::QueryScheduler(engines.group, Options(engines)).Shutdown();
  }

  std::uint64_t InputsDigest() const override { return core::ChecksumTable(events_); }

  void RunUnit(Tally& tally, Trace* trace) override {
    Engines engines(*this);
    SpanLog* log = trace != nullptr ? &trace->log : nullptr;
    double sim_seconds = 0.0;
    for (int w = 0; w < kWaves; ++w) {
      server::QueryScheduler scheduler(engines.group, Options(engines));
      std::vector<Pending> wave(kClients);
      for (int c = 0; c < kClients; ++c) {
        Pending& q = wave[static_cast<std::size_t>(c)];
        q.t = &templates_[static_cast<std::size_t>(w * kClients + c) % kTemplates];
        q.future = scheduler.Submit(q.t->request);
        if (log != nullptr) {
          q.id = trace->next_query++;
          q.span = log->Begin(q.id, 0, "query", q.t->name);
        }
      }
      const AllocCounts before = CurrentAllocCounts();
      const auto start = Clock::now();
      scheduler.Start();
      Await(wave, start, log);
      tally.timed_seconds += SecondsSince(start);
      const AllocCounts allocs = CurrentAllocCounts() - before;
      sim_seconds += scheduler.sim_clock();
      Settle(wave, tally, trace);
      if (trace == nullptr) continue;
      trace->Add("alloc.count", static_cast<double>(allocs.count));
      trace->Add("alloc.bytes", static_cast<double>(allocs.bytes));
      trace->Add("server.cache_hits", static_cast<double>(scheduler.plan_cache().hits()));
      trace->Add("server.cache_lookups",
                 static_cast<double>(scheduler.plan_cache().hits() +
                                     scheduler.plan_cache().misses()));
      for (const Pending& q : wave) {
        if (q.result) {
          trace->Add("obs.spans",
                     static_cast<double>(
                         engines.tracer.Snapshot(q.result->trace_query_id).spans.size()));
        }
        ScopedSpan replay(&trace->log, q.id, 0, "replay", q.t->name);
        core::ExecutorOptions options = q.t->request.options;
        options.integrity = Integrity();
        Replay(*executor_, q.t->request.graph, q.t->request.sources, options, *trace,
               q.id, replay.id(), "guarded", -1.0);
        ReplayGuards(q, engines, *trace, replay.id());
      }
    }
    tally.unit_sim_per_query.push_back(sim_seconds /
                                       (static_cast<double>(kWaves) * kClients));
  }

 private:
  // What one unit serves with, built fresh per unit so every unit starts
  // from the same fault-injector epochs.
  struct Engines {
    explicit Engines(ServeGuarded& w)
        : group(sim::DeviceGroup::Homogeneous(2, sim::DeviceSpec::TeslaC2070(), {}, {},
                                              &w.registry_)),
          loud(LoudFaults(), &w.registry_),
          silent(SilentCorruption(), &w.registry_) {}

    sim::DeviceGroup group;
    sim::FaultInjector loud;
    sim::FaultInjector silent;
    obs::Tracer tracer;
    // Device 0's fault profile for the replays, apart from the served one.
    sim::FaultInjector replay_faults{LoudFaults(), nullptr};
  };

  // Differential replays of one query through QueryExecutor::Execute on a
  // single device: bare, then with integrity, the tracer or device-0 faults
  // added, so each layer's cost is the difference of two public calls.
  // Sharded queries also replay through MultiDeviceExecutor::Execute.
  void ReplayGuards(const Pending& q, Engines& engines, Trace& trace,
                    std::uint32_t parent) {
    const server::QueryRequest& request = q.t->request;
    auto run = [&](const char* variant, const core::ExecutorOptions& options) {
      ScopedSpan span(&trace.log, q.id, parent, "replay.execute", variant);
      (void)executor_->Execute(request.graph, request.sources, options);
    };
    const core::ExecutorOptions bare = request.options;
    obs::Tracer tracer;
    std::vector<std::pair<const char*, core::ExecutorOptions>> variants(4,
                                                                        {"bare", bare});
    variants[1].first = "integrity";
    variants[1].second.integrity = Integrity();
    variants[2].first = "tracer";
    variants[2].second.tracer = &tracer;
    variants[3].first = "faults";
    variants[3].second.fault_injector = &engines.replay_faults;
    // Rotate the order so no variant always runs first on cold caches.
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto& [variant, options] = variants[(i + q.id) % variants.size()];
      run(variant, options);
    }
    if (q.result && q.result->sharded) {
      core::MultiDeviceOptions sharded;
      sharded.base = bare;
      ScopedSpan span(&trace.log, q.id, parent, "core.multi_device");
      (void)core::MultiDeviceExecutor(engines.group)
          .Execute(request.graph, request.sources, sharded);
    }
  }

  // Fault and audit draws use fixed seeds: they are part of the workload,
  // while --seed varies the data. Seeding them from --seed made the
  // simulated time per query vary by about 10% from seed to seed.
  static constexpr std::uint64_t kFaultSeed = 20120521;

  static sim::FaultConfig LoudFaults() {
    sim::FaultConfig config;
    config.seed = kFaultSeed;
    config.copy_fault_rate = 0.02;
    config.kernel_fault_rate = 0.02;
    return config;
  }

  static sim::FaultConfig SilentCorruption() {
    sim::FaultConfig config;
    config.seed = kFaultSeed + 1;
    config.corrupt_h2d_rate = 0.01;
    config.corrupt_d2h_rate = 0.01;
    return config;
  }

  core::IntegrityOptions Integrity() const {
    core::IntegrityOptions integrity;
    integrity.verify_transfers = true;
    integrity.audit_fraction = 0.25;
    integrity.audit_seed = kFaultSeed;
    return integrity;
  }

  server::SchedulerOptions Options(Engines& engines) {
    server::SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.metrics = &registry_;
    options.integrity = Integrity();
    options.tracer = &engines.tracer;
    options.device_injectors = {&engines.loud, &engines.silent};
    return options;
  }

  // A SELECT chain of 2 or 3 typed int32 range predicates.
  static core::OpGraph GuardedQuery(int index) {
    using relational::Expr;
    using relational::OperatorDesc;
    core::OpGraph g;
    NodeId node = g.AddSource(
        "events", relational::Schema{{"v", relational::DataType::kInt32}}, kServeRows);
    const std::int64_t domain = std::int64_t{1} << 31;
    const std::int64_t hi = domain / 8 * (4 + index % 4);
    const std::int64_t lo = domain / 16 * (1 + index % 3);
    node = g.AddOperator(OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi)),
                                              "below" + std::to_string(index)),
                         node);
    node = g.AddOperator(OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(lo)),
                                              "above" + std::to_string(index)),
                         node);
    if (index % 2 == 1) {
      g.AddOperator(
          OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi - domain / 32)),
                               "trim" + std::to_string(index)),
          node);
    }
    return g;
  }

  Table events_;
  std::vector<Template> templates_;
  obs::MetricsRegistry registry_;
  std::optional<sim::DeviceSimulator> device_;
  std::optional<core::QueryExecutor> executor_;
};

// --- Metrics -------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

obs::Json Metric(double value, const std::string& unit) {
  obs::Json m = obs::Json::MakeObject();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

// Every unit runs the same queries in the same order, so the i-th latency
// of each unit belongs to the same query. Returns each query's mean latency
// over the run's units. Percentiles of these means do not jump between the
// modes of a multimodal unit (Q6 against Q1, the first merged batch against
// the last) when a few units run slow; means rather than medians, because a
// run that spends part of its time in a slow period of the host should read
// in between, as the throughput does, not snap to one period.
std::vector<double> QueryMeanLatencies(const Tally& tally) {
  const std::size_t units = tally.unit_seconds.size();
  const std::size_t per_unit = units > 0 ? tally.latencies.size() / units : 0;
  std::vector<double> means(per_unit, 0.0);
  for (std::size_t u = 0; u < units; ++u) {
    for (std::size_t i = 0; i < per_unit; ++i) {
      means[i] += tally.latencies[u * per_unit + i] / static_cast<double>(units);
    }
  }
  return means;
}

obs::Json EndToEndMetrics(const Tally& tally, const std::vector<double>& setup) {
  obs::Json metrics = obs::Json::MakeObject();
  metrics["setup_s"] = Metric(Percentile(setup, 50.0), "s");
  metrics["throughput_qps"] = Metric(
      Ratio(static_cast<double>(tally.attempted - tally.failed), tally.timed_seconds),
      "queries/s");
  const std::vector<double> latencies = QueryMeanLatencies(tally);
  metrics["latency_p50_ms"] = Metric(Percentile(latencies, 50.0) * 1e3, "ms");
  metrics["latency_p90_ms"] = Metric(Percentile(latencies, 90.0) * 1e3, "ms");
  metrics["sim_ms_per_query"] = Metric(tally.unit_sim_per_query.at(0) * 1e3, "sim_ms");
  metrics["peak_rss_mb"] = Metric(PeakRssMb(), "MB");
  return metrics;
}

obs::Json PerLayerMetrics(const Trace& trace, const Tally& untraced,
                          const Tally& traced) {
  auto sum = [&](const std::string& name) { return ValueOr0(trace.sums, name); };
  const double queries = static_cast<double>(trace.queries);
  auto per_query = [&](const std::string& name) { return Ratio(sum(name), queries); };

  // Inclusive wall time per layer and per (layer, detail) from the spans.
  std::map<std::string, double> layer_s;
  std::map<std::string, double> detail_s;
  std::map<std::string, double> detail_n;
  for (const SpanRecord& span : trace.log.spans()) {
    const double seconds = span.end - span.start;
    layer_s[span.layer] += seconds;
    detail_s[span.layer + "/" + span.detail] += seconds;
    detail_n[span.layer + "/" + span.detail] += 1.0;
  }
  auto layer = [&](const std::string& name) { return ValueOr0(layer_s, name); };
  auto detail = [&](const std::string& key) { return ValueOr0(detail_s, key); };
  auto count = [&](const std::string& key) { return ValueOr0(detail_n, key); };

  obs::Json m = obs::Json::MakeObject();
  const double functional = layer("core.functional");
  const double execute = sum("execute_s");
  m["core.functional_ms"] = Metric(Ratio(functional, queries) * 1e3, "ms");
  m["core.functional_share"] = Metric(Ratio(functional, execute), "ratio");
  const double attributed =
      layer("core.planner") + functional + layer("core.executor");
  m["core.attributed_frac"] = Metric(Ratio(attributed, execute), "ratio");
  m["core.plan_us"] = Metric(Ratio(layer("core.planner"), queries) * 1e6, "us");
  m["core.estimate_us"] = Metric(Ratio(layer("core.executor"), queries) * 1e6, "us");
  // The heaviest clusters, serial against fused (README.md lists them).
  for (const char* cluster :
       {"q1_serial.c0", "q1_fused.c0", "q1_fused.c2", "q21_serial.c2", "q21_fused.c2",
        "q6_serial.c0", "q6_fused.c0", "merged.c0", "guarded.c0"}) {
    const std::string key = std::string("core.functional/") + cluster;
    m[std::string("core.cluster_ms.") + cluster] =
        Metric(Ratio(detail(key), count(key)) * 1e3, "ms");
  }
  for (const char* kind : {"join", "sort", "aggregate", "select", "arith", "project"}) {
    m[std::string("relational.") + kind + "_ms"] =
        Metric(Ratio(detail(std::string("relational/") + kind), queries) * 1e3, "ms");
  }
  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                            Strategy::kFusedFission}) {
    const std::string name = StrategyName(strategy);
    m["core.exec_ms." + name] =
        Metric(Ratio(sum("exec_s." + name), sum("exec_n." + name)) * 1e3, "ms");
  }
  m["core.fused_over_serial_wall"] =
      Metric(Ratio(Ratio(sum("exec_s.fused"), sum("exec_n.fused")),
                   Ratio(sum("exec_s.serial"), sum("exec_n.serial"))),
             "ratio");
  m["core.rows_materialized"] = Metric(per_query("core.rows_materialized"), "rows");
  m["core.bytes_materialized"] = Metric(per_query("core.bytes_materialized"), "bytes");
  m["alloc.count_per_query"] = Metric(per_query("alloc.count"), "count");
  m["alloc.bytes_per_query"] = Metric(per_query("alloc.bytes"), "bytes");
  for (const char* name : {"sim.kernel_launches", "sim.commands", "integrity.detected",
                           "integrity.reexecutions", "integrity.audited_clusters",
                           "resilience.faults", "resilience.retry_attempts",
                           "resilience.degraded_clusters", "server.device_retries"}) {
    m[name] = Metric(per_query(name), "count");
  }
  m["sim.h2d_bytes"] = Metric(per_query("sim.h2d_bytes"), "bytes");
  m["sim.d2h_bytes"] = Metric(per_query("sim.d2h_bytes"), "bytes");
  m["integrity.checksum_us"] =
      Metric(Ratio(layer("core.integrity"), queries) * 1e6, "us");
  m["obs.spans_per_query"] = Metric(per_query("obs.spans"), "count");
  m["server.queue_wait_ms"] = Metric(per_query("server.queue_wait_s") * 1e3, "ms");
  m["server.execute_ms"] = Metric(per_query("server.execute_s") * 1e3, "ms");
  m["server.batch_size_mean"] = Metric(per_query("server.batch_size"), "queries");
  m["server.merged_frac"] = Metric(per_query("server.merged"), "ratio");
  m["server.plan_cache_hit_rate"] =
      Metric(Ratio(sum("server.cache_hits"), sum("server.cache_lookups")), "ratio");
  m["server.merge_graphs_us"] =
      Metric(Ratio(layer("server.merge_graphs"), count("replay/merged")) * 1e6, "us");
  // Differential replays (serve_guarded): Execute with one layer added
  // minus bare Execute, per query.
  const std::string bare = "replay.execute/bare";
  auto variant_us = [&](const std::string& variant) {
    const std::string key = "replay.execute/" + variant;
    return Ratio(detail(key) - detail(bare), count(key)) * 1e6;
  };
  m["core.execute_us"] = Metric(Ratio(detail(bare), count(bare)) * 1e6, "us");
  m["integrity.overhead_us"] = Metric(variant_us("integrity"), "us");
  m["obs.tracer_overhead_us"] = Metric(variant_us("tracer"), "us");
  m["resilience.overhead_us"] = Metric(variant_us("faults"), "us");
  m["multi_device.execute_ms"] =
      Metric(Ratio(layer("core.multi_device"), count("core.multi_device/")) * 1e3, "ms");
  m["multi_device.sharded_frac"] = Metric(per_query("multi_device.sharded"), "ratio");
  m["multi_device.devices_used_mean"] =
      Metric(per_query("multi_device.devices_used"), "devices");
  const std::map<std::string, double> self = trace.log.SelfSeconds();
  for (const char* name :
       {"query", "replay", "core.planner", "core.functional", "relational",
        "core.executor", "core.integrity", "server.merge_graphs", "core.multi_device"}) {
    m[std::string("self_ms.") + name] =
        Metric(Ratio(ValueOr0(self, name), queries) * 1e3, "ms");
  }
  const double untraced_p50 = Percentile(untraced.latencies, 50.0);
  m["trace.overhead_frac"] = Metric(
      Ratio(Percentile(traced.latencies, 50.0) - untraced_p50, untraced_p50), "ratio");
  return m;
}

// --- Command line and run loop ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_mix") return std::make_unique<TpchMix>();
  if (name == "serve_merged") return std::make_unique<ServeMerged>();
  if (name == "serve_guarded") return std::make_unique<ServeGuarded>();
  throw std::invalid_argument("unknown workload " + name);
}

// An untraced run times at least this many queries, so every per-query
// mean averages at least 3 units (serve_merged runs 40 queries per unit).
constexpr std::size_t kMinQueries = 100;
constexpr double kWarmupSeconds = 1.0;

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  // Allocation counts are per-layer metrics; untraced runs do not pay for them.
  EnableAllocCounting(args.trace);

  // Set up several times and report the median, so that work moved into
  // set-up shows and one slow set-up does not.
  std::vector<double> setup;
  double setup_total = 0.0;
  while (setup.size() < 5 || (setup_total < 2.0 && setup.size() < 100)) {
    const auto start = Clock::now();
    workload->Setup(args.seed);
    setup.push_back(SecondsSince(start));
    setup_total += setup.back();
  }

  // Untimed units for kWarmupSeconds let lazy state (arenas, plan caches
  // of the process) settle; their queries are still checked.
  Tally warmup;
  const auto warmup_start = Clock::now();
  do {
    workload->RunUnit(warmup, nullptr);
  } while (SecondsSince(warmup_start) < kWarmupSeconds);

  Tally untraced;
  Tally traced;
  Trace trace;
  const auto start = Clock::now();
  std::size_t units = 0;
  // The untraced run also holds at least kMinQueries; a traced run needs
  // one unit of each kind.
  while (SecondsSince(start) < args.seconds ||
         (args.trace ? units < 2 : untraced.latencies.size() < kMinQueries)) {
    const bool traced_unit = args.trace && units % 2 == 1;
    Tally& tally = traced_unit ? traced : untraced;
    const double timed_before = tally.timed_seconds;
    workload->RunUnit(tally, traced_unit ? &trace : nullptr);
    tally.unit_seconds.push_back(tally.timed_seconds - timed_before);
    ++units;
  }

  const std::uint64_t attempted =
      warmup.attempted + untraced.attempted + traced.attempted;
  const std::uint64_t failed = warmup.failed + untraced.failed + traced.failed;
  bool sim_repeats = true;
  for (const Tally* tally : {&warmup, &untraced, &traced}) {
    for (double sim : tally->unit_sim_per_query) {
      sim_repeats = sim_repeats && sim == warmup.unit_sim_per_query.at(0);
    }
  }

  obs::Json info = obs::Json::MakeObject();
  info["workload"] = args.workload;
  info["seed"] = args.seed;
  info["inputs_digest"] = std::to_string(workload->InputsDigest());
  info["units"] = static_cast<std::uint64_t>(units);
  info["queries_per_unit"] = static_cast<std::uint64_t>(
      warmup.attempted / warmup.unit_sim_per_query.size());
  info["timed_queries"] = static_cast<std::uint64_t>(untraced.latencies.size());
  info["traced_queries"] = static_cast<std::uint64_t>(traced.latencies.size());
  info["setup_samples"] = static_cast<std::uint64_t>(setup.size());
  obs::Json unit_seconds = obs::Json::MakeArray();
  for (double seconds : untraced.unit_seconds) unit_seconds.push_back(seconds);
  info["unit_seconds"] = unit_seconds;
  info["sim_repeats_across_units"] = sim_repeats;
  info["replay_makespan_mismatches"] = ValueOr0(trace.sums, "replay.makespan_mismatches");
  std::cout << "perfbench-info " << info.Dump() << "\n";

  obs::Json result = obs::Json::MakeObject();
  result["correct"] = failed == 0 && sim_repeats;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = args.trace ? PerLayerMetrics(trace, untraced, traced)
                                 : EndToEndMetrics(untraced, setup);
  if (args.trace && !args.span_file.empty()) {
    obs::Json doc = obs::Json::MakeObject();
    doc["workload"] = args.workload;
    doc["seed"] = args.seed;
    doc["spans"] = trace.log.ToJson();
    std::ofstream out(args.span_file);
    out << doc.Dump() << "\n";
    if (!out) throw std::runtime_error("cannot write " + args.span_file);
  }
  std::cout << result.Dump() << std::endl;
  return failed == 0 && sim_repeats ? 0 : 1;
}

}  // namespace
}  // namespace kf::perfbench

int main(int argc, char** argv) {
  try {
    return kf::perfbench::Run(kf::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "kf_perfbench: " << e.what() << "\n";
    return 2;
  }
}
