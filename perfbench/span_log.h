// In-memory span log for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public functions; nothing inside the program is instrumented.
// Every span carries the id of the query it belongs to, its parent span
// (0 for a root) and a layer name; the log is written out when the run ends.
#ifndef KF_PERFBENCH_SPAN_LOG_H_
#define KF_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace kf::perfbench {

struct SpanRecord {
  std::uint64_t query = 0;
  std::uint32_t id = 0;      // 1-based position in the log
  std::uint32_t parent = 0;  // 0: a root span of its query
  std::string layer;         // "core.functional", "relational", ...
  std::string detail;        // cluster label, operator kind, query name
  double start = 0.0;        // seconds since the log was created
  double end = 0.0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::uint32_t Begin(std::uint64_t query, std::uint32_t parent,
                      std::string layer, std::string detail = "") {
    SpanRecord span;
    span.query = query;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.layer = std::move(layer);
    span.detail = std::move(detail);
    span.start = Now();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void End(std::uint32_t id) { spans_.at(id - 1).end = Now(); }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time per layer: each span's duration minus the part its children
  // cover (children never overlap each other: the benchmark is sequential
  // inside one query's replay).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const SpanRecord& span : spans_) {
      if (span.parent != 0) child_seconds[span.parent - 1] += span.end - span.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - child_seconds[i];
    }
    return self;
  }

  obs::Json ToJson() const {
    obs::Json list = obs::Json::MakeArray();
    for (const SpanRecord& span : spans_) {
      obs::Json entry = obs::Json::MakeObject();
      entry["query"] = span.query;
      entry["id"] = static_cast<std::uint64_t>(span.id);
      entry["parent"] = static_cast<std::uint64_t>(span.parent);
      entry["layer"] = span.layer;
      entry["detail"] = span.detail;
      entry["start_us"] = span.start * 1e6;
      entry["end_us"] = span.end * 1e6;
      list.push_back(std::move(entry));
    }
    return list;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

// Opens a span on construction and closes it on destruction; a null log
// records nothing, so traced and untraced code paths stay the same.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint64_t query, std::uint32_t parent,
             std::string layer, std::string detail = "")
      : log_(log),
        id_(log != nullptr ? log->Begin(query, parent, std::move(layer),
                                        std::move(detail))
                           : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace kf::perfbench

#endif  // KF_PERFBENCH_SPAN_LOG_H_
