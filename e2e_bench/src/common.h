// Shared helpers for rdb_bench: the run clock, exact percentiles, /proc
// readers and the metric record every run prints.
#pragma once

#include <pthread.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rdb::e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock. All timestamps of one run (generator,
/// tracing transport, snapshots) come from this one clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Exact nearest-rank percentile of raw samples (sorts in place). Returns 0
/// for an empty sample. No bucketing: a 1% change reads as 1%.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// CPU seconds (user + system) of a whole process, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);
/// Voluntary + involuntary context switches summed over every thread of a
/// process (/proc/<pid>/task/*/status).
std::uint64_t proc_ctx_switches(pid_t pid);
/// Threads of a process (/proc/<pid>/status).
std::uint64_t proc_threads(pid_t pid);
/// CPU seconds consumed so far by one thread of this process.
double thread_cpu_s(pthread_t t);
/// CPU seconds consumed so far by this whole process.
double self_cpu_s();

enum class Kind { kEndToEnd, kLayer };

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  Kind kind{Kind::kLayer};
};

struct Check {
  std::string name;
  bool ok{true};
  std::string detail;
};

/// Everything one workload run reports.
struct RunRecord {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool traced{false};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t latency_samples{0};
  std::vector<Metric> metrics;
  std::vector<Check> checks;

  void add(const std::string& name, double value, const std::string& unit,
           Kind kind = Kind::kLayer) {
    metrics.push_back({name, value, unit, kind});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  bool valid() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
  const Metric* find(const std::string& name) const {
    for (const auto& m : metrics)
      if (m.name == name) return &m;
    return nullptr;
  }
};

/// Full record as one JSON object (the line appended to --out).
std::string to_json(const RunRecord& r);
/// The one-line summary: {"correct","attempted","failed","metrics"} with
/// the metrics of one kind.
std::string summary_json(const RunRecord& r, Kind kind);

}  // namespace rdb::e2e
