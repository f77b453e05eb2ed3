// rdb_bench — live end-to-end benchmark of the threaded runtime.
//
//   rdb_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace]
//             [--out FILE] [--trace-out DIR] [--tmp DIR] [--replica-bin PATH]
//
// Drives the real runtime::Replica pipeline in-process, and four rdb_replica
// processes over loopback TCP, from one process. Each workload runs an open
// loop (seeded Poisson arrivals at a fixed rate; latency from the intended
// send time) and then a closed loop (2048 clients resubmitting on decision).
// Prints every metric by name with its unit, checks the outputs, appends one
// JSON record per run to --out, and ends with a one-line JSON summary:
// end-to-end metrics, or with --trace the per-layer ones from a traced run.
//
// With no arguments, or with RDB_BENCH_QUICK=1, every workload runs with
// ~1 s windows and all checks. Exit status: 0 valid, 1 a check failed,
// 2 usage or unsuitable build, 3 the watchdog fired.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "loadgen.h"
#include "systems.h"
#include "tracing.h"
#include "workloads.h"

#ifndef RDB_REPLICA_BIN
#define RDB_REPLICA_BIN "rdb_replica"
#endif

namespace rdb::e2e {
namespace {

struct Options {
  std::string workload{"all"};
  std::uint64_t seed{1};
  double seconds{12};
  bool trace{false};
  bool quick{false};
  std::string out;
  std::string trace_dir;
  std::string tmp{".rdb_bench"};
  std::string replica_bin{RDB_REPLICA_BIN};
};

/// Phase lengths of one run, derived from --seconds.
struct Shape {
  double warm{1};           // before each window
  double open_window{5};
  double closed_window{5};
  double kill_at{0};        // crash-primary: into the open window
  double drain{5};          // wait for stragglers after a phase
  std::uint32_t setup_reps{3};
};

Shape shape_for(const WorkloadSpec& w, const Options& o, bool traced) {
  Shape s;
  s.warm = std::clamp(o.seconds / 10, 0.5, 2.0);
  s.open_window = o.seconds / 2;
  s.closed_window = o.seconds / 2;
  // The crash outage lasts about three client timeouts (~6 s). Killing the
  // primary three quarters into the window leaves a quarter of the samples
  // in it: p50 stays a fault-free latency and p99 measures the outage.
  // Those requests decide during the drain.
  s.kill_at = 0.75 * s.open_window;
  // A retried request may take timeout x (max_retries + 1) = 10 s.
  s.drain = w.crash_primary ? 12 : 5;
  // setup_s is the median of three set-ups; traced and quick runs skip it.
  s.setup_reps = (o.quick || traced) ? 1 : 3;
  return s;
}

std::int64_t s_to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

void sleep_until(std::int64_t t) {
  const std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

/// CPU seconds of the whole process and of the generator's own threads.
struct CpuMark {
  double process{0};
  double generator{0};
};
CpuMark cpu_mark(LoadGen& gen) {
  CpuMark m;
  m.generator = thread_cpu_s(pthread_self());
  for (pthread_t t : gen.threads()) m.generator += thread_cpu_s(t);
  m.process = self_cpu_s();
  return m;
}

/// runtime.<role>.<stage>.busy_pct: per-thread busy share of the window,
/// averaged over the stage's threads and the role's replicas.
void add_busy(RunRecord& rec, const Snapshot& a, const Snapshot& b) {
  static const char* kStages[] = {"input",   "batch",      "verify", "worker",
                                  "execute", "checkpoint", "output"};
  const double dt = static_cast<double>(b.t_ns - a.t_ns);
  for (const bool primary : {true, false}) {
    for (const char* stage : kStages) {
      double sum = 0;
      int replicas = 0;
      for (std::size_t i = 0; i < b.replicas.size(); ++i) {
        const auto& ra = a.replicas[i];
        const auto& rb = b.replicas[i];
        if (!ra.alive || !rb.alive || rb.primary != primary) continue;
        double busy = 0;
        int threads = 0;
        for (std::size_t k = 0; k < rb.busy_ns.size(); ++k) {
          const std::string& name = rb.busy_ns[k].first;
          if (name.substr(0, name.find('-')) != stage) continue;
          busy += rb.busy_ns[k].second - ra.busy_ns[k].second;
          ++threads;
        }
        if (threads == 0) continue;
        sum += busy / threads / dt * 100;
        ++replicas;
      }
      rec.add(std::string("runtime.") + (primary ? "primary." : "backup.") +
                  stage + ".busy_pct",
              replicas ? sum / replicas : 0, "%");
    }
  }
}

/// Sum of one ReplicaStats field's growth over replicas alive at both ends.
template <typename F>
double delta(const Snapshot& a, const Snapshot& b, F field, bool primary_only) {
  double d = 0;
  for (std::size_t i = 0; i < b.replicas.size(); ++i) {
    if (!a.replicas[i].alive || !b.replicas[i].alive) continue;
    if (primary_only && !b.replicas[i].primary) continue;
    d += static_cast<double>(field(b.replicas[i].stats) - field(a.replicas[i].stats));
  }
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string type_name(protocol::MsgType t) {
  switch (t) {
    case protocol::MsgType::kClientRequest: return "client_request";
    case protocol::MsgType::kPrePrepare: return "pre_prepare";
    case protocol::MsgType::kPrepare: return "prepare";
    case protocol::MsgType::kCommit: return "commit";
    case protocol::MsgType::kClientResponse: return "client_response";
    case protocol::MsgType::kCheckpoint: return "checkpoint";
    case protocol::MsgType::kViewChange: return "view_change";
    case protocol::MsgType::kNewView: return "new_view";
    case protocol::MsgType::kBatchRequest: return "batch_request";
    case protocol::MsgType::kBatchResponse: return "batch_response";
    default: return "";
  }
}

RunRecord run_once(const WorkloadSpec& w, const Options& o, bool traced) {
  RunRecord rec;
  rec.workload = w.name;
  rec.seed = o.seed;
  rec.seconds = o.seconds;
  rec.traced = traced;
  const Shape sh = shape_for(w, o, traced);

  GenConfig gc;
  gc.one_identity = w.tcp;
  gc.schemes = w.schemes;
  gc.seed = o.seed;
  gc.probes = sh.setup_reps;
  gc.ycsb.read_fraction = w.read_fraction;
  const double open_txns = w.open_rate * (sh.warm + sh.open_window);
  const double closed_txns = w.pool_txn_s * (sh.warm + sh.closed_window);
  gc.pool_requests = static_cast<std::size_t>(1.2 * open_txns + 3 * closed_txns);
  LoadGen gen(gc, 4);

  std::filesystem::create_directories(o.tmp);
  std::string dir = o.tmp + "/run-XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{dir};

  // Set-up: construction (stores loaded) or process spawn until the first
  // probe decides. Earlier repetitions are torn down; the last is measured.
  std::unique_ptr<Instruments> inst;
  if (traced && !w.tcp) inst = std::make_unique<Instruments>();
  std::unique_ptr<System> sys;
  InprocSystem* inproc = nullptr;
  std::vector<double> setups;
  for (std::uint32_t k = 0; k < sh.setup_reps; ++k) {
    const bool last = k + 1 == sh.setup_reps;
    const std::string sys_dir = dir + "/sys" + std::to_string(k);
    gen.watchdog("setup", now_ns() + s_to_ns(120));
    const std::int64_t t0 = now_ns();
    if (w.tcp) {
      sys = std::make_unique<TcpSystem>(w, o.replica_bin, sys_dir);
    } else {
      auto s = std::make_unique<InprocSystem>(w, sys_dir, last ? inst.get() : nullptr);
      inproc = s.get();
      sys = std::move(s);
    }
    gen.attach(sys->client_transport());
    if (!gen.probe(k, std::chrono::seconds(60)))
      throw std::runtime_error("set-up probe was not decided");
    setups.push_back(ns_to_s(now_ns() - t0));
    if (!last) {
      gen.detach();
      sys.reset();
      std::filesystem::remove_all(sys_dir);
    }
  }

  // Open phase.
  const std::int64_t o_start = now_ns();
  const std::int64_t o0 = o_start + s_to_ns(sh.warm);
  const std::int64_t o1 = o0 + s_to_ns(sh.open_window);
  gen.watchdog("open", o1 + s_to_ns(30));
  gen.start_open(w.open_rate, o_start, o0, o1, o1);
  sleep_until(o0);
  const CpuMark cpu_o0 = cpu_mark(gen);
  const Snapshot snap_o0 = sys->snapshot();
  if (w.crash_primary) {
    sleep_until(o0 + s_to_ns(sh.kill_at));
    sys->kill_primary();
  }
  sleep_until(o1);
  const CpuMark cpu_o1 = cpu_mark(gen);
  const Snapshot snap_o1 = sys->snapshot();
  gen.end_open();
  gen.watchdog("open drain", now_ns() + s_to_ns(sh.drain + 30));
  const bool open_drained = gen.drain(now_ns() + s_to_ns(sh.drain));
  const std::int64_t o_drained = now_ns();

  // Closed phase.
  const std::int64_t c_start = now_ns();
  const std::int64_t c0 = c_start + s_to_ns(sh.warm);
  const std::int64_t c1 = c0 + s_to_ns(sh.closed_window);
  gen.watchdog("closed", c1 + s_to_ns(30));
  gen.start_closed(c0, c1);
  sleep_until(c0);
  const Snapshot snap_c0 = sys->snapshot();
  const StorageTimes st_c0 = inst ? inst->snapshot() : StorageTimes{};
  sleep_until(c1);
  const Snapshot snap_c1 = sys->snapshot();
  const StorageTimes st_c1 = inst ? inst->snapshot() : StorageTimes{};
  gen.stop_closed();
  gen.watchdog("closed drain", now_ns() + s_to_ns(sh.drain + 30));
  const bool closed_drained = gen.drain(now_ns() + s_to_ns(sh.drain));

  gen.watchdog("stop", now_ns() + s_to_ns(30));
  gen.detach();
  sys->stop();
  gen.watchdog("report", now_ns() + s_to_ns(120));
  sys->check(rec, !w.crash_primary);

  // What the generator saw.
  std::vector<double> lat;
  std::vector<std::int64_t> open_decisions, outage_decisions;
  std::uint64_t open_attempted = 0, open_failed = 0, closed_attempted = 0,
                closed_failed = 0, closed_decided = 0, decided = 0, undecided = 0;
  // A failed request misses every latency limit: it enters the percentiles
  // as the longest latency the open phase could observe.
  const double failed_ms = ns_to_ms(o_drained - o0);
  // Closed-window decisions per whole second, for a throughput that a
  // short stall of the machine cannot drag down.
  const auto seconds_closed = static_cast<std::size_t>(std::max(1.0, sh.closed_window));
  const std::int64_t bucket_ns = (c1 - c0) / static_cast<std::int64_t>(seconds_closed);
  std::vector<double> per_second(seconds_closed, 0);
  gen.for_each_request([&](const Request& q) {
    if (q.due_ns < 0) return;
    const bool ok = q.decided_ns >= 0;
    decided += ok;
    undecided += !ok && q.phase != Phase::kProbe;
    if (q.phase == Phase::kOpen && q.in_window) {
      ++open_attempted;
      open_failed += !ok;
      lat.push_back(ok ? ns_to_ms(q.decided_ns - q.due_ns) : failed_ms);
    }
    if (q.phase == Phase::kClosed && q.sent_ns >= c0 && q.sent_ns < c1) {
      ++closed_attempted;
      closed_failed += !ok;
    }
    if (ok && q.decided_ns >= o0 && q.decided_ns < o1)
      open_decisions.push_back(q.decided_ns);
    if (ok && q.decided_ns >= o0 && q.decided_ns < o_drained)
      outage_decisions.push_back(q.decided_ns);
    if (ok && q.decided_ns >= c0 && q.decided_ns < c1) {
      ++closed_decided;
      per_second[std::min<std::size_t>(
          static_cast<std::size_t>((q.decided_ns - c0) / bucket_ns),
          seconds_closed - 1)] += 1;
    }
  });
  rec.attempted = open_attempted + closed_attempted;
  rec.failed = open_failed + closed_failed;
  rec.latency_samples = lat.size();
  const auto gc_counters = gen.counters();

  // End-to-end metrics.
  const auto open_n = static_cast<double>(open_decisions.size());
  const auto closed_n = static_cast<double>(closed_decided);
  for (double& n : per_second) n /= ns_to_s(bucket_ns);
  // The closed phase keeps all four cores busy, so its throughput follows
  // the speed of a shared host: its spread over runs is 0.10-0.26 on every
  // workload. A diagnostic; cpu_us_per_txn carries the cost of a
  // transaction as a gate.
  rec.add("throughput_txn_s", median(per_second), "txn/s");
  const double p50 = percentile(lat, 0.5);
  rec.add("lat_p50_ms", p50, "ms", Kind::kEndToEnd);
  rec.add("lat_p99_ms", percentile(lat, 0.99), "ms", Kind::kEndToEnd);
  // p99.9 has only about 20 samples beyond it, so one stall of the machine
  // sets it: a diagnostic, not a gate.
  rec.add("lat_p999_ms", percentile(lat, 0.999), "ms");
  const double system_cpu =
      w.tcp ? snap_o1.replica_cpu_s - snap_o0.replica_cpu_s
            : (cpu_o1.process - cpu_o0.process) - (cpu_o1.generator - cpu_o0.generator);
  rec.add("cpu_us_per_txn", ratio(system_cpu * 1e6, open_n), "us", Kind::kEndToEnd);
  rec.add("setup_s", median(setups), "s", Kind::kEndToEnd);

  // Generator validity.
  std::vector<double> late = gen.late_ms();
  const double late_p99 = percentile(late, 0.99);
  const double late_max = late.empty() ? 0 : late.back();
  rec.check("verified_quorums", gc_counters.bad_signatures == 0,
            std::to_string(gc_counters.verified) + " responses verified, " +
                std::to_string(gc_counters.bad_signatures) + " bad signatures");
  rec.check("write_results", gc_counters.result_mismatches == 0,
            std::to_string(gc_counters.result_mismatches) +
                " decided results differ from the op count");
  // The workloads are chosen so that no request fails, crash-primary
  // included: one that does not decide is a defect, not a slower run.
  rec.check("no_failed_requests", open_drained && closed_drained && undecided == 0,
            std::to_string(undecided) + " requests not decided (" +
                std::to_string(open_failed) + " due in the open window, " +
                std::to_string(closed_failed) + " sent in the closed window)");
  rec.check("response_frames", gc_counters.rejected_frames == 0,
            std::to_string(gc_counters.rejected_frames) + " frames rejected");
  rec.check("pool_not_exhausted", !gc_counters.exhausted,
            gc_counters.exhausted ? "a client ran out of pre-signed requests"
                                  : "pre-signed pool sufficed");
  rec.check("generator_on_time", late_p99 < 0.1 * p50,
            "late p99 " + std::to_string(late_p99) + " ms vs lat p50 " +
                std::to_string(p50) + " ms");

  if (!traced) return rec;

  // Per-layer metrics of the traced run, over the closed window unless
  // named otherwise.
  add_busy(rec, snap_c0, snap_c1);
  const double batches = delta(snap_c0, snap_c1, [](const auto& s) { return s.batches_executed; }, true);
  rec.add("runtime.txns_per_batch",
          ratio(delta(snap_c0, snap_c1, [](const auto& s) { return s.txns_executed; }, true), batches),
          "txn");
  rec.add("runtime.batch_queue_saturations",
          delta(snap_c0, snap_c1, [](const auto& s) { return s.batch_queue_saturated; }, true),
          "count");
  rec.add("runtime.verify.sigs_per_wave",
          ratio(delta(snap_c0, snap_c1, [](const auto& s) { return s.batched_sigs; }, false),
                delta(snap_c0, snap_c1, [](const auto& s) { return s.batch_flushes; }, false)),
          "sig");
  rec.add("runtime.broadcast.sends_per_frame",
          ratio(delta(snap_c0, snap_c1, [](const auto& s) { return s.broadcast_frame_sends; }, false),
                delta(snap_c0, snap_c1, [](const auto& s) { return s.broadcasts_serialized; }, false)),
          "send");
  rec.add("runtime.batches_per_log_commit",
          ratio(delta(snap_c0, snap_c1, [](const auto& s) { return s.batches_executed; }, false),
                delta(snap_c0, snap_c1, [](const auto& s) { return s.log_commits; }, false)),
          "batch");
  rec.add("runtime.cswitch_per_txn",
          ratio(static_cast<double>(snap_c1.ctx_switches - snap_c0.ctx_switches), closed_n),
          "count");
  rec.add("runtime.threads", static_cast<double>(snap_c1.threads), "count");
  rec.add("runtime.tcp.replica_cpu_us_per_txn",
          w.tcp ? ratio((snap_c1.replica_cpu_s - snap_c0.replica_cpu_s) * 1e6, closed_n) : 0,
          "us");

  // Protocol volume from the tracing transport.
  std::map<std::string, double> by_type;
  double msgs = 0, bytes = 0;
  for (int t = 1; t <= 16; ++t) {
    const std::string name = type_name(static_cast<protocol::MsgType>(t));
    if (!name.empty()) by_type[name] = 0;
  }
  TracingTransport* tt = inproc ? inproc->tracing() : nullptr;
  std::uint64_t dropped = 0;
  if (tt) {
    for (const auto& log : tt->logs()) {
      dropped += log->dropped;
      for (const TraceRec& r : log->recs) {
        if (r.t < c0 || r.t >= c1) continue;
        ++msgs;
        bytes += r.bytes;
        const std::string name = type_name(static_cast<protocol::MsgType>(r.type));
        if (!name.empty()) by_type[name] += 1;
      }
    }
  }
  rec.add("protocol.msgs_per_txn", ratio(msgs, closed_n), "msg");
  rec.add("protocol.bytes_per_txn", ratio(bytes, closed_n), "B");
  for (const auto& [name, count] : by_type)
    rec.add("protocol." + name + ".msgs_per_txn", ratio(count, closed_n), "msg");

  // Per-request spans of the open window.
  SpanStats spans;
  if (tt) {
    std::string chrome;
    if (!o.trace_dir.empty()) {
      std::filesystem::create_directories(o.trace_dir);
      chrome = o.trace_dir + "/trace-" + w.name + "-" + std::to_string(o.seed) + ".json";
    }
    spans = assemble_spans(*tt, gen, kReplicas, o_start, chrome);
    rec.check("trace_spans", !spans.order.empty() && spans.sum_mismatches == 0 && dropped == 0,
              std::to_string(spans.order.size()) + " requests traced, " +
                  std::to_string(spans.incomplete) + " incomplete, " +
                  std::to_string(spans.sum_mismatches) + " spans not summing to latency, " +
                  std::to_string(dropped) + " records dropped" +
                  (chrome.empty() ? "" : "; trace file " + chrome));
  }
  const std::pair<const char*, std::vector<double>*> span_sets[] = {
      {"order", &spans.order}, {"prepare", &spans.prepare},
      {"commit", &spans.commit}, {"execute", &spans.execute},
      {"reply", &spans.reply}};
  for (const auto& [name, v] : span_sets) {
    rec.add(std::string("trace.") + name + "_ms.p50", percentile(*v, 0.5), "ms");
    rec.add(std::string("trace.") + name + "_ms.p99", percentile(*v, 0.99), "ms");
  }

  time_crypto(w.schemes, gen.sample_txns(), gen.sample_responses(),
              tt ? tt->sample_votes() : std::vector<protocol::Message>{}, rec);

  // Storage and execute timers.
  const double puts = static_cast<double>(st_c1.puts - st_c0.puts);
  const double gets = static_cast<double>(st_c1.gets - st_c0.gets);
  std::vector<double> fsyncs = inst ? inst->fsync_ms(c0, c1) : std::vector<double>{};
  const auto fsync_count = static_cast<double>(fsyncs.size());
  rec.add("storage.put_us", ratio(static_cast<double>(st_c1.put_ns - st_c0.put_ns) / 1e3, puts), "us");
  rec.add("storage.get_us", ratio(static_cast<double>(st_c1.get_ns - st_c0.get_ns) / 1e3, gets), "us");
  rec.add("storage.read_miss_frac",
          ratio(static_cast<double>(st_c1.get_misses - st_c0.get_misses), gets), "ratio");
  rec.add("storage.fsync_ms.p50", percentile(fsyncs, 0.5), "ms");
  rec.add("storage.fsync_ms.p99", percentile(fsyncs, 0.99), "ms");
  rec.add("storage.fsyncs_per_ktxn", ratio(fsync_count * 1000, closed_n), "count");
  rec.add("storage.bytes_written_per_txn",
          ratio(static_cast<double>(st_c1.bytes_written - st_c0.bytes_written), closed_n), "B");
  rec.add("workload.execute_us",
          ratio(static_cast<double>(st_c1.exec_ns - st_c0.exec_ns) / 1e3,
                static_cast<double>(st_c1.exec_calls - st_c0.exec_calls)),
          "us");

  // View change: the longest stretch without a decision, from the open
  // window's start until its stragglers have drained.
  std::sort(outage_decisions.begin(), outage_decisions.end());
  std::int64_t gap = 0, prev = o0;
  for (std::int64_t t : outage_decisions) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  rec.add("vc.outage_s", ns_to_s(gap), "s");
  rec.add("vc.final_view", static_cast<double>(gen.believed_view()), "view");
  rec.add("gen.retries", static_cast<double>(gc_counters.retries), "count");

  rec.add("gen.late_ms.p99", late_p99, "ms");
  rec.add("gen.late_ms.max", late_max, "ms");
  rec.add("gen.cpu_us_per_txn",
          ratio((cpu_o1.generator - cpu_o0.generator) * 1e6, open_n), "us");
  rec.add("gen.verifies_per_txn",
          ratio(static_cast<double>(gc_counters.verified), static_cast<double>(decided)),
          "sig");
  rec.add("gen.presign_s", gen.presign_s(), "s");
  rec.add("gen.client_waits", static_cast<double>(gc_counters.client_waits), "count");
  return rec;
}

void print(const RunRecord& r) {
  std::printf("== %s  seed %llu  %.0f s  %s ==\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed), r.seconds,
              r.traced ? "traced" : "untraced");
  std::printf("  requests: %llu attempted, %llu failed; %llu latency samples\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.latency_samples));
  for (const Metric& m : r.metrics)
    std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Check& c : r.checks)
    std::printf("  check %-22s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                c.detail.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: rdb_bench [--workload NAME|all] [--seed N] [--seconds S] "
               "[--trace] [--out FILE] [--trace-out DIR] [--tmp DIR] "
               "[--replica-bin PATH]\nworkloads:");
  for (const auto& w : all_workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Why this build must not report numbers, or nullptr.
const char* unsuitable_build() {
#ifndef NDEBUG
  return "built without NDEBUG (lock-rank checks and asserts change timing)";
#elif defined(RDB_ALLOC_TRIPWIRE)
  return "built with RDB_ALLOC_TRIPWIRE (counting allocation hooks)";
#elif defined(RDB_BENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "built with RDB_SANITIZE";
#else
  return nullptr;
#endif
}

int run_main(int argc, char** argv) {
  Options o;
  const char* quick_env = std::getenv("RDB_BENCH_QUICK");
  o.quick = argc == 1 || (quick_env != nullptr && std::strcmp(quick_env, "0") != 0);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = true;
    else if (a == "--out") o.out = value();
    else if (a == "--trace-out") o.trace_dir = value();
    else if (a == "--tmp") o.tmp = value();
    else if (a == "--replica-bin") o.replica_bin = value();
    else return usage();
  }
  if (o.quick) o.seconds = 2;
  if (!(o.seconds >= 1 && o.seconds <= 60)) return usage();
  if (const char* why = unsuitable_build()) {
    std::fprintf(stderr, "rdb_bench: refusing to report: %s\n", why);
    return 2;
  }

  std::vector<WorkloadSpec> chosen;
  for (const auto& w : all_workloads())
    if (o.workload == "all" || o.workload == w.name) chosen.push_back(w);
  if (chosen.empty()) return usage();

  std::vector<RunRecord> records;
  for (const WorkloadSpec& w : chosen) {
    if (!o.trace) {
      records.push_back(run_once(w, o, false));
      print(records.back());
      continue;
    }
    // The traced pass reports per-layer metrics; an untraced pass on the
    // same seed gives the tracing overhead.
    RunRecord base = run_once(w, o, false);
    print(base);
    RunRecord traced = run_once(w, o, true);
    const auto pct = [&](const char* name, double sign) {
      const double b = base.find(name)->value;
      const double t = traced.find(name)->value;
      return b > 0 ? sign * (t - b) / b * 100 : 0;
    };
    traced.add("trace.overhead_pct.lat_p50_ms", pct("lat_p50_ms", 1), "%");
    traced.add("trace.overhead_pct.throughput_txn_s", pct("throughput_txn_s", -1), "%");
    for (const Check& c : base.checks)
      traced.check("untraced." + c.name, c.ok, c.detail);
    print(traced);
    records.push_back(std::move(base));
    records.push_back(std::move(traced));
  }

  if (!o.out.empty()) {
    std::ofstream out(o.out, std::ios::app);
    for (const RunRecord& r : records) out << to_json(r) << "\n";
  }

  bool valid = true;
  for (const RunRecord& r : records) valid = valid && r.valid();
  const Kind kind = o.trace ? Kind::kLayer : Kind::kEndToEnd;
  if (records.size() == 1 || (o.trace && records.size() == 2)) {
    std::printf("%s\n", summary_json(records.back(), kind).c_str());
  } else {
    // Several workloads: one summary with workload-qualified metric names.
    RunRecord all;
    for (const RunRecord& r : records) {
      if (r.traced != o.trace) continue;
      all.attempted += r.attempted;
      all.failed += r.failed;
      for (const Check& c : r.checks) all.check(r.workload + "." + c.name, c.ok, c.detail);
      for (const Metric& m : r.metrics)
        all.add(r.workload + "/" + m.name, m.value, m.unit, m.kind);
    }
    std::printf("%s\n", summary_json(all, kind).c_str());
  }
  return valid ? 0 : 1;
}

}  // namespace
}  // namespace rdb::e2e

int main(int argc, char** argv) {
  try {
    return rdb::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdb_bench: %s\n", e.what());
    return 1;
  }
}
