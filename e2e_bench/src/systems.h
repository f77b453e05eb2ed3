// The two systems the benchmark drives: the threaded runtime assembled
// in-process, and four rdb_replica processes over loopback TCP.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "runtime/replica.h"
#include "runtime/tcp_transport.h"
#include "runtime/transport.h"
#include "tracing.h"
#include "workload/ycsb.h"
#include "workloads.h"

namespace rdb::e2e {

/// Replica-side counters at one instant.
struct Snapshot {
  struct ReplicaSample {
    bool alive{false};
    bool primary{false};
    runtime::ReplicaStats stats;
    /// Cumulative busy time per pipeline thread name ("batch-0", ...).
    std::vector<std::pair<std::string, double>> busy_ns;
  };
  std::int64_t t_ns{0};
  std::vector<ReplicaSample> replicas;  // in-process only
  double replica_cpu_s{0};              // TCP: the replica processes
  std::uint64_t ctx_switches{0};
  std::uint64_t threads{0};
};

class System {
 public:
  virtual ~System() = default;
  /// Where the generator sends and registers its client ids.
  virtual runtime::Transport& client_transport() = 0;
  virtual Snapshot snapshot() = 0;
  virtual void kill_primary() = 0;
  /// Orderly teardown of the measured system (throwaway systems from the
  /// set-up repetitions are simply destroyed).
  virtual void stop() = 0;
  /// Post-stop validity checks.
  virtual void check(RunRecord& rec, bool fault_free) = 0;
};

/// The runtime assembled in-process, mirroring LocalCluster::make_replica
/// field for field, with a transport hook for the traced run.
class InprocSystem final : public System {
 public:
  /// `inst` (traced runs) wraps the transport, stores, env and executor.
  InprocSystem(const WorkloadSpec& w, const std::string& data_dir,
               Instruments* inst);
  ~InprocSystem() override;

  runtime::Transport& client_transport() override { return *wire_; }
  Snapshot snapshot() override;
  void kill_primary() override;
  void stop() override;
  void check(RunRecord& rec, bool fault_free) override;

  TracingTransport* tracing() { return tracing_.get(); }

 private:
  crypto::KeyRegistry registry_{std::uint64_t{7}};
  runtime::InprocTransport inproc_;
  std::unique_ptr<TracingTransport> tracing_;
  runtime::Transport* wire_{&inproc_};
  std::vector<std::unique_ptr<runtime::Replica>> replicas_;
  std::vector<std::int64_t> started_ns_;
};

/// Four unmodified rdb_replica processes plus one client TcpTransport.
class TcpSystem final : public System {
 public:
  TcpSystem(const WorkloadSpec& w, const std::string& replica_bin,
            const std::string& dir);
  ~TcpSystem() override;

  runtime::Transport& client_transport() override { return *client_; }
  Snapshot snapshot() override;
  void kill_primary() override {}
  /// SIGTERM, then SIGKILL after a 6 s grace: rdb_replica checks its stop
  /// flag only every 5 s.
  void stop() override;
  void check(RunRecord& rec, bool fault_free) override;

 private:
  void kill_all();

  std::string dir_;
  std::vector<pid_t> pids_;
  std::unique_ptr<runtime::TcpTransport> client_;
  bool clean_exit_{true};
};

}  // namespace rdb::e2e
