// The benchmark's workloads. Each one stresses a different layer of the
// runtime; README.md says which per-layer metric should move on which.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/scheme.h"

namespace rdb::e2e {

/// Every workload runs n = 4 replicas (f = 1).
inline constexpr std::uint32_t kReplicas = 4;

struct WorkloadSpec {
  std::string name;
  /// Four rdb_replica processes over loopback TCP instead of the in-process
  /// cluster.
  bool tcp{false};
  crypto::SchemeConfig schemes{};
  std::uint32_t batch_size{100};
  /// Fixed open-loop arrival rate (txn/s), well below the closed throughput
  /// so the open phase has no growing backlog; README.md gives the ratios.
  double open_rate{0};
  /// Closed throughput (txn/s) the pre-signed pool is sized for: at or above
  /// the median baseline.json records, which on a shared host moves by up
  /// to a quarter between series. The pool holds three times what the
  /// closed phase consumes at this rate, so a faster change is never capped.
  double pool_txn_s{0};
  /// Consensus WAL + PageDb in the run's temporary directory.
  bool durable{false};
  double read_fraction{0};
  /// Hard-kill the primary three quarters into the open window.
  bool crash_primary{false};
};

inline std::vector<WorkloadSpec> all_workloads() {
  return {
      // Client signature checks on the primary and reply signing dominate;
      // consensus runs once per 100 transactions.
      {.name = "std-b100", .open_rate = 4000, .pool_txn_s = 12500},
      // Ten times the consensus rounds, every vote signed: the worker, vote
      // verification and serialize-once broadcast lead.
      {.name = "ds-b10",
       .schemes = crypto::SchemeConfig::all_ed25519(),
       .batch_size = 10,
       .open_rate = 3000,
       .pool_txn_s = 10500},
      // The only workload where execute and storage do real work, reads
      // beside writes. The store starts empty: loading PageDb takes tens of
      // seconds per replica.
      {.name = "durable-rw",
       .open_rate = 3000,
       .pool_txn_s = 10500,
       .durable = true,
       .read_fraction = 0.5},
      // The only workload through TcpTransport and across processes;
      // rdb_replica's store is used as shipped (empty).
      {.name = "tcp-b100", .tcp = true, .open_rate = 3500, .pool_txn_s = 11500},
      // The only workload with a view change, relay timers and client
      // retries on the request path.
      {.name = "crash-primary",
       .open_rate = 2000,
       .pool_txn_s = 14500,
       .crash_primary = true},
  };
}

}  // namespace rdb::e2e
