// Single-process load generator for the threaded runtime.
//
// Many logical clients share one inbox. Each request is pre-built and
// Ed25519-signed before the clock starts. A request decides on f+1 matching
// results from distinct replicas, each verified through
// CryptoProvider::verify_batch; responses for requests that already decided
// are dropped unverified.
//
// Threads while measuring: the open-loop scheduler, the completion thread
// (validate, verify, tally, resubmit) and the timer thread (retries and the
// watchdog), plus the caller's thread that orchestrates the phases.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/key_registry.h"
#include "crypto/provider.h"
#include "protocol/messages.h"
#include "runtime/transport_iface.h"
#include "workload/ycsb.h"

namespace rdb::e2e {

struct GenConfig {
  /// By default 2048 client ids share the generator's inbox, each with one
  /// request outstanding (the PBFT client rule) and ClientConfig-style
  /// retries. With one_identity a single client id pipelines the same 2048
  /// over one FIFO link without retries: for the TCP cluster, where every
  /// declared client costs each replica a sender thread and a socket.
  bool one_identity{false};
  crypto::SchemeConfig schemes{};
  workload::YcsbConfig ycsb{};
  std::uint64_t seed{1};
  /// Requests the run may send: the pool is this, spread over the client
  /// ids, plus a closed-loop window of slack per id.
  std::size_t pool_requests{0};
  /// Probe requests (client 0, req ids 1..probes), one per cluster set up.
  std::uint32_t probes{1};
};

enum class Phase : std::uint8_t { kNone, kProbe, kOpen, kClosed };

/// One pre-signed request and what became of it.
struct Request {
  struct Vote {
    ReplicaId from{0};
    std::uint64_t result{0};
    protocol::Message msg;
  };
  static constexpr std::uint64_t kAnyResult = ~std::uint64_t{0};

  Bytes frame;  // serialized, signed ClientRequest envelope
  ClientId client{0};
  RequestId req_id{0};
  /// Result a write-only transaction must decide on (its op count);
  /// kAnyResult when it reads (f+1 agreement is the check).
  std::uint64_t expected{kAnyResult};

  // Fate, guarded by LoadGen::mu_ (votes: completion thread only).
  Phase phase{Phase::kNone};
  bool in_window{false};
  bool verifying{false};
  bool failed{false};
  std::uint32_t attempt{0};
  std::int64_t due_ns{-1};  // intended send time
  std::int64_t sent_ns{-1};
  std::int64_t deadline_ns{0};
  std::int64_t decided_ns{-1};
  std::uint64_t result{0};
  std::vector<Vote> votes;

  bool outstanding() const { return sent_ns >= 0 && decided_ns < 0 && !failed; }
};

/// Counters the generator keeps (read after the run).
struct GenCounters {
  std::uint64_t retries{0};
  std::uint64_t client_waits{0};
  std::uint64_t verified{0};
  std::uint64_t bad_signatures{0};
  std::uint64_t result_mismatches{0};
  std::uint64_t rejected_frames{0};
  bool exhausted{false};
};

class LoadGen {
 public:
  /// Requests kept outstanding in the closed loop, over all client ids.
  static constexpr std::uint32_t kWindow = 2048;

  /// Pre-builds and signs every request on `presign_threads` threads.
  LoadGen(GenConfig config, unsigned presign_threads);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  double presign_s() const { return presign_s_; }

  /// Registers every client id on `t` and sends through it from now on.
  void attach(runtime::Transport& t);
  /// Stops sending (before the attached system is destroyed).
  void detach();

  /// Sends probe `k` (client 0, req id k+1) to the primary and waits until it
  /// decides. False on timeout.
  bool probe(std::uint32_t k, std::chrono::milliseconds timeout);

  /// Open loop: seeded Poisson arrivals at `rate` from `start_ns` to
  /// `end_ns`, assigned to clients round-robin. Requests due in
  /// [w0, w1) are the measured ones. Returns at once; end_open() joins.
  void start_open(double rate, std::int64_t start_ns, std::int64_t w0,
                  std::int64_t w1, std::int64_t end_ns);
  void end_open();

  /// Closed loop: the clients keep kWindow requests outstanding between
  /// them and resubmit on each decision until stop_closed().
  void start_closed(std::int64_t w0, std::int64_t w1);
  void stop_closed();

  /// Waits until nothing is outstanding or `deadline_ns` passes; requests
  /// still undecided then are marked failed. True when all decided.
  bool drain(std::int64_t deadline_ns);

  /// Watchdog: if `phase` has not moved on by `deadline_ns`, the timer
  /// thread reports it, runs the kill hook and exits the process.
  void watchdog(const char* phase, std::int64_t deadline_ns);
  static void set_kill_hook(std::function<void()> hook);

  /// Generator threads alive now (completion, timer, scheduler).
  std::vector<pthread_t> threads();

  /// Visits every request that was sent (probes excluded). Call only after
  /// the run, once nothing is outstanding.
  void for_each_request(const std::function<void(const Request&)>& fn) const;
  GenCounters counters() const;
  std::vector<double> late_ms() const;
  ViewId believed_view() const { return view_.load(); }
  /// A few transactions and validated responses, kept for crypto timing.
  const std::vector<protocol::Transaction>& sample_txns() const {
    return sample_txns_;
  }
  std::vector<protocol::Message> sample_responses() const;

 private:
  struct ClientSlot {
    std::vector<Request> pool;  // req ids first_req_.. in order
    std::size_t next{0};
    std::uint32_t outstanding{0};
    Request* current{nullptr};  // the one outstanding request (retries)
    std::deque<Request*> backlog;
  };
  struct Candidate {
    Request* req;
    std::vector<std::size_t> votes;
  };

  std::uint32_t clients() const { return config_.one_identity ? 1 : kWindow; }
  bool retries() const { return !config_.one_identity; }
  bool slot_full(const ClientSlot& slot) const {
    return !config_.one_identity && slot.outstanding >= 1;
  }
  void presign(unsigned threads);
  void build(ClientId c, RequestId r, const workload::YcsbWorkload& wl,
             const crypto::CryptoProvider& signer, Request& out,
             protocol::Transaction* sample) const;
  Request* lookup(ClientId c, RequestId r);
  Request* take_next(ClientSlot& slot);
  void launch(ClientSlot& slot, Request* q, std::int64_t now);
  void send(const Request& q, std::uint32_t attempt);
  void release(ClientId c, std::int64_t now);
  void completion_loop(std::stop_token st);
  void timer_loop(std::stop_token st);
  void schedule_loop(std::stop_token st, double rate, std::int64_t start_ns,
                     std::int64_t w0, std::int64_t w1, std::int64_t end_ns);

  GenConfig config_;
  std::size_t per_client_;
  RequestId first_req_;
  std::shared_ptr<runtime::Transport::Inbox> inbox_;
  crypto::KeyRegistry registry_;
  crypto::CryptoProvider verifier_;
  double presign_s_{0};
  std::vector<protocol::Transaction> sample_txns_;
  std::atomic<ViewId> view_{0};
  std::atomic<std::int64_t> wd_deadline_{0};
  std::atomic<const char*> wd_phase_{"setup"};

  mutable std::mutex mu_;
  runtime::Transport* tx_{nullptr};  // guarded by mu_
  std::vector<Request> probes_;
  std::vector<ClientSlot> slots_;
  bool closed_active_{false};
  std::int64_t closed_w0_{0};
  std::int64_t closed_w1_{0};
  GenCounters counters_;
  std::vector<double> late_ms_;
  std::vector<protocol::Message> sample_responses_;

  // Declared last: they run over everything above.
  std::jthread scheduler_;
  std::jthread completion_;
  std::jthread timer_;
};

}  // namespace rdb::e2e
