// Traced-run instruments. They sit on the runtime's existing seams
// (Transport, the KvStore factory, storage::Env, ExecuteFn) and change
// nothing inside the program:
//   TracingTransport  passes every send through and records it
//   Instruments       times KvStore, Env and ExecuteFn calls
//   assemble_spans    turns the records into per-request phase spans
//   time_crypto       times CryptoProvider calls on messages from the run
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "runtime/replica.h"
#include "runtime/transport_iface.h"
#include "storage/env.h"
#include "storage/kv_store.h"

namespace rdb::e2e {

/// One send seen by the tracing transport.
struct TraceRec {
  std::int64_t t{0};
  std::uint64_t view{0};  // pre-prepares and votes
  std::uint64_t seq{0};   // pre-prepares and votes; req id for responses
  std::uint32_t from{0};
  std::uint32_t client{0};  // responses
  std::uint32_t bytes{0};
  std::uint32_t txn_off{0};  // pre-prepares: slice of the thread's txn list
  std::uint32_t txn_cnt{0};
  std::uint8_t type{0};
  bool from_client{false};
};

class TracingTransport final : public runtime::Transport {
 public:
  /// Records for one sending thread, preallocated so recording never
  /// reallocates; sends past capacity are counted in `dropped`.
  struct ThreadLog {
    std::vector<TraceRec> recs;
    std::vector<std::pair<ClientId, RequestId>> txns;
    std::uint64_t dropped{0};
  };

  TracingTransport(runtime::Transport& inner, std::uint32_t n);

  void register_endpoint(Endpoint ep, std::shared_ptr<Inbox> inbox) override {
    inner_.register_endpoint(ep, std::move(inbox));
  }
  void send(Endpoint to, const protocol::Message& msg) override;
  void send_raw(Endpoint to, Bytes wire) override;
  void send_frame(Endpoint from, Endpoint to, FrameView frame) override;

  /// Read only after every sending thread has stopped.
  const std::vector<std::unique_ptr<ThreadLog>>& logs() const { return logs_; }
  std::vector<protocol::Message> sample_votes() const;

 private:
  ThreadLog& log();
  void record(const protocol::Message& m, std::size_t bytes, std::int64_t t);
  void record_frame(BytesView wire, std::int64_t t);

  runtime::Transport& inner_;
  std::uint32_t n_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<protocol::Message> votes_;
  std::atomic<std::size_t> vote_count_{0};
};

/// Cumulative storage/execute timings (a snapshot of the counters).
struct StorageTimes {
  std::uint64_t puts{0}, put_ns{0};
  std::uint64_t gets{0}, get_ns{0}, get_misses{0};
  std::uint64_t exec_calls{0}, exec_ns{0};
  std::uint64_t bytes_written{0};
};

/// Timing decorators for the storage and execute seams of every replica of
/// one traced system.
class Instruments {
 public:
  Instruments();
  ~Instruments();
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  std::unique_ptr<storage::KvStore> wrap(std::unique_ptr<storage::KvStore> s);
  runtime::ExecuteFn wrap(runtime::ExecuteFn fn);
  /// The real POSIX env with timed writes and fsyncs.
  storage::Env* env();

  StorageTimes snapshot() const;
  /// fsync durations (ms) of syncs that ended in [t0, t1).
  std::vector<double> fsync_ms(std::int64_t t0, std::int64_t t1) const;

  struct Counters;

 private:
  std::unique_ptr<Counters> c_;
  std::unique_ptr<storage::Env> env_;
};

/// Per-request phase spans of in-window open requests. Each request is
/// mapped to the first PrePrepare that carries it; its boundaries are that
/// PrePrepare, the 2f-th distinct Prepare, the (2f+1)-th distinct Commit,
/// the (f+1)-th distinct reply, and the decision. The spans between them
/// sum to the request's latency.
struct SpanStats {
  std::vector<double> order, prepare, commit, execute, reply;  // ms
  std::uint64_t incomplete{0};  // in-window requests lacking a boundary
  std::uint64_t sum_mismatches{0};
};
SpanStats assemble_spans(const TracingTransport& tt, const LoadGen& gen,
                         std::uint32_t n, std::int64_t origin_ns,
                         const std::string& chrome_path);

/// Times CryptoProvider calls on messages captured from the run and adds the
/// crypto.* metrics.
void time_crypto(const crypto::SchemeConfig& schemes,
                 const std::vector<protocol::Transaction>& txns,
                 const std::vector<protocol::Message>& responses,
                 const std::vector<protocol::Message>& votes, RunRecord& rec);

}  // namespace rdb::e2e
