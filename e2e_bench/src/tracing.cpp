#include "tracing.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "crypto/key_registry.h"
#include "protocol/validate.h"

namespace rdb::e2e {

using protocol::MsgType;

namespace {

constexpr std::size_t kRecsPerThread = 1u << 19;
constexpr std::size_t kTxnsPerThread = 1u << 20;
constexpr std::size_t kSampleVotes = 64;

std::atomic<std::uint64_t> g_tracer_ids{1};

}  // namespace

TracingTransport::TracingTransport(runtime::Transport& inner, std::uint32_t n)
    : inner_(inner), n_(n), id_(g_tracer_ids.fetch_add(1)) {}

TracingTransport::ThreadLog& TracingTransport::log() {
  // One preallocated log per sending thread: recording takes no lock and
  // never reallocates. The id guards against a thread_local left over from
  // an earlier tracer.
  thread_local std::uint64_t owner = 0;
  thread_local ThreadLog* mine = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->recs.reserve(kRecsPerThread);
    fresh->txns.reserve(kTxnsPerThread);
    std::lock_guard lock(mu_);
    logs_.push_back(std::move(fresh));
    mine = logs_.back().get();
    owner = id_;
  }
  return *mine;
}

void TracingTransport::record(const protocol::Message& m, std::size_t bytes,
                              std::int64_t t) {
  ThreadLog& L = log();
  if (L.recs.size() == L.recs.capacity()) {
    ++L.dropped;
    return;
  }
  TraceRec r;
  r.t = t;
  r.type = static_cast<std::uint8_t>(m.type());
  r.from = m.from.id;
  r.from_client = m.from.kind == Endpoint::Kind::kClient;
  r.bytes = static_cast<std::uint32_t>(bytes);
  switch (m.type()) {
    case MsgType::kPrePrepare: {
      const auto& pp = std::get<protocol::PrePrepare>(m.payload);
      r.view = pp.view;
      r.seq = pp.seq;
      r.txn_off = static_cast<std::uint32_t>(L.txns.size());
      for (const auto& txn : pp.txns)
        if (L.txns.size() < L.txns.capacity())
          L.txns.emplace_back(txn.client, txn.req_id);
      r.txn_cnt = static_cast<std::uint32_t>(L.txns.size()) - r.txn_off;
      break;
    }
    case MsgType::kPrepare:
    case MsgType::kCommit: {
      if (m.type() == MsgType::kPrepare) {
        const auto& p = std::get<protocol::Prepare>(m.payload);
        r.view = p.view;
        r.seq = p.seq;
      } else {
        const auto& c = std::get<protocol::Commit>(m.payload);
        r.view = c.view;
        r.seq = c.seq;
      }
      if (vote_count_.load(std::memory_order_relaxed) < kSampleVotes) {
        std::lock_guard lock(mu_);
        if (votes_.size() < kSampleVotes) votes_.push_back(m);
        vote_count_.store(votes_.size(), std::memory_order_relaxed);
      }
      break;
    }
    case MsgType::kClientResponse: {
      const auto& resp = std::get<protocol::ClientResponse>(m.payload);
      r.client = resp.client;
      r.seq = resp.req_id;
      break;
    }
    default:
      break;
  }
  L.recs.push_back(r);
}

void TracingTransport::record_frame(BytesView wire, std::int64_t t) {
  protocol::ValidationContext vctx;
  vctx.n = n_;
  auto verdict = protocol::validate_wire(wire, vctx);
  if (!verdict.ok()) {
    ++log().dropped;
    return;
  }
  record(verdict.msg->get(), wire.size(), t);
}

void TracingTransport::send(Endpoint to, const protocol::Message& msg) {
  const std::int64_t t = now_ns();
  Bytes wire = msg.serialize();
  record(msg, wire.size(), t);
  inner_.send_raw(to, std::move(wire));
}

void TracingTransport::send_raw(Endpoint to, Bytes wire) {
  record_frame(BytesView(wire), now_ns());
  inner_.send_raw(to, std::move(wire));
}

void TracingTransport::send_frame(Endpoint from, Endpoint to, FrameView frame) {
  record_frame(frame.bytes(), now_ns());
  inner_.send_frame(from, to, frame);
}

std::vector<protocol::Message> TracingTransport::sample_votes() const {
  std::lock_guard lock(mu_);
  return votes_;
}

// ---------------------------------------------------------------------------
// Storage, env and execute timers.
// ---------------------------------------------------------------------------

struct Instruments::Counters {
  std::atomic<std::uint64_t> puts{0}, put_ns{0};
  std::atomic<std::uint64_t> gets{0}, get_ns{0}, get_misses{0};
  std::atomic<std::uint64_t> exec_calls{0}, exec_ns{0};
  std::atomic<std::uint64_t> bytes_written{0};
  mutable std::mutex fsync_mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> fsyncs;  // (end, ns)
};

namespace {

using Counters = Instruments::Counters;

class TimedStore final : public storage::KvStore {
 public:
  TimedStore(std::unique_ptr<storage::KvStore> inner, Counters& c)
      : inner_(std::move(inner)), c_(c) {}

  void put(std::string_view key, std::string_view value) override {
    const std::int64_t t0 = now_ns();
    inner_->put(key, value);
    c_.put_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    c_.puts.fetch_add(1, std::memory_order_relaxed);
  }
  std::optional<std::string> get(std::string_view key) override {
    const std::int64_t t0 = now_ns();
    auto v = inner_->get(key);
    c_.get_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    c_.gets.fetch_add(1, std::memory_order_relaxed);
    if (!v) c_.get_misses.fetch_add(1, std::memory_order_relaxed);
    return v;
  }
  bool contains(std::string_view key) override { return inner_->contains(key); }
  std::uint64_t size() const override { return inner_->size(); }
  storage::StoreStats stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }
  void for_each(const VisitFn& fn) override { inner_->for_each(fn); }
  void clear() override { inner_->clear(); }
  bool durable() const override { return inner_->durable(); }
  void commit_wave() override { inner_->commit_wave(); }
  void checkpoint() override { inner_->checkpoint(); }

 private:
  std::unique_ptr<storage::KvStore> inner_;
  Counters& c_;
};

class TimedFile final : public storage::File {
 public:
  TimedFile(std::unique_ptr<storage::File> inner, Counters& c)
      : inner_(std::move(inner)), c_(c) {}

  std::size_t read(std::uint64_t offset, void* out, std::size_t n) override {
    return inner_->read(offset, out, n);
  }
  void write(std::uint64_t offset, const void* data, std::size_t n) override {
    inner_->write(offset, data, n);
    c_.bytes_written.fetch_add(n, std::memory_order_relaxed);
  }
  void sync() override {
    const std::int64_t t0 = now_ns();
    inner_->sync();
    const std::int64_t t1 = now_ns();
    std::lock_guard lock(c_.fsync_mu);
    c_.fsyncs.emplace_back(t1, t1 - t0);
  }
  std::uint64_t size() override { return inner_->size(); }
  void truncate(std::uint64_t len) override { inner_->truncate(len); }

 private:
  std::unique_ptr<storage::File> inner_;
  Counters& c_;
};

class TimedEnv final : public storage::Env {
 public:
  explicit TimedEnv(Counters& c) : c_(c) {}

  std::unique_ptr<storage::File> open(const std::string& path) override {
    return std::make_unique<TimedFile>(real().open(path), c_);
  }
  bool exists(const std::string& path) override { return real().exists(path); }
  void remove(const std::string& path) override { real().remove(path); }
  void rename(const std::string& from, const std::string& to) override {
    real().rename(from, to);
  }
  void make_dirs(const std::string& path) override { real().make_dirs(path); }

 private:
  Counters& c_;
};

}  // namespace

Instruments::Instruments()
    : c_(std::make_unique<Counters>()),
      env_(std::make_unique<TimedEnv>(*c_)) {}

Instruments::~Instruments() = default;

std::unique_ptr<storage::KvStore> Instruments::wrap(
    std::unique_ptr<storage::KvStore> s) {
  return std::make_unique<TimedStore>(std::move(s), *c_);
}

runtime::ExecuteFn Instruments::wrap(runtime::ExecuteFn fn) {
  Counters* c = c_.get();
  return [fn = std::move(fn), c](const protocol::Transaction& t,
                                 storage::KvStore& s) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t r = fn(t, s);
    c->exec_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    c->exec_calls.fetch_add(1, std::memory_order_relaxed);
    return r;
  };
}

storage::Env* Instruments::env() { return env_.get(); }

StorageTimes Instruments::snapshot() const {
  StorageTimes s;
  s.puts = c_->puts.load();
  s.put_ns = c_->put_ns.load();
  s.gets = c_->gets.load();
  s.get_ns = c_->get_ns.load();
  s.get_misses = c_->get_misses.load();
  s.exec_calls = c_->exec_calls.load();
  s.exec_ns = c_->exec_ns.load();
  s.bytes_written = c_->bytes_written.load();
  return s;
}

std::vector<double> Instruments::fsync_ms(std::int64_t t0,
                                          std::int64_t t1) const {
  std::lock_guard lock(c_->fsync_mu);
  std::vector<double> out;
  for (const auto& [end, dur] : c_->fsyncs)
    if (end >= t0 && end < t1) out.push_back(ns_to_ms(dur));
  return out;
}

// ---------------------------------------------------------------------------
// Per-request spans.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

std::uint64_t key(std::uint64_t hi, std::uint64_t lo) { return (hi << 40) ^ lo; }

/// First send time per distinct sender (replica ids < n).
using Firsts = std::vector<std::int64_t>;

void note(std::unordered_map<std::uint64_t, Firsts>& m, std::uint64_t k,
          std::uint32_t from, std::int64_t t, std::uint32_t n) {
  if (from >= n) return;
  auto& f = m.try_emplace(k, Firsts(n, kNever)).first->second;
  f[from] = std::min(f[from], t);
}

/// Time at which the k-th distinct sender had sent, or kNever.
std::int64_t kth(const std::unordered_map<std::uint64_t, Firsts>& m,
                 std::uint64_t k, std::size_t rank) {
  auto it = m.find(k);
  if (it == m.end()) return kNever;
  Firsts f = it->second;
  std::sort(f.begin(), f.end());
  return rank <= f.size() ? f[rank - 1] : kNever;
}

}  // namespace

SpanStats assemble_spans(const TracingTransport& tt, const LoadGen& gen,
                         std::uint32_t n, std::int64_t origin_ns,
                         const std::string& chrome_path) {
  const std::uint32_t f = max_faulty(n);
  struct First {
    std::int64_t t;
    std::uint64_t batch;
  };
  std::unordered_map<std::uint64_t, First> first_pp;  // request -> batch
  std::unordered_map<std::uint64_t, Firsts> prepares, commits, replies;
  for (const auto& log : tt.logs()) {
    for (const TraceRec& r : log->recs) {
      switch (static_cast<MsgType>(r.type)) {
        case MsgType::kPrePrepare: {
          const std::uint64_t b = key(r.view, r.seq);
          for (std::uint32_t i = 0; i < r.txn_cnt; ++i) {
            const auto& [c, q] = log->txns[r.txn_off + i];
            auto [it, fresh] = first_pp.try_emplace(key(c, q), First{r.t, b});
            if (!fresh && r.t < it->second.t) it->second = First{r.t, b};
          }
          break;
        }
        case MsgType::kPrepare:
          note(prepares, key(r.view, r.seq), r.from, r.t, n);
          break;
        case MsgType::kCommit:
          note(commits, key(r.view, r.seq), r.from, r.t, n);
          break;
        case MsgType::kClientResponse:
          if (!r.from_client) note(replies, key(r.client, r.seq), r.from, r.t, n);
          break;
        default:
          break;
      }
    }
  }

  SpanStats out;
  std::FILE* chrome =
      chrome_path.empty() ? nullptr : std::fopen(chrome_path.c_str(), "w");
  if (chrome) std::fputs("{\"traceEvents\": [\n", chrome);
  bool first_event = true;
  std::uint64_t index = 0;
  static const char* kNames[] = {"order", "prepare", "commit", "execute",
                                 "reply"};
  gen.for_each_request([&](const Request& q) {
    if (q.phase != Phase::kOpen || !q.in_window || q.decided_ns < 0) return;
    const std::uint64_t rk = key(q.client, q.req_id);
    auto pp = first_pp.find(rk);
    std::array<std::int64_t, 6> b{};
    b[0] = q.due_ns;
    b[1] = pp == first_pp.end() ? kNever : pp->second.t;
    b[2] = pp == first_pp.end() ? kNever : kth(prepares, pp->second.batch, 2 * f);
    b[3] = pp == first_pp.end() ? kNever : kth(commits, pp->second.batch, 2 * f + 1);
    b[4] = kth(replies, rk, f + 1);
    b[5] = q.decided_ns;
    if (std::find(b.begin(), b.end(), kNever) != b.end()) {
      ++out.incomplete;
      return;
    }
    // Sends on different threads read the clock a few ns apart; keep the
    // boundaries ordered so the spans telescope to the latency exactly.
    for (std::size_t i = 1; i < b.size(); ++i)
      b[i] = std::clamp(b[i], b[i - 1], b[5]);
    std::vector<double>* spans[] = {&out.order, &out.prepare, &out.commit,
                                    &out.execute, &out.reply};
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < 5; ++i) {
      spans[i]->push_back(ns_to_ms(b[i + 1] - b[i]));
      sum += b[i + 1] - b[i];
    }
    if (sum != q.decided_ns - q.due_ns) ++out.sum_mismatches;
    // Every 16th request goes to the Chrome trace, one track per client.
    if (chrome && index++ % 16 == 0) {
      for (std::size_t i = 0; i < 5; ++i) {
        std::fprintf(chrome,
                     "%s{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                     "\"args\": {\"req\": %llu}}",
                     first_event ? "" : ",\n", kNames[i],
                     static_cast<double>(b[i] - origin_ns) / 1e3,
                     static_cast<double>(b[i + 1] - b[i]) / 1e3, q.client,
                     static_cast<unsigned long long>(q.req_id));
        first_event = false;
      }
    }
  });
  if (chrome) {
    std::fputs("\n]}\n", chrome);
    std::fclose(chrome);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Crypto timing.
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
double mean_us(std::size_t count, Fn&& fn) {
  if (count == 0) return 0;
  constexpr int kRounds = 4;
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t i = 0; i < count; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / 1e3 /
         static_cast<double>(count * kRounds);
}

}  // namespace

void time_crypto(const crypto::SchemeConfig& schemes,
                 const std::vector<protocol::Transaction>& txns,
                 const std::vector<protocol::Message>& responses,
                 const std::vector<protocol::Message>& votes, RunRecord& rec) {
  const crypto::KeyRegistry registry(std::uint64_t{7});
  const crypto::CryptoProvider r0(Endpoint::replica(0), registry, schemes);
  const crypto::CryptoProvider r1(Endpoint::replica(1), registry, schemes);
  volatile bool sink = false;

  std::vector<Bytes> txn_canon;
  for (const auto& t : txns) txn_canon.push_back(t.signing_bytes());
  rec.add("crypto.client_verify_us", mean_us(txns.size(), [&](std::size_t i) {
            sink = r0.verify(Endpoint::client(txns[i].client),
                             BytesView(txn_canon[i]),
                             BytesView(txns[i].client_sig));
          }), "us");

  std::vector<Bytes> resp_canon;
  for (const auto& m : responses) resp_canon.push_back(m.signing_bytes());
  rec.add("crypto.reply_sign_us", mean_us(responses.size(), [&](std::size_t i) {
            const auto& resp = std::get<protocol::ClientResponse>(responses[i].payload);
            sink = !r0.sign(Endpoint::client(resp.client), BytesView(resp_canon[i])).empty();
          }), "us");

  std::vector<Bytes> vote_canon, vote_sig;
  for (const auto& m : votes) {
    vote_canon.push_back(m.signing_bytes());
    vote_sig.push_back(r0.sign(Endpoint::replica(1), BytesView(vote_canon.back())));
  }
  rec.add("crypto.vote_sign_us", mean_us(votes.size(), [&](std::size_t i) {
            sink = !r0.sign(Endpoint::replica(1), BytesView(vote_canon[i])).empty();
          }), "us");
  rec.add("crypto.vote_verify_us", mean_us(votes.size(), [&](std::size_t i) {
            sink = r1.verify(Endpoint::replica(0), BytesView(vote_canon[i]),
                             BytesView(vote_sig[i]));
          }), "us");

  std::vector<crypto::VerifyItem> items;
  for (std::size_t i = 0; i < txns.size() && items.size() < 64; ++i)
    items.push_back({Endpoint::client(txns[i].client), BytesView(txn_canon[i]),
                     BytesView(txns[i].client_sig)});
  std::unique_ptr<bool[]> verdicts(new bool[items.size() + 1]);
  const double batch_us = mean_us(1, [&](std::size_t) {
    sink = r0.verify_batch(items.data(), items.size(), verdicts.get()) ==
           items.size();
  });
  rec.add("crypto.batch64_verify_us_per_sig",
          items.empty() ? 0 : batch_us / static_cast<double>(items.size()), "us");
  (void)sink;
}

}  // namespace rdb::e2e
