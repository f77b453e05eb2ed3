#include "loadgen.h"

#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common.h"
#include "common/rng.h"
#include "protocol/validate.h"
#include "workloads.h"

namespace rdb::e2e {

namespace {

std::mutex& hook_mu() {
  static std::mutex mu;
  return mu;
}
std::function<void()>& kill_hook() {
  static std::function<void()> hook;
  return hook;
}

constexpr std::size_t kSamples = 64;

// Retries as runtime::ClientConfig makes them: time out after 2 s, rotate
// through the replicas, broadcast from the second retry. ClientConfig gives
// up after 3; after a primary crash the view change completes about three
// timeouts after the first stuck send, the moment that request's third
// retry goes out, so with 3 the earliest stuck requests race it and a few
// runs in twenty lose requests. A fourth retry lands after it.
constexpr std::int64_t kTimeoutNs = 2'000'000'000;
constexpr std::uint32_t kMaxRetries = 4;
constexpr std::uint32_t kBroadcastAfter = 2;

}  // namespace

LoadGen::LoadGen(GenConfig config, unsigned presign_threads)
    : config_(std::move(config)),
      per_client_((config_.pool_requests + clients() - 1) / clients() +
                  kWindow / clients() + 2),
      first_req_(config_.probes + 1),
      inbox_(std::make_shared<runtime::Transport::Inbox>()),
      registry_(std::uint64_t{7}),
      // Replies travel on client links, which every workload signs with
      // Ed25519: addressee-independent, so one verifier serves every client.
      verifier_(Endpoint::client(0), registry_, config_.schemes) {
  const auto t0 = now_ns();
  presign(presign_threads);
  presign_s_ = ns_to_s(now_ns() - t0);
  completion_ = std::jthread([this](std::stop_token st) { completion_loop(st); });
  timer_ = std::jthread([this](std::stop_token st) { timer_loop(st); });
}

LoadGen::~LoadGen() {
  scheduler_.request_stop();
  completion_.request_stop();
  timer_.request_stop();
  inbox_->shutdown();
}

void LoadGen::build(ClientId c, RequestId r, const workload::YcsbWorkload& wl,
                    const crypto::CryptoProvider& signer, Request& out,
                    protocol::Transaction* sample) const {
  // Each request's keys come from its own stream, so the inputs do not
  // depend on how requests are split across signing threads.
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL ^ (std::uint64_t{c} << 40 | r));
  protocol::Transaction txn = wl.make_transaction(rng, c, r);
  const Bytes canon = txn.signing_bytes();
  txn.client_sig = signer.sign(Endpoint::replica(0), BytesView(canon));
  bool reads = false;
  const auto ops = workload::YcsbWorkload::decode(txn);
  for (const auto& op : ops) reads = reads || op.is_read;
  out.expected = reads ? Request::kAnyResult : ops.size();
  if (sample != nullptr) *sample = txn;
  protocol::ClientRequest req;
  req.txns.push_back(std::move(txn));
  protocol::Message msg;
  msg.from = Endpoint::client(c);
  msg.payload = std::move(req);
  const Bytes env = msg.signing_bytes();
  msg.signature = signer.sign(Endpoint::replica(0), BytesView(env));
  out.frame = msg.serialize();
  out.client = c;
  out.req_id = r;
}

void LoadGen::presign(unsigned threads) {
  slots_.resize(clients());
  for (auto& slot : slots_) slot.pool.resize(per_client_);
  sample_txns_.resize(std::min(kSamples, per_client_));
  probes_.resize(config_.probes);
  {
    const workload::YcsbWorkload wl(config_.ycsb);
    const crypto::CryptoProvider signer(Endpoint::client(0), registry_,
                                        config_.schemes);
    for (std::uint32_t k = 0; k < config_.probes; ++k)
      build(0, k + 1, wl, signer, probes_[k], nullptr);
  }
  // Requests are numbered client-major and each thread signs one contiguous
  // range, so its signer changes only when the client does.
  const std::size_t total = std::size_t{clients()} * per_client_;
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads, total] {
      const workload::YcsbWorkload wl(config_.ycsb);
      std::optional<crypto::CryptoProvider> signer;
      for (std::size_t j = total * t / threads; j < total * (t + 1) / threads;
           ++j) {
        const auto c = static_cast<ClientId>(j / per_client_);
        const std::size_t i = j % per_client_;
        if (!signer || signer->self() != Endpoint::client(c))
          signer.emplace(Endpoint::client(c), registry_, config_.schemes);
        build(c, first_req_ + i, wl, *signer, slots_[c].pool[i],
              c == 0 && i < sample_txns_.size() ? &sample_txns_[i] : nullptr);
      }
    });
  }
}

void LoadGen::attach(runtime::Transport& t) {
  std::lock_guard lock(mu_);
  for (ClientId c = 0; c < clients(); ++c)
    t.register_endpoint(Endpoint::client(c), inbox_);
  tx_ = &t;
}

void LoadGen::detach() {
  std::lock_guard lock(mu_);
  tx_ = nullptr;
}

bool LoadGen::probe(std::uint32_t k, std::chrono::milliseconds timeout) {
  const auto deadline = now_ns() + timeout.count() * 1'000'000;
  Request* q = &probes_.at(k);
  {
    std::lock_guard lock(mu_);
    q->phase = Phase::kProbe;
    q->due_ns = q->sent_ns = now_ns();
    send(*q, 0);
  }
  for (;;) {
    {
      std::lock_guard lock(mu_);
      if (q->decided_ns >= 0) return true;
    }
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Request* LoadGen::lookup(ClientId c, RequestId r) {
  if (c >= clients()) return nullptr;
  if (c == 0 && r >= 1 && r <= probes_.size()) return &probes_[r - 1];
  if (r < first_req_) return nullptr;
  auto& pool = slots_[c].pool;
  const RequestId idx = r - first_req_;
  return idx < pool.size() ? &pool[idx] : nullptr;
}

Request* LoadGen::take_next(ClientSlot& slot) {
  if (slot.next >= slot.pool.size()) {
    counters_.exhausted = true;
    return nullptr;
  }
  return &slot.pool[slot.next++];
}

void LoadGen::launch(ClientSlot& slot, Request* q, std::int64_t now) {
  q->sent_ns = now;
  q->attempt = 0;
  q->deadline_ns = now + kTimeoutNs;
  ++slot.outstanding;
  slot.current = q;
  send(*q, 0);
}

void LoadGen::send(const Request& q, std::uint32_t attempt) {
  if (tx_ == nullptr) return;
  if (retries() && attempt >= kBroadcastAfter) {
    for (ReplicaId r = 0; r < kReplicas; ++r)
      tx_->send_raw(Endpoint::replica(r), q.frame);
    return;
  }
  // First the primary of the newest view heard of; early retries rotate
  // through the replica ring, as runtime::Client does.
  const auto target =
      static_cast<ReplicaId>((view_.load() + attempt) % kReplicas);
  tx_->send_raw(Endpoint::replica(target), q.frame);
}

void LoadGen::release(ClientId c, std::int64_t now) {
  ClientSlot& slot = slots_[c];
  --slot.outstanding;
  slot.current = nullptr;
  if (!slot.backlog.empty()) {
    Request* q = slot.backlog.front();
    slot.backlog.pop_front();
    launch(slot, q, now);
    return;
  }
  if (!closed_active_) return;
  Request* q = take_next(slot);
  if (q == nullptr) return;
  q->phase = Phase::kClosed;
  q->due_ns = now;
  q->in_window = now >= closed_w0_ && now < closed_w1_;
  launch(slot, q, now);
}

void LoadGen::completion_loop(std::stop_token st) {
  const std::size_t quorum = max_faulty(kReplicas) + 1;
  protocol::ValidationContext vctx;
  vctx.n = kReplicas;
  vctx.accept_mask = protocol::accept_bit(protocol::MsgType::kClientResponse);
  std::vector<Bytes> frames;
  std::vector<protocol::Message> parsed;
  std::vector<Candidate> cands;
  std::vector<Bytes> canon;
  std::vector<crypto::VerifyItem> items;
  std::vector<std::pair<std::size_t, std::size_t>> owner;  // (cand, vote)
  std::unique_ptr<bool[]> verdicts;
  std::size_t verdict_cap = 0;

  while (!st.stop_requested()) {
    frames.clear();
    auto first = inbox_->pop_for(std::chrono::milliseconds(20));
    if (!first) continue;
    frames.push_back(std::move(*first));
    inbox_->try_pop_n(frames, 63);

    parsed.clear();
    std::uint64_t rejected = 0;
    for (const Bytes& w : frames) {
      vctx.current_view = view_.load();
      auto verdict = protocol::validate_wire(BytesView(w), vctx);
      if (!verdict.ok()) {
        ++rejected;
        continue;
      }
      protocol::Message m = std::move(*verdict.msg).release();
      const ViewId rv = std::get<protocol::ClientResponse>(m.payload).view;
      ViewId cur = view_.load();
      while (rv > cur && !view_.compare_exchange_weak(cur, rv)) {
      }
      parsed.push_back(std::move(m));
    }

    // Tally: a request becomes a candidate once f+1 distinct replicas
    // report the same result.
    cands.clear();
    {
      std::lock_guard lock(mu_);
      counters_.rejected_frames += rejected;
      for (protocol::Message& m : parsed) {
        const auto& resp = std::get<protocol::ClientResponse>(m.payload);
        Request* q = lookup(resp.client, resp.req_id);
        bool dup = q == nullptr || !q->outstanding();
        for (std::size_t i = 0; !dup && i < q->votes.size(); ++i)
          dup = q->votes[i].from == m.from.id;
        if (dup) continue;
        if (sample_responses_.size() < kSamples) sample_responses_.push_back(m);
        q->votes.push_back({m.from.id, resp.result, std::move(m)});
        if (q->verifying) continue;
        Candidate cand{q, {}};
        for (const auto& v : q->votes) {
          cand.votes.clear();
          for (std::size_t i = 0; i < q->votes.size(); ++i)
            if (q->votes[i].result == v.result) cand.votes.push_back(i);
          if (cand.votes.size() >= quorum) break;
        }
        if (cand.votes.size() < quorum) continue;
        cand.votes.resize(quorum);
        q->verifying = true;
        cands.push_back(std::move(cand));
      }
    }
    if (cands.empty()) continue;

    // Verify the chosen votes of every candidate in one batch, outside the
    // lock. Only this thread touches votes, so they are stable here.
    canon.clear();
    owner.clear();
    for (std::size_t c = 0; c < cands.size(); ++c) {
      for (std::size_t vi : cands[c].votes) {
        canon.push_back(cands[c].req->votes[vi].msg.signing_bytes());
        owner.emplace_back(c, vi);
      }
    }
    items.clear();
    for (std::size_t i = 0; i < owner.size(); ++i) {
      const auto& v = cands[owner[i].first].req->votes[owner[i].second];
      items.push_back({v.msg.from, BytesView(canon[i]), BytesView(v.msg.signature)});
    }
    if (items.size() > verdict_cap) {
      verdict_cap = items.size() * 2;
      verdicts.reset(new bool[verdict_cap]);
    }
    verifier_.verify_batch(items.data(), items.size(), verdicts.get());

    std::lock_guard lock(mu_);
    const std::int64_t now = now_ns();
    counters_.verified += items.size();
    std::size_t i = 0;
    for (const Candidate& cand : cands) {
      Request* q = cand.req;
      q->verifying = false;
      const std::size_t end = i + cand.votes.size();
      bool forged = false;
      // Drop forged votes (their indices ascend, so erase from the back);
      // the request then waits for more replies.
      for (std::size_t j = end; j-- > i;) {
        if (verdicts[j]) continue;
        forged = true;
        ++counters_.bad_signatures;
        q->votes.erase(q->votes.begin() + static_cast<std::ptrdiff_t>(owner[j].second));
      }
      i = end;
      if (forged) continue;
      const std::uint64_t result = q->votes[cand.votes.front()].result;
      std::vector<Request::Vote>().swap(q->votes);
      if (!q->outstanding()) continue;  // gave up meanwhile
      q->decided_ns = now;
      q->result = result;
      if (q->expected != Request::kAnyResult && result != q->expected)
        ++counters_.result_mismatches;
      if (q->phase != Phase::kProbe) release(q->client, now);
    }
  }
}

void LoadGen::timer_loop(std::stop_token st) {
  while (!st.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::int64_t now = now_ns();
    const std::int64_t wd = wd_deadline_.load();
    if (wd > 0 && now > wd) {
      std::printf("rdb_bench: watchdog: phase '%s' did not finish in time\n",
                  wd_phase_.load());
      std::fflush(stdout);
      std::fprintf(stderr, "rdb_bench: watchdog: phase '%s' hung\n",
                   wd_phase_.load());
      {
        std::lock_guard lock(hook_mu());
        if (kill_hook()) kill_hook()();
      }
      std::_Exit(3);
    }
    if (!retries()) continue;
    std::lock_guard lock(mu_);
    for (ClientSlot& slot : slots_) {
      Request* q = slot.current;
      if (q == nullptr || !q->outstanding() || now < q->deadline_ns) continue;
      if (q->attempt >= kMaxRetries) {
        q->failed = true;
        release(q->client, now);
        continue;
      }
      ++q->attempt;
      ++counters_.retries;
      send(*q, q->attempt);
      q->deadline_ns = now + kTimeoutNs;
    }
  }
}

void LoadGen::start_open(double rate, std::int64_t start_ns, std::int64_t w0,
                         std::int64_t w1, std::int64_t end_ns) {
  scheduler_ = std::jthread([=, this](std::stop_token st) {
    schedule_loop(st, rate, start_ns, w0, w1, end_ns);
  });
}

void LoadGen::end_open() {
  scheduler_.request_stop();
  if (scheduler_.joinable()) scheduler_.join();
}

void LoadGen::schedule_loop(std::stop_token st, double rate,
                            std::int64_t start_ns, std::int64_t w0,
                            std::int64_t w1, std::int64_t end_ns) {
  // Punctual sends on an oversubscribed box: a realtime priority, where the
  // system allows it, keeps wake-up delay off the measured latency. The
  // thread sleeps between sends, so it starves nobody.
  sched_param sp{};
  sp.sched_priority = 1;
  pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp);
  Rng rng(config_.seed ^ 0x6F70656E2D6C6F6FULL);
  double t = static_cast<double>(start_ns);
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log1p(-rng.uniform()) / rate * 1e9;
    if (t >= static_cast<double>(end_ns)) break;
    const auto due = static_cast<std::int64_t>(t);
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    std::lock_guard lock(mu_);
    const std::int64_t now = now_ns();
    ClientSlot& slot = slots_[i % clients()];
    Request* q = take_next(slot);
    if (q == nullptr) continue;
    q->phase = Phase::kOpen;
    q->due_ns = due;
    q->in_window = due >= w0 && due < w1;
    if (slot_full(slot)) {
      // The client is still waiting on its previous request; this one waits
      // at the client and its latency still counts from `due`.
      slot.backlog.push_back(q);
      if (q->in_window) ++counters_.client_waits;
      continue;
    }
    launch(slot, q, now);
    if (q->in_window) late_ms_.push_back(ns_to_ms(now - due));
  }
  // Stay alive until end_open(), so the window's CPU time can be read.
  std::mutex m;
  std::condition_variable_any cv;
  std::unique_lock lock(m);
  cv.wait(lock, st, [] { return false; });
}

void LoadGen::start_closed(std::int64_t w0, std::int64_t w1) {
  std::lock_guard lock(mu_);
  closed_active_ = true;
  closed_w0_ = w0;
  closed_w1_ = w1;
  const std::int64_t now = now_ns();
  for (ClientSlot& slot : slots_) {
    for (std::uint32_t k = 0; k < kWindow / clients() && !slot_full(slot);
         ++k) {
      Request* q = take_next(slot);
      if (q == nullptr) break;
      q->phase = Phase::kClosed;
      q->due_ns = now;
      launch(slot, q, now);
    }
  }
}

void LoadGen::stop_closed() {
  std::lock_guard lock(mu_);
  closed_active_ = false;
}

bool LoadGen::drain(std::int64_t deadline_ns) {
  for (;;) {
    {
      std::lock_guard lock(mu_);
      bool busy = false;
      for (const ClientSlot& slot : slots_)
        busy = busy || slot.outstanding > 0 || !slot.backlog.empty();
      if (!busy) return true;
      if (now_ns() > deadline_ns) {
        for (ClientSlot& slot : slots_) {
          for (std::size_t i = 0; i < slot.next; ++i)
            if (slot.pool[i].outstanding()) slot.pool[i].failed = true;
          for (Request* q : slot.backlog) q->failed = true;
          slot.backlog.clear();
          slot.outstanding = 0;
          slot.current = nullptr;
        }
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void LoadGen::watchdog(const char* phase, std::int64_t deadline_ns) {
  wd_phase_.store(phase);
  wd_deadline_.store(deadline_ns);
}

void LoadGen::set_kill_hook(std::function<void()> hook) {
  std::lock_guard lock(hook_mu());
  kill_hook() = std::move(hook);
}

std::vector<pthread_t> LoadGen::threads() {
  std::vector<pthread_t> out{completion_.native_handle(),
                             timer_.native_handle()};
  if (scheduler_.joinable()) out.push_back(scheduler_.native_handle());
  return out;
}

void LoadGen::for_each_request(
    const std::function<void(const Request&)>& fn) const {
  std::lock_guard lock(mu_);
  for (const ClientSlot& slot : slots_)
    for (std::size_t i = 0; i < slot.next; ++i) fn(slot.pool[i]);
}

GenCounters LoadGen::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

std::vector<double> LoadGen::late_ms() const {
  std::lock_guard lock(mu_);
  return late_ms_;
}

std::vector<protocol::Message> LoadGen::sample_responses() const {
  std::lock_guard lock(mu_);
  return sample_responses_;
}

}  // namespace rdb::e2e
