#include "systems.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runtime/cluster.h"
#include "storage/env.h"
#include "storage/mem_store.h"
#include "storage/page_db.h"

extern char** environ;

namespace rdb::e2e {

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

// ---------------------------------------------------------------------------
// In-process cluster.
// ---------------------------------------------------------------------------

InprocSystem::InprocSystem(const WorkloadSpec& w, const std::string& data_dir,
                           Instruments* inst) {
  // ClusterConfig supplies every knob the workload does not name, so the
  // shipped defaults are what gets measured.
  runtime::ClusterConfig cc;
  cc.replicas = kReplicas;
  cc.batch_size = w.batch_size;
  cc.schemes = w.schemes;
  cc.durable = w.durable;
  cc.data_dir = data_dir;
  cc.storage_env = inst ? inst->env() : nullptr;
  if (inst) {
    tracing_ = std::make_unique<TracingTransport>(inproc_, cc.replicas);
    wire_ = tracing_.get();
  }
  workload::YcsbConfig yc;
  yc.read_fraction = w.read_fraction;
  auto ycsb = std::make_shared<const workload::YcsbWorkload>(yc);

  // Stores are built (and the YCSB table loaded) on one thread per replica.
  std::vector<std::unique_ptr<storage::KvStore>> stores(cc.replicas);
  std::vector<std::exception_ptr> errors(cc.replicas);
  {
    std::vector<std::jthread> fill;
    for (ReplicaId r = 0; r < cc.replicas; ++r) {
      fill.emplace_back([&, r] {
        try {
          if (cc.durable) {
            const std::string dir = cc.data_dir + "/r" + std::to_string(r);
            storage::Env& env =
                cc.storage_env ? *cc.storage_env : storage::Env::real();
            env.make_dirs(dir);
            storage::PageDbConfig pc;
            pc.path = dir + "/kv.pagedb";
            pc.env = cc.storage_env;
            pc.sync_wal = false;  // the replica's group commit calls commit_wave()
            stores[r] = std::make_unique<storage::PageDb>(pc);
          } else {
            auto mem = std::make_unique<storage::MemStore>();
            ycsb->populate(*mem);
            stores[r] = std::move(mem);
          }
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  for (ReplicaId r = 0; r < cc.replicas; ++r) {
    runtime::ReplicaConfig rc;
    rc.n = cc.replicas;
    rc.id = r;
    rc.batch_threads = cc.batch_threads;
    rc.output_threads = cc.output_threads;
    rc.verify_threads = cc.verify_threads;
    rc.verify_batch_size = cc.verify_batch_size;
    rc.verify_batch_wait_ns = cc.verify_batch_wait_ns;
    rc.verify_certificates = cc.verify_certificates;
    rc.batch_size = cc.batch_size;
    rc.checkpoint_interval = cc.checkpoint_interval;
    rc.request_timeout_ns = cc.request_timeout_ns;
    rc.catchup_poll_ns = cc.catchup_poll_ns;
    rc.schemes = cc.schemes;
    rc.enable_snapshots = cc.enable_snapshots;
    if (cc.durable) {
      rc.durability.enabled = true;
      rc.durability.dir = cc.data_dir + "/r" + std::to_string(r);
      rc.durability.sync = cc.durable_sync;
      rc.durability.env = cc.storage_env;
    }
    runtime::ExecuteFn exec = [ycsb](const protocol::Transaction& t,
                                     storage::KvStore& s) {
      return ycsb->execute(t, s);
    };
    std::unique_ptr<storage::KvStore> store = std::move(stores[r]);
    if (inst) {
      exec = inst->wrap(std::move(exec));
      store = inst->wrap(std::move(store));
    }
    replicas_.push_back(std::make_unique<runtime::Replica>(
        rc, *wire_, registry_, std::move(store), std::move(exec)));
  }
  for (auto& r : replicas_) {
    started_ns_.push_back(now_ns());
    r->start();
  }
}

InprocSystem::~InprocSystem() { stop(); }

Snapshot InprocSystem::snapshot() {
  Snapshot s;
  s.t_ns = now_ns();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Snapshot::ReplicaSample rs;
    if (replicas_[i]) {
      rs.alive = true;
      rs.primary = replicas_[i]->is_primary();
      rs.stats = replicas_[i]->stats();
      // thread_saturations() reports busy time as a share of the time since
      // start(); scaling back gives cumulative busy ns, so two snapshots
      // bound a window.
      const auto sats = replicas_[i]->thread_saturations();
      const double since = static_cast<double>(now_ns() - started_ns_[i]);
      for (const auto& t : sats)
        rs.busy_ns.emplace_back(t.thread, t.percent / 100.0 * since);
    }
    s.replicas.push_back(std::move(rs));
  }
  s.ctx_switches = proc_ctx_switches(getpid());
  s.threads = proc_threads(getpid());
  return s;
}

void InprocSystem::kill_primary() {
  // As LocalCluster::kill_replica: stop the threads, destroy all state.
  for (auto& r : replicas_) {
    if (r && r->is_primary()) {
      r->stop();
      r.reset();
      return;
    }
  }
}

void InprocSystem::stop() {
  for (auto& r : replicas_)
    if (r) r->stop();
}

void InprocSystem::check(RunRecord& rec, bool fault_free) {
  std::uint64_t divergence = 0, invalid = 0, rejected = 0, duplicates = 0;
  std::uint64_t shared = 0, mismatched = 0;
  std::vector<const runtime::Replica*> live;
  for (const auto& r : replicas_) {
    if (!r) continue;
    live.push_back(r.get());
    const auto s = r->stats();
    divergence += s.exec_divergence + (r->diverged() ? 1 : 0);
    invalid += s.invalid_signatures;
    rejected += s.rejected_total;
    duplicates += s.duplicate_txns;
  }
  for (std::size_t a = 0; a < live.size(); ++a) {
    for (std::size_t b = a + 1; b < live.size(); ++b) {
      const auto& fa = live[a]->exec_fingerprints();
      const auto& fb = live[b]->exec_fingerprints();
      for (const auto& [seq, digest] : fa) {
        auto it = fb.find(seq);
        if (it == fb.end()) continue;
        ++shared;
        if (!(it->second == digest)) ++mismatched;
      }
    }
  }
  rec.check("exec_fingerprints", shared > 0 && mismatched == 0,
            std::to_string(shared) + " shared boundaries, " +
                std::to_string(mismatched) + " differ");
  rec.check("replica_counters", divergence == 0 && invalid == 0 && rejected == 0,
            "exec_divergence=" + std::to_string(divergence) +
                " invalid_signatures=" + std::to_string(invalid) +
                " rejected_total=" + std::to_string(rejected));
  if (fault_free)
    rec.check("no_duplicate_txns", duplicates == 0,
              "duplicate_txns=" + std::to_string(duplicates));
}

// ---------------------------------------------------------------------------
// rdb_replica processes over loopback TCP.
// ---------------------------------------------------------------------------

namespace {

runtime::TcpTransportConfig small_pool() {
  runtime::TcpTransportConfig c;
  c.frame_pool_slabs = 1;
  return c;
}

/// A free port: bind an ephemeral listener and release it.
std::uint16_t free_port() {
  runtime::TcpTransport probe(Endpoint::replica(0), 0, small_pool());
  return probe.port();
}

bool log_has(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text.find(needle) != std::string::npos;
}

void reap(std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  pids.clear();
}

}  // namespace

TcpSystem::TcpSystem(const WorkloadSpec& w, const std::string& replica_bin,
                     const std::string& dir)
    : dir_(dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::uint16_t> ports;
  for (std::uint32_t r = 0; r < kReplicas; ++r) ports.push_back(free_port());
  client_ = std::make_unique<runtime::TcpTransport>(Endpoint::client(0), 0);
  const std::string topo = dir + "/cluster.topo";
  {
    std::ofstream out(topo);
    for (std::uint32_t r = 0; r < kReplicas; ++r)
      out << "replica " << r << " 127.0.0.1 " << ports[r] << "\n";
    out << "client 0 127.0.0.1 " << client_->port() << "\n";
  }
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    client_->add_peer(Endpoint::replica(r), runtime::TcpPeer{"127.0.0.1", ports[r]});

  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    std::vector<std::string> args = {replica_bin, "--id", std::to_string(r),
                                     "--topology", topo, "--batch-size",
                                     std::to_string(w.batch_size)};
    if (w.schemes.replica_scheme == crypto::SignatureScheme::kEd25519) {
      args.push_back("--schemes");
      args.push_back("ed25519");
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/rep" + std::to_string(r) + ".log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, replica_bin.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      kill_all();
      throw std::runtime_error("cannot start " + replica_bin);
    }
    pids_.push_back(pid);
    LoadGen::set_kill_hook([pids = pids_]() mutable { reap(pids); });
  }

  // Every replica listens before the probe goes out, so no first dial hits
  // a closed port and waits out the reconnect backoff.
  const auto deadline = now_ns() + 20'000'000'000LL;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const std::string log = dir + "/rep" + std::to_string(r) + ".log";
    while (!log_has(log, "up on port")) {
      if (now_ns() > deadline || ::waitpid(pids_[r], nullptr, WNOHANG) != 0) {
        kill_all();
        throw std::runtime_error("rdb_replica " + std::to_string(r) +
                                 " did not come up; see " + log);
      }
      sleep_ms(1);
    }
  }
}

TcpSystem::~TcpSystem() {
  kill_all();
  client_->stop();
}

void TcpSystem::kill_all() {
  reap(pids_);
  LoadGen::set_kill_hook({});
}

Snapshot TcpSystem::snapshot() {
  Snapshot s;
  s.t_ns = now_ns();
  for (pid_t pid : pids_) {
    s.replica_cpu_s += proc_cpu_s(pid);
    s.ctx_switches += proc_ctx_switches(pid);
    s.threads += proc_threads(pid);
  }
  return s;
}

void TcpSystem::stop() {
  for (pid_t pid : pids_) ::kill(pid, SIGTERM);
  const auto deadline = now_ns() + 6'000'000'000LL;
  std::vector<pid_t> left = pids_;
  while (!left.empty() && now_ns() < deadline) {
    std::erase_if(left, [this](pid_t pid) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) != pid) return false;
      clean_exit_ = clean_exit_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      return true;
    });
    sleep_ms(5);
  }
  if (!left.empty()) clean_exit_ = false;
  reap(left);
  pids_.clear();
  LoadGen::set_kill_hook({});
  client_->stop();
}

void TcpSystem::check(RunRecord& rec, bool /*fault_free*/) {
  // Execution fingerprints and duplicate counts stay inside the processes;
  // what rdb_replica prints is its periodic status line.
  std::uint64_t invalid = 0, status_lines = 0;
  bool rejects = false;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    std::ifstream in(dir_ + "/rep" + std::to_string(r) + ".log");
    std::string line;
    std::uint64_t last_invalid = 0;
    while (std::getline(in, line)) {
      if (line.find("rejected_messages") != std::string::npos) rejects = true;
      auto at = line.find("invalid-sigs=");
      if (at == std::string::npos) continue;
      ++status_lines;
      last_invalid = std::stoull(line.substr(at + 13));
    }
    invalid += last_invalid;
  }
  rec.check("replica_counters", invalid == 0 && !rejects,
            "invalid_signatures=" + std::to_string(invalid) +
                (rejects ? " with rejected frames" : " no rejected frames") +
                " (" + std::to_string(status_lines) + " status lines)");
  rec.check("replica_exit", clean_exit_, clean_exit_
                                             ? "all replicas exited 0 on SIGTERM"
                                             : "a replica needed SIGKILL or failed");
}

}  // namespace rdb::e2e
