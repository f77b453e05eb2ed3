#include "common.h"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

namespace rdb::e2e {

namespace {

double ticks_to_s(unsigned long long ticks) {
  return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Value of a "Key:\tvalue" line of a /proc status file (0 when absent).
std::uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':')
      return std::stoull(line.substr(klen + 1));
  }
  return 0;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const RunRecord& r, bool all, Kind kind) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : r.metrics) {
    if (!all && m.kind != kind) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + escape(m.name) + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + escape(m.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return ticks_to_s(utime + stime);
}

std::uint64_t proc_ctx_switches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string status = dir + "/" + e->d_name + "/status";
    total += status_field(status, "voluntary_ctxt_switches") +
             status_field(status, "nonvoluntary_ctxt_switches");
  }
  closedir(d);
  return total;
}

std::uint64_t proc_threads(pid_t pid) {
  return status_field("/proc/" + std::to_string(pid) + "/status", "Threads");
}

double thread_cpu_s(pthread_t t) {
  clockid_t id;
  if (pthread_getcpuclockid(t, &id) != 0) return 0;
  return clock_s(id);
}

double self_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

std::string to_json(const RunRecord& r) {
  std::string out = "{\"workload\": \"" + escape(r.workload) + "\"";
  out += ", \"seed\": " + std::to_string(r.seed);
  out += ", \"seconds\": " + number(r.seconds);
  out += ", \"traced\": " + std::string(r.traced ? "true" : "false");
  out += ", \"valid\": " + std::string(r.valid() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"latency_samples\": " + std::to_string(r.latency_samples);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    if (i) out += ", ";
    out += "{\"name\": \"" + escape(c.name) + "\", \"ok\": " +
           (c.ok ? "true" : "false") + ", \"detail\": \"" + escape(c.detail) +
           "\"}";
  }
  out += "], \"metrics\": " + metrics_json(r, true, Kind::kLayer) + "}";
  return out;
}

std::string summary_json(const RunRecord& r, Kind kind) {
  std::string out = "{\"correct\": ";
  out += r.valid() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": " + metrics_json(r, false, kind) + "}";
  return out;
}

}  // namespace rdb::e2e

