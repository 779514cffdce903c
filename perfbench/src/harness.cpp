#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "common/hash.h"

namespace pb {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double at(const std::vector<double>& sorted, double pos) {
  const double clamped =
      std::clamp(pos, 0.0, static_cast<double>(sorted.size() - 1));
  const auto lo = static_cast<std::size_t>(clamped);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (clamped - lo);
}

}  // namespace

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const double n1 = static_cast<double>(v.size() - 1);
  return {at(v, 0.25 * n1), at(v, 0.5 * n1), at(v, 0.75 * n1)};
}

double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

namespace {

bool read_cpu_ticks(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream f("/proc/stat");
  std::string tag;
  if (!(f >> tag) || tag != "cpu") return false;
  steal = total = 0;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    std::uint64_t v = 0;
    if (!(f >> v)) return false;
    total += v;
    if (i == 7) steal = v;
  }
  return true;
}

}  // namespace

StealMeter::StealMeter() { read_cpu_ticks(steal_, total_); }

double StealMeter::sample() const {
  std::uint64_t steal = 0, total = 0;
  if (!read_cpu_ticks(steal, total) || total <= total_) return 0.0;
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

PhaseTimer::PhaseTimer() : wall0_(now_ns()), cpu0_(cpu_ns()) {}

void PhaseTimer::add_to(double& steady_ms, double& wall_ms,
                        double& cpu_ms) const {
  const double wall = static_cast<double>(now_ns() - wall0_) / 1e6;
  cpu_ms += static_cast<double>(cpu_ns() - cpu0_) / 1e6;
  wall_ms += wall;
  steady_ms += wall * (1.0 - steal_.sample());
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t trace_id,
                     std::string arg)
    : tracer_(t) {
  if (!t.enabled) return;
  if (t.full()) {
    ++t.dropped_;
    return;
  }
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(t.spans_.size() + 1);
  s.parent = t.open_.empty() ? 0 : t.open_.back();
  s.trace_id = trace_id;
  s.arg = std::move(arg);
  t.spans_.push_back(std::move(s));
  index_ = t.spans_.back().id;
  t.open_.push_back(index_);
  t.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ == 0) return;
  tracer_.spans_[index_ - 1].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& other) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const int pid = static_cast<int>(getpid());
  f << "{\"traceEvents\":[\n";
  f << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
    << ",\"tid\":1,\"args\":{\"name\":\"lc_perfbench\"}}";
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":"
                  "\"%016llx\",\"span_id\":%u,\"parent_id\":%u",
                  s.name, pid, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.trace_id), s.id, s.parent);
    f << buf;
    const std::size_t eq = s.arg.find('=');
    if (eq != std::string::npos) {
      f << ",\"" << s.arg.substr(0, eq) << "\":\"" << s.arg.substr(eq + 1)
        << "\"";
    }
    f << "}}";
  }
  f << "\n],\"otherData\":{" << other << "}}\n";
}

void Checks::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::size_t pool_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::uint64_t digest_bytes(lc::ByteSpan bytes, std::uint64_t seed) {
  std::uint64_t h = lc::hash_combine(seed, bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001B3ULL;
  return lc::splitmix64(h);
}

}  // namespace pb
