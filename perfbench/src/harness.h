#ifndef LC_PERFBENCH_HARNESS_H
#define LC_PERFBENCH_HARNESS_H

/// \file harness.h
/// Shared pieces of the end-to-end benchmark: clocks, the span recorder
/// behind the traced run, sample statistics, and the Workload interface
/// main.cpp runs. Everything here observes the libraries from
/// outside, through their public functions.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"

namespace pb {

[[nodiscard]] std::uint64_t now_ns();
/// CPU time of the whole process (every thread), in ns.
[[nodiscard]] std::uint64_t cpu_ns();
[[nodiscard]] double max_rss_mb();

/// Median, first and third quartile (linear interpolation between order
/// statistics).
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);
[[nodiscard]] double median(std::vector<double> v);
/// q-quantile of `v` (0 <= q <= 1), nearest rank on the sorted values.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Steal-time share of all CPU ticks between construction and sample(),
/// from /proc/stat. 0 when the file is unreadable.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double sample() const;

 private:
  std::uint64_t steal_ = 0, total_ = 0;
};

/// In-memory span recorder. Spans are recorded only on the thread that
/// drives the workload, around calls into the libraries, and written at
/// exit as Chrome trace-event JSON (the schema scripts/trace_summary.py
/// validates). Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint32_t id = 0, parent = 0;  ///< parent 0 = root
    std::uint64_t trace_id = 0;        ///< shared by one operation's spans
    std::string arg;                   ///< optional "key=value"
  };

  /// RAII span; ends at scope exit.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t trace_id,
          std::string arg = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;  ///< 0 = not recorded
  };

  bool enabled = false;
  /// Span cap. Spans opened past it are not recorded, only counted in
  /// dropped().
  std::size_t max_spans = 150'000;

  [[nodiscard]] bool full() const noexcept {
    return spans_.size() >= max_spans;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON; `other` is a JSON object body stored under
  /// "otherData" (workload name, per-layer metrics for the ledger).
  void write_chrome(const std::string& path, const std::string& other) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span indices + 1
  std::size_t dropped_ = 0;
};

/// Times one interval of the driving thread: wall time, process CPU time,
/// and the steady time = wall time less the share of host CPU ticks stolen
/// by the hypervisor meanwhile. A phase that keeps the four vCPUs busy loses
/// that share of its capacity, so the steady time is its wall time on an
/// unshared host. Between processes wall time follows host steal, which
/// ranges 0-20 % per run on a shared host; the steady time does not
/// (README.md, "Noise").
class PhaseTimer {
 public:
  PhaseTimer();
  /// Adds the interval since construction to the three accumulators.
  void add_to(double& steady_ms, double& wall_ms, double& cpu_ms) const;

 private:
  StealMeter steal_;
  std::uint64_t wall0_ = 0, cpu0_ = 0;
};

/// One timed unit of a workload (a bulk pass, a characterization). Every
/// end-to-end metric except setup_s, max_rss_mb and ok_frac is the median
/// over a run's samples of one field here.
struct Sample {
  double phase1_ms = 0;      ///< steady time of phase 1 (see PhaseTimer)
  double phase2_ms = 0;      ///< steady time of phase 2
  double phase1_cpu_ms = 0;  ///< process CPU of phase 1
  double phase2_cpu_ms = 0;
  double wall_ms = 0;        ///< wall time of both phases, steal included
  double ratio = 0;          ///< compression ratio of this sample's output
};

/// Correctness bookkeeping: every checked operation is attempted; a failed
/// check is counted, reported on stderr (first few) and never aborts.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what);
};

/// Inputs the per-layer probes (probes.cpp) run on, taken from the
/// workload's own generated data.
struct ProbeInputs {
  lc::ByteSpan corpus;                    ///< concatenated workload input
  std::vector<std::string> sweep_inputs;  ///< SP names for charlab probes
};

struct RunContext {
  std::uint64_t seed = 0;
  bool inject_fault = false;  ///< negative control: corrupt one output
  Tracer tracer;
  Checks checks;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Synthesize inputs, start the pool, warm up. Called several times
  /// per run (setup_s is the median); each call replaces the last state.
  virtual void setup(RunContext& ctx) = 0;
  /// Bytes generated by the last setup() and the time it took.
  [[nodiscard]] virtual double generated_bytes() const = 0;
  [[nodiscard]] virtual double generate_s() const = 0;
  /// Digest of every generated input byte (same seed => same digest).
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  /// One timed unit. `op_id` tags the unit's spans.
  virtual Sample run_once(RunContext& ctx, std::uint64_t op_id) = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
  [[nodiscard]] virtual lc::ThreadPool& pool() = 0;
  /// Outputs pinned per seed (perfbench/pins.json), as JSON object members.
  [[nodiscard]] virtual std::string pins() const = 0;
  /// Workload-native names of the end-to-end numbers (printed for humans;
  /// see README.md "Metric dictionary").
  virtual void print_native(const Sample& median) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_bulk();
[[nodiscard]] std::unique_ptr<Workload> make_characterize();

/// Emitted metric: name, unit, value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Runs every per-layer probe on the workload's inputs and appends the
/// per-layer metrics (all but the ones main.cpp measures itself).
void run_probes(RunContext& ctx, Workload& w, std::vector<Metric>& out);

/// Worker count for pools: the host's, capped at 4 (the benchmark's load is
/// one process with at most four busy threads).
[[nodiscard]] std::size_t pool_threads();

/// Order-sensitive digest of a byte range (word-wise, so digesting the
/// 84 MB bulk corpus costs milliseconds).
[[nodiscard]] std::uint64_t digest_bytes(lc::ByteSpan bytes,
                                         std::uint64_t seed = 0);

}  // namespace pb

#endif  // LC_PERFBENCH_HARNESS_H
