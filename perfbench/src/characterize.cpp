// Workload `characterize`: what the figure suite does, cold and without
// cache I/O — a Sweep::compute over one file per domain (msg_bt,
// num_brain, obs_temp; one chunk per input), then TimingGrid::evaluate
// (44 cells x 107,632 pipelines) and letter values for every cell. It
// exercises charlab and gpusim with no container, checksum or socket, so a
// kernel gain shows here and in `bulk`, while a container or glue gain is
// predicted to show no change here. Phase 1 = the sweep, phase 2 = grid
// evaluation plus letter values; one characterization = one sample.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "charlab/letter_values.h"
#include "charlab/sweep.h"
#include "charlab/timing_grid.h"
#include "common/hash.h"
#include "data/sp_dataset.h"
#include "harness.h"
#include "telemetry/metrics.h"

namespace pb {
namespace {

const std::vector<std::string> kInputs = {"msg_bt", "num_brain", "obs_temp"};
// Stage encodes of one sweep, at every seed: per input chunk, the 62
// components as stage 1, 62 x 62 stage-1/2 pairs and 62 x 62 x 28 full
// pipelines ending in a reducer.
constexpr std::uint64_t kStageEncodes = 3 * (62 + 62 * 62 + 62 * 62 * 28);

/// Everything one characterization produces that is pinned per seed.
struct Outcome {
  std::uint64_t stage_encodes = 0;
  std::uint64_t digest = 0;  ///< grid values + letter values + encodes
  double best_ratio = 0;     ///< geomean over inputs of the best pipeline
};

std::uint64_t digest_doubles(std::uint64_t h, const double* v, std::size_t n) {
  return digest_bytes(
      lc::ByteSpan(reinterpret_cast<const lc::Byte*>(v), n * sizeof(double)),
      h);
}

/// Geometric mean over inputs of the highest compression ratio any
/// three-stage pipeline reaches on that input's chunk — the sweep's answer
/// to "how well can LC compress this file".
double best_ratio(const lc::charlab::Sweep& s) {
  double log_sum = 0;
  for (std::size_t in = 0; in < s.num_inputs(); ++in) {
    const double raw = s.stage1_record(in, 0).avg_in;
    double best = 0;
    for (std::size_t a = 0; a < s.num_components(); ++a) {
      for (std::size_t b = 0; b < s.num_components(); ++b) {
        for (std::size_t c = 0; c < s.num_reducers(); ++c) {
          const lc::charlab::StageRecord& r = s.stage3_record(in, a, b, c);
          const double out =
              r.applied * r.avg_out + (1.0 - r.applied) * r.avg_in;
          if (out > 0) best = std::max(best, raw / out);
        }
      }
    }
    log_sum += std::log(best);
  }
  return std::exp(log_sum / static_cast<double>(s.num_inputs()));
}

class Characterize final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    pool_.reset();
    corpus_.clear();
    // The sweep synthesizes its inputs itself; generating them here too
    // gives the input digest and the data layer's rate.
    const std::uint64_t g0 = now_ns();
    for (const std::string& name : kInputs) {
      const lc::Bytes b = lc::data::generate_sp_file(
          name, lc::data::kDefaultScale, ctx.seed);
      corpus_.insert(corpus_.end(), b.begin(), b.end());
    }
    generate_s_ = static_cast<double>(now_ns() - g0) / 1e9;
    pool_ = std::make_unique<lc::ThreadPool>(pool_threads());
    // Warm-up characterization; its outcome is the reference every timed
    // one must reproduce (the first sweep in a process is ~40% slower).
    Sample unused;
    reference_ = characterize(ctx, 0, unused);
    ctx.checks.check(reference_.stage_encodes == kStageEncodes,
                     "characterize warm-up stage_encodes");
  }

  double generated_bytes() const override {
    return static_cast<double>(corpus_.size());
  }
  double generate_s() const override { return generate_s_; }
  std::uint64_t input_digest() const override { return digest_bytes(corpus_); }

  Sample run_once(RunContext& ctx, std::uint64_t op_id) override {
    Sample s;
    Outcome o = characterize(ctx, op_id, s);
    s.ratio = o.best_ratio;
    if (ctx.inject_fault) o.digest ^= 1;  // negative control
    const Tracer::Scope sp(ctx.tracer, "characterize.verify", op_id);
    ctx.checks.check(o.stage_encodes == kStageEncodes,
                     "characterize stage_encodes");
    ctx.checks.check(o.digest == reference_.digest &&
                         o.best_ratio == reference_.best_ratio,
                     "characterize grid/letter-value digest");
    return s;
  }

  ProbeInputs probe_inputs() const override {
    return {lc::ByteSpan(corpus_.data(), corpus_.size()), kInputs};
  }
  lc::ThreadPool& pool() override { return *pool_; }
  std::string pins() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"stage_encodes\": %llu, \"output_digest\": \"%016llx\", "
                  "\"compression_ratio\": %.9f",
                  static_cast<unsigned long long>(reference_.stage_encodes),
                  static_cast<unsigned long long>(reference_.digest),
                  reference_.best_ratio);
    return buf;
  }

  void print_native(const Sample& m) const override {
    std::printf("  sweep_s              %12.6f s     (lower)\n",
                m.phase1_ms / 1e3);
    std::printf("  grid_s               %12.6f s     (lower)\n",
                m.phase2_ms / 1e3);
    std::printf("  sweep_cpu_s          %12.6f s     (lower)\n",
                m.phase1_cpu_ms / 1e3);
  }

 private:
  Outcome characterize(RunContext& ctx, std::uint64_t op_id, Sample& s) {
    namespace cl = lc::charlab;
    Tracer& tr = ctx.tracer;
    const Tracer::Scope top(tr, "characterize.run", op_id);
    cl::SweepConfig cfg;
    cfg.inputs = kInputs;
    cfg.chunks_per_input = 1;
    cfg.seed_salt = ctx.seed;
    cfg.use_cache = false;

    lc::telemetry::Counter& encodes =
        lc::telemetry::counter("charlab.sweep.stage_encodes");
    const std::uint64_t e0 = encodes.value();
    const PhaseTimer sweep_timer;
    const cl::Sweep sweep = [&] {
      const Tracer::Scope sp(tr, "charlab.sweep", op_id);
      return cl::Sweep::compute(cfg, *pool_);
    }();
    sweep_timer.add_to(s.phase1_ms, s.wall_ms, s.phase1_cpu_ms);

    Outcome o;
    o.stage_encodes = encodes.value() - e0;
    const PhaseTimer grid_timer;
    const cl::TimingGrid grid = [&] {
      const Tracer::Scope sp(tr, "gpusim.grid_evaluate", op_id);
      return cl::TimingGrid::evaluate(sweep, *pool_);
    }();
    std::vector<cl::LetterValueSummary> lvs;
    {
      const Tracer::Scope sp(tr, "charlab.letter_values", op_id);
      for (const cl::GridCell& c : cl::TimingGrid::cells()) {
        lvs.push_back(cl::letter_values(
            grid.cell_values(*c.gpu, c.tc, c.opt, c.dir).to_vector()));
      }
    }
    grid_timer.add_to(s.phase2_ms, s.wall_ms, s.phase2_cpu_ms);

    const Tracer::Scope sp(tr, "characterize.digest", op_id);
    std::uint64_t h = o.stage_encodes;
    for (const cl::GridCell& c : cl::TimingGrid::cells()) {
      const cl::CellView v = grid.cell_values(*c.gpu, c.tc, c.opt, c.dir);
      h = digest_doubles(h, v.data(), v.size());
    }
    for (const cl::LetterValueSummary& lv : lvs) {
      const double head[] = {lv.median, lv.min, lv.max,
                             static_cast<double>(lv.count)};
      h = digest_doubles(h, head, 4);
      for (const cl::LetterValuePair& b : lv.boxes) {
        const double pair[] = {b.lower, b.upper};
        h = digest_doubles(h, pair, 2);
      }
    }
    o.digest = h;
    o.best_ratio = best_ratio(sweep);
    return o;
  }

  lc::Bytes corpus_;
  double generate_s_ = 0;
  Outcome reference_;
  std::unique_ptr<lc::ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_characterize() {
  return std::make_unique<Characterize>();
}

}  // namespace pb
