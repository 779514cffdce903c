// Workload `bulk`: round-trips an ~84 MB corpus (the 13 SP files at 1/12
// of their Table 3 sizes, concatenated: ~5.1k 16 kB chunks, far past the
// 2 MiB per-core L2 and a quarter of a 300 MiB L3) through lc::compress and
// lc::decompress on a 4-thread pool, with two pipelines per pass:
//   * DIFF_4 TCMS_4 CLOG_4 — fusible (two tileable size-preserving stages
//     and a reducer), so chunks take the fused single-pass executor; its
//     kernels run near 1 GB/s per core, so the serial content checksum and
//     container glue dominate. (The server default DIFF_4 BIT_4 RLE_1 is
//     not fusible: BIT_4 is a shuffler.)
//   * DIFF_4 RARE_4 RAZE_1 — not fusible; the chunk kernels dominate.
// Phase 1 = compressing the corpus through both pipelines, phase 2 =
// decompressing it; one pass = one sample.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "data/sp_dataset.h"
#include "harness.h"
#include "lc/codec.h"
#include "lc/pipeline.h"

namespace pb {
namespace {

constexpr double kScale = 1.0 / 12.0;
constexpr const char* kSpecs[] = {"DIFF_4 TCMS_4 CLOG_4", "DIFF_4 RARE_4 RAZE_1"};

class Bulk final : public Workload {
 public:
  void setup(RunContext& ctx) override {
    corpus_.clear();
    corpus_.shrink_to_fit();
    pool_.reset();
    const std::uint64_t g0 = now_ns();
    for (const lc::data::SpFileInfo& f : lc::data::sp_files()) {
      const lc::Bytes b = lc::data::generate_sp_file(f.name, kScale, ctx.seed);
      corpus_.insert(corpus_.end(), b.begin(), b.end());
    }
    generate_s_ = static_cast<double>(now_ns() - g0) / 1e9;
    pool_ = std::make_unique<lc::ThreadPool>(pool_threads());
    pipelines_.clear();
    for (const char* spec : kSpecs) {
      pipelines_.push_back(lc::Pipeline::parse(spec));
    }
    // Warm-up: one round trip per pipeline (page-faults the output
    // buffers, fills the scratch arenas of every pool worker). Its ratio is
    // the reference every timed pass must reproduce.
    double out_bytes = 0;
    for (const lc::Pipeline& p : pipelines_) {
      const lc::Bytes c = lc::compress(p, corpus_, *pool_);
      const lc::Bytes d = lc::decompress(c, *pool_);
      ctx.checks.check(d == corpus_, "bulk warm-up round trip " + p.spec());
      out_bytes += static_cast<double>(c.size());
    }
    ratio_ = static_cast<double>(corpus_.size() * pipelines_.size()) / out_bytes;
  }

  double generated_bytes() const override {
    return static_cast<double>(corpus_.size());
  }
  double generate_s() const override { return generate_s_; }
  std::uint64_t input_digest() const override { return digest_bytes(corpus_); }

  Sample run_once(RunContext& ctx, std::uint64_t op_id) override {
    Tracer& tr = ctx.tracer;
    const Tracer::Scope pass(tr, "bulk.pass", op_id);
    Sample s;
    double in_bytes = 0, out_bytes = 0;
    for (std::size_t i = 0; i < pipelines_.size(); ++i) {
      const lc::Pipeline& p = pipelines_[i];
      const std::string arg = "pipeline=" + p.spec();
      const PhaseTimer compress_timer;
      lc::Bytes container;
      {
        const Tracer::Scope sp(tr, "lc.compress", op_id, arg);
        container = lc::compress(p, corpus_, *pool_);
      }
      compress_timer.add_to(s.phase1_ms, s.wall_ms, s.phase1_cpu_ms);
      in_bytes += static_cast<double>(corpus_.size());
      out_bytes += static_cast<double>(container.size());
      if (ctx.inject_fault && i == 0) {
        container[container.size() / 2] ^= 0x5A;  // negative control
      }

      const PhaseTimer decompress_timer;
      lc::Bytes restored;
      bool decoded = true;
      {
        const Tracer::Scope sp(tr, "lc.decompress", op_id, arg);
        try {
          restored = lc::decompress(container, *pool_);
        } catch (const lc::Error& e) {
          decoded = false;
          std::fprintf(stderr, "perfbench: bulk decompress: %s\n", e.what());
        }
      }
      decompress_timer.add_to(s.phase2_ms, s.wall_ms, s.phase2_cpu_ms);
      const Tracer::Scope sp(tr, "bulk.verify", op_id, arg);
      ctx.checks.check(decoded && restored == corpus_,
                       "bulk round trip " + p.spec());
    }
    s.ratio = in_bytes / out_bytes;
    ctx.checks.check(s.ratio == ratio_, "bulk compression ratio");
    return s;
  }

  ProbeInputs probe_inputs() const override {
    return {lc::ByteSpan(corpus_.data(), corpus_.size()), {"msg_bt"}};
  }
  lc::ThreadPool& pool() override { return *pool_; }
  std::string pins() const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"compression_ratio\": %.9f", ratio_);
    return buf;
  }

  void print_native(const Sample& m) const override {
    const double mb = static_cast<double>(corpus_.size()) * 2 / 1e6;
    std::printf("  compress_mb_s        %12.3f MB/s  (higher)\n",
                mb / (m.phase1_ms / 1e3));
    std::printf("  decompress_mb_s      %12.3f MB/s  (higher)\n",
                mb / (m.phase2_ms / 1e3));
    std::printf("  compress_cpu_mb_s    %12.3f MB/s  (higher)\n",
                mb / (m.phase1_cpu_ms / 1e3));
    std::printf("  decompress_cpu_mb_s  %12.3f MB/s  (higher)\n",
                mb / (m.phase2_cpu_ms / 1e3));
    std::printf("  compression_ratio    %12.6f x     (higher)\n", m.ratio);
  }

 private:
  lc::Bytes corpus_;
  double generate_s_ = 0;
  double ratio_ = 0;
  std::vector<lc::Pipeline> pipelines_;
  std::unique_ptr<lc::ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk() { return std::make_unique<Bulk>(); }

}  // namespace pb
