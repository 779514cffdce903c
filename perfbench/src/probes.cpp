// Per-layer probes of the traced run. Each probe calls one layer's public
// function on the running workload's own inputs, from outside, and records
// a span around the call. Every workload runs every probe so each traced
// run reports the same per-layer metric set; README.md lists which
// end-to-end metric each probe should move, on which workload.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "charlab/letter_values.h"
#include "charlab/stage_eval.h"
#include "charlab/sweep.h"
#include "charlab/timing_grid.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/scan.h"
#include "harness.h"
#include "lc/codec.h"
#include "lc/pipeline.h"
#include "lc/registry.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace pb {
namespace {

using lc::Bytes;
using lc::ByteSpan;

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

struct ChunkSet {
  std::vector<ByteSpan> chunks;
  std::vector<std::uint8_t> masks;
  std::vector<Bytes> records;
  std::vector<std::uint64_t> sizes;  ///< record sizes, for the scans
};

ChunkSet split(ByteSpan corpus) {
  ChunkSet s;
  for (std::size_t lo = 0; lo < corpus.size(); lo += lc::kChunkSize) {
    s.chunks.push_back(
        corpus.subspan(lo, std::min(lc::kChunkSize, corpus.size() - lo)));
  }
  s.masks.assign(s.chunks.size(), 0);
  s.records.resize(s.chunks.size());
  s.sizes.resize(s.chunks.size());
  return s;
}

void add(std::vector<Metric>& out, const std::string& name, const char* unit,
         double value) {
  out.push_back({name, unit, value});
}

/// One-thread chunk kernels over every chunk, then the pool-wide
/// compress/decompress split into kernel, checksum, frame CRC, scan and
/// glue.
void probe_codec(RunContext& ctx, Workload& w, const ProbeInputs& in,
                 const char* tag, const char* spec, ChunkSet& cs,
                 std::vector<Metric>& out) {
  Tracer& tr = ctx.tracer;
  const lc::Pipeline p = lc::Pipeline::parse(spec);
  const ByteSpan corpus = in.corpus;
  const std::string arg = std::string("pipeline=") + spec;
  lc::ThreadPool& pool = w.pool();

  double enc_ns = 0, dec_ns = 0;
  {
    const Tracer::Scope sp(tr, "probe.encode_chunk", 0, arg);
    for (std::size_t c = 0; c < cs.chunks.size(); ++c) {
      const std::uint64_t t0 = now_ns();
      lc::encode_chunk_into(p, cs.chunks[c], cs.masks[c], cs.records[c]);
      enc_ns += static_cast<double>(now_ns() - t0);
      cs.sizes[c] = cs.records[c].size();
    }
  }
  {
    const Tracer::Scope sp(tr, "probe.decode_chunk", 0, arg);
    Bytes restored;
    for (std::size_t c = 0; c < cs.chunks.size(); ++c) {
      const std::uint64_t t0 = now_ns();
      lc::decode_chunk(p, cs.records[c], cs.masks[c], cs.chunks[c].size(),
                       restored);
      dec_ns += static_cast<double>(now_ns() - t0);
      ctx.checks.check(restored.size() == cs.chunks[c].size() &&
                           std::memcmp(restored.data(), cs.chunks[c].data(),
                                       restored.size()) == 0,
                       std::string("probe decode_chunk ") + spec);
    }
  }
  const double mb = static_cast<double>(corpus.size()) / 1e6;
  add(out, std::string("lc.encode_chunk_mb_s.") + tag, "MB/s",
      mb / (enc_ns / 1e9));
  add(out, std::string("lc.decode_chunk_mb_s.") + tag, "MB/s",
      mb / (dec_ns / 1e9));

  // Pool-wide split. The parts are timed back to back with the real call,
  // on the same pool and bytes; what the parts do not cover is container
  // glue (record allocation, framing, placement, the frame walk). The
  // frame CRC is the v3 container's per-frame hash_bytes32, which compress
  // runs serially over every record and decompress over the whole body.
  // Repetitions: enough for ~250 MB per part (3 on bulk's corpus), after
  // a warm-up (rep 0) that is neither recorded nor counted.
  std::vector<double> cw, ck, cs_ms, ccrc, csc, dw, dk, dh, dcrc, dsc;
  std::vector<Bytes> par_records(cs.chunks.size());
  std::vector<std::uint64_t> offsets;
  const int reps = std::clamp(
      static_cast<int>(2.5e8 / static_cast<double>(corpus.size())), 3, 31);
  const bool tracing = tr.enabled;
  for (int rep = 0; rep <= reps; ++rep) {
    const std::uint64_t id = static_cast<std::uint64_t>(rep);
    tr.enabled = tracing && rep > 0;
    Bytes container;
    std::uint64_t t0 = now_ns();
    {
      const Tracer::Scope sp(tr, "probe.compress", id, arg);
      container = lc::compress(p, corpus, pool);
    }
    cw.push_back(ms_since(t0));
    {
      const Tracer::Scope sp(tr, "probe.compress.kernel", id, arg);
      t0 = now_ns();
      lc::parallel_for(pool, 0, cs.chunks.size(), [&](std::size_t c) {
        std::uint8_t mask = 0;
        lc::encode_chunk_into(p, cs.chunks[c], mask, par_records[c]);
      });
      ck.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.compress.checksum", id, arg);
      t0 = now_ns();
      volatile std::uint64_t h = lc::hash_bytes(corpus.data(), corpus.size());
      (void)h;
      cs_ms.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.compress.frame_crc", id, arg);
      t0 = now_ns();
      std::uint32_t crc = 0;
      for (const Bytes& r : par_records) {
        crc ^= lc::hash_bytes32(r.data(), r.size());
      }
      volatile std::uint32_t sink = crc;
      (void)sink;
      ccrc.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.compress.scan", id, arg);
      t0 = now_ns();
      (void)lc::exclusive_scan_lookback(pool, cs.sizes, offsets);
      csc.push_back(ms_since(t0));
    }

    Bytes restored;
    t0 = now_ns();
    {
      const Tracer::Scope sp(tr, "probe.decompress", id, arg);
      restored = lc::decompress(container, pool);
    }
    dw.push_back(ms_since(t0));
    ctx.checks.check(restored.size() == corpus.size() &&
                         std::memcmp(restored.data(), corpus.data(),
                                     corpus.size()) == 0,
                     std::string("probe round trip ") + spec);
    {
      const Tracer::Scope sp(tr, "probe.decompress.kernel", id, arg);
      t0 = now_ns();
      lc::parallel_for(pool, 0, cs.chunks.size(), [&](std::size_t c) {
        lc::decode_chunk(p, cs.records[c], cs.masks[c], cs.chunks[c].size(),
                         par_records[c]);
      });
      dk.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.decompress.checksum", id, arg);
      t0 = now_ns();
      volatile std::uint64_t h =
          lc::hash_bytes(restored.data(), restored.size());
      (void)h;
      dh.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.decompress.frame_crc", id, arg);
      t0 = now_ns();
      volatile std::uint32_t crc =
          lc::hash_bytes32(container.data(), container.size());
      (void)crc;
      dcrc.push_back(ms_since(t0));
    }
    {
      const Tracer::Scope sp(tr, "probe.decompress.scan", id, arg);
      t0 = now_ns();
      (void)lc::exclusive_scan_blocked(pool, cs.sizes, offsets);
      dsc.push_back(ms_since(t0));
    }
  }
  tr.enabled = tracing;
  const auto timed = [](const std::vector<double>& v) {
    return median(std::vector<double>(v.begin() + 1, v.end()));
  };
  const double c_wall = timed(cw), d_wall = timed(dw);
  add(out, std::string("lc.compress_glue_frac.") + tag, "fraction",
      (c_wall - timed(ck) - timed(cs_ms) - timed(ccrc) - timed(csc)) /
          c_wall);
  add(out, std::string("lc.decompress_glue_frac.") + tag, "fraction",
      (d_wall - timed(dk) - timed(dh) - timed(dcrc) - timed(dsc)) / d_wall);
}

void probe_common(RunContext& ctx, Workload& w, const ProbeInputs& in,
                  const ChunkSet& cs, std::vector<Metric>& out) {
  Tracer& tr = ctx.tracer;
  const ByteSpan corpus = in.corpus;
  lc::ThreadPool& pool = w.pool();
  std::vector<double> hash_s, look_us, block_us, pf_us;
  std::vector<std::uint64_t> offsets;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t t0 = now_ns();
    {
      const Tracer::Scope sp(tr, "probe.hash_bytes", 0);
      volatile std::uint64_t h = lc::hash_bytes(corpus.data(), corpus.size());
      (void)h;
    }
    hash_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // The scans and the empty parallel_for take microseconds; repeat each
  // enough times for a stable median.
  for (int rep = 0; rep < 200; ++rep) {
    std::uint64_t t0 = now_ns();
    (void)lc::exclusive_scan_lookback(pool, cs.sizes, offsets);
    look_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    t0 = now_ns();
    (void)lc::exclusive_scan_blocked(pool, cs.sizes, offsets);
    block_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    t0 = now_ns();
    lc::parallel_for(pool, 0, cs.chunks.size(), [](std::size_t) {});
    pf_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  add(out, "common.hash_bytes_mb_s", "MB/s",
      static_cast<double>(corpus.size()) / 1e6 / median(hash_s));
  add(out, "common.scan_lookback_us", "us", median(look_us));
  add(out, "common.scan_blocked_us", "us", median(block_us));
  add(out, "common.parallel_for_us", "us", median(pf_us));
}

void probe_compress_4k(RunContext& ctx, const ProbeInputs& in,
                       std::vector<Metric>& out) {
  const ByteSpan payload =
      in.corpus.subspan(0, std::min<std::size_t>(4096, in.corpus.size()));
  // The server's default pipeline, as a 4 KB server request gets it.
  const lc::Pipeline p = lc::Pipeline::parse("DIFF_4 BIT_4 RLE_1");
  lc::ThreadPool one(1);
  std::vector<double> us;
  const Tracer::Scope sp(ctx.tracer, "probe.compress_4k", 0);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t0 = now_ns();
    const Bytes c = lc::compress(p, payload, one);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  add(out, "lc.compress_4k_us", "us", median(us));
}

void probe_server(RunContext& ctx, const ProbeInputs& in,
                  std::vector<Metric>& out) {
  namespace srv = lc::server;
  const std::size_t n_payloads =
      std::max<std::size_t>(1, std::min<std::size_t>(64, in.corpus.size() / 4096));
  std::vector<Bytes> payloads, containers;
  for (std::size_t k = 0; k < n_payloads; ++k) {
    const ByteSpan s = in.corpus.subspan(
        k * 4096, std::min<std::size_t>(4096, in.corpus.size() - k * 4096));
    payloads.emplace_back(s.begin(), s.end());
  }
  srv::ServerConfig cfg;
  cfg.unix_path = "perfbench-" + std::to_string(getpid()) + "-probe.sock";
  cfg.workers = 1;
  srv::Server server(cfg);
  server.start();
  srv::Client client = srv::Client::connect_unix(cfg.unix_path);
  for (const Bytes& p : payloads) {
    containers.push_back(client.call(srv::Op::kCompress, p).payload);
  }
  constexpr std::size_t kCalls = 5000;
  std::vector<double> ping, comp, decomp;
  Tracer& tr = ctx.tracer;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::size_t k = i % payloads.size();
    const std::uint64_t id = 0x9E000000ULL + i;
    const auto timed = [&](const char* name, srv::Op op, const Bytes& body,
                           std::vector<double>& into) {
      const Tracer::Scope sp(tr, name, id);
      const std::uint64_t t0 = now_ns();
      const srv::Response r = client.call(op, body);
      into.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      ctx.checks.check(r.status == srv::Status::kOk,
                       std::string("probe server ") + srv::to_string(op));
    };
    timed("probe.server.ping", srv::Op::kPing, payloads[k], ping);
    timed("probe.server.compress", srv::Op::kCompress, payloads[k], comp);
    timed("probe.server.decompress", srv::Op::kDecompress, containers[k],
          decomp);
  }
  client.close();
  server.stop();
  add(out, "server.ping_us", "us", median(ping));
  add(out, "server.compress_call_us", "us", median(comp));
  add(out, "server.decompress_call_us", "us", median(decomp));
  // Tails of this probe's codec calls.
  std::vector<double> tail = comp;
  tail.insert(tail.end(), decomp.begin(), decomp.end());
  add(out, "server.p99_us", "us", percentile(tail, 0.99));
  add(out, "server.p999_us", "us", percentile(tail, 0.999));
}

void probe_charlab(RunContext& ctx, Workload& w, const ProbeInputs& in,
                   std::vector<Metric>& out) {
  namespace cl = lc::charlab;
  Tracer& tr = ctx.tracer;
  const ByteSpan chunk =
      in.corpus.subspan(0, std::min(lc::kChunkSize, in.corpus.size()));
  std::vector<double> us;
  Bytes scratch;
  {
    const Tracer::Scope sp(tr, "probe.eval_stage", 0);
    for (int rep = 0; rep < 20; ++rep) {
      const std::uint64_t t0 = now_ns();
      for (const lc::Component* c : lc::Registry::instance().all()) {
        (void)cl::eval_stage(*c, chunk, scratch);
      }
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  add(out, "charlab.eval_stage_us", "us", median(us));

  cl::SweepConfig cfg;
  cfg.inputs = in.sweep_inputs;
  cfg.chunks_per_input = 1;
  cfg.seed_salt = ctx.seed;
  cfg.use_cache = false;
  lc::telemetry::Counter& encodes =
      lc::telemetry::counter("charlab.sweep.stage_encodes");
  const std::uint64_t e0 = encodes.value();
  const cl::Sweep sweep = [&] {
    const Tracer::Scope sp(tr, "probe.sweep", 0);
    return cl::Sweep::compute(cfg, w.pool());
  }();
  add(out, "charlab.stage_encodes", "count",
      static_cast<double>(encodes.value() - e0));

  const std::uint64_t w0 = now_ns(), c0 = cpu_ns();
  const cl::TimingGrid grid = [&] {
    const Tracer::Scope sp(tr, "probe.grid_evaluate", 0);
    return cl::TimingGrid::evaluate(sweep, w.pool());
  }();
  add(out, "gpusim.grid_eval_s", "s", static_cast<double>(now_ns() - w0) / 1e9);
  add(out, "gpusim.grid_cpu_s", "s", static_cast<double>(cpu_ns() - c0) / 1e9);
  const std::uint64_t l0 = now_ns();
  {
    const Tracer::Scope sp(tr, "probe.letter_values", 0);
    for (const cl::GridCell& c : cl::TimingGrid::cells()) {
      (void)cl::letter_values(
          grid.cell_values(*c.gpu, c.tc, c.opt, c.dir).to_vector());
    }
  }
  add(out, "charlab.letter_values_ms", "ms", ms_since(l0));
}

}  // namespace

void run_probes(RunContext& ctx, Workload& w, std::vector<Metric>& out) {
  const Tracer::Scope root(ctx.tracer, "probe", 0);
  const ProbeInputs in = w.probe_inputs();
  ChunkSet cs = split(in.corpus);
  // A probe that throws is a failed check; the remaining probes still run.
  const auto guarded = [&](const char* name, const auto& probe) {
    try {
      probe();
    } catch (const std::exception& e) {
      ctx.checks.check(false, std::string("probe ") + name + ": " + e.what());
    }
  };
  guarded("codec fused", [&] {
    probe_codec(ctx, w, in, "fused", "DIFF_4 TCMS_4 CLOG_4", cs, out);
  });
  guarded("codec rare", [&] {
    probe_codec(ctx, w, in, "rare", "DIFF_4 RARE_4 RAZE_1", cs, out);
  });
  // The scans run over the rare pipeline's record sizes.
  guarded("common", [&] { probe_common(ctx, w, in, cs, out); });
  guarded("compress_4k", [&] { probe_compress_4k(ctx, in, out); });
  guarded("server", [&] { probe_server(ctx, in, out); });
  guarded("charlab", [&] { probe_charlab(ctx, w, in, out); });
}

}  // namespace pb
