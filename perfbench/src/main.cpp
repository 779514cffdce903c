// lc_perfbench: the repository's end-to-end benchmark. One process
// runs one workload (bulk | characterize, see README.md):
//
//   lc_perfbench --workload W --seed N --seconds S --trace 0|1
//                [--spans PATH] [--inject-fault] [--digest-only]
//
// It sets the workload up several times (setup_s is the median), then runs
// timed samples until S seconds have passed, checking every output. Times
// are steady times: wall time less the host's stolen share (PhaseTimer).
// --trace 0 prints the end-to-end metrics; --trace 1 alternates recorded
// and unrecorded samples (their ratio is the tracing overhead), runs the
// per-layer probes, prints the per-layer metrics and writes the spans to
// PATH as Chrome trace-event JSON. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage
// or setup errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"

namespace pb {
namespace {

// setup_s is the median of at least kMinSetups set-ups, repeated until
// they took kMinSetupS in total (each takes ~3 s). Five keep the median's
// spread between processes well inside its bound.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 9;
constexpr double kMinSetupS = 2.0;
// Span budget added for the probes once the timed samples are done.
constexpr std::size_t kProbeSpans = 50'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool inject_fault = false;
  bool digest_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lc_perfbench: %s\nusage: lc_perfbench --workload "
               "bulk|characterize --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--inject-fault] [--digest-only]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + what).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_uint(value(), "--seed");
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(value(), "--seconds"));
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint(value(), "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else if (a == "--digest-only") {
      o.digest_only = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds < 1) usage("--seconds must be >= 1");
  return o;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "bulk") return make_bulk();
  if (name == "characterize") return make_characterize();
  usage(("unknown workload " + name).c_str());
}

/// Median of a pow2 histogram from the public metrics snapshot,
/// interpolated linearly inside the bucket holding the middle rank.
double histogram_median_ns(const std::string& name) {
  for (const auto& h : lc::telemetry::snapshot_metrics().histograms) {
    if (h.name != name || h.count == 0) continue;
    const double rank = static_cast<double>(h.count) / 2.0;
    double seen = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const double n = static_cast<double>(h.buckets[b]);
      if (seen + n >= rank && n > 0) {
        const double lo = b == 0 ? 0.0 : static_cast<double>(h.bounds[b - 1]);
        const double hi = b < h.bounds.size()
                              ? static_cast<double>(h.bounds[b])
                              : lo * 2;
        return lo + (hi - lo) * (rank - seen) / n;
      }
      seen += n;
    }
  }
  return 0.0;
}

double counter(const char* name) {
  return static_cast<double>(lc::telemetry::counter(name).value());
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_units) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << ms[i].name << "\": ";
    if (with_units) {
      os << "{\"value\": " << json_number(ms[i].value) << ", \"unit\": \""
         << ms[i].unit << "\"}";
    } else {
      os << json_number(ms[i].value);
    }
  }
  os << "}";
  return os.str();
}

int run(const Options& opt) {
  const StealMeter steal;
  RunContext ctx;
  ctx.seed = opt.seed;
  ctx.inject_fault = opt.inject_fault;
  std::unique_ptr<Workload> w = make(opt.workload);

  std::vector<double> setup_s, generate_mb_s;
  double setup_total_s = 0;
  while (setup_s.empty() ||
         (!opt.digest_only && setup_s.size() < kMaxSetups &&
          (setup_s.size() < kMinSetups || setup_total_s < kMinSetupS))) {
    const PhaseTimer timer;
    w->setup(ctx);
    double steady_ms = 0, wall_ms = 0, cpu_ms = 0;
    timer.add_to(steady_ms, wall_ms, cpu_ms);
    setup_s.push_back(steady_ms / 1e3);
    setup_total_s += wall_ms / 1e3;
    generate_mb_s.push_back(w->generated_bytes() / 1e6 / w->generate_s());
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(w->input_digest()));
  if (opt.digest_only) {
    std::printf("pins {%s}\n", w->pins().c_str());
    std::printf("input_digest %s\n", digest);
    return 0;
  }

  // Timed samples. In the traced run every other sample records spans (until
  // the span cap), so the two halves give the tracing overhead under the
  // same conditions.
  std::vector<Sample> plain, traced;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0;
       now_ns() < deadline || plain.empty() || (opt.trace && traced.empty());
       ++i) {
    ctx.tracer.enabled = opt.trace && i % 2 == 1 && !ctx.tracer.full();
    const Sample s = w->run_once(ctx, i + 1);
    (ctx.tracer.enabled ? traced : plain).push_back(s);
  }
  ctx.tracer.enabled = opt.trace;
  ctx.tracer.max_spans += kProbeSpans;

  // The end-to-end metrics are medians over the untraced samples.
  const auto values = [&](double Sample::*f) {
    std::vector<double> v;
    for (const Sample& s : plain) v.push_back(s.*f);
    return v;
  };
  struct Field {
    const char* name;
    const char* unit;
    double Sample::*member;
  };
  static constexpr Field kFields[] = {
      {"phase1_ms", "ms", &Sample::phase1_ms},
      {"phase2_ms", "ms", &Sample::phase2_ms},
      {"phase1_cpu_ms", "ms", &Sample::phase1_cpu_ms},
      {"phase2_cpu_ms", "ms", &Sample::phase2_cpu_ms},
      {"compression_ratio", "x", &Sample::ratio},
  };
  Sample mid;
  for (const Field& f : kFields) mid.*f.member = median(values(f.member));

  const double fail_frac =
      static_cast<double>(ctx.checks.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, ctx.checks.attempted));
  std::vector<Metric> metrics;
  if (!opt.trace) {
    for (const Field& f : kFields) {
      metrics.push_back({f.name, f.unit, mid.*f.member});
    }
    metrics.push_back({"setup_s", "s", median(setup_s)});
    metrics.push_back({"max_rss_mb", "MB", max_rss_mb()});
    metrics.push_back({"ok_frac", "fraction", 1.0 - fail_frac});
  } else {
    metrics.push_back({"data.generate_mb_s", "MB/s", median(generate_mb_s)});
    run_probes(ctx, *w, metrics);
    const double enc_hits = counter("lc.codec.fused_encode_hits");
    const double dec_hits = counter("lc.codec.fused_decode_hits");
    const double attempts = enc_hits + dec_hits +
                            counter("lc.codec.fused_encode_misses") +
                            counter("lc.codec.fused_decode_misses");
    metrics.push_back({"lc.fused_hit_frac", "fraction",
                       (enc_hits + dec_hits) / std::max(1.0, attempts)});
    // Every pipeline here has three stages, so a chunk encode attempts 3.
    metrics.push_back(
        {"lc.stage_fallback_frac", "fraction",
         counter("lc.codec.stage_fallbacks") /
             std::max(1.0, 3 * counter("lc.codec.chunks_encoded"))});
    metrics.push_back({"server.op_compress_ns", "ns",
                       histogram_median_ns("lc.server.op_compress_ns")});
    metrics.push_back({"server.op_decompress_ns", "ns",
                       histogram_median_ns("lc.server.op_decompress_ns")});
    metrics.push_back({"server.requests_error", "count",
                       counter("lc.server.requests_error")});
    metrics.push_back({"host.steal_frac", "fraction", steal.sample()});
    const auto wall = [](const std::vector<Sample>& v) {
      std::vector<double> out;
      for (const Sample& s : v) out.push_back(s.phase1_ms + s.phase2_ms);
      return median(out);
    };
    metrics.push_back({"telemetry.trace_overhead_frac", "fraction",
                       wall(traced) / wall(plain) - 1.0});
  }

  // Human-readable report, then the machine-readable lines.
  std::printf("perfbench %s seed=%llu samples=%zu%s input_digest=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.size(),
              opt.trace ? (" (+" + std::to_string(traced.size()) + " traced)")
                              .c_str()
                        : "",
              digest);
  std::printf("workload-native view (medians over untraced samples):\n");
  w->print_native(mid);
  std::printf("  setup_s              %12.6f s     (lower)\n",
              median(setup_s));
  std::printf("  wall_ms              %12.3f ms    (both phases, host steal "
              "included; not gated)\n",
              median(values(&Sample::wall_ms)));
  std::printf("  max_rss_mb           %12.3f MB    (lower)\n", max_rss_mb());
  std::printf("  fail_frac            %12.6f       (lower)  %llu of %llu\n",
              fail_frac, static_cast<unsigned long long>(ctx.checks.failed),
              static_cast<unsigned long long>(ctx.checks.attempted));
  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::ostringstream detail;
  detail << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
         << ", \"input_digest\": \"" << digest << "\", \"pins\": {"
         << w->pins() << "}, \"samples\": "
         << plain.size() << ", \"steal_frac\": " << json_number(steal.sample())
         << ", \"wall_ms\": " << json_number(median(values(&Sample::wall_ms)))
         << ", \"within_run\": {";
  for (const Field& f : kFields) {
    const Quartiles q = quartiles(values(f.member));
    detail << (&f == kFields ? "" : ", ") << "\"" << f.name << "\": ["
           << json_number(q.q1) << ", " << json_number(q.median) << ", "
           << json_number(q.q3) << "]";
  }
  const Quartiles sq = quartiles(setup_s);
  detail << ", \"setup_s\": [" << json_number(sq.q1) << ", "
         << json_number(sq.median) << ", " << json_number(sq.q3) << "]}}";
  std::printf("PERFBENCH-DETAIL %s\n", detail.str().c_str());

  if (opt.trace && !opt.spans_path.empty()) {
    std::ostringstream other;
    other << "\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
          << ", \"dropped_spans\": " << ctx.tracer.dropped()
          << ", \"metrics\": " << metrics_json(metrics, false);
    ctx.tracer.write_chrome(opt.spans_path, other.str());
  }

  const bool correct = ctx.checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.checks.attempted),
              static_cast<unsigned long long>(ctx.checks.failed),
              metrics_json(metrics, true).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Options opt = pb::parse(argc, argv);
  try {
    return pb::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lc_perfbench: %s\n", e.what());
    return 2;
  }
}
