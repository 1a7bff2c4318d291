// flbench — the FLStore benchmark program, one workload per process.
//
//   flbench --workload paper_mix|metadata_crowd|hot_read|hot_write
//           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// A run repeats the whole workload, each time from a fresh set-up, until
// --seconds of wall time have passed (and at least three times), checks
// every repetition's outputs, and prints one JSON object as the last line
// of stdout: medians of the wall-clock numbers, the sim-time numbers (the
// same in every repetition — checked through the record digest), the
// checks, and the attempted/failed operation counts.
//   --trace 0  plain repetitions only; the end-to-end metrics.
//   --trace 1  plain and instrumented repetitions alternate; the per-layer
//              metrics, their coverage of the measured time, and the
//              instrumentation's overhead.
// run.py builds this binary and is the normal entry point; README.md
// describes the workloads and every metric.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "clock.hpp"
#include "plane_calls.hpp"

namespace flbench {
namespace {

/// Every 64th plain hot call is timed for the latency metrics.
constexpr std::size_t kSampleEvery = 64;
/// A hot call meets its objective when it finishes within 1 µs: an
/// in-memory lookup that waits on no other thread takes ~150 ns here, and a
/// call past 1 µs has almost always slept on a shard lock.
constexpr std::uint32_t kHotObjectiveNs = 1000;
/// The workload replay takes every 16th completed request (by id).
constexpr std::uint64_t kReplayEvery = 16;
/// Rounds of the isolated make_round / ingest_round timing.
constexpr int kIngestRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;  ///< 0.05 with --smoke
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flbench: %s\n"
               "usage: flbench --workload "
               "paper_mix|metadata_crowd|hot_read|hot_write [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.scale = 0.05;
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds >= 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Percentile of integer-nanosecond samples. Each integer v stands for the
/// interval [v - 0.5, v + 0.5) and the rank is interpolated inside it, so a
/// tight distribution still yields its measured value rather than a
/// rounded one.
double percentile_ns(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(p / 100.0 * n, 0.0, n);
  const auto idx =
      std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto value = v[idx];
  const auto lo = std::lower_bound(v.begin(), v.end(), value) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), value) - v.begin();
  return static_cast<double>(value) - 0.5 +
         (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double mean_ns(const std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Everything one flbench process reports.
class Result {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      check("finite/" + name, false, "not a finite number");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  void note(const std::string& name, double value) {
    notes_.emplace_back(name, value);
  }
  /// Every repetition's digest must match the first one.
  void digest(std::uint64_t d) {
    if (!digest_) {
      digest_ = d;
    } else if (*digest_ != d) {
      ++digest_mismatches_;
    }
  }

  [[nodiscard]] bool correct() const {
    return digest_mismatches_ == 0 &&
           std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }

  void print(const Args& args) const {
    std::string out = "{\"workload\": " + json_string(args.workload) +
                      ", \"trace\": " + std::to_string(args.trace) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"correct\": " + (correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"digest\": ";
    if (digest_) {
      char hex[24];
      std::snprintf(hex, sizeof hex, "%016" PRIx64, *digest_);
      out += json_string(hex);
    } else {
      out += "null";
    }
    out += ", \"checks\": [";
    auto all = checks_;
    all.push_back({"digest_identical_across_repetitions",
                   digest_mismatches_ == 0,
                   std::to_string(digest_mismatches_) + " mismatches"});
    for (std::size_t i = 0; i < all.size(); ++i) {
      out += std::string(i == 0 ? "" : ", ") +
             "{\"name\": " + json_string(all[i].name) +
             ", \"ok\": " + (all[i].ok ? "true" : "false") +
             ", \"detail\": " + json_string(all[i].detail) + "}";
    }
    out += "], \"notes\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      out += std::string(i == 0 ? "" : ", ") + json_string(notes_[i].first) +
             ": " + json_number(notes_[i].second);
    }
    out += "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      out += std::string(i == 0 ? "" : ", ") + json_string(m.name) +
             ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };

  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, double>> notes_;
  std::optional<std::uint64_t> digest_;
  std::uint64_t digest_mismatches_ = 0;
};

/// Layer metrics a workload's path never reaches: reported as zero counts
/// and zero shares so every workload prints the same metric set.
void zero_layers(Result& res, const std::vector<std::string>& names,
                 const char* unit) {
  for (const auto& name : names) res.metric(name, 0.0, unit);
}

/// Tracker and cache-engine ledgers, summed over shards after hot_sync.
void engine_metrics(Result& res, const EngineTotals& totals) {
  res.metric("core.tracker.tracked_end", static_cast<double>(totals.tracked),
             "count");
  res.metric("core.cache.hits", static_cast<double>(totals.hits), "count");
  res.metric("core.cache.misses", static_cast<double>(totals.misses), "count");
  res.metric("core.cache.hit_rate",
             ratio(static_cast<double>(totals.hits),
                   static_cast<double>(totals.hits + totals.misses)),
             "fraction");
  res.metric("core.cache.forced_evictions",
             static_cast<double>(totals.forced_evictions), "count");
  res.metric("core.cache.cached_bytes",
             static_cast<double>(totals.cached_bytes), "bytes");
}

// ---------------------------------------------------------------------------
// Serving-plane workloads
// ---------------------------------------------------------------------------

void run_sim(const Args& args, const SimSpec& spec, Result& res) {
  const bool layered = args.trace == 1;
  const int min_runs = layered ? 4 : 3;
  std::vector<double> setup_s, plain_ns, traced_ns, traced_cpu_ns,
      traced_backend_ns;
  std::optional<SimOutcome> first;
  // Peak RSS once set-up and the first repetition are done: later
  // repetitions only add allocator fragmentation, which varies run to run.
  double rss_mb = 0.0;
  Drain drain;
  std::unique_ptr<SimPlane> kept;  // last instrumented plane, for replays
  fl::serve::ServiceReport kept_report;

  const auto start = now_ns();
  for (int run = 0;; ++run) {
    const bool timed = layered && run % 2 == 1;
    const auto t0 = now_ns();
    auto plane = std::make_unique<SimPlane>(spec, timed);
    const auto t1 = now_ns();
    const auto c1 = cpu_ns();
    auto report = plane->serve();
    const auto c2 = cpu_ns();
    const auto t2 = now_ns();

    const auto outcome = plane->summarize(report);
    res.digest(outcome.digest);
    res.attempted += outcome.offered;
    res.failed += outcome.rejected;
    if (!first) {
      first = outcome;
      rss_mb = peak_rss_mb();
      drain = plane->drain_arrivals();
      res.check("offered_equals_stream_drain",
                outcome.offered == drain.offered &&
                    outcome.completed + outcome.rejected == outcome.offered,
                "offered " + std::to_string(outcome.offered) + ", drained " +
                    std::to_string(drain.offered) + ", completed " +
                    std::to_string(outcome.completed) + ", rejected " +
                    std::to_string(outcome.rejected));
    }
    if (timed) {
      traced_ns.push_back(static_cast<double>(t2 - t1));
      traced_cpu_ns.push_back(static_cast<double>(c2 - c1));
      traced_backend_ns.push_back(
          static_cast<double>(plane->backend_ledger().ns));
      kept = std::move(plane);
      kept_report = std::move(report);
    } else {
      setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      plain_ns.push_back(static_cast<double>(t2 - t1));
    }
    if (seconds_since(start) >= args.seconds && run + 1 >= min_runs) break;
  }

  const auto& o = *first;
  const auto offered = static_cast<double>(o.offered);
  res.note("repetitions", static_cast<double>(plain_ns.size() +
                                              traced_ns.size()));
  res.note("requests_per_repetition", offered);
  res.note("latency_samples", static_cast<double>(o.completed));
  // Queue-inclusive latency, for reading only: modelled latencies sit on
  // per-workload plateaus and queueing episodes are rare events, so these
  // swing several-fold from one --seed to the next and cannot carry a bound.
  res.note("sim_p50_s", o.p50_s);
  res.note("sim_p99_s", o.p99_s);
  res.note("sim_queue_mean_s", o.queue_mean_s);
  if (!layered) {
    res.metric("throughput_ops_s", offered / (median_of(plain_ns) / 1e9),
               "ops/s");
    res.metric("latency_mean_ms", o.service_mean_s * 1e3, "ms");
    res.metric("slo_attainment", o.slo_attainment, "fraction");
    res.metric("usd_per_1k_ops", o.usd_per_1k, "USD");
    res.metric("setup_s", median_of(setup_s), "s");
    res.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Per-layer split of the last instrumented repetition. Counts are read
  // from the plane after the run; the backend is timed in-run; the other
  // layers are timed by isolated replays on this run's own inputs and
  // scaled by the run's counts (estimates — see README.md).
  const auto s0 = now_ns();
  kept->sync();
  const auto sync_ns = static_cast<double>(now_ns() - s0);
  const auto totals = kept->totals();
  const auto ledger = kept->backend_ledger();  // before the replay reads
  auto replay = kept->replay_requests(kept_report, kReplayEvery);

  const auto shards = static_cast<double>(kept->shards_per_tenant());
  double make_total = 0.0, ingest_total = 0.0;
  double make_calls = 0.0, ingest_calls = 0.0;
  for (std::size_t t = 0; t < kept->tenants(); ++t) {
    const auto cost = kept->time_tenant_ingest(t, kIngestRounds);
    const auto rounds =
        static_cast<double>(kept->ingested_rounds(t, drain.last_arrival_s));
    make_total += cost.make_round_ns * rounds;
    ingest_total +=
        (cost.primary_ns + (shards - 1.0) * cost.secondary_ns) * rounds;
    make_calls += rounds;
    ingest_calls += rounds * shards;
  }

  std::array<double, kClasses> execute_by_class{};
  double decode_total = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto done = static_cast<double>(o.completed_by_class[c]);
    const auto n = static_cast<double>(replay.sampled[c]);
    decode_total += ratio(replay.decode_ns[c], n) * done;
    execute_by_class[c] = ratio(replay.execute_ns[c], n) * done;
  }
  const double execute_total = std::accumulate(
      execute_by_class.begin(), execute_by_class.end(), 0.0);
  const double arrival_total =
      static_cast<double>(drain.ns) * static_cast<double>(kept->tenants());
  const double cache_total =
      mean_ns(replay.get_ns) * static_cast<double>(totals.hits + totals.misses);
  const double backend_total = median_of(traced_backend_ns);
  const double cpu = median_of(traced_cpu_ns);

  res.note("replayed_requests",
           static_cast<double>(std::accumulate(replay.sampled.begin(),
                                               replay.sampled.end(),
                                               std::uint64_t{0})));
  res.metric("serve.plane.ns_per_op", median_of(traced_ns) / offered, "ns");
  res.metric("serve.arrival.share", ratio(arrival_total, cpu), "fraction");
  res.metric("serve.sched.admitted", static_cast<double>(o.admitted), "count");
  res.metric("serve.sched.rejected", static_cast<double>(o.sched_rejected),
             "count");
  res.metric("serve.sched.peak_queued", static_cast<double>(o.peak_queued),
             "count");
  res.metric("serve.coalescer.leads", static_cast<double>(o.leads), "count");
  res.metric("serve.coalescer.joins", static_cast<double>(o.joins), "count");
  engine_metrics(res, totals);
  res.metric("core.cache.get_ns_p50", percentile_ns(replay.get_ns, 50), "ns");
  res.metric("core.cache.get_ns_p99", percentile_ns(replay.get_ns, 99), "ns");
  res.metric("core.cache.put_ns_p50", percentile_ns(replay.put_ns, 50), "ns");
  res.metric("core.cache.put_ns_p99", percentile_ns(replay.put_ns, 99), "ns");
  res.metric("core.cache.evict_ns_p50", percentile_ns(replay.evict_ns, 50),
             "ns");
  res.metric("core.cache.evict_ns_p99", percentile_ns(replay.evict_ns, 99),
             "ns");
  res.metric("core.cache.sync_ns", sync_ns, "ns");
  res.metric("core.cache.share", ratio(cache_total, cpu), "fraction");
  res.metric("core.ingest.ns_per_round", ratio(ingest_total, ingest_calls),
             "ns");
  res.metric("core.ingest.rounds", ingest_calls, "count");
  res.metric("core.ingest.share", ratio(ingest_total, cpu), "fraction");
  res.metric("fed.make_round.ns_per_round", ratio(make_total, make_calls),
             "ns");
  res.metric("fed.make_round.share", ratio(make_total, cpu), "fraction");
  res.metric("workloads.decode.share", ratio(decode_total, cpu), "fraction");
  res.metric("workloads.execute.share", ratio(execute_total, cpu), "fraction");
  for (std::size_t c = 0; c < kClasses; ++c) {
    res.metric(std::string("workloads.execute.share.") +
                   fl::fed::to_string(static_cast<fl::fed::PolicyClass>(c)),
               ratio(execute_by_class[c], cpu), "fraction");
  }
  res.metric("backend.get.calls", static_cast<double>(ledger.get_calls),
             "count");
  res.metric("backend.put.calls", static_cast<double>(ledger.put_calls),
             "count");
  res.metric("backend.batch.calls", static_cast<double>(ledger.batch_calls),
             "count");
  res.metric("backend.bytes_written", static_cast<double>(ledger.bytes_written),
             "bytes");
  res.metric("backend.fees_usd", ledger.fees_usd, "USD");
  res.metric("backend.share", ratio(backend_total, cpu), "fraction");
  res.metric("obs.spans", static_cast<double>(kept->spans()), "count");
  res.metric("obs.spans_dropped", static_cast<double>(kept->spans_dropped()),
             "count");
  res.metric("trace.overhead",
             median_of(traced_ns) / median_of(plain_ns) - 1.0, "fraction");
  res.metric("trace.coverage",
             ratio(arrival_total + make_total + ingest_total + decode_total +
                       execute_total + cache_total + backend_total,
                   cpu),
             "fraction");
}

// ---------------------------------------------------------------------------
// Hot-path workloads
// ---------------------------------------------------------------------------

void run_hot(const Args& args, const HotSpec& spec, Result& res) {
  const bool layered = args.trace == 1;
  const int min_runs = layered ? 4 : 3;
  const auto threads = static_cast<std::size_t>(spec.threads);
  std::vector<double> setup_s, plain_ns, traced_ns, usd, sync_ns, cache_share;
  // Plain repetitions time every kSampleEvery-th call; latency and SLO are
  // medians over repetitions of each repetition's value, like throughput.
  std::vector<double> mean_op_ns, within_objective;
  std::vector<std::uint32_t> op_ns;  // every sample, for the percentile notes
  std::array<std::vector<std::uint32_t>, 3> kind_ns{};  // traced: every call
  EngineTotals totals;
  std::uint64_t ops_per_run = 0;
  double rss_mb = 0.0;  // after the first repetition, as in run_sim
  bool ledger_exact = true;
  std::string ledger_detail;

  const auto start = now_ns();
  for (int run = 0;; ++run) {
    const bool timed = layered && run % 2 == 1;
    const auto t0 = now_ns();
    HotPlane plane(spec);
    const auto streams = build_streams(spec, args.seed);
    const auto t1 = now_ns();
    res.digest(digest_streams(streams));

    std::uint64_t gets = 0;
    std::vector<std::array<std::size_t, 3>> kinds(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      for (const auto& op : streams[w]) {
        ++kinds[w][static_cast<std::size_t>(op.kind)];
      }
      gets += kinds[w][static_cast<std::size_t>(OpKind::kGet)];
    }
    std::vector<std::uint64_t> refused(threads, 0), call_ns(threads, 0);
    std::vector<std::vector<std::uint32_t>> sampled(threads);
    std::vector<std::array<std::vector<std::uint32_t>, 3>> by_kind(threads);

    const auto t2 = now_ns();
    run_threads(spec.threads, [&](int worker) {
      const auto w = static_cast<std::size_t>(worker);
      const auto& ops = streams[w];
      std::uint64_t bad = 0;
      if (timed) {
        auto& mine = by_kind[w];
        for (std::size_t k = 0; k < 3; ++k) mine[k].reserve(kinds[w][k]);
        std::uint64_t total = 0;
        for (const auto& op : ops) {
          const auto a = now_ns();
          bad += plane.apply(op, worker) ? 0 : 1;
          const auto d = now_ns() - a;
          total += static_cast<std::uint64_t>(d);
          mine[static_cast<std::size_t>(op.kind)].push_back(clamp_ns(d));
        }
        call_ns[w] = total;
      } else {
        auto& mine = sampled[w];
        mine.reserve(ops.size() / kSampleEvery + 1);
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (i % kSampleEvery == 0) {
            const auto a = now_ns();
            bad += plane.apply(ops[i], worker) ? 0 : 1;
            mine.push_back(clamp_ns(now_ns() - a));
          } else {
            bad += plane.apply(ops[i], worker) ? 0 : 1;
          }
        }
      }
      refused[w] = bad;
    });
    const auto t3 = now_ns();
    const auto s0 = now_ns();
    plane.sync();
    const auto s1 = now_ns();
    if (run == 0) rss_mb = peak_rss_mb();

    totals = plane.totals();
    ops_per_run = 0;
    for (const auto& stream : streams) ops_per_run += stream.size();
    res.attempted += ops_per_run;
    res.failed += std::accumulate(refused.begin(), refused.end(),
                                  std::uint64_t{0});
    if (totals.hits + totals.misses != gets) {
      ledger_exact = false;
      ledger_detail = "repetition " + std::to_string(run) + ": hits+misses " +
                      std::to_string(totals.hits + totals.misses) +
                      " != gets " + std::to_string(gets);
    }
    const auto wall = static_cast<double>(t3 - t2);
    if (timed) {
      traced_ns.push_back(wall);
      sync_ns.push_back(static_cast<double>(s1 - s0));
      // Thread time, not CPU time: a contended call sleeps on the shard
      // lock, and that wait is part of the call.
      cache_share.push_back(
          ratio(static_cast<double>(std::accumulate(
                    call_ns.begin(), call_ns.end(), std::uint64_t{0})),
                wall * static_cast<double>(threads)));
      for (auto& mine : by_kind) {
        for (std::size_t k = 0; k < 3; ++k) {
          kind_ns[k].insert(kind_ns[k].end(), mine[k].begin(), mine[k].end());
        }
      }
    } else {
      setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      plain_ns.push_back(wall);
      usd.push_back(1000.0 * plane.usd(wall / 1e9) /
                    static_cast<double>(ops_per_run));
      std::vector<std::uint32_t> rep;
      for (const auto& mine : sampled) {
        rep.insert(rep.end(), mine.begin(), mine.end());
      }
      mean_op_ns.push_back(mean_ns(rep));
      within_objective.push_back(ratio(
          static_cast<double>(std::count_if(
              rep.begin(), rep.end(),
              [](std::uint32_t ns) { return ns <= kHotObjectiveNs; })),
          static_cast<double>(rep.size())));
      op_ns.insert(op_ns.end(), rep.begin(), rep.end());
    }
    if (seconds_since(start) >= args.seconds && run + 1 >= min_runs) break;
  }
  res.check("hot_ledger_exact", ledger_exact,
            ledger_exact ? "engine hits+misses == gets after hot_sync"
                         : ledger_detail);

  const auto ops = static_cast<double>(ops_per_run);
  res.note("repetitions", static_cast<double>(plain_ns.size() +
                                              traced_ns.size()));
  res.note("threads", static_cast<double>(spec.threads));
  res.note("ops_per_repetition", ops);
  if (!layered) {
    res.note("latency_samples", static_cast<double>(op_ns.size()));
    res.note("op_p50_ns", percentile_ns(op_ns, 50));
    res.note("op_p99_ns", percentile_ns(op_ns, 99));
    res.metric("throughput_ops_s", ops / (median_of(plain_ns) / 1e9),
               "ops/s");
    res.metric("latency_mean_ms", median_of(mean_op_ns) / 1e6, "ms");
    res.metric("slo_attainment", median_of(within_objective), "fraction");
    res.metric("usd_per_1k_ops", median_of(usd), "USD");
    res.metric("setup_s", median_of(setup_s), "s");
    res.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  const auto ingest = HotPlane(spec).time_tenant_ingest(kIngestRounds);
  auto& [get_ns, put_ns, evict_ns] = kind_ns;
  const double share = median_of(cache_share);
  res.metric("serve.plane.ns_per_op", median_of(traced_ns) / ops, "ns");
  zero_layers(res, {"serve.arrival.share"}, "fraction");
  zero_layers(res, {"serve.sched.admitted", "serve.sched.rejected",
                    "serve.sched.peak_queued"},
              "count");
  zero_layers(res, {"serve.coalescer.leads", "serve.coalescer.joins"},
              "count");
  engine_metrics(res, totals);
  res.metric("core.cache.get_ns_p50", percentile_ns(get_ns, 50), "ns");
  res.metric("core.cache.get_ns_p99", percentile_ns(get_ns, 99), "ns");
  res.metric("core.cache.put_ns_p50", percentile_ns(put_ns, 50), "ns");
  res.metric("core.cache.put_ns_p99", percentile_ns(put_ns, 99), "ns");
  res.metric("core.cache.evict_ns_p50", percentile_ns(evict_ns, 50), "ns");
  res.metric("core.cache.evict_ns_p99", percentile_ns(evict_ns, 99), "ns");
  res.metric("core.cache.sync_ns", median_of(sync_ns), "ns");
  res.metric("core.cache.share", share, "fraction");
  // Isolated only: the hot path ingests nothing during the run.
  res.metric("core.ingest.ns_per_round",
             (ingest.primary_ns +
              (spec.shards - 1) * ingest.secondary_ns) / spec.shards,
             "ns");
  zero_layers(res, {"core.ingest.rounds"}, "count");
  zero_layers(res, {"core.ingest.share"}, "fraction");
  res.metric("fed.make_round.ns_per_round", ingest.make_round_ns, "ns");
  zero_layers(res,
              {"fed.make_round.share", "workloads.decode.share",
               "workloads.execute.share", "workloads.execute.share.P1",
               "workloads.execute.share.P2", "workloads.execute.share.P3",
               "workloads.execute.share.P4"},
              "fraction");
  zero_layers(res,
              {"backend.get.calls", "backend.put.calls", "backend.batch.calls"},
              "count");
  zero_layers(res, {"backend.bytes_written"}, "bytes");
  zero_layers(res, {"backend.fees_usd"}, "USD");
  zero_layers(res, {"backend.share"}, "fraction");
  zero_layers(res, {"obs.spans", "obs.spans_dropped"}, "count");
  res.metric("trace.overhead",
             median_of(traced_ns) / median_of(plain_ns) - 1.0, "fraction");
  res.metric("trace.coverage", share, "fraction");
}

}  // namespace
}  // namespace flbench

int main(int argc, char** argv) {
  using namespace flbench;
  const auto args = parse_args(argc, argv);
  Result res;
  try {
    if (args.workload == "paper_mix") {
      run_sim(args, paper_mix_spec(args.seed, args.scale), res);
    } else if (args.workload == "metadata_crowd") {
      run_sim(args, metadata_crowd_spec(args.seed, args.scale), res);
    } else if (args.workload == "hot_read") {
      run_hot(args, hot_read_spec(args.scale), res);
    } else if (args.workload == "hot_write") {
      run_hot(args, hot_write_spec(args.scale), res);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flbench: workload %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  res.print(args);
  return res.correct() ? 0 : 1;
}
