// Table 2: cache-policy hit/miss counts on the simulated single-family
// traces (FL jobs with 10 clients per round from a pool of 250 over 2000
// rounds).
//
// Paper numbers:
//   P2 family: FLStore 19999 hits / 1 miss of 20000; FIFO/LFU/LRU 0 hits.
//   P3 family: FLStore    63 hits / 1 miss of    64; FIFO/LFU/LRU 0 hits.
//   P4 family: FLStore 20000 hits / 0 miss of 20000; FIFO/LFU/LRU 0 hits.
#include "bench_common.hpp"

#include <chrono>
#include <limits>
#include <unordered_map>

#include "core/flstore.hpp"
#include "fed/trace.hpp"

using namespace flstore;

namespace {

struct Row {
  std::string family;
  std::string policy;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// An FLStore running `mode` over `cold`. Traditional policies get a
/// bounded demand cache (two rounds' worth), like the FLStore variants of
/// Fig 11.
std::unique_ptr<core::FLStore> policy_store(core::PolicyMode mode,
                                            const fed::FLJob& job,
                                            backend::StorageBackend& cold) {
  core::FLStoreConfig cfg;
  cfg.policy.mode = mode;
  if (!core::is_tailored(mode)) {
    cfg.cache_capacity = 22ULL * job.model().object_bytes;
  }
  return std::make_unique<core::FLStore>(cfg, job, cold);
}

// ---------------------------------------------------------------------------
// Eviction-cost microbench: victims/sec of the O(log n) eviction index vs
// the pre-refactor O(n) full-index scan, LRU at 10^5 resident entries.

struct EvictionCostRow {
  double engine_vps = 0.0;  ///< victims/sec through CacheEngine
  double oracle_vps = 0.0;  ///< victims/sec of the O(n) scan reference
};

MetadataKey bench_key(std::size_t i) {
  return MetadataKey::metrics(static_cast<ClientId>(i % 100000),
                              static_cast<RoundId>(i / 100000));
}

/// `engine_victims` through the engine, `scan_victims` through the scan:
/// each side reports a rate, so the slow scan needs fewer to time.
EvictionCostRow eviction_cost(std::size_t n, std::size_t engine_victims,
                              std::size_t scan_victims) {
  // flstore-lint: allow(wall-clock) -- real CPU microbenchmark: victims/sec of actual eviction work, not simulated time
  using clock = std::chrono::steady_clock;
  EvictionCostRow row;

  // Engine path: fill to exactly `capacity`, then every further insert
  // evicts one victim (insert + evict is the steady-state eviction cost).
  {
    FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
    core::ServerlessCachePool pool(
        core::ServerlessCachePool::Config{4 * units::GB, 1, 0}, runtime);
    core::CacheEngine engine(
        core::CacheEngine::Config{n * units::KB, core::PolicyMode::kLru,
                                  false},
        pool);
    const auto blob = std::make_shared<const Blob>(Blob{1});
    for (std::size_t i = 0; i < n; ++i) {
      (void)engine.cache_object(bench_key(i), blob, units::KB, 0.0);
    }
    const auto start = clock::now();
    for (std::size_t i = 0; i < engine_victims; ++i) {
      (void)engine.cache_object(bench_key(n + i), blob, units::KB, 1.0);
    }
    const auto elapsed = std::chrono::duration<double>(clock::now() - start);
    row.engine_vps =
        static_cast<double>(engine.forced_evictions()) / elapsed.count();
  }

  // Reference path: the old evict_victim under LRU — a full scan of a flat
  // index per victim (no pool traffic at all, so this under-counts the old
  // cost). Entries keep the old index's layout, so the scan walks the same
  // footprint.
  {
    struct Meta {
      std::uint64_t last_access = 0, inserted = 0, accesses = 0;
      RoundId round = 0;
    };
    std::unordered_map<MetadataKey, Meta, MetadataKeyHash> index;
    index.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      index.emplace(bench_key(i),
                    Meta{i, i, 1, static_cast<RoundId>(i / 100000)});
    }
    const auto start = clock::now();
    for (std::size_t i = 0; i < scan_victims; ++i) {
      auto victim = index.begin();
      auto best = std::numeric_limits<std::uint64_t>::max();
      for (auto it = index.begin(); it != index.end(); ++it) {
        if (it->second.last_access < best) {
          best = it->second.last_access;
          victim = it;
        }
      }
      index.erase(victim);
      index.emplace(bench_key(n + i),
                    Meta{n + i, n + i, 1,
                         static_cast<RoundId>((n + i) / 100000)});
    }
    const auto elapsed = std::chrono::duration<double>(clock::now() - start);
    row.oracle_vps = static_cast<double>(scan_victims) / elapsed.count();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  if (args.scale != 1.0) {
    // Table 2's counts are the paper's full-size traces; a smaller run
    // would print counts no headline can be compared against.
    std::fprintf(stderr, "tab02 runs at full scale only; drop --scale\n");
    return 2;
  }
  bench::JsonReport report("tab02");
  bench::banner("Table 2", "Cache policy hits/misses across workload families");

  fed::FLJobConfig job_cfg;
  job_cfg.model = "efficientnet_v2_s";
  job_cfg.pool_size = 250;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = 2000;
  fed::FLJob job(job_cfg);

  backend::ObjectStoreBackend cold(sim::objstore_link(),
                                    PricingCatalog::aws());
  {
    // Populate the persistent store once (traditional-mode ingest caches
    // nothing, so this only writes the cold tier).
    core::FLStoreConfig filler_cfg;
    filler_cfg.policy.mode = core::PolicyMode::kLru;
    core::FLStore filler(filler_cfg, job, cold);
    for (RoundId r = 0; r < job_cfg.rounds; ++r) {
      filler.ingest_round(job.make_round(r), static_cast<double>(r));
    }
  }

  const auto p2_trace =
      fed::table2_p2_trace(fed::WorkloadType::kMaliciousFilter, 2000);
  const auto p3_trace =
      fed::table2_p3_trace(job.participants(0).front(), 64, job);
  const auto p4_trace = fed::table2_p4_trace(2000);

  const std::vector<core::PolicyMode> modes = {
      core::PolicyMode::kTailored, core::PolicyMode::kFifo,
      core::PolicyMode::kLfu, core::PolicyMode::kLru};

  Table table({"workload family", "policy", "hits", "misses", "total",
               "hit %"});
  auto emit = [&table](const Row& row) {
    const auto total = row.hits + row.misses;
    table.add_row({row.family, row.policy, std::to_string(row.hits),
                   std::to_string(row.misses), std::to_string(total),
                   fmt(total == 0 ? 0.0
                                  : static_cast<double>(row.hits) /
                                        static_cast<double>(total),
                       2)});
  };

  // P2/P3 traces replay post-hoc against a cold cache (the persistent store
  // already holds the full history), one policy at a time. Returns
  // FLStore's row.
  const auto replay = [&](const char* family,
                          const std::vector<fed::NonTrainingRequest>& trace) {
    Row fl;
    for (const auto mode : modes) {
      const auto store = policy_store(mode, job, cold);
      Row row{family, core::to_string(mode), 0, 0};
      double t = 1.0e6;
      for (const auto& req : trace) {
        const auto res = store->serve(req, t);
        row.hits += res.hits;
        row.misses += res.misses;
        t += 10.0;
      }
      if (mode == core::PolicyMode::kTailored) fl = row;
      emit(row);
    }
    return fl;
  };
  const Row fl_p2 = replay("P2 (per-round apps)", p2_trace);
  const Row fl_p3 = replay("P3 (across-round apps)", p3_trace);

  Row fl_p4;
  {
    // The P4 trace runs while training streams rounds in (write-allocation
    // is what produces its 100 % hit rate). The four policies serve it in
    // one lock-step pass over the shared bucket: it already holds every
    // round, so no policy reads a round another one wrote first. The
    // stores die with the block, before the wall-clock rows below.
    std::vector<std::unique_ptr<core::FLStore>> stores;
    std::vector<core::ServingSystem*> systems;
    for (const auto mode : modes) {
      stores.push_back(policy_store(mode, job, cold));
      systems.push_back(stores.back().get());
    }
    const auto runs = sim::run_trace(
        systems, job, p4_trace, static_cast<double>(p4_trace.size()), 1.0);
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const Row row{"P4 (metadata apps)", core::to_string(modes[i]),
                    runs[i].total_hits(), runs[i].total_misses()};
      if (modes[i] == core::PolicyMode::kTailored) fl_p4 = row;
      emit(row);
    }
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("P2 FLStore hits", 19999, static_cast<double>(fl_p2.hits),
                  "");
  report.headline("P2 FLStore misses", 1, static_cast<double>(fl_p2.misses),
                  "");
  report.headline("P3 FLStore hits", 63, static_cast<double>(fl_p3.hits), "");
  report.headline("P3 FLStore misses", 1, static_cast<double>(fl_p3.misses),
                  "");
  report.headline("P4 FLStore hits", 20000, static_cast<double>(fl_p4.hits),
                  "");
  report.headline("P4 FLStore misses", 0, static_cast<double>(fl_p4.misses),
                  "");

  // ---- eviction-cost column ----------------------------------------------
  bench::note(
      "\nEviction engine cost: victims/sec through the O(log n) ordering\n"
      "index vs the pre-refactor O(n) full-index scan (scan timings exclude\n"
      "pool traffic, so the speedup is a lower bound).");
  Table evc({"entries", "mode", "victims/s (engine)", "victims/s (O(n) scan)",
             "speedup"});
  constexpr std::size_t kEvictionEntries = 100000;
  const auto evc_row = eviction_cost(kEvictionEntries, 400, 40);
  const auto speedup_1e5 = evc_row.engine_vps / evc_row.oracle_vps;
  evc.add_row({std::to_string(kEvictionEntries), "LRU",
               fmt(evc_row.engine_vps, 0), fmt(evc_row.oracle_vps, 0),
               fmt(speedup_1e5, 1) + "x"});
  std::printf("%s", evc.to_string().c_str());
  report.headline("eviction speedup at 1e5 entries (>= 10x)", 10.0,
                  speedup_1e5, "x");

  // ---- partitioned vs unpartitioned --------------------------------------
  bench::note(
      "\nPer-class partitions under one capacity-squeezed mixed-workload\n"
      "cache (tailored policies, round-aware eviction). Unpartitioned, the\n"
      "P2 round churn (hundreds of MB per round) washes out the small P1\n"
      "aggregate and P4 metadata windows; with per-class budgets (derived\n"
      "from the unpartitioned run's ledger via rebalance_class_budgets)\n"
      "each class evicts only against itself.");
  fed::FLJobConfig mixed_cfg;
  mixed_cfg.model = "efficientnet_v2_s";
  mixed_cfg.pool_size = 100;
  mixed_cfg.clients_per_round = 10;
  mixed_cfg.rounds = 300;
  fed::FLJob mixed_job(mixed_cfg);
  fed::TraceConfig trace_cfg;
  trace_cfg.duration_s = 300.0;
  trace_cfg.total_requests = 900;
  trace_cfg.round_interval_s = 1.0;
  const auto mixed_trace = fed::generate_trace(trace_cfg, mixed_job);
  const auto capacity = 12ULL * mixed_job.model().object_bytes;

  std::array<units::Bytes, fed::kPolicyClassCount> budgets{};
  Table part({"cache", "class", "hits", "misses", "hit %", "resident MB"});
  double hit_rate_plain = 0.0, hit_rate_part = 0.0;
  std::array<std::array<double, fed::kPolicyClassCount>, 2> class_rate{};
  for (const bool partitioned : {false, true}) {
    backend::ObjectStoreBackend mixed_cold(sim::objstore_link(),
                                           PricingCatalog::aws());
    core::FLStoreConfig cfg;
    cfg.cache_capacity = capacity;
    if (partitioned) cfg.class_capacity = budgets;
    core::FLStore store(cfg, mixed_job, mixed_cold);
    const auto run =
        sim::run_trace({&store}, mixed_job, mixed_trace, trace_cfg.duration_s,
                       trace_cfg.round_interval_s)
            .front();
    const auto label = partitioned ? "partitioned" : "unpartitioned";
    std::array<core::ClassDemand, fed::kPolicyClassCount> demand{};
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      const auto& s = store.engine().class_stats(c);
      demand[c] = {s.hits, s.misses, s.bytes};
      const auto total = s.hits + s.misses;
      const auto rate = total == 0 ? 0.0
                                   : static_cast<double>(s.hits) /
                                         static_cast<double>(total);
      class_rate[partitioned ? 1 : 0][c] = rate;
      part.add_row({label, fed::to_string(static_cast<fed::PolicyClass>(c)),
                    std::to_string(s.hits), std::to_string(s.misses),
                    fmt(rate, 2), fmt(units::to_mb(s.bytes), 0)});
    }
    const auto hits = run.total_hits();
    const auto total = hits + run.total_misses();
    const auto rate = total == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(total);
    (partitioned ? hit_rate_part : hit_rate_plain) = rate;
    if (!partitioned) {
      // Floor of two model objects: enough for a class to hold a current
      // aggregate (P1) or a small window even when its weight rounds to 0.
      budgets = core::PolicyEngine::rebalance_class_budgets(
          demand, capacity, 2 * mixed_job.model().object_bytes);
    }
  }
  std::printf("%s", part.to_string().c_str());
  std::printf(
      "\n  overall hit rate: %.2f unpartitioned -> %.2f partitioned\n"
      "  per-class (unpartitioned -> partitioned): P1 %.2f -> %.2f, "
      "P3 %.2f -> %.2f, P4 %.2f -> %.2f\n"
      "  (the P2 churn class is sacrificed by design: its per-round working\n"
      "   set exceeds any budget, so the rebalancer keeps it at the floor)\n",
      hit_rate_plain, hit_rate_part, class_rate[0][0], class_rate[1][0],
      class_rate[0][2], class_rate[1][2], class_rate[0][3], class_rate[1][3]);
  report.write(args);
  return 0;
}
