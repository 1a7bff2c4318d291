// bench_hotpath — wall-clock scaling of the real-thread serving hot path.
//
// Unlike every fig* bench (simulated time), this one measures actual ops/sec
// on actual OS threads: 1–16 workers replay pre-built randomized request
// streams and we time the wall clock around the barrier-started run
// (ThreadPool::run_replicated). Every cell runs the same streams through two
// arms:
//   plane      ShardedStore::hot_get/hot_put/hot_evict — lock-free residency
//              reads plus per-worker deferred bookkeeping; puts, evicts and
//              stripe drains under the shard mutex
//   reference  an exclusive reference local to this bench: one
//              flstore::Mutex per shard around the full mutating
//              CacheEngine::lookup/cache_object/evict, with the plane's
//              MetadataKeyHash routing — what a plain mutex costs. It is a
//              measurement reference, not a library mode.
//
// Axes, following the NUMA-DSU-style methodology named in the ROADMAP:
//   keyspace   contended   — one tenant, 4 shards, all threads hammer one
//                            Zipf(0.9) keyspace: the lock-contention case
//              partitioned — tenant per thread, disjoint uniform keyspaces:
//                            the embarrassingly-parallel scaling ceiling
//   mix        read_heavy  — 95% get / 4% put / 1% evict
//              mixed       — 70% get / 25% put / 5% evict (contended only)
//   put share  at threads = nproc, contended: 0, 1, 5, 10, 20 and 30% puts,
//              evicts at a fifth of the puts — where a crossover between
//              the arms would show (ungated)
//
// nproc is the largest swept thread count <= hardware_concurrency; cells
// above it are oversubscribed, so they are reported but never gated.
//
// Verdicts (in-bench asserts, nonzero exit on failure):
//   * beats_exclusive_reference_at_nproc: at threads = nproc the plane must
//     out-throughput the reference on both contended mixes. Only evaluated
//     at full-ish scale (--scale >= 0.5) — tiny smoke streams (CI TSan leg
//     runs --scale 0.05) measure mostly setup.
//   * deferred_ledger_exact: after hot_sync, engine hits+misses must equal
//     the gets issued, every plane cell — the deferred bookkeeping loses
//     nothing.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "core/flstore.hpp"
#include "obs/hot_counters.hpp"
#include "serve/sharded_store.hpp"
#include "serve/thread_pool.hpp"

using namespace flstore;

namespace {

double now_s() {
  // flstore-lint: allow(wall-clock) -- real CPU bench: ops/sec IS the result
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(since_epoch).count();
}

enum class OpKind : std::uint8_t { kGet, kPut, kEvict };

struct Op {
  MetadataKey key;
  OpKind kind = OpKind::kGet;
};

struct MixSpec {
  std::string name;
  double put_share;
  double evict_share;
};

const MixSpec kReadHeavy{"read_heavy", 0.04, 0.01};
const MixSpec kMixed{"mixed", 0.25, 0.05};

constexpr units::Bytes kObjectBytes = 256 * 1024;
constexpr int kContendedKeys = 2048;
constexpr int kKeysPerTenant = 512;
constexpr int kContendedShards = 4;
constexpr std::uint64_t kSeed = 0x5EEDF00DULL;

MetadataKey nth_key(int rank) {
  // Spread ranks over (client, round) so hashes are well distributed.
  return MetadataKey::update(rank % 64, rank / 64);
}

fed::FLJobConfig bench_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 60;
  cfg.clients_per_round = 8;
  cfg.rounds = 4;
  cfg.seed = 20;
  return cfg;
}

/// One thread's randomized stream: `ops` draws from `n_keys` (through the
/// shared Zipf table when `zipf` is set, uniform otherwise), op kinds drawn
/// per the mix. The table is hoisted to main: building the O(n) CDF per
/// stream (threads × cells of it) was pure setup overhead repeated for the
/// one (n_keys, exponent) pair the bench ever uses.
std::vector<Op> build_stream(int ops, int n_keys, const MixSpec& mix,
                             const ZipfDistribution* zipf,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> stream;
  stream.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Op op;
    const auto rank = zipf != nullptr
                          ? (*zipf)(rng)
                          : static_cast<std::int32_t>(
                                rng.uniform_int(0, n_keys - 1));
    op.key = nth_key(rank);
    const double r = rng.uniform();
    op.kind = r < mix.put_share               ? OpKind::kPut
              : r < mix.put_share + mix.evict_share ? OpKind::kEvict
                                                    : OpKind::kGet;
    stream.push_back(op);
  }
  return stream;
}

/// The plane arm: the library's hot path.
struct PlaneArm {
  serve::ShardedStore& plane;

  bool get(JobId t, const MetadataKey& k, int w) {
    return plane.hot_get(t, k, 0.0, w);
  }
  bool put(JobId t, const MetadataKey& k, int w) {
    return plane.hot_put(t, k, kObjectBytes, 0.0, w);
  }
  bool evict(JobId t, const MetadataKey& k, int w) {
    return plane.hot_evict(t, k, w);
  }
};

/// The exclusive reference arm (see the header comment): per-shard mutex
/// around the engine's full mutating entry points, plane routing.
class ReferenceArm {
 public:
  ReferenceArm(const fed::FLJob& job, backend::StorageBackend& cold,
               int tenants, int shards_each)
      : shards_each_(shards_each) {
    for (int i = 0; i < tenants * shards_each; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->store = std::make_unique<core::FLStore>(core::FLStoreConfig{},
                                                     job, cold);
      shards_.push_back(std::move(shard));
    }
  }

  bool get(JobId t, const MetadataKey& k, int /*worker*/) {
    auto& shard = route(t, k);
    const MutexLock lock(shard.mu);
    return shard.store->engine().lookup(k, 0.0).hit;
  }
  bool put(JobId t, const MetadataKey& k, int /*worker*/) {
    auto& shard = route(t, k);
    const MutexLock lock(shard.mu);
    return shard.store->engine().cache_object(
        k, std::make_shared<const Blob>(), kObjectBytes, 0.0);
  }
  bool evict(JobId t, const MetadataKey& k, int /*worker*/) {
    auto& shard = route(t, k);
    const MutexLock lock(shard.mu);
    return shard.store->engine().evict(k);
  }

 private:
  struct Shard {
    Mutex mu;
    std::unique_ptr<core::FLStore> store PT_GUARDED_BY(mu);
  };

  Shard& route(JobId t, const MetadataKey& k) {
    const auto local = MetadataKeyHash{}(k) %
                       static_cast<std::size_t>(shards_each_);
    return *shards_[static_cast<std::size_t>(t * shards_each_) + local];
  }

  int shards_each_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Prefill every tenant's keyspace, then time the streams: best of two
/// barrier-started replays (one warms allocator/page state; scheduler
/// jitter on shared CI runners hits one run, not both). Returns ops/sec.
template <typename Arm>
double time_arm(Arm& arm, const std::vector<std::vector<Op>>& streams,
                bool partitioned, int n_keys) {
  const int threads = static_cast<int>(streams.size());
  const int n_tenants = partitioned ? threads : 1;
  for (int t = 0; t < n_tenants; ++t) {
    for (int k = 0; k < n_keys; ++k) (void)arm.put(t, nth_key(k), 0);
  }
  constexpr int kRepeats = 2;
  double best_elapsed = 1e18;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double t0 = now_s();
    serve::ThreadPool::run_replicated(threads, [&](int worker) {
      const JobId tenant = partitioned ? worker : 0;
      for (const auto& op : streams[static_cast<std::size_t>(worker)]) {
        switch (op.kind) {
          case OpKind::kGet:
            (void)arm.get(tenant, op.key, worker);
            break;
          case OpKind::kPut:
            (void)arm.put(tenant, op.key, worker);
            break;
          case OpKind::kEvict:
            (void)arm.evict(tenant, op.key, worker);
            break;
        }
      }
    });
    best_elapsed = std::min(best_elapsed, now_s() - t0);
  }
  std::uint64_t ops = 0;
  for (const auto& s : streams) ops += s.size();
  return static_cast<double>(ops) / std::max(best_elapsed, 1e-9);
}

struct CellResult {
  double plane = 0.0;      ///< ops/s
  double reference = 0.0;  ///< ops/s
  bool ledger_exact = true;

  [[nodiscard]] double speedup() const {
    return plane / std::max(reference, 1e-9);
  }
};

/// Run one (keyspace, mix, threads) cell through both arms on fresh state.
/// `partitioned` gives each thread its own tenant and keyspace;
/// `contended_zipf` is the shared popularity table for the contended case.
CellResult run_cell(const fed::FLJob& job, bool partitioned,
                    const MixSpec& mix, int threads, int ops_per_thread,
                    const ZipfDistribution& contended_zipf) {
  const int n_tenants = partitioned ? threads : 1;
  const int n_keys = partitioned ? kKeysPerTenant : kContendedKeys;
  const int shards = partitioned ? 1 : kContendedShards;
  std::vector<std::vector<Op>> streams;
  streams.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    streams.push_back(build_stream(
        ops_per_thread, n_keys, mix, partitioned ? nullptr : &contended_zipf,
        kSeed ^ (static_cast<std::uint64_t>(w) * 0x9E3779B97F4A7C15ULL)));
  }

  CellResult result;
  {
    backend::ObjectStoreBackend cold(sim::objstore_link(),
                                     PricingCatalog::aws());
    serve::ShardedStoreConfig cfg;
    cfg.worker_threads = 0;  // the bench's own threads make the calls
    obs::HotCounters counters;
    cfg.hot_counters = &counters;
    serve::ShardedStore plane(cold, cfg);
    for (int t = 0; t < n_tenants; ++t) (void)plane.add_tenant(job, {}, shards);
    PlaneArm arm{plane};
    result.plane = time_arm(arm, streams, partitioned, n_keys);
    plane.hot_sync();
    // Ledger exactness: every get the workers issued must be booked as
    // exactly one hit or miss once the stripes are drained.
    std::uint64_t booked = 0;
    for (int s = 0; s < plane.shard_count(); ++s) {
      const auto& engine = plane.shard(s).engine();
      booked += engine.hits() + engine.misses();
    }
    result.ledger_exact = booked == counters.total(obs::HotCounters::kGets);
  }
  {
    backend::ObjectStoreBackend cold(sim::objstore_link(),
                                     PricingCatalog::aws());
    ReferenceArm arm(job, cold, n_tenants, shards);
    result.reference = time_arm(arm, streams, partitioned, n_keys);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("hotpath");
  bench::banner("Hot path (extension)",
                "Real-thread ops/sec scaling: lock-free plane vs exclusive "
                "reference");

  const int ops_per_thread =
      std::max(1000, static_cast<int>(60000 * args.scale));
  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  const auto hardware = static_cast<int>(std::thread::hardware_concurrency());
  int nproc = thread_counts.front();
  for (const int t : thread_counts) {
    if (t <= hardware) nproc = t;
  }
  // The verdict needs streams long enough that lock behaviour, not
  // setup/teardown, dominates the measurement.
  const bool evaluate_speedup = args.scale >= 0.5;
  report.add("hotpath/nproc_threads", nproc, "threads");

  fed::FLJob job(bench_job());
  bool ledger_ok = true;

  struct Sweep {
    const char* keyspace;
    bool partitioned;
    MixSpec mix;
  };
  const std::vector<Sweep> sweeps = {
      {"contended", false, kReadHeavy},
      {"contended", false, kMixed},
      {"partitioned", true, kReadHeavy},
  };

  // One shared popularity table for every contended cell (the bench only
  // ever needs this (n, s) pair; see build_stream).
  const ZipfDistribution contended_zipf(kContendedKeys, 0.9);

  bool beats_at_nproc = true;
  std::string nproc_speedups;
  for (const auto& sweep : sweeps) {
    std::printf("\n[%s / %s] %d ops/thread\n", sweep.keyspace,
                sweep.mix.name.c_str(), ops_per_thread);
    Table table({"threads", "reference (ops/s)", "plane (ops/s)", "speedup"});
    for (const int threads : thread_counts) {
      const auto cell = run_cell(job, sweep.partitioned, sweep.mix, threads,
                                 ops_per_thread, contended_zipf);
      ledger_ok = ledger_ok && cell.ledger_exact;
      table.add_row({std::to_string(threads) +
                         (threads > nproc ? " (oversubscribed)" : ""),
                     fmt(cell.reference, 0), fmt(cell.plane, 0),
                     fmt(cell.speedup(), 2)});
      const std::string prefix = std::string("hotpath/") + sweep.keyspace +
                                 "/" + sweep.mix.name + "/t" +
                                 std::to_string(threads);
      report.add(prefix + "/reference", cell.reference, "ops/s");
      report.add(prefix + "/plane", cell.plane, "ops/s");
      report.add(prefix + "/speedup", cell.speedup(), "x");
      if (!sweep.partitioned && threads == nproc) {
        beats_at_nproc = beats_at_nproc && cell.speedup() > 1.0;
        nproc_speedups += (nproc_speedups.empty() ? "" : ", ") +
                          sweep.mix.name + " " + fmt(cell.speedup(), 2) + "x";
      }
    }
    std::printf("%s", table.to_string().c_str());
  }

  // Put-fraction axis: where would a crossover between the arms sit?
  std::printf("\n[contended / put fraction] %d threads, %d ops/thread, "
              "evicts at a fifth of the puts\n",
              nproc, ops_per_thread);
  Table puts({"puts %", "reference (ops/s)", "plane (ops/s)", "speedup"});
  for (const int pct : {0, 1, 5, 10, 20, 30}) {
    const double put_share = pct / 100.0;
    const MixSpec mix{"p" + std::to_string(pct), put_share, put_share / 5.0};
    const auto cell = run_cell(job, /*partitioned=*/false, mix, nproc,
                               ops_per_thread, contended_zipf);
    ledger_ok = ledger_ok && cell.ledger_exact;
    puts.add_row({std::to_string(pct), fmt(cell.reference, 0),
                  fmt(cell.plane, 0), fmt(cell.speedup(), 2)});
    const std::string prefix = "hotpath/put_fraction/" + mix.name;
    report.add(prefix + "/reference", cell.reference, "ops/s");
    report.add(prefix + "/plane", cell.plane, "ops/s");
    report.add(prefix + "/speedup", cell.speedup(), "x");
  }
  std::printf("%s", puts.to_string().c_str());

  std::printf("\nledger exactness (hits+misses == gets after hot_sync): %s\n",
              ledger_ok ? "PASS" : "FAIL");
  report.add("verdict/deferred_ledger_exact", ledger_ok ? 1.0 : 0.0);
  bool all_ok = ledger_ok;

  if (evaluate_speedup) {
    std::printf(
        "plane beats the exclusive reference at nproc = %d threads on both "
        "contended mixes (%s): %s\n",
        nproc, nproc_speedups.c_str(), beats_at_nproc ? "PASS" : "FAIL");
    report.add("verdict/beats_exclusive_reference_at_nproc",
               beats_at_nproc ? 1.0 : 0.0);
    all_ok = all_ok && beats_at_nproc;
  } else {
    std::printf(
        "speedup verdict skipped at --scale %.2f (< 0.5: streams too short "
        "to measure lock behaviour)\n",
        args.scale);
  }

  report.write(args);
  return all_ok ? 0 : 1;
}
