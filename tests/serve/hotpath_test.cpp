// Real-thread hot path (ShardedStore::hot_get/hot_put/hot_evict): op-for-op
// equivalence with a single-threaded CacheEngine::lookup reference,
// partitioned-keyspace determinism against a single-threaded replay, ledger
// and engine invariants under concurrent mixed traffic (unbounded shards,
// and shards at capacity where puts evict), misses after a group death, an
// exact ledger across scale-in, and a stats-polling TSan regression for the
// lock-free read path. The concurrent tests issue enough reads to fill a
// stripe (256 pending accesses) several times, and check that stripes
// drained mid-run before hot_sync.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "common/rng.hpp"
#include "core/flstore.hpp"
#include "obs/hot_counters.hpp"
#include "serve/sharded_store.hpp"
#include "serve/thread_pool.hpp"
#include "sim/calibration.hpp"

namespace flstore::serve {
namespace {

using units::MB;

fed::FLJobConfig small_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 4;
  cfg.seed = 77;
  return cfg;
}

enum class OpKind : std::uint8_t { kGet, kPut, kEvict };

struct Op {
  MetadataKey key;
  OpKind kind = OpKind::kGet;
};

MetadataKey nth_key(int rank) {
  return MetadataKey::update(rank % 16, rank / 16);
}

std::vector<Op> mixed_stream(int ops, int n_keys, std::uint64_t seed,
                             double put_share = 0.15,
                             double evict_share = 0.05) {
  Rng rng(seed);
  std::vector<Op> stream;
  stream.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.key = nth_key(
        static_cast<int>(rng.uniform_int(0, n_keys - 1)));
    const double r = rng.uniform();
    op.kind = r < put_share                 ? OpKind::kPut
              : r < put_share + evict_share ? OpKind::kEvict
                                            : OpKind::kGet;
    stream.push_back(op);
  }
  return stream;
}

struct HotPlane {
  /// `shard_capacity` bounds every shard's cache (0 = unbounded).
  explicit HotPlane(obs::HotCounters* counters = nullptr, int tenants = 1,
                    int shards_each = 2, units::Bytes shard_capacity = 0)
      : cold(sim::objstore_link(), PricingCatalog::aws()),
        job(std::make_unique<fed::FLJob>(small_job())) {
    ShardedStoreConfig cfg;
    cfg.worker_threads = 0;
    cfg.hot_counters = counters;
    store = std::make_unique<ShardedStore>(cold, cfg);
    core::FLStoreConfig store_config;
    store_config.cache_capacity = shard_capacity;
    for (int t = 0; t < tenants; ++t) {
      (void)store->add_tenant(*job, store_config, shards_each);
    }
  }

  void prefill(JobId tenant, int n_keys) {
    for (int k = 0; k < n_keys; ++k) {
      ASSERT_TRUE(store->hot_put(tenant, nth_key(k), MB, 0.0, 0));
    }
  }

  void replay(JobId tenant, const std::vector<Op>& stream, int worker) {
    for (const auto& op : stream) {
      switch (op.kind) {
        case OpKind::kGet:
          (void)store->hot_get(tenant, op.key, 0.0, worker);
          break;
        case OpKind::kPut:
          (void)store->hot_put(tenant, op.key, MB, 0.0, worker);
          break;
        case OpKind::kEvict:
          (void)store->hot_evict(tenant, op.key, worker);
          break;
      }
    }
  }

  struct EngineTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t objects = 0;
    units::Bytes bytes = 0;

    friend bool operator==(const EngineTotals&, const EngineTotals&) = default;
  };
  [[nodiscard]] EngineTotals totals() const {
    EngineTotals t;
    for (int s = 0; s < store->shard_count(); ++s) {
      const auto& engine = store->shard(s).engine();
      t.hits += engine.hits();
      t.misses += engine.misses();
      t.objects += engine.object_count();
      t.bytes += engine.cached_bytes();
    }
    return t;
  }

  backend::ObjectStoreBackend cold;
  std::unique_ptr<fed::FLJob> job;
  std::unique_ptr<ShardedStore> store;
};

/// The single-threaded reference: one FLStore per plane shard (same tenant
/// config, same key routing), driven through the engine's full mutating
/// CacheEngine::lookup / cache_object / evict on every op.
struct LookupReference {
  explicit LookupReference(const HotPlane& plane)
      : cold(sim::objstore_link(), PricingCatalog::aws()), routing(&plane) {
    for (int s = 0; s < plane.store->shard_count(); ++s) {
      stores.push_back(std::make_unique<core::FLStore>(
          plane.store->shard(s).config(), *plane.job, cold));
    }
  }

  core::CacheEngine& engine(const MetadataKey& key) {
    return stores[static_cast<std::size_t>(
                      routing->store->hot_shard_for(0, key))]
        ->engine();
  }

  [[nodiscard]] HotPlane::EngineTotals totals() const {
    HotPlane::EngineTotals t;
    for (const auto& store : stores) {
      const auto& engine = store->engine();
      t.hits += engine.hits();
      t.misses += engine.misses();
      t.objects += engine.object_count();
      t.bytes += engine.cached_bytes();
    }
    return t;
  }

  backend::ObjectStoreBackend cold;
  const HotPlane* routing;
  std::vector<std::unique_ptr<core::FLStore>> stores;
};

// Single-threaded, the plane must agree with the reference op for op: same
// per-op hit observations, and (after hot_sync drains the stripes) the same
// hit/miss ledgers, object counts, and resident bytes.
TEST(HotPath, StripedMatchesExclusiveSingleThreaded) {
  const auto stream = mixed_stream(4000, 48, 11);
  obs::HotCounters counters;
  HotPlane plane(&counters);
  LookupReference reference(plane);
  plane.prefill(0, 48);
  for (int k = 0; k < 48; ++k) {
    ASSERT_TRUE(reference.engine(nth_key(k)).cache_object(
        nth_key(k), std::make_shared<const Blob>(), MB, 0.0));
  }
  for (const auto& op : stream) {
    auto& engine = reference.engine(op.key);
    if (op.kind == OpKind::kGet) {
      EXPECT_EQ(plane.store->hot_get(0, op.key, 0.0, 0),
                engine.lookup(op.key, 0.0).hit);
    } else if (op.kind == OpKind::kPut) {
      EXPECT_EQ(plane.store->hot_put(0, op.key, MB, 0.0, 0),
                engine.cache_object(op.key, std::make_shared<const Blob>(),
                                    MB, 0.0));
    } else {
      EXPECT_EQ(plane.store->hot_evict(0, op.key, 0), engine.evict(op.key));
    }
  }
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  plane.store->hot_sync();
  EXPECT_EQ(plane.totals(), reference.totals());
}

// A group death the engine is told about (FLStore::inject_fault calls
// CacheEngine::drop_group) must read as a miss on the lock-free path for
// every key the group held, and every other key must still hit.
TEST(HotPath, GetMissesEveryKeyOfADroppedGroup) {
  constexpr int kKeys = 64;
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, 1);
  // Objects of a quarter of a function's memory: four per pool group.
  const auto object_bytes =
      plane.store->shard(0).config().pool.function_memory / 4;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(plane.store->hot_put(0, nth_key(k), object_bytes, 0.0, 0));
  }
  // The plane is quiescent; the test plays the fault injector.
  auto& store = const_cast<core::FLStore&>(plane.store->shard(0));
  ASSERT_TRUE(store.inject_fault(0));

  int dropped = 0;
  for (int round = 0; round < 8; ++round) {  // fills the stripe repeatedly
    for (int k = 0; k < kKeys; ++k) {
      const bool resident = store.engine().contains(nth_key(k));
      dropped += round == 0 && !resident;
      EXPECT_EQ(plane.store->hot_get(0, nth_key(k), 0.0, 0), resident)
          << "key " << k;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, kKeys);
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  plane.store->hot_sync();
  EXPECT_EQ(plane.totals().misses, 8U * static_cast<unsigned>(dropped));
}

// Partitioned keyspaces (tenant per worker) share no state, so a concurrent
// run must produce, per tenant, exactly the ledgers of a single-threaded
// replay of the same streams.
TEST(HotPath, PartitionedConcurrentMatchesSingleThreadedReplay) {
  constexpr int kWorkers = 4;
  constexpr int kKeys = 32;
  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(3000, kKeys, 100 + std::uint64_t(w)));
  }

  obs::HotCounters counters;
  HotPlane concurrent(&counters, kWorkers, 1);
  HotPlane reference(nullptr, kWorkers, 1);
  for (int t = 0; t < kWorkers; ++t) {
    concurrent.prefill(t, kKeys);
    reference.prefill(t, kKeys);
  }

  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    concurrent.replay(worker, streams[static_cast<std::size_t>(worker)],
                      worker);
  });
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  concurrent.store->hot_sync();
  for (int t = 0; t < kWorkers; ++t) {
    reference.replay(t, streams[static_cast<std::size_t>(t)], 0);
  }
  reference.store->hot_sync();

  for (int s = 0; s < concurrent.store->shard_count(); ++s) {
    const auto& a = concurrent.store->shard(s).engine();
    const auto& b = reference.store->shard(s).engine();
    EXPECT_EQ(a.hits(), b.hits()) << "shard " << s;
    EXPECT_EQ(a.misses(), b.misses()) << "shard " << s;
    EXPECT_EQ(a.object_count(), b.object_count()) << "shard " << s;
    EXPECT_EQ(a.cached_bytes(), b.cached_bytes()) << "shard " << s;
  }
}

// Contended traffic: after the workers join and the stripes drain,
// (a) every issued get is booked as exactly one hit or miss, (b) per-class
// occupancy sums to the engine totals, (c) the hot counters agree with the
// number of ops issued.
TEST(HotPath, ConcurrentGetPutEvictInvariants) {
  constexpr int kWorkers = 4;
  constexpr int kKeys = 64;
  constexpr int kOps = 5000;
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, 2);
  plane.prefill(0, kKeys);
  counters.reset();

  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(kOps, kKeys, 500 + std::uint64_t(w)));
  }
  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    plane.replay(0, streams[static_cast<std::size_t>(worker)], worker);
  });
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  plane.store->hot_sync();

  std::uint64_t issued_gets = 0;
  for (const auto& stream : streams) {
    for (const auto& op : stream) issued_gets += op.kind == OpKind::kGet;
  }
  EXPECT_EQ(counters.total(obs::HotCounters::kGets), issued_gets);
  EXPECT_EQ(counters.total(obs::HotCounters::kHits) +
                counters.total(obs::HotCounters::kMisses),
            issued_gets);

  const auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, issued_gets);
  EXPECT_EQ(totals.hits, counters.total(obs::HotCounters::kHits));
  EXPECT_EQ(totals.misses, counters.total(obs::HotCounters::kMisses));

  // Per-class ledgers stay consistent with the engine totals.
  for (int s = 0; s < plane.store->shard_count(); ++s) {
    const auto& engine = plane.store->shard(s).engine();
    units::Bytes class_bytes = 0;
    std::size_t class_objects = 0;
    for (std::size_t p = 0; p < core::CacheEngine::kPartitions; ++p) {
      class_bytes += engine.class_stats(p).bytes;
      class_objects += engine.class_stats(p).objects;
    }
    EXPECT_EQ(class_bytes, engine.cached_bytes());
    EXPECT_EQ(class_objects, engine.object_count());
  }

  // Every drained batch was counted, and nothing is left pending.
  EXPECT_EQ(counters.total(obs::HotCounters::kDrainedAccesses), issued_gets);
}

// hot_write's setup in miniature: shards sized for half the keys, so puts
// evict under contention while gets and evicts of absent keys probe the
// residency table with no lock and full stripes drain only when the shard
// mutex is free. After the workers join and hot_sync runs, the ledger is
// exact and every shard's engine is self-consistent: within capacity,
// per-class occupancy summing to the totals, and the residency table
// holding exactly the index's keys.
TEST(HotPath, BoundedShardConcurrentWritersKeepEngineInvariants) {
  constexpr int kWorkers = 4;
  constexpr int kKeys = 64;
  constexpr int kShards = 2;
  constexpr units::Bytes kCapacity = units::Bytes{kKeys / 2 / kShards} * MB;
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, kShards, kCapacity);
  plane.prefill(0, kKeys);
  counters.reset();

  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(6000, kKeys, 700 + std::uint64_t(w),
                                   /*put_share=*/0.4, /*evict_share=*/0.1));
  }
  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    plane.replay(0, streams[static_cast<std::size_t>(worker)], worker);
  });
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  plane.store->hot_sync();

  std::uint64_t issued_gets = 0;
  for (const auto& stream : streams) {
    for (const auto& op : stream) issued_gets += op.kind == OpKind::kGet;
  }
  const auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, issued_gets);
  EXPECT_EQ(totals.hits, counters.total(obs::HotCounters::kHits));
  EXPECT_EQ(totals.misses, counters.total(obs::HotCounters::kMisses));
  EXPECT_EQ(counters.total(obs::HotCounters::kDrainedAccesses), issued_gets);

  std::uint64_t forced_evictions = 0;
  for (int s = 0; s < plane.store->shard_count(); ++s) {
    const auto& engine = plane.store->shard(s).engine();
    forced_evictions += engine.forced_evictions();
    EXPECT_LE(engine.cached_bytes(), kCapacity) << "shard " << s;
    units::Bytes class_bytes = 0;
    std::size_t class_objects = 0;
    for (std::size_t p = 0; p < core::CacheEngine::kPartitions; ++p) {
      class_bytes += engine.class_stats(p).bytes;
      class_objects += engine.class_stats(p).objects;
    }
    EXPECT_EQ(class_bytes, engine.cached_bytes()) << "shard " << s;
    EXPECT_EQ(class_objects, engine.object_count()) << "shard " << s;
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_EQ(engine.residency().contains(nth_key(k)),
                engine.contains(nth_key(k)))
          << "shard " << s << " key " << k;
    }
  }
  // Capacity, not only explicit evicts, removed entries.
  EXPECT_GT(forced_evictions, 0U);
}

// Scale-in retires a shard whose stripes may still hold deferred gets, and
// hot_sync skips retired slots. Those gets must still reach a ledger, once:
// engine hits + misses over every slot equal the gets issued, after the
// scale-in and again after the slot comes back.
TEST(HotPath, ScaleInKeepsTheLedgerExact) {
  constexpr int kKeys = 32;
  constexpr int kGets = 100;  // under a stripe's batch: nothing drains early
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, 2);
  plane.prefill(0, kKeys / 2);
  counters.reset();
  int victim_gets = 0;
  for (int i = 0; i < kGets; ++i) {
    const auto key = nth_key(i % kKeys);
    victim_gets += plane.store->hot_shard_for(0, key) == 1;
    (void)plane.store->hot_get(0, key, 0.0, 0);
  }
  ASSERT_EQ(counters.total(obs::HotCounters::kDrains), 0U);
  ASSERT_GT(victim_gets, 0);

  ASSERT_EQ(plane.store->set_tenant_shards(0, 1, 0.0), 1);
  plane.store->hot_sync();
  auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, std::uint64_t{kGets});
  EXPECT_EQ(totals.hits, counters.total(obs::HotCounters::kHits));

  ASSERT_EQ(plane.store->set_tenant_shards(0, 2, 0.0), 2);
  plane.store->hot_sync();
  totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, std::uint64_t{kGets});
}

// TSan regression: polling the plane's aggregate statistics while hot
// traffic runs must be race-free (the pollers take the shard mutex; the
// readers take no lock).
TEST(HotPath, StatsPollingDuringHotTrafficIsDataRaceFree) {
  constexpr int kWorkers = 2;
  constexpr int kKeys = 32;
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, 2);
  plane.prefill(0, kKeys);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)plane.store->tenant_class_stats(0);
      (void)plane.store->infrastructure_cost(60.0);
      (void)plane.store->dirty_window_stats(0.0);
    }
  });
  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(8000, kKeys, 900 + std::uint64_t(w)));
  }
  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    plane.replay(0, streams[static_cast<std::size_t>(worker)], worker);
  });
  done.store(true, std::memory_order_release);
  poller.join();
  // Stripes drained while the poller ran.
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 0U);
  plane.store->hot_sync();
  const auto totals = plane.totals();
  EXPECT_GT(totals.hits, 0U);
}

// Enough reads to fill the one stripe many times over forces many mid-run
// handoffs; the ledger must still be exact and hot_sync must leave nothing
// pending (drained == issued).
TEST(HotPath, HotSyncDrainsExactly) {
  obs::HotCounters counters;
  HotPlane plane(&counters, 1, 1);
  plane.prefill(0, 16);
  counters.reset();
  const auto stream = mixed_stream(4000, 16, 42);
  plane.replay(0, stream, 0);
  EXPECT_GT(counters.total(obs::HotCounters::kDrains), 1U);
  plane.store->hot_sync();
  EXPECT_EQ(counters.total(obs::HotCounters::kDrainedAccesses),
            counters.total(obs::HotCounters::kGets));
  const auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses,
            counters.total(obs::HotCounters::kGets));
}

}  // namespace
}  // namespace flstore::serve
