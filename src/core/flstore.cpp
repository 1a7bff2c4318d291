#include "core/flstore.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "fed/codec.hpp"

namespace flstore::core {

namespace {

/// Bandwidth between functions when a request's data spans groups.
constexpr double kIntraDcBandwidthBps = 1.0e9;

/// Objects per cold-tier put_batch when a round is backed up: one admission
/// and one streamed transfer per slice.
constexpr std::size_t kBackupSlice = 64;

}  // namespace

FunctionRuntime::Config function_runtime_config(const ModelSpec& model) {
  FunctionRuntime::Config cfg;
  const auto sizing = function_sizing_for(model);
  // 2-core functions get a second stream's worth of flops and slightly
  // better effective memory bandwidth for the scan-heavy phases.
  if (sizing.vcpus >= 2) {
    cfg.profile = ComputeProfile{0.7e9, 35.0e9};
  } else {
    cfg.profile = ComputeProfile{0.55e9, 18.0e9};
  }
  cfg.invoke_overhead_s = 0.005;
  cfg.cold_start_s = 1.0;
  return cfg;
}

FLStore::FLStore(FLStoreConfig config, const fed::FLJob& job,
                 backend::StorageBackend& cold)
    : config_(std::move(config)),
      job_(&job),
      cold_(&cold),
      runtime_(function_runtime_config(job.model()), PricingCatalog::aws()),
      flush_sched_(*cold_, config_.cold_flush) {
  auto pool_cfg = config_.pool;
  if (pool_cfg.function_memory == 0) {
    pool_cfg.function_memory = function_sizing_for(job.model()).memory;
  }
  pool_ = std::make_unique<ServerlessCachePool>(pool_cfg, runtime_);
  CacheEngine::Config engine_cfg;
  engine_cfg.capacity = config_.cache_capacity;
  engine_cfg.class_capacity = config_.class_capacity;
  engine_cfg.eviction_order =
      is_tailored(config_.policy.mode) ? PolicyMode::kLru : config_.policy.mode;
  engine_cfg.round_aware_eviction = is_tailored(config_.policy.mode);
  engine_ = std::make_unique<CacheEngine>(engine_cfg, *pool_);
}

void FLStore::ingest_round(const fed::RoundRecord& record, double now) {
  ingest_encoded(record, fed::encode_round(record), now);
}

void FLStore::ingest_encoded(const fed::RoundRecord& record,
                             std::span<const fed::EncodedObject> objects,
                             double now) {
  // Back everything up to the persistent data plane (fees accrue, no
  // serving latency) in put_batch slices, in encode_round's order, before
  // any request can arrive: the cold store's contents at every serve point
  // are identical to a put per object. Secondary shards of a tenant skip
  // it: the primary already streamed the round out, and double puts mean
  // double fees. The scheduler drains then make a write-back tiered
  // composition durable (its put_batch parks objects in the fast tier).
  // With a *shared* write-back composition a drain covers every tenant's
  // pending objects and the draining tenant books the fees — the
  // shared-daemon approximation; give tenants their own compositions (or
  // write-through) when per-tenant fee attribution matters. A
  // capacity-bounded cold tier that refuses backups shows up in its
  // stats().rejected_puts — and later as NotFound on the first cache miss
  // for the dropped object; run bounded backends auto-scaled or behind a
  // TieredColdStore whose deepest tier is unbounded (every default
  // configuration is).
  if (config_.backup_to_cold) {
    for (std::size_t first = 0; first < objects.size();
         first += kBackupSlice) {
      const auto last = std::min(objects.size(), first + kBackupSlice);
      std::vector<backend::PutRequest> slice;
      slice.reserve(last - first);
      for (std::size_t i = first; i < last; ++i) {
        const auto& obj = objects[i];
        slice.push_back({cold_name(obj.key), *obj.blob, obj.logical_bytes});
      }
      const auto put = cold_->put_batch(std::move(slice), now);
      infra_meter_.charge(CostCategory::kStorageService, put.request_fee_usd);
      // Every slice is an observation point for the write-back flush
      // scheduler (the ingest cadence), so age/byte thresholds fire
      // mid-round without an explicit flush.
      const auto drained = flush_sched_.observe(now);
      infra_meter_.charge(CostCategory::kStorageService,
                          drained.request_fee_usd);
    }
    // Round boundary: the scheduler decides whether to drain. The default
    // policy flushes here unconditionally — the legacy cadence, same
    // contents and fees as the old explicit cold_->flush (the drain now
    // walks oldest-first rather than name-sorted); scheduled policies
    // only drain when an age/byte threshold says the dirty window needs
    // bounding.
    const auto drained = flush_sched_.observe(now, /*round_boundary=*/true);
    infra_meter_.charge(CostCategory::kStorageService,
                        drained.request_fee_usd);
  }

  std::unordered_map<MetadataKey, const fed::EncodedObject*, MetadataKeyHash>
      encoded;
  for (const auto& obj : objects) encoded.emplace(obj.key, &obj);

  // Tailored write-allocation (hot data stays next to compute).
  // PolicyEngine is stateful only for the Random mode's rng; re-seeding per
  // round keeps ingest deterministic per round id.
  PolicyConfig per_round = config_.policy;
  per_round.random_seed ^= static_cast<std::uint64_t>(record.round) + 1;
  PolicyEngine ingest_policy(per_round);
  const auto plan = ingest_policy.plan_ingest(record, *job_);
  for (const auto& directive : plan.cache) {
    const auto it = encoded.find(directive.key);
    FLSTORE_CHECK(it != encoded.end());
    engine_->cache_object(directive.key, it->second->blob,
                          it->second->logical_bytes, now, now,
                          /*pinned=*/false, /*opportunistic=*/false,
                          directive.cls);
  }
  for (const auto& key : plan.evict) {
    // Window maintenance must not wash out pinned P3 client tracks.
    engine_->evict(key, /*include_pinned=*/false);
  }

  // Fig 6 step ②: consult active non-training tracks and pin the new data
  // a tracked client just produced (plus the round's aggregate, which
  // alignment-style trackers compare against).
  if (is_tailored(config_.policy.mode) && !p3_tracks_.empty()) {
    for (auto it = p3_tracks_.begin(); it != p3_tracks_.end();) {
      if (it->second + config_.track_ttl_s < now) {
        it = p3_tracks_.erase(it);
      } else {
        ++it;
      }
    }
    bool any_tracked = false;
    for (const auto& u : record.updates) {
      if (!p3_tracks_.contains(u.client)) continue;
      any_tracked = true;
      for (const auto& key : {MetadataKey::update(u.client, record.round),
                              MetadataKey::metrics(u.client, record.round)}) {
        const auto it = encoded.find(key);
        FLSTORE_CHECK(it != encoded.end());
        engine_->cache_object(key, it->second->blob,
                              it->second->logical_bytes, now, now,
                              /*pinned=*/true, /*opportunistic=*/false,
                              fed::PolicyClass::kP3);
      }
    }
    if (any_tracked) {
      const auto agg_key = MetadataKey::aggregate(record.round);
      const auto it = encoded.find(agg_key);
      FLSTORE_CHECK(it != encoded.end());
      engine_->cache_object(agg_key, it->second->blob,
                            it->second->logical_bytes, now, now,
                            /*pinned=*/true, /*opportunistic=*/false,
                            fed::PolicyClass::kP3);
    }
  }
}

void FLStore::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    hit_counters_ = {};
    miss_counters_ = {};
    return;
  }
  constexpr fed::PolicyClass kClasses[] = {
      fed::PolicyClass::kP1, fed::PolicyClass::kP2, fed::PolicyClass::kP3,
      fed::PolicyClass::kP4};
  for (const auto cls : kClasses) {
    const obs::Labels labels{{obs::kLabelClass, fed::to_string(cls)}};
    hit_counters_[fed::class_index(cls)] =
        &telemetry_->metrics.counter("cache_hits_total", labels);
    miss_counters_[fed::class_index(cls)] =
        &telemetry_->metrics.counter("cache_misses_total", labels);
  }
}

backend::GetResult FLStore::fetch_cold(const MetadataKey& key,
                                       CostMeter& meter, double now) {
  const auto name = cold_name(key);
  auto got = cold_interceptor_ != nullptr
                 ? cold_interceptor_->fetch(name, *cold_, now)
                 : cold_->get(name, now);
  meter.charge(CostCategory::kStorageService, got.request_fee_usd);
  if (!got.found) {
    throw NotFound("cold store lacks " + name);
  }
  return got;
}

ServeResult FLStore::serve(const fed::NonTrainingRequest& req, double now) {
  return serve(req, now, nullptr);
}

ServeResult FLStore::serve(const fed::NonTrainingRequest& req, double now,
                           const PreparedOutput* prepared) {
  tracker_.begin(req.id, now);
  ServeResult res;
  try {
    res = serve_tracked(req, now, prepared);
  } catch (...) {
    // A cold object gone or a workload refusing its input must not leave
    // the request in flight forever; the id may be served again.
    tracker_.abandon(req.id);
    throw;
  }
  tracker_.finish(req.id, now + res.comm_s + res.comp_s);
  (void)tracker_.garbage_collect(now, /*horizon_s=*/3600.0);
  return res;
}

ServeResult FLStore::serve_tracked(const fed::NonTrainingRequest& req,
                                   double now,
                                   const PreparedOutput* prepared) {
  ServeResult res;
  res.comm_s = kRoutingOverheadS;
  CostMeter request_fees;

  // Request span: child of the serving plane's root when one is in scope,
  // its own root for direct serve() callers. Everything below nests here.
  obs::Tracer* const tracer = obs::tracer_of(telemetry_);
  const auto serve_span =
      obs::begin_span(tracer, "flstore.serve", "core", now);
  const obs::Tracer::Scope serve_scope(tracer, serve_span);
  obs::annotate_span(tracer, serve_span, "workload",
                     fed::to_string(req.type));

  const auto& workload = workloads::workload_for(req.type);
  const auto needs = workload.data_needs(req, *job_);

  // Resolve the request's policy class once: it decides both the post-serve
  // plan and whether fetched data is pinned (P3 client tracks survive the
  // P2 round-window maintenance).
  PolicyConfig per_request = config_.policy;
  per_request.random_seed ^= req.id * 0x9E3779B97F4A7C15ULL;
  PolicyEngine policy(per_request);
  std::optional<fed::PolicyClass> policy_class;
  if (is_tailored(config_.policy.mode)) {
    policy_class = policy.effective_class(req);
  }
  const bool pin = policy_class == fed::PolicyClass::kP3;
  if (pin && req.client != kNoClient) p3_tracks_[req.client] = now;

  workloads::WorkloadInput input;
  input.model = &job_->model();
  // The prepared output stays takeable while every need resolves to the
  // blob it decoded at that index. The first that does not decodes the
  // matched prefix from the prepared blobs (the same objects), and from
  // there on each need decodes as it resolves, as with no prepared output.
  bool take_prepared =
      prepared != nullptr && prepared->blobs.size() == needs.size();
  const auto absorb = [&](std::size_t i,
                          const std::shared_ptr<const Blob>& blob) {
    if (take_prepared) {
      if (prepared->blobs[i] == blob) return;
      take_prepared = false;
      for (std::size_t j = 0; j < i; ++j) {
        workloads::absorb_blob(input, needs[j], *prepared->blobs[j]);
      }
    }
    workloads::absorb_blob(input, needs[i], *blob);
  };

  // Resolve every needed key: cache hit (locality), prefetch-in-flight
  // (wait), or cold-store miss. A miss triggers the request's policy at its
  // natural granularity — e.g. P2 pre-caches *all* client updates of the
  // round on the first miss (§4.4), so at most one access per request is a
  // statistical miss; the bulk-fetched siblings then hit. This is the
  // accounting behind Table 2's 19999/1 and 63/1 hit/miss splits.
  std::unordered_map<FunctionId, units::Bytes> bytes_per_function;
  bool bulk_fetched = false;
  // One traced miss fetch: cold.fetch span at `at`, interceptor/backend
  // spans nested under it.
  const auto traced_fetch = [&](const MetadataKey& key, CostMeter& meter,
                                double at) {
    const auto span = obs::begin_span(tracer, "cold.fetch", "core", at);
    backend::GetResult fetched;
    {
      const obs::Tracer::Scope scope(tracer, span);
      fetched = fetch_cold(key, meter, at);
    }
    if (span != obs::kNoSpan) {
      tracer->end(span, at + fetched.latency_s);
      tracer->annotate(span, "object", key.object_name());
    }
    return fetched;
  };

  for (std::size_t i = 0; i < needs.size(); ++i) {
    const auto& key = needs[i];
    auto hit = engine_->lookup(key, now, policy_class);
    res.comm_s += hit.failover_delay_s;
    if (hit.failover_delay_s > 0.0) {
      obs::instant_span(tracer, "replica.failover", "core", now);
    }
    if (hit.failover_delay_s > 0.0 && hit.group != kNoGroup) {
      if (pool_->repair(hit.group)) ++repairs_;
    }
    if (hit.hit) {
      ++res.hits;
      obs::instant_span(tracer, "cache.hit", "core", now);
      if (hit.available_at > now) res.comm_s += hit.available_at - now;
      absorb(i, hit.blob);
      bytes_per_function[hit.function] +=
          static_cast<units::Bytes>(hit.blob->size());
      tracker_.add_function(req.id, hit.function);
      continue;
    }
    ++res.misses;
    ++refetches_;
    obs::instant_span(tracer, "cache.miss", "core", now);
    auto fetched = traced_fetch(key, request_fees, now + res.comm_s);
    res.comm_s += fetched.latency_s;
    absorb(i, fetched.blob);
    engine_->cache_object(key, fetched.blob, fetched.logical_bytes, now, now,
                          pin, /*opportunistic=*/false, policy_class);
    if (!bulk_fetched && is_tailored(config_.policy.mode)) {
      bulk_fetched = true;
      for (const auto& sibling : needs) {
        if (sibling == key || engine_->contains(sibling)) continue;
        if (!cold_->contains(cold_name(sibling))) continue;
        auto s = traced_fetch(sibling, request_fees, now + res.comm_s);
        res.comm_s += s.latency_s;
        engine_->cache_object(sibling, s.blob, s.logical_bytes, now, now, pin,
                              /*opportunistic=*/false, policy_class);
      }
    }
  }

  if (take_prepared) {
    res.output = prepared->take();
    ++outputs_taken_;
  } else {
    res.output = workload.execute(req, input);
  }

  // Locality-aware execution: run on the function holding the most data;
  // shares cached elsewhere are gathered over the intra-DC network.
  FunctionId primary = kNoFunction;
  units::Bytes primary_bytes = 0;
  units::Bytes total_bytes = 0;
  for (const auto& [fn, bytes] : bytes_per_function) {
    total_bytes += bytes;
    if (bytes > primary_bytes || primary == kNoFunction) {
      primary_bytes = bytes;
      primary = fn;
    }
  }
  if (primary == kNoFunction || !runtime_.is_warm(primary)) {
    // Nothing cached served this request (pure miss path): execute on the
    // pool's first warm function, spawning a group when none is live.
    primary = pool_->warm_function();
    FLSTORE_CHECK(primary != kNoFunction);
  }
  // Gather penalty uses *logical* remote bytes.
  if (total_bytes > primary_bytes) {
    // Materialized payloads underestimate logical sizes; approximate the
    // remote share by the same ratio of logical work bytes.
    const double remote_frac =
        1.0 - static_cast<double>(primary_bytes) /
                  static_cast<double>(total_bytes);
    res.comm_s += remote_frac * res.output.work.bytes_touched /
                  kIntraDcBandwidthBps;
  }
  const auto invocation = runtime_.invoke(primary, res.output.work);
  res.comp_s = invocation.duration_s;
  res.executed_on = primary;
  if (tracer != nullptr) {
    const auto exec = tracer->begin("workload.exec", "core", now + res.comm_s);
    obs::end_span(tracer, exec, now + res.comm_s + res.comp_s);
  }
  tracker_.add_function(req.id, primary);
  request_fees.charge(CostCategory::kComputation, invocation.cost_usd);
  // The function also bills while blocked on cold-store fetches and
  // failovers (serverless time is wall-clock, not CPU) — this is what makes
  // cache misses expensive, not just slow.
  const double blocked_s =
      std::max(0.0, res.comm_s - kRoutingOverheadS);
  if (blocked_s > 0.0) {
    const double gb = units::to_gb(runtime_.instance(primary).memory_limit());
    request_fees.charge(
        CostCategory::kCommunication,
        blocked_s * gb * PricingCatalog::aws().lambda_usd_per_gb_second);
  }

  // Store the (small) result back asynchronously. Detached span: the write
  // can outlive the request's own interval, so it must not pretend to nest.
  {
    const auto wb = obs::begin_detached_span(tracer, "result.writeback",
                                             "core", now + res.comm_s);
    backend::PutResult put;
    {
      const obs::Tracer::Scope scope(tracer, wb);
      put = cold_->put(
          config_.cold_namespace + "results/" + std::to_string(req.id),
          Blob(1), res.output.result_bytes, now + res.comm_s);
    }
    obs::end_span(tracer, wb, now + res.comm_s + put.latency_s);
    request_fees.charge(CostCategory::kStorageService, put.request_fee_usd);
  }

  // Post-serve: policy prefetch + evictions (asynchronous).
  if (policy_class.has_value()) {
    const auto plan = policy.plan_for_class(*policy_class, req, *job_);
    for (const auto& key : plan.prefetch) {
      if (engine_->contains(key)) continue;
      if (!cold_->contains(cold_name(key))) continue;
      // Prefetches issue after the request's own transfers; timestamping
      // them at now + comm keeps interceptor (coalescing) windows monotone
      // with the miss path above. Detached span: a prefetch's transfer can
      // end after the request completes.
      const auto pf = obs::begin_detached_span(tracer, "prefetch.fetch",
                                               "core", now + res.comm_s);
      backend::GetResult fetched;
      {
        const obs::Tracer::Scope scope(tracer, pf);
        fetched = fetch_cold(key, infra_meter_, now + res.comm_s);
      }
      if (pf != obs::kNoSpan) {
        tracer->end(pf, now + res.comm_s + fetched.latency_s);
        tracer->annotate(pf, "object", key.object_name());
      }
      engine_->cache_object(key, fetched.blob, fetched.logical_bytes, now,
                            now + fetched.latency_s, pin,
                            /*opportunistic=*/true, policy_class);
    }
    for (const auto& key : plan.evict) {
      // A policy may clean its own pinned trail (P3), but must not evict
      // another policy's pins.
      engine_->evict(key, /*include_pinned=*/pin);
    }
  }

  res.latency_s = res.comm_s + res.comp_s;
  res.cost_usd = request_fees.total();
  if (telemetry_ != nullptr) {
    const auto c = fed::class_index(fed::policy_class_for(req.type));
    if (res.hits > 0) hit_counters_[c]->add(static_cast<double>(res.hits));
    if (res.misses > 0) {
      miss_counters_[c]->add(static_cast<double>(res.misses));
    }
    obs::end_span(tracer, serve_span, now + res.latency_s);
  }
  return res;
}

bool FLStore::inject_fault(std::int32_t function_rank) {
  // Rank indexes the *live* population in spawn order: providers reclaim
  // running instances, not ones they already took back.
  std::vector<FunctionId> warm;
  for (FunctionId id = 0;
       id < static_cast<FunctionId>(runtime_.total_spawned()); ++id) {
    if (runtime_.is_warm(id)) warm.push_back(id);
  }
  if (warm.empty()) return false;
  const auto victim =
      warm[static_cast<std::size_t>(function_rank) % warm.size()];
  const auto located = pool_->locate_function(victim);
  if (!located.has_value()) {
    runtime_.reclaim(victim);  // scratch function outside any group
    return false;
  }
  const auto [group, member] = *located;
  const bool group_died = pool_->reclaim_member(group, member);
  if (group_died) {
    engine_->drop_group(group);
    return true;
  }
  return false;
}

double FLStore::infrastructure_cost(double seconds) const {
  return runtime_.keepalive_cost(seconds);
}

void FLStore::set_class_capacity(
    const std::array<units::Bytes, fed::kPolicyClassCount>& budgets) {
  config_.class_capacity = budgets;
  engine_->set_class_capacity(budgets);
}

}  // namespace flstore::core
