#include "fed/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/fl_job.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"

namespace flstore::fed {
namespace {

ClientUpdate sample_update() {
  Rng rng(1);
  ClientUpdate u;
  u.client = 17;
  u.round = 42;
  u.delta = ops::random_normal(128, rng);
  u.logical_bytes = 85 * units::MB;
  u.num_samples = 512;
  return u;
}

TEST(Codec, UpdateRoundTrip) {
  const auto u = sample_update();
  EXPECT_EQ(decode_update(encode_update(u)), u);
}

TEST(Codec, AggregateRoundTrip) {
  Rng rng(2);
  const auto model = ops::random_normal(64, rng);
  const auto blob = encode_aggregate(7, model, 100 * units::MB);
  const auto rec = decode_aggregate(blob);
  EXPECT_EQ(rec.round, 7);
  EXPECT_EQ(rec.model, model);
  EXPECT_EQ(rec.logical_bytes, 100 * units::MB);
}

TEST(Codec, MetricsRoundTrip) {
  ClientMetrics m;
  m.client = 3;
  m.round = 9;
  m.local_loss = 0.75;
  m.accuracy = 0.81;
  m.train_time_s = 120.0;
  m.upload_time_s = 30.0;
  m.compute_gflops = 42.0;
  m.network_mbps = 25.0;
  m.energy_j = 900.0;
  m.num_samples = 640;
  EXPECT_EQ(decode_metrics(encode_metrics(m)), m);
}

TEST(Codec, RoundInfoRoundTrip) {
  RoundInfo info;
  info.round = 123;
  info.hparams.learning_rate = 0.0125;
  info.hparams.batch_size = 64;
  info.hparams.momentum = 0.95;
  info.hparams.local_epochs = 3;
  info.global_loss = 0.33;
  info.num_participants = 10;
  const auto rec = decode_round_info(encode_round_info(info));
  EXPECT_EQ(rec.round, info.round);
  EXPECT_EQ(rec.hparams, info.hparams);
  EXPECT_DOUBLE_EQ(rec.global_loss, info.global_loss);
  EXPECT_EQ(rec.num_participants, 10);
}

TEST(Codec, TagMismatchDetected) {
  const auto blob = encode_metrics(ClientMetrics{});
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
  EXPECT_THROW((void)decode_aggregate(blob), InvalidArgument);
}

TEST(Codec, CorruptionDetected) {
  auto blob = encode_update(sample_update());
  blob[blob.size() / 2] ^= 0x55;
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
}

TEST(Codec, MetadataCorruptionDetected) {
  // Tensor-free frames verify their checksum in expect_done().
  auto metrics = encode_metrics(ClientMetrics{});
  metrics[5] ^= 0x10;
  EXPECT_THROW((void)decode_metrics(metrics), InvalidArgument);
  auto info = encode_round_info(RoundInfo{});
  info[9] ^= 0x10;
  EXPECT_THROW((void)decode_round_info(info), InvalidArgument);
}

// Byte ranges of a tensor-carrying frame, located from its end:
// tag | header fields | tensor length (u64) | tensor blob | frame crc (u64),
// where the tensor blob is magic (4) | dim (u64) | payload | tensor crc (u64).
struct FrameLayout {
  explicit FrameLayout(const Blob& blob, std::size_t dim)
      : outer_crc(blob.size() - 8),
        inner_crc(outer_crc - 8),
        payload(inner_crc - dim * sizeof(float)),
        dim_field(payload - 8),
        magic(dim_field - 4),
        tensor_len(magic - 8) {}
  std::size_t outer_crc, inner_crc, payload, dim_field, magic, tensor_len;
};

/// Recomputes the frame checksum so it matches whatever the frame holds.
void restamp_frame_crc(Blob& blob) {
  const auto body = blob.size() - sizeof(std::uint64_t);
  const auto crc = checksum(std::span(blob.data(), body));
  std::memcpy(blob.data() + body, &crc, sizeof crc);
}

template <typename Decode>
void expect_every_region_rejected(const Blob& clean, std::size_t dim,
                                  Decode decode) {
  const FrameLayout at(clean, dim);
  const std::pair<const char*, std::size_t> regions[] = {
      {"tag", 0},
      {"frame header", 1},
      {"tensor length", at.tensor_len},
      {"magic", at.magic + 1},
      {"dim", at.dim_field},
      {"payload", at.payload + dim * sizeof(float) / 2},
      {"inner crc", at.inner_crc + 3},
      {"outer crc", at.outer_crc + 5},
  };
  ASSERT_NO_THROW((void)decode(clean));
  for (const auto& [name, offset] : regions) {
    SCOPED_TRACE(name);
    ASSERT_LT(offset, clean.size());
    auto blob = clean;
    blob[offset] ^= 0x01;
    EXPECT_THROW((void)decode(blob), InvalidArgument);
  }
  // Only the tensor's own checksum can catch these: the frame checksum has
  // been re-stamped over the corrupted bytes, so the inner check must still
  // run after the frame check passes.
  for (const auto offset : {at.inner_crc, at.payload}) {
    auto blob = clean;
    blob[offset] ^= 0x01;
    restamp_frame_crc(blob);
    EXPECT_THROW((void)decode(blob), InvalidArgument) << "offset " << offset;
  }
  auto restamped = clean;
  restamp_frame_crc(restamped);
  EXPECT_EQ(restamped, clean);
}

TEST(Codec, UpdateCorruptionInEveryRegionDetected) {
  const auto u = sample_update();
  expect_every_region_rejected(encode_update(u), u.delta.dim(),
                               [](const Blob& b) { return decode_update(b); });
}

TEST(Codec, AggregateCorruptionInEveryRegionDetected) {
  Rng rng(3);
  const auto model = ops::random_normal(96, rng);
  expect_every_region_rejected(
      encode_aggregate(4, model, 10 * units::MB), model.dim(),
      [](const Blob& b) { return decode_aggregate(b); });
}

/// Flips each bit of `clean` in turn; every flipped frame must be rejected.
template <typename Decode>
void expect_every_bit_flip_rejected(const Blob& clean, Decode decode) {
  ASSERT_NO_THROW((void)decode(clean));
  auto blob = clean;
  std::size_t accepted = 0;
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1U << bit);
      blob[byte] ^= mask;
      try {
        (void)decode(blob);
        ++accepted;
        ADD_FAILURE() << "byte " << byte << " bit " << bit << " accepted";
      } catch (const InvalidArgument&) {
      }
      blob[byte] ^= mask;
    }
  }
  EXPECT_EQ(accepted, 0U) << "of " << blob.size() * 8 << " flips";
}

TEST(Codec, EveryBitFlipOfAnUpdateFrameDetected) {
  FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 20;
  cfg.rounds = 5;
  cfg.seed = 5;
  const FLJob job(cfg);
  const auto blob = encode_update(job.make_round(3).updates.front());
  expect_every_bit_flip_rejected(
      blob, [](const Blob& b) { return decode_update(b); });
}

TEST(Codec, EveryBitFlipOfAMetricsFrameDetected) {
  ClientMetrics m;
  m.client = 8;
  m.round = 21;
  m.local_loss = 0.5;
  m.train_time_s = 90.0;
  m.num_samples = 300;
  const auto blob = encode_metrics(m);
  EXPECT_EQ(blob.size(), 77U);
  expect_every_bit_flip_rejected(
      blob, [](const Blob& b) { return decode_metrics(b); });
}

TEST(Codec, TruncationDetected) {
  auto blob = encode_update(sample_update());
  blob.resize(blob.size() / 2);
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
}

TEST(Codec, EmptyBlobRejected) {
  EXPECT_THROW((void)decode_update(Blob{}), InvalidArgument);
}

TEST(Codec, MetadataLogicalSizesAreTiny) {
  // The P4 size asymmetry the paper relies on: KB-scale metadata vs
  // multi-hundred-MB updates.
  EXPECT_LT(kMetricsLogicalBytes, 10 * units::KB);
  EXPECT_LT(kRoundInfoLogicalBytes, 10 * units::KB);
}

}  // namespace
}  // namespace flstore::fed
