#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace flstore {
namespace {

TEST(Serialize, RoundTrip) {
  Rng rng(1);
  const auto t = ops::random_normal(257, rng);
  const auto blob = serialize_tensor(t);
  EXPECT_EQ(blob.size(), serialized_size(t.dim()));
  EXPECT_EQ(deserialize_tensor(blob), t);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  const Tensor t;
  EXPECT_EQ(deserialize_tensor(serialize_tensor(t)), t);
}

TEST(Serialize, CorruptPayloadDetected) {
  Rng rng(2);
  auto blob = serialize_tensor(ops::random_normal(64, rng));
  blob[20] ^= 0xFF;
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, CorruptChecksumDetected) {
  Rng rng(3);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob.back() ^= 0x01;
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, BadMagicDetected) {
  Rng rng(4);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob[0] = 'X';
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, TruncatedDetected) {
  Rng rng(5);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob.resize(blob.size() - 3);
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, TooSmallDetected) {
  Blob blob{1, 2, 3};
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Checksum, SensitiveToOrder) {
  const Blob a{1, 2, 3};
  const Blob b{3, 2, 1};
  EXPECT_NE(checksum(a), checksum(b));
}

std::uint64_t checksum_of(std::string_view text) {
  return checksum(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                            text.size()));
}

TEST(Checksum, Xxh64KnownAnswers) {
  // Published XXH64 values, seed 0. The 43-byte sentence runs the 32-byte
  // stripe loop and then the 8-, 4- and 1-byte tails.
  EXPECT_EQ(checksum_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(checksum_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(checksum_of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(checksum_of("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
}

TEST(Serialize, NestedTensorChecksBothChecksums) {
  Rng rng(7);
  const auto t = ops::random_normal(16, rng);
  const auto inner = serialize_tensor(t);
  Blob frame{9, 9, 9};
  frame.insert(frame.end(), inner.begin(), inner.end());
  frame.push_back(9);
  const auto frame_crc = checksum(frame);
  EXPECT_EQ(deserialize_nested_tensor(frame, 3, inner.size(), frame_crc), t);
  EXPECT_THROW(
      (void)deserialize_nested_tensor(frame, 3, inner.size(), frame_crc ^ 1),
      InvalidArgument);
  frame[3 + inner.size() - 1] ^= 0x01;  // the tensor's own crc
  EXPECT_THROW((void)deserialize_nested_tensor(frame, 3, inner.size(),
                                               checksum(frame)),
               InvalidArgument);
}

class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RoundTripManySizes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto dim = static_cast<std::size_t>(GetParam());
  const auto t = ops::random_normal(dim, rng);
  EXPECT_EQ(deserialize_tensor(serialize_tensor(t)), t);
}

INSTANTIATE_TEST_SUITE_P(Dims, SerializeSweep,
                         ::testing::Values(1, 2, 7, 16, 255, 256, 1024));

}  // namespace
}  // namespace flstore
