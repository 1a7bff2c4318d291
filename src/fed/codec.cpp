#include "fed/codec.hpp"

#include <cstring>

#include "common/error.hpp"
#include "tensor/serialize.hpp"

namespace flstore::fed {

namespace {

// Shared little framing layer: tag byte + fixed header + optional tensor
// blob + trailing checksum over everything before it.

enum class Tag : std::uint8_t {
  kUpdate = 1,
  kAggregate = 2,
  kMetrics = 3,
  kRoundInfo = 4,
};

class Writer {
 public:
  explicit Writer(Tag tag) { out_.push_back(static_cast<std::uint8_t>(tag)); }

  template <typename T>
  void raw(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }
  void tensor(const Tensor& t) {
    const auto blob = serialize_tensor(t);
    raw(static_cast<std::uint64_t>(blob.size()));
    out_.insert(out_.end(), blob.begin(), blob.end());
  }
  [[nodiscard]] Blob finish() {
    const auto crc = checksum(std::span(out_.data(), out_.size()));
    raw(crc);
    return std::move(out_);
  }

 private:
  Blob out_;
};

// The frame checksum is verified once per decode, before decode_* returns:
// by tensor(), together with the nested tensor blob's own checksum, or else
// by expect_done(). Fields read before that are only bounds-checked.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, Tag expected) : bytes_(bytes) {
    if (bytes.size() < 1 + sizeof(std::uint64_t)) {
      throw InvalidArgument("metadata blob too small");
    }
    end_ = bytes.size() - sizeof(std::uint64_t);
    std::memcpy(&stored_crc_, bytes.data() + end_, sizeof stored_crc_);
    if (bytes_[pos_++] != static_cast<std::uint8_t>(expected)) {
      throw InvalidArgument("metadata blob tag mismatch");
    }
  }

  template <typename T>
  T raw() {
    if (pos_ + sizeof(T) > end_) {
      throw InvalidArgument("metadata blob truncated");
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  [[nodiscard]] Tensor tensor() {
    const auto len = raw<std::uint64_t>();
    if (len > end_ - pos_) throw InvalidArgument("metadata blob truncated");
    auto t = deserialize_nested_tensor(bytes_.first(end_), pos_,
                                       static_cast<std::size_t>(len),
                                       stored_crc_);
    verified_ = true;
    pos_ += static_cast<std::size_t>(len);
    return t;
  }
  void expect_done() const {
    if (!verified_ && checksum(bytes_.first(end_)) != stored_crc_) {
      throw InvalidArgument("metadata blob checksum mismatch");
    }
    if (pos_ != end_) throw InvalidArgument("metadata blob trailing bytes");
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint64_t stored_crc_ = 0;
  bool verified_ = false;
};

}  // namespace

Blob encode_update(const ClientUpdate& u) {
  Writer w(Tag::kUpdate);
  w.raw(u.client);
  w.raw(u.round);
  w.raw(u.logical_bytes);
  w.raw(u.num_samples);
  w.tensor(u.delta);
  return w.finish();
}

ClientUpdate decode_update(std::span<const std::uint8_t> bytes) {
  Reader r(bytes, Tag::kUpdate);
  ClientUpdate u;
  u.client = r.raw<ClientId>();
  u.round = r.raw<RoundId>();
  u.logical_bytes = r.raw<units::Bytes>();
  u.num_samples = r.raw<std::int32_t>();
  u.delta = r.tensor();
  r.expect_done();
  return u;
}

Blob encode_aggregate(RoundId round, const Tensor& model,
                      units::Bytes logical_bytes) {
  Writer w(Tag::kAggregate);
  w.raw(round);
  w.raw(logical_bytes);
  w.tensor(model);
  return w.finish();
}

AggregateRecord decode_aggregate(std::span<const std::uint8_t> bytes) {
  Reader r(bytes, Tag::kAggregate);
  AggregateRecord rec;
  rec.round = r.raw<RoundId>();
  rec.logical_bytes = r.raw<units::Bytes>();
  rec.model = r.tensor();
  r.expect_done();
  return rec;
}

Blob encode_metrics(const ClientMetrics& m) {
  Writer w(Tag::kMetrics);
  w.raw(m.client);
  w.raw(m.round);
  w.raw(m.local_loss);
  w.raw(m.accuracy);
  w.raw(m.train_time_s);
  w.raw(m.upload_time_s);
  w.raw(m.compute_gflops);
  w.raw(m.network_mbps);
  w.raw(m.energy_j);
  w.raw(m.num_samples);
  return w.finish();
}

ClientMetrics decode_metrics(std::span<const std::uint8_t> bytes) {
  Reader r(bytes, Tag::kMetrics);
  ClientMetrics m;
  m.client = r.raw<ClientId>();
  m.round = r.raw<RoundId>();
  m.local_loss = r.raw<double>();
  m.accuracy = r.raw<double>();
  m.train_time_s = r.raw<double>();
  m.upload_time_s = r.raw<double>();
  m.compute_gflops = r.raw<double>();
  m.network_mbps = r.raw<double>();
  m.energy_j = r.raw<double>();
  m.num_samples = r.raw<std::int32_t>();
  r.expect_done();
  return m;
}

Blob encode_round_info(const RoundInfo& info) {
  Writer w(Tag::kRoundInfo);
  w.raw(info.round);
  w.raw(info.hparams.learning_rate);
  w.raw(info.hparams.batch_size);
  w.raw(info.hparams.momentum);
  w.raw(info.hparams.local_epochs);
  w.raw(info.global_loss);
  w.raw(info.num_participants);
  return w.finish();
}

RoundInfo decode_round_info(std::span<const std::uint8_t> bytes) {
  Reader r(bytes, Tag::kRoundInfo);
  RoundInfo info;
  info.round = r.raw<RoundId>();
  info.hparams.learning_rate = r.raw<double>();
  info.hparams.batch_size = r.raw<int>();
  info.hparams.momentum = r.raw<double>();
  info.hparams.local_epochs = r.raw<int>();
  info.global_loss = r.raw<double>();
  info.num_participants = r.raw<std::int32_t>();
  r.expect_done();
  return info;
}

}  // namespace flstore::fed
