#include "core/residency_table.hpp"

#include <thread>

#include "common/error.hpp"

namespace flstore::core {

namespace {

constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kTombstone = 1;
/// Every packed key sets the top bit, so no key packs to a reserved word.
constexpr std::uint64_t kKeyTag = std::uint64_t{1} << 63;
constexpr unsigned kIdBits = 28;
constexpr std::int64_t kIdLimit = std::int64_t{1} << kIdBits;
constexpr std::uint64_t kKindLimit = 128;
constexpr unsigned kInitialLog2Capacity = 4;

/// `key`'s packed word — tag | kind | client + 1 | round + 1, the ids
/// shifted by one so kNoClient and kNoRound (-1) pack to 0 — or kEmpty
/// when an id does not fit.
std::uint64_t pack(const MetadataKey& key) noexcept {
  const auto kind = static_cast<std::uint64_t>(key.kind);
  const auto client = static_cast<std::int64_t>(key.client) + 1;
  const auto round = static_cast<std::int64_t>(key.round) + 1;
  if (kind >= kKindLimit || client < 0 || client >= kIdLimit || round < 0 ||
      round >= kIdLimit) {
    return kEmpty;
  }
  return kKeyTag | kind << (2 * kIdBits) |
         static_cast<std::uint64_t>(client) << kIdBits |
         static_cast<std::uint64_t>(round);
}

/// Fibonacci hashing: the product's top bits index the array.
std::size_t home(std::uint64_t word, unsigned shift) noexcept {
  return static_cast<std::size_t>((word * 0x9E3779B97F4A7C15ULL) >> shift);
}

}  // namespace

ResidencyTable::Slots::Slots(unsigned log2_capacity)
    : mask((std::size_t{1} << log2_capacity) - 1),
      shift(64 - log2_capacity),
      words(std::make_unique<std::atomic<std::uint64_t>[]>(mask + 1)) {
  for (std::size_t i = 0; i <= mask; ++i) {
    words[i].store(kEmpty, std::memory_order_relaxed);
  }
}

ResidencyTable::ResidencyTable() {
  arrays_.push_back(std::make_unique<Slots>(kInitialLog2Capacity));
  current_.store(arrays_.back().get(), std::memory_order_release);
}

bool ResidencyTable::packable(const MetadataKey& key) noexcept {
  return pack(key) != kEmpty;
}

std::size_t ResidencyTable::capacity() const noexcept {
  return arrays_.back()->mask + 1;
}

bool ResidencyTable::contains(const MetadataKey& key) const noexcept {
  const auto word = pack(key);
  if (word == kEmpty) return false;  // unpackable keys are never inserted
  for (;;) {
    const auto seq = seq_.load(std::memory_order_acquire);
    if ((seq & 1U) != 0) {
      std::this_thread::yield();  // a purge is moving keys
      continue;
    }
    const Slots& slots = *current_.load(std::memory_order_acquire);
    bool found = false;
    // At most one lap: the array always keeps empty slots, but a probe
    // racing a purge may see a mix of layouts (and then retries anyway).
    auto i = home(word, slots.shift);
    for (std::size_t n = 0; n <= slots.mask; ++n, i = (i + 1) & slots.mask) {
      const auto w = slots.words[i].load(std::memory_order_acquire);
      if (w == word) {
        found = true;
        break;
      }
      if (w == kEmpty) break;
    }
    if (seq_.load(std::memory_order_acquire) == seq) return found;
  }
}

void ResidencyTable::insert(const MetadataKey& key) {
  const auto word = pack(key);
  FLSTORE_CHECK(word != kEmpty);
  if ((used_ + 1) * 2 > capacity()) make_room();
  const Slots* slots = arrays_.back().get();
  // Take the first tombstone on the probe chain, else the empty slot that
  // ends it; walking to that end also checks the key is absent.
  std::size_t target = slots->mask + 1;
  for (auto i = home(word, slots->shift);; i = (i + 1) & slots->mask) {
    const auto w = slots->words[i].load(std::memory_order_relaxed);
    FLSTORE_CHECK(w != word);
    if (w == kTombstone && target > slots->mask) target = i;
    if (w == kEmpty) {
      if (target > slots->mask) {
        target = i;
        ++used_;
      }
      break;
    }
  }
  slots->words[target].store(word, std::memory_order_release);
  ++live_;
}

void ResidencyTable::make_room() {
  // Over half full. With few live keys the rest are tombstones: purge them
  // in place. Otherwise double.
  const auto words = live_words();
  const Slots& slots = *arrays_.back();
  if ((live_ + 1) * 4 > slots.mask + 1) {
    auto next = std::make_unique<Slots>(64 - slots.shift + 1);
    place_all(words, *next);
    current_.store(next.get(), std::memory_order_release);
    arrays_.push_back(std::move(next));
  } else {
    const auto seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);
    for (std::size_t i = 0; i <= slots.mask; ++i) {
      slots.words[i].store(kEmpty, std::memory_order_release);
    }
    place_all(words, slots);
    seq_.store(seq + 2, std::memory_order_release);
    ++purges_;
  }
  used_ = live_;
}

void ResidencyTable::erase(const MetadataKey& key) {
  const auto word = pack(key);
  const Slots& slots = *arrays_.back();
  for (auto i = home(word, slots.shift);; i = (i + 1) & slots.mask) {
    const auto w = slots.words[i].load(std::memory_order_relaxed);
    FLSTORE_CHECK(w != kEmpty);  // the key must be present
    if (w == word) {
      slots.words[i].store(kTombstone, std::memory_order_release);
      --live_;
      return;
    }
  }
}

std::vector<std::uint64_t> ResidencyTable::live_words() const {
  const Slots& slots = *arrays_.back();
  std::vector<std::uint64_t> words;
  words.reserve(live_);
  for (std::size_t i = 0; i <= slots.mask; ++i) {
    const auto w = slots.words[i].load(std::memory_order_relaxed);
    if (w != kEmpty && w != kTombstone) words.push_back(w);
  }
  return words;
}

void ResidencyTable::place_all(const std::vector<std::uint64_t>& words,
                               const Slots& into) {
  for (const auto w : words) {
    auto i = home(w, into.shift);
    while (into.words[i].load(std::memory_order_relaxed) != kEmpty) {
      i = (i + 1) & into.mask;
    }
    into.words[i].store(w, std::memory_order_release);
  }
}

}  // namespace flstore::core
