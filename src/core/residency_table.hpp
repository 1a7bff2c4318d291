// Residency table: the Cache Engine's lock-free membership index (§4.2).
//
// The serving plane's real-thread hot read asks one yes/no question — is
// this key cached? — and the engine's hash index cannot answer it without
// the shard lock. This table mirrors the index's key set in an open-
// addressing array of atomic 64-bit words, each an exact packed MetadataKey
// (never a fingerprint, so a hit can never come from a hash collision).
//
// One writer at a time: insert/erase must be serialized by the caller (the
// engine's owner lock). Readers (contains) take no lock and may run
// concurrently with that writer. The protocol uses acquire loads and
// release stores only — no standalone fences, which GCC's
// -fsanitize=thread rejects under -Werror (-Wtsan):
//  * insert and erase publish a slot with a release store; readers load
//    slots with acquire.
//  * erase leaves a tombstone, and insert turns only empty or tombstone
//    slots into keys, so between purges no slot on a key's probe chain ever
//    becomes empty: a resident key is always found.
//  * Tombstones are purged in place once they crowd the table. A purge
//    moves keys, so it is bracketed by a sequence counter: an odd value
//    before its first slot store, the next even value (release) after its
//    last. A reader's probe counts only if the counter was even and did not
//    move across it. Its slot loads are acquire, so the closing counter
//    load cannot be hoisted above them, and a slot value the purge wrote
//    carries the odd counter with it.
//  * Growth fills a new, twice-as-large array privately and publishes it
//    with a release store. Retired arrays stay, frozen, until the table
//    dies, so a reader still probing one sees the set as of the swap;
//    geometric growth keeps their sum below the live array's size.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"

namespace flstore::core {

class ResidencyTable {
 public:
  ResidencyTable();
  ResidencyTable(const ResidencyTable&) = delete;
  ResidencyTable& operator=(const ResidencyTable&) = delete;

  /// Lock-free membership probe; safe concurrently with the one writer.
  [[nodiscard]] bool contains(const MetadataKey& key) const noexcept;

  /// Writer side (serialized by the caller). `key` must be absent and
  /// packable (see packable()); both are FLSTORE_CHECKed.
  void insert(const MetadataKey& key);
  /// Writer side. `key` must be present (FLSTORE_CHECKed).
  void erase(const MetadataKey& key);

  /// Whether `key`'s ids fit the packed word: kind below 128, client and
  /// round in [-1, 2^28 - 2].
  [[nodiscard]] static bool packable(const MetadataKey& key) noexcept;

  // Writer-side introspection (tests).
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept;
  [[nodiscard]] std::uint64_t purges() const noexcept { return purges_; }

 private:
  struct Slots {
    explicit Slots(unsigned log2_capacity);
    std::size_t mask;
    unsigned shift;  ///< 64 - log2(capacity): Fibonacci hash to an index
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  /// Purge tombstones in place, or grow, so one more key keeps the array
  /// at most half full.
  void make_room();
  [[nodiscard]] std::vector<std::uint64_t> live_words() const;
  /// Place `words` into `into`, every slot of which is empty on entry.
  static void place_all(const std::vector<std::uint64_t>& words,
                        const Slots& into);

  std::atomic<const Slots*> current_;
  /// Even when no purge is running; see the header comment.
  std::atomic<std::uint64_t> seq_{0};
  /// Every array ever published; the last is current_. Writer-only.
  std::vector<std::unique_ptr<Slots>> arrays_;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< live keys plus tombstones
  std::uint64_t purges_ = 0;
};

}  // namespace flstore::core
