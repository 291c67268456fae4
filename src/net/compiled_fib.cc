#include "net/compiled_fib.h"

#include <algorithm>
#include <bit>

namespace evo::net {

void CompiledFib::compile(const Fib& fib) {
  entries_.assign(fib.entries().begin(), fib.entries().end());
  ranges_.clear();

  // Project the prefix set onto disjoint ranges. Prefixes form a laminar
  // family (any two are nested or disjoint) and Fib keeps them sorted by
  // start address with containers before containees, so one sweep with a
  // stack of currently-open prefixes computes the LPM winner everywhere.
  // 64-bit cursors avoid overflow at the top of the address space.
  struct Open {
    std::uint64_t end;  // inclusive
    std::int32_t idx;
  };
  std::vector<Open> open;
  const auto emit = [&](std::uint64_t start, std::int32_t winner) {
    if (!ranges_.empty() && ranges_.back().start == start) {
      ranges_.back().winner = winner;  // a longer prefix opens at the same address
      return;
    }
    if (!ranges_.empty() && ranges_.back().winner == winner) return;
    ranges_.push_back(Range{static_cast<std::uint32_t>(start), winner});
  };
  emit(0, -1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Prefix& p = entries_[i].prefix;
    const std::uint64_t start = p.address().bits();
    const std::uint64_t end = start + ((std::uint64_t{1} << (32 - p.length())) - 1);
    while (!open.empty() && open.back().end < start) {
      const Open closed = open.back();
      open.pop_back();
      emit(closed.end + 1, open.empty() ? -1 : open.back().idx);
    }
    emit(start, static_cast<std::int32_t>(i));
    open.push_back(Open{end, static_cast<std::int32_t>(i)});
  }
  while (!open.empty()) {
    const Open closed = open.back();
    open.pop_back();
    if (closed.end < 0xFFFFFFFFull) {
      emit(closed.end + 1, open.empty() ? -1 : open.back().idx);
    }
  }

  // The block index covers [0, 2^top_bits), the smallest power of two past
  // the last range's start: every address above it is in the last range,
  // and lookup clamps it to the index's final slot. Sized at 4-8 slots per
  // range, clamped to 2^8..2^16 slots, an average block brackets under one
  // range, so a lookup is one index load plus a search over a cache line.
  // Sizing to the populated span, not the whole address space, keeps the
  // index a few KiB: an allocation plan packs every route into a few
  // hundred /16s.
  const unsigned range_bits =
      std::bit_width(ranges_.size() | 1);  // ~ceil(log2(ranges))
  const unsigned top_bits = std::bit_width(ranges_.back().start);
  const unsigned index_bits =
      std::min(top_bits, std::min(16u, std::max(8u, range_bits + 2)));
  shift_ = top_bits - index_bits;
  last_block_ = std::uint32_t{1} << index_bits;
  index_.assign(std::size_t{last_block_} + 2, 0);
  std::size_t r = 0;
  for (std::uint32_t b = 0; b < last_block_; ++b) {
    const std::uint64_t block_start = static_cast<std::uint64_t>(b) << shift_;
    while (r + 1 < ranges_.size() && ranges_[r + 1].start <= block_start) ++r;
    index_[b] = static_cast<std::uint32_t>(r);
  }
  index_[last_block_] = static_cast<std::uint32_t>(ranges_.size() - 1);
  index_[last_block_ + 1] = index_[last_block_];

  epoch_ = fib.epoch();
}

}  // namespace evo::net
