// Compiled forwarding table: a flat, contiguous-array LPM structure built
// from a Fib snapshot.
//
// Fib, a vector sorted by prefix, stays the mutable authoritative store the
// control plane writes; CompiledFib is the read-optimized form the data
// plane consults on every trace hop. Compilation projects the prefix set onto
// disjoint address ranges (prefixes form a laminar family, so a single
// interval sweep suffices), then lays a direct-indexed block table on top
// so a lookup is one table load plus a short bounded binary search over one
// or two cache lines, where Fib::lookup needs one binary search per prefix
// length present.
//
// Staleness is detected through Fib's route epoch: compile() records the
// source epoch, and Network recompiles a router's CompiledFib lazily when
// its epoch no longer matches (see Network::compiled_fib). The snapshot's
// entries are the Fib's own storage (Fib::share), which the Fib copies
// before its next change, so a stale table still answers from the epoch
// it was compiled at without ever having copied the entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fib.h"

namespace evo::net {

class CompiledFib {
 public:
  /// Rebuild from `fib` and record its epoch. Shares the Fib's entries and
  /// reuses previously allocated range and index storage, so periodic
  /// recompilation does not churn the allocator.
  void compile(const Fib& fib);

  /// Longest-prefix match over the compiled snapshot; nullptr when no
  /// route covers `addr` (or nothing was compiled yet). Returns the same
  /// winning entry Fib::lookup would.
  const FibEntry* lookup(Ipv4Addr addr) const {
    if (ranges_.empty()) return nullptr;
    const std::uint32_t bits = addr.bits();
    const std::uint32_t block = std::min(bits >> shift_, last_block_);
    // The winner is the last range starting at or before `addr`, bracketed
    // by the block index: index_[b] already points at the last range that
    // starts at or before the block's first address.
    // Branchless bounded search (the comparison becomes a conditional move,
    // so random probes cost no mispredicts): invariant base[0].start <= bits.
    const Range* base = ranges_.data() + index_[block];
    std::size_t n = index_[block + 1] - index_[block] + 1;
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (base[half].start <= bits) ? half : 0;
      n -= half;
    }
    const std::int32_t winner = base->winner;
    return winner < 0 ? nullptr : &entries_->data()[static_cast<std::size_t>(winner)];
  }

  /// Epoch of the Fib this was compiled from; 0 = never compiled.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t entry_count() const { return entries_ ? entries_->size() : 0; }
  /// Number of disjoint address ranges the prefix set projected onto.
  std::size_t range_count() const { return ranges_.size(); }

 private:
  struct Range {
    std::uint32_t start;   // first address covered
    std::int32_t winner;   // index into entries_; -1 = no route
  };

  std::shared_ptr<const std::vector<FibEntry>> entries_;  // Fib::share() snapshot
  std::vector<Range> ranges_;      // disjoint, sorted by start; [0] starts at 0
  // index_[b] = index of the last range starting at or before (b << shift_)
  // for b < last_block_; index_[last_block_] is the last range, which holds
  // every address from (last_block_ << shift_) on, and one extra slot lets
  // lookup read index_[block + 1] unconditionally.
  std::vector<std::uint32_t> index_;
  unsigned shift_ = 0;
  std::uint32_t last_block_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace evo::net
