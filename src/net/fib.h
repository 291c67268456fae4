// Forwarding Information Base: one contiguous vector of entries sorted by
// prefix, with exact-match and longest-prefix-match lookups.
//
// Each router holds one Fib for IPv(N-1) forwarding. Entries record where
// a route came from (connected / IGP / BGP / anycast) so experiments can
// count per-origin state — e.g. the paper's §3.2 scalability claim that
// Option-1 anycast "leads to routing state that grows in direct proportion
// to the number of anycast groups".
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/graph.h"
#include "net/ids.h"

namespace evo::net {

enum class RouteOrigin : std::uint8_t {
  kConnected,  // local interface / loopback
  kIgp,        // intra-domain routing
  kBgp,        // inter-domain routing
  kAnycast,    // anycast member advertisement
  kStatic,     // operator configuration
};

const char* to_string(RouteOrigin origin);

struct FibEntry {
  Prefix prefix;
  NodeId next_hop;  // invalid() => deliver locally
  LinkId out_link;  // invalid() for local delivery
  RouteOrigin origin = RouteOrigin::kStatic;
  Cost metric = 0;  // distance the producing protocol assigned

  friend bool operator==(const FibEntry&, const FibEntry&) = default;
};

/// Flat FIB: entries sorted by Prefix, whose (masked address, length)
/// order puts a covering prefix right before the prefixes nested inside
/// it. find(), insert() and remove() are binary searches; lookup() probes
/// only the prefix lengths present, longest first. The object stays small
/// (a Network holds one per router, and the data plane reads each epoch).
class Fib {
 public:
  Fib() = default;
  Fib(Fib&&) noexcept = default;
  Fib& operator=(Fib&&) noexcept = default;
  Fib(const Fib&) = delete;
  Fib& operator=(const Fib&) = delete;

  /// Insert or replace the entry for `entry.prefix`.
  void insert(const FibEntry& entry);

  /// Remove the entry for `prefix` if present; returns true if removed.
  bool remove(const Prefix& prefix);

  /// Remove every entry with the given origin; returns how many.
  std::size_t remove_origin(RouteOrigin origin);

  /// Make the set of entries whose origin is in `origins` exactly equal to
  /// `entries` (each of which must carry an origin from `origins`; a later
  /// duplicate prefix wins). The route epoch is bumped only when the table
  /// actually changes, so a control-plane sync that reinstalls an identical
  /// table leaves compiled forwarding state valid.
  void replace_origins(std::initializer_list<RouteOrigin> origins,
                       std::span<const FibEntry> entries);

  /// Longest-prefix match; nullptr when no route covers `addr`.
  const FibEntry* lookup(Ipv4Addr addr) const;

  /// Exact-prefix fetch (no LPM); nullptr if absent.
  const FibEntry* find(const Prefix& prefix) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t size_with_origin(RouteOrigin origin) const;

  /// Visit every entry in Prefix order: sorted by address, shorter
  /// prefixes before the longer ones they contain.
  void for_each(const std::function<void(const FibEntry&)>& fn) const {
    for (const FibEntry& e : entries_) fn(e);
  }

  /// All entries, in Prefix order.
  const std::vector<FibEntry>& entries() const { return entries_; }

  void clear();

  /// Route epoch: starts at 1 and increases monotonically on every call
  /// that actually changes table contents (insert of a new or different
  /// entry, successful remove, non-empty remove_origin/clear, effective
  /// replace_origins). Consumers such as CompiledFib cache a snapshot and
  /// recompile only when the epoch moves.
  std::uint64_t epoch() const { return epoch_; }

  /// Multi-line diagnostic dump.
  std::string dump() const;

 private:
  /// Recompute lengths_ exactly after a bulk change.
  void recount_lengths();

  std::vector<FibEntry> entries_;  // sorted by prefix, one per prefix
  /// Bit L is set when an entry of length L may exist: insert() sets it,
  /// remove() leaves it (lookup() then probes one length in vain), and
  /// the bulk changes recompute it.
  std::uint64_t lengths_ = 0;
  std::uint64_t epoch_ = 1;
};

}  // namespace evo::net
