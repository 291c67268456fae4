// Differential property test: the flat FIB against a brute-force
// longest-prefix-match reference, over randomized prefix sets and
// lookups, including inserts, replacements, removals and origin swaps, and
// the Prefix-ordered enumeration CompiledFib::compile depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <optional>
#include <vector>

#include "net/fib.h"
#include "sim/random.h"

namespace evo::net {
namespace {

/// Brute-force reference: linear scan for the longest matching prefix.
class ReferenceFib {
 public:
  void insert(const FibEntry& entry) { entries_[entry.prefix] = entry; }
  bool remove(const Prefix& prefix) { return entries_.erase(prefix) > 0; }

  /// Fib::replace_origins spelled as its definition: drop every entry of
  /// these origins, then insert the table in order.
  void replace_origins(std::initializer_list<RouteOrigin> origins,
                       const std::vector<FibEntry>& table) {
    std::erase_if(entries_, [&](const auto& kv) {
      return std::find(origins.begin(), origins.end(), kv.second.origin) !=
             origins.end();
    });
    for (const FibEntry& e : table) insert(e);
  }

  std::optional<FibEntry> lookup(Ipv4Addr addr) const {
    std::optional<FibEntry> best;
    for (const auto& [prefix, entry] : entries_) {
      if (!prefix.contains(addr)) continue;
      if (!best || prefix.length() > best->prefix.length()) best = entry;
    }
    return best;
  }

  std::size_t size() const { return entries_.size(); }

  /// Every entry in Prefix order.
  std::vector<FibEntry> entries() const {
    std::vector<FibEntry> out;
    for (const auto& [prefix, entry] : entries_) out.push_back(entry);
    return out;
  }

 private:
  std::map<Prefix, FibEntry> entries_;
};

Prefix random_prefix(sim::Rng& rng) {
  // Cluster prefixes so nesting and sibling collisions actually happen.
  const auto base = static_cast<std::uint32_t>(rng.uniform_int(0, 15)) << 28;
  const auto bits = base | static_cast<std::uint32_t>(rng.next_u64() & 0x0FFFFFFF);
  const auto length = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
  return Prefix{Ipv4Addr{bits}, length};
}

/// The Fib's for_each() and entries() sequences both equal the
/// reference's Prefix-ordered entries.
void expect_same_order(const Fib& fib, const ReferenceFib& reference) {
  const auto want = reference.entries();
  std::vector<FibEntry> visited;
  fib.for_each([&](const FibEntry& e) { visited.push_back(e); });
  EXPECT_EQ(visited, want);
  EXPECT_EQ(fib.entries(), want);
}

TEST(FibDifferential, RandomOperationsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed * 7919};
    Fib fib;
    ReferenceFib reference;
    std::vector<Prefix> inserted;

    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.55 || inserted.empty()) {
        FibEntry entry;
        entry.prefix = random_prefix(rng);
        entry.next_hop = NodeId{static_cast<std::uint32_t>(op)};
        entry.origin = RouteOrigin::kStatic;
        fib.insert(entry);
        reference.insert(entry);
        inserted.push_back(entry.prefix);
      } else if (dice < 0.75) {
        // Replace an existing prefix with a new next hop.
        const Prefix target = rng.pick(inserted);
        FibEntry entry;
        entry.prefix = target;
        entry.next_hop = NodeId{static_cast<std::uint32_t>(op + 100000)};
        fib.insert(entry);
        reference.insert(entry);
      } else {
        const Prefix target = rng.pick(inserted);
        EXPECT_EQ(fib.remove(target), reference.remove(target));
      }

      // Probe a few random addresses (biased into the clustered space).
      for (int probe = 0; probe < 4; ++probe) {
        const Ipv4Addr addr{static_cast<std::uint32_t>(rng.next_u64())};
        const auto* got = fib.lookup(addr);
        const auto expected = reference.lookup(addr);
        ASSERT_EQ(got != nullptr, expected.has_value())
            << "seed " << seed << " op " << op << " addr " << addr.to_string();
        if (got != nullptr) {
          EXPECT_EQ(got->prefix, expected->prefix);
          EXPECT_EQ(got->next_hop, expected->next_hop);
        }
      }
      if (op % 250 == 0) expect_same_order(fib, reference);
    }
    EXPECT_EQ(fib.size(), reference.size()) << "seed " << seed;
    expect_same_order(fib, reference);
  }
}

TEST(FibDifferential, ReplaceOriginsMatchesReference) {
  constexpr RouteOrigin kOrigins[] = {RouteOrigin::kConnected, RouteOrigin::kIgp,
                                      RouteOrigin::kBgp, RouteOrigin::kAnycast,
                                      RouteOrigin::kStatic};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed * 104729};
    Fib fib;
    ReferenceFib reference;
    std::vector<Prefix> seen;
    // A table of every origin to start from.
    for (int i = 0; i < 300; ++i) {
      FibEntry entry;
      entry.prefix = random_prefix(rng);
      entry.next_hop = NodeId{static_cast<std::uint32_t>(i)};
      entry.origin = kOrigins[rng.uniform_int(0, 4)];
      fib.insert(entry);
      reference.insert(entry);
      seen.push_back(entry.prefix);
    }
    for (int round = 0; round < 40; ++round) {
      // An IGP + anycast table: fresh prefixes, prefixes other origins hold
      // (the table's entry replaces theirs), and duplicates, the later one
      // winning.
      std::vector<FibEntry> table;
      const int size = static_cast<int>(rng.uniform_int(0, 120));
      for (int i = 0; i < size; ++i) {
        FibEntry entry;
        const double dice = rng.uniform();
        entry.prefix = dice < 0.5 ? random_prefix(rng)
                       : dice < 0.8 || table.empty() ? rng.pick(seen)
                                                     : rng.pick(table).prefix;
        entry.next_hop = NodeId{static_cast<std::uint32_t>(round * 1000 + i)};
        entry.origin = rng.uniform() < 0.5 ? RouteOrigin::kIgp : RouteOrigin::kAnycast;
        entry.metric = static_cast<Cost>(rng.uniform_int(0, 3));
        table.push_back(entry);
        seen.push_back(entry.prefix);
      }
      fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
      reference.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
      ASSERT_EQ(fib.size(), reference.size()) << "seed " << seed << " round " << round;
      expect_same_order(fib, reference);
      for (int probe = 0; probe < 16; ++probe) {
        const Ipv4Addr addr{static_cast<std::uint32_t>(rng.next_u64())};
        const auto* got = fib.lookup(addr);
        const auto expected = reference.lookup(addr);
        ASSERT_EQ(got != nullptr, expected.has_value());
        if (got != nullptr) {
          EXPECT_EQ(*got, *expected);
        }
      }

      // The identical table again changes nothing, so the epoch stays.
      const auto epoch = fib.epoch();
      fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
      EXPECT_EQ(fib.epoch(), epoch) << "seed " << seed << " round " << round;
      expect_same_order(fib, reference);
    }
  }
}

TEST(FibDifferential, EntriesEnumerationMatchesReferenceSize) {
  sim::Rng rng{424242};
  Fib fib;
  ReferenceFib reference;
  for (int i = 0; i < 500; ++i) {
    FibEntry entry;
    entry.prefix = random_prefix(rng);
    entry.next_hop = NodeId{static_cast<std::uint32_t>(i)};
    fib.insert(entry);
    reference.insert(entry);
  }
  EXPECT_EQ(fib.entries().size(), reference.size());
}

}  // namespace
}  // namespace evo::net
