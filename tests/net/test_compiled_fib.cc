// Differential property tests: CompiledFib (flat range LPM) against the
// authoritative sorted-vector Fib, over randomized prefix sets — inserts,
// removals, origin flushes, overlapping prefixes, default routes — and
// across epoch-invalidated recompiles. The Fib itself is differentially
// tested against a brute-force reference in test_fib_differential.cc, so
// agreement here closes the chain back to first principles.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/compiled_fib.h"
#include "net/fib.h"
#include "sim/random.h"

namespace evo::net {
namespace {

FibEntry entry(const char* prefix, std::uint32_t next_hop,
               RouteOrigin origin = RouteOrigin::kStatic) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.next_hop = NodeId{next_hop};
  e.origin = origin;
  return e;
}

Prefix random_prefix(sim::Rng& rng) {
  // Cluster prefixes so nesting and sibling collisions actually happen.
  const auto base = static_cast<std::uint32_t>(rng.uniform_int(0, 15)) << 28;
  const auto bits = base | static_cast<std::uint32_t>(rng.next_u64() & 0x0FFFFFFF);
  const auto length = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
  return Prefix{Ipv4Addr{bits}, length};
}

/// The compiled table must agree with the Fib on every probe: same
/// hit/miss, and the identical winning entry.
void expect_agreement(const Fib& fib, const CompiledFib& compiled,
                      sim::Rng& rng, int probes) {
  for (int i = 0; i < probes; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng.next_u64())};
    const FibEntry* from_fib = fib.lookup(addr);
    const FibEntry* from_flat = compiled.lookup(addr);
    ASSERT_EQ(from_fib != nullptr, from_flat != nullptr)
        << "addr " << addr.to_string();
    if (from_fib != nullptr) {
      EXPECT_EQ(*from_fib, *from_flat) << "addr " << addr.to_string();
    }
  }
  // Boundary probes: the first/last address of every compiled entry's
  // prefix, where off-by-one range errors would hide.
  fib.for_each([&](const FibEntry& e) {
    const std::uint32_t lo = e.prefix.address().bits();
    const std::uint32_t span =
        e.prefix.length() == 0
            ? 0xFFFFFFFFu
            : static_cast<std::uint32_t>(
                  (std::uint64_t{1} << (32 - e.prefix.length())) - 1);
    for (const Ipv4Addr addr : {Ipv4Addr{lo}, Ipv4Addr{lo + span}}) {
      const FibEntry* from_fib = fib.lookup(addr);
      const FibEntry* from_flat = compiled.lookup(addr);
      ASSERT_EQ(from_fib != nullptr, from_flat != nullptr)
          << "boundary " << addr.to_string();
      if (from_fib != nullptr) {
        EXPECT_EQ(*from_fib, *from_flat);
      }
    }
  });
}

TEST(CompiledFib, EmptyTableMissesEverything) {
  Fib fib;
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(compiled.entry_count(), 0u);
  EXPECT_EQ(compiled.epoch(), fib.epoch());
}

TEST(CompiledFib, UncompiledLookupIsNull) {
  CompiledFib compiled;
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(compiled.epoch(), 0u);
}

TEST(CompiledFib, NestedOverlappingAndDefaultRoutes) {
  Fib fib;
  fib.insert(entry("0.0.0.0/0", 1));
  fib.insert(entry("10.0.0.0/8", 2));
  fib.insert(entry("10.1.0.0/16", 3));
  fib.insert(entry("10.1.2.0/24", 4));
  fib.insert(entry("10.1.2.3/32", 5));
  fib.insert(entry("255.255.255.255/32", 6));
  CompiledFib compiled;
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 2, 3})->next_hop, NodeId{5});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 2, 9})->next_hop, NodeId{4});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 9, 9})->next_hop, NodeId{3});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 9, 9, 9})->next_hop, NodeId{2});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{99, 9, 9, 9})->next_hop, NodeId{1});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{255, 255, 255, 255})->next_hop, NodeId{6});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{0, 0, 0, 0})->next_hop, NodeId{1});
}

TEST(CompiledFib, StaleEpochDetectedAndRecompileCatchesUp) {
  // Every kind of write moves the epoch, and the stale table still answers
  // from the old snapshot until recompiled (Network recompiles on epoch
  // mismatch): the snapshot shares the Fib's entries, so each write must
  // copy them before it changes them.
  const std::vector<std::function<void(Fib&)>> writes = {
      [](Fib& fib) { fib.insert(entry("10.1.0.0/16", 2)); },
      [](Fib& fib) { fib.insert(entry("10.0.0.0/8", 3)); },
      [](Fib& fib) { fib.remove(*Prefix::parse("10.0.0.0/8")); },
      [](Fib& fib) { fib.remove_origin(RouteOrigin::kStatic); },
      [](Fib& fib) {
        const std::vector<FibEntry> table = {entry("10.0.0.0/8", 4)};
        fib.replace_origins({RouteOrigin::kStatic}, table);
      },
      [](Fib& fib) { fib.clear(); },
  };
  const Ipv4Addr probe{10, 1, 0, 1};
  for (std::size_t i = 0; i < writes.size(); ++i) {
    Fib fib;
    fib.insert(entry("10.0.0.0/8", 1));
    CompiledFib compiled;
    compiled.compile(fib);
    EXPECT_EQ(compiled.epoch(), fib.epoch());

    writes[i](fib);
    fib.shrink_to_fit();  // leaves entries a snapshot shares alone
    EXPECT_NE(compiled.epoch(), fib.epoch()) << "write " << i;
    EXPECT_EQ(compiled.entry_count(), 1u) << "write " << i;
    ASSERT_NE(compiled.lookup(probe), nullptr) << "write " << i;
    EXPECT_EQ(compiled.lookup(probe)->next_hop, NodeId{1}) << "write " << i;

    compiled.compile(fib);
    EXPECT_EQ(compiled.epoch(), fib.epoch());
    const FibEntry* from_fib = fib.lookup(probe);
    const FibEntry* from_flat = compiled.lookup(probe);
    ASSERT_EQ(from_fib != nullptr, from_flat != nullptr) << "write " << i;
    if (from_fib != nullptr) {
      EXPECT_EQ(*from_fib, *from_flat) << "write " << i;
    }
  }
}

class CompiledFibDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledFibDifferential, RandomizedChurnMatchesFib) {
  sim::Rng rng{GetParam() * 6271};
  Fib fib;
  CompiledFib compiled;
  std::vector<Prefix> inserted;

  for (int op = 0; op < 600; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.50 || inserted.empty()) {
      FibEntry e;
      e.prefix = random_prefix(rng);
      e.next_hop = NodeId{static_cast<std::uint32_t>(op)};
      // Mix origins so origin flushes below have bite.
      e.origin = rng.uniform() < 0.5 ? RouteOrigin::kIgp : RouteOrigin::kBgp;
      fib.insert(e);
      inserted.push_back(e.prefix);
    } else if (dice < 0.70) {
      // Replace an existing prefix with a different next hop.
      FibEntry e;
      e.prefix = rng.pick(inserted);
      e.next_hop = NodeId{static_cast<std::uint32_t>(op + 100000)};
      fib.insert(e);
    } else if (dice < 0.90) {
      fib.remove(rng.pick(inserted));
    } else {
      // Origin flush, the control-plane reinstall pattern.
      fib.remove_origin(rng.uniform() < 0.5 ? RouteOrigin::kIgp
                                            : RouteOrigin::kBgp);
    }

    // Recompile only when the epoch says so — exercising exactly the
    // staleness protocol Network relies on — then demand agreement.
    if (compiled.epoch() != fib.epoch()) compiled.compile(fib);
    expect_agreement(fib, compiled, rng, 8);
  }

  fib.clear();
  if (compiled.epoch() != fib.epoch()) compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())}),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledFibDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CompiledFib, NoOpReinstallKeepsEpochAndCompiledTable) {
  // The control-plane pattern: replace_origins with an identical table must
  // not move the epoch, so the compiled table stays valid (no recompile).
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1, RouteOrigin::kIgp));
  fib.insert(entry("10.1.0.0/16", 2, RouteOrigin::kAnycast));
  fib.insert(entry("192.168.0.0/16", 3, RouteOrigin::kConnected));
  CompiledFib compiled;
  compiled.compile(fib);
  const std::uint64_t before = fib.epoch();

  const std::vector<FibEntry> same = {
      entry("10.0.0.0/8", 1, RouteOrigin::kIgp),
      entry("10.1.0.0/16", 2, RouteOrigin::kAnycast),
  };
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, same);
  EXPECT_EQ(fib.epoch(), before);
  EXPECT_EQ(compiled.epoch(), fib.epoch());

  // A genuinely different table must invalidate.
  const std::vector<FibEntry> different = {
      entry("10.0.0.0/8", 9, RouteOrigin::kIgp),
  };
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, different);
  EXPECT_NE(fib.epoch(), before);
  EXPECT_NE(compiled.epoch(), fib.epoch());
  compiled.compile(fib);
  EXPECT_EQ(compiled.lookup(Ipv4Addr{10, 1, 0, 1})->next_hop, NodeId{9});
  EXPECT_EQ(compiled.lookup(Ipv4Addr{192, 168, 0, 1})->next_hop, NodeId{3});
}

}  // namespace
}  // namespace evo::net
