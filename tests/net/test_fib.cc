#include "net/fib.h"

#include <gtest/gtest.h>

#include <vector>

namespace evo::net {
namespace {

FibEntry entry(const char* prefix, std::uint32_t next_hop,
               RouteOrigin origin = RouteOrigin::kStatic, Cost metric = 1) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.next_hop = NodeId{next_hop};
  e.out_link = LinkId::invalid();
  e.origin = origin;
  e.metric = metric;
  return e;
}

TEST(Fib, EmptyLookupFails) {
  Fib fib;
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(fib.size(), 0u);
}

TEST(Fib, ExactHostRoute) {
  Fib fib;
  fib.insert(entry("10.0.0.1/32", 5));
  const auto* hit = fib.lookup(Ipv4Addr{10, 0, 0, 1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->next_hop, NodeId{5});
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 0, 0, 2}), nullptr);
}

TEST(Fib, LongestPrefixWins) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  fib.insert(entry("10.1.0.0/16", 2));
  fib.insert(entry("10.1.2.0/24", 3));
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 1, 2, 3})->next_hop, NodeId{3});
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 1, 9, 9})->next_hop, NodeId{2});
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 9, 9, 9})->next_hop, NodeId{1});
}

TEST(Fib, DefaultRouteCatchesAll) {
  Fib fib;
  fib.insert(entry("0.0.0.0/0", 9));
  EXPECT_EQ(fib.lookup(Ipv4Addr{200, 1, 2, 3})->next_hop, NodeId{9});
}

TEST(Fib, InsertReplacesSamePrefix) {
  Fib fib;
  fib.insert(entry("10.0.0.0/16", 1));
  fib.insert(entry("10.0.0.0/16", 2));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 0, 1, 1})->next_hop, NodeId{2});
}

TEST(Fib, RemoveSpecificPrefix) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  fib.insert(entry("10.1.0.0/16", 2));
  EXPECT_TRUE(fib.remove(*Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 1, 0, 1})->next_hop, NodeId{1});
  EXPECT_FALSE(fib.remove(*Prefix::parse("10.1.0.0/16")));
}

TEST(Fib, RemoveOrigin) {
  Fib fib;
  fib.insert(entry("10.0.0.0/16", 1, RouteOrigin::kIgp));
  fib.insert(entry("10.1.0.0/16", 2, RouteOrigin::kIgp));
  fib.insert(entry("10.2.0.0/16", 3, RouteOrigin::kBgp));
  EXPECT_EQ(fib.remove_origin(RouteOrigin::kIgp), 2u);
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.size_with_origin(RouteOrigin::kBgp), 1u);
  EXPECT_EQ(fib.size_with_origin(RouteOrigin::kIgp), 0u);
}

TEST(Fib, FindExactDoesNotLpm) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  EXPECT_EQ(fib.find(*Prefix::parse("10.1.0.0/16")), nullptr);
  EXPECT_NE(fib.find(*Prefix::parse("10.0.0.0/8")), nullptr);
}

TEST(Fib, EntriesEnumeration) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  fib.insert(entry("10.1.0.0/16", 2));
  fib.insert(entry("192.168.0.0/16", 3));
  const auto all = fib.entries();
  EXPECT_EQ(all.size(), 3u);
}

TEST(Fib, ClearEmptiesTable) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  fib.clear();
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
}

TEST(Fib, SiblingPrefixesIndependent) {
  Fib fib;
  fib.insert(entry("10.0.0.0/9", 1));    // 10.0-127
  fib.insert(entry("10.128.0.0/9", 2));  // 10.128-255
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 5, 0, 0})->next_hop, NodeId{1});
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 200, 0, 0})->next_hop, NodeId{2});
}

TEST(Fib, DumpMentionsOriginAndPrefix) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1, RouteOrigin::kAnycast));
  const auto dump = fib.dump();
  EXPECT_NE(dump.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(dump.find("anycast"), std::string::npos);
}

TEST(Fib, ManyEntriesStress) {
  Fib fib;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    FibEntry e;
    e.prefix = Prefix{Ipv4Addr{(i + 1) << 16}, 16};
    e.next_hop = NodeId{i};
    fib.insert(e);
  }
  EXPECT_EQ(fib.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const auto* hit = fib.lookup(Ipv4Addr{((i + 1) << 16) | 7});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->next_hop, NodeId{i});
  }
}

TEST(Fib, ForEachVisitsEveryEntryOnce) {
  Fib fib;
  fib.insert(entry("10.0.0.0/8", 1));
  fib.insert(entry("10.1.0.0/16", 2));
  fib.insert(entry("192.168.0.0/16", 3));
  std::size_t seen = 0;
  std::uint32_t hop_sum = 0;
  fib.for_each([&](const FibEntry& e) {
    ++seen;
    hop_sum += e.next_hop.value();
  });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(hop_sum, 6u);
}

TEST(Fib, EpochBumpsOnlyOnContentChange) {
  Fib fib;
  const auto e0 = fib.epoch();
  fib.insert(entry("10.0.0.0/8", 1));
  const auto e1 = fib.epoch();
  EXPECT_GT(e1, e0);

  // Re-inserting the identical entry is a no-op: epoch must not move.
  fib.insert(entry("10.0.0.0/8", 1));
  EXPECT_EQ(fib.epoch(), e1);

  // Same prefix, different next hop: content change.
  fib.insert(entry("10.0.0.0/8", 2));
  const auto e2 = fib.epoch();
  EXPECT_GT(e2, e1);

  // Failed remove is a no-op.
  fib.remove(*Prefix::parse("10.9.0.0/16"));
  EXPECT_EQ(fib.epoch(), e2);
  fib.remove(*Prefix::parse("10.0.0.0/8"));
  const auto e3 = fib.epoch();
  EXPECT_GT(e3, e2);

  // remove_origin and clear on an empty table are no-ops.
  fib.remove_origin(RouteOrigin::kIgp);
  fib.clear();
  EXPECT_EQ(fib.epoch(), e3);
}

TEST(Fib, ReplaceOriginsSwapsAtomically) {
  Fib fib;
  fib.insert(entry("10.0.0.0/16", 1, RouteOrigin::kIgp));
  fib.insert(entry("10.1.0.0/16", 2, RouteOrigin::kIgp));
  fib.insert(entry("192.168.0.0/16", 3, RouteOrigin::kConnected));

  const std::vector<FibEntry> table = {
      entry("10.2.0.0/16", 4, RouteOrigin::kIgp),
      entry("10.3.0.0/16", 5, RouteOrigin::kAnycast),
  };
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast}, table);
  EXPECT_EQ(fib.size(), 3u);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 2, 0, 1})->next_hop, NodeId{4});
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 3, 0, 1})->next_hop, NodeId{5});
  // Origins outside the replaced set survive untouched.
  EXPECT_EQ(fib.lookup(Ipv4Addr{192, 168, 0, 1})->next_hop, NodeId{3});
}

TEST(Fib, ReplaceOriginsIdenticalTableKeepsEpoch) {
  Fib fib;
  fib.insert(entry("10.0.0.0/16", 1, RouteOrigin::kIgp));
  fib.insert(entry("10.1.0.0/16", 2, RouteOrigin::kAnycast));
  const auto before = fib.epoch();

  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast},
                      std::vector<FibEntry>{
                          entry("10.0.0.0/16", 1, RouteOrigin::kIgp),
                          entry("10.1.0.0/16", 2, RouteOrigin::kAnycast),
                      });
  EXPECT_EQ(fib.epoch(), before);

  // Dropping one entry is a real change even though the rest match.
  fib.replace_origins({RouteOrigin::kIgp, RouteOrigin::kAnycast},
                      std::vector<FibEntry>{
                          entry("10.0.0.0/16", 1, RouteOrigin::kIgp),
                      });
  EXPECT_GT(fib.epoch(), before);
  EXPECT_EQ(fib.lookup(Ipv4Addr{10, 1, 0, 1}), nullptr);
}

TEST(Fib, MoveSemantics) {
  Fib a;
  a.insert(entry("10.0.0.0/8", 1));
  Fib b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(b.lookup(Ipv4Addr{10, 0, 0, 1}), nullptr);
}

TEST(RouteOrigin, Names) {
  EXPECT_STREQ(to_string(RouteOrigin::kConnected), "connected");
  EXPECT_STREQ(to_string(RouteOrigin::kIgp), "igp");
  EXPECT_STREQ(to_string(RouteOrigin::kBgp), "bgp");
  EXPECT_STREQ(to_string(RouteOrigin::kAnycast), "anycast");
  EXPECT_STREQ(to_string(RouteOrigin::kStatic), "static");
}

}  // namespace
}  // namespace evo::net
