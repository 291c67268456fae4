// The IPv(N-1) data plane: per-router FIBs and hop-by-hop forwarding.
//
// The control plane (IGP, BGP, anycast advertisement) runs event-driven in
// the simulator and *installs* routes here; tracing a packet is then a
// synchronous FIB walk, cheap enough for millions of probes per benchmark.
//
// Forwarding is two-tier: each router's binary-trie Fib is the mutable
// authoritative store, and a flat CompiledFib is compiled from it lazily
// (per router, on first use after the Fib's route epoch moves) and consulted
// on every trace hop. IGP SPF runs, DV updates, BGP installs and anycast
// membership changes all invalidate transparently by bumping the epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/compiled_fib.h"
#include "net/fib.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/recorder.h"
#include "sim/time.h"

namespace evo::net {

class Network {
 public:
  explicit Network(Topology topology);

  const Topology& topology() const { return topology_; }
  Topology& topology() { return topology_; }

  Fib& fib(NodeId node) { return fibs_[node.value()]; }
  const Fib& fib(NodeId node) const { return fibs_[node.value()]; }

  /// Extra addresses a node accepts for local delivery beyond its loopback
  /// and connected subnet — this is how an IPvN router "accepts delivery of
  /// packets destined to [the anycast address] A4" (paper §3.1).
  void add_local_address(NodeId node, Ipv4Addr addr);
  void remove_local_address(NodeId node, Ipv4Addr addr);
  bool has_local_address(NodeId node, Ipv4Addr addr) const;

  /// True if `node` delivers `dst` locally: loopback, registered local
  /// address, or an attached-subnet address.
  bool delivers_locally(NodeId node, Ipv4Addr dst) const;

  /// Install connected routes (loopback /32 + router subnet /24) on every
  /// router. Called by the constructor; call again after adding routers.
  void install_connected_routes();

  struct TraceResult {
    enum class Outcome : std::uint8_t {
      kDelivered,
      kNoRoute,
      kTtlExpired,
      kForwardingLoop,
      kLinkDown,
    };
    Outcome outcome = Outcome::kNoRoute;
    std::vector<NodeId> hops;  // starts with the injection node
    NodeId delivered_at;       // valid only when kDelivered
    Cost cost = 0;             // sum of traversed link costs
    sim::Duration latency;     // sum of traversed link latencies

    bool delivered() const { return outcome == Outcome::kDelivered; }
    std::size_t hop_count() const { return hops.empty() ? 0 : hops.size() - 1; }
  };

  /// What `node` does with a packet for `dst` that may still cross `ttl`
  /// links: the one hop rule behind trace() and DeliveryEngine.
  struct Hop {
    /// Why the packet stops at `node` (kDelivered, kTtlExpired, kNoRoute or
    /// kLinkDown); nullopt when it moves on to `next`.
    std::optional<TraceResult::Outcome> stop;
    NodeId next = NodeId::invalid();
    LinkId link = LinkId::invalid();  // invalid also when the FIB elides it
  };
  Hop hop(NodeId node, Ipv4Addr dst, unsigned ttl) const;

  /// Walk FIBs from `from` toward `dst`, crossing at most `max_hops`
  /// links. Deterministic and observably side-effect free (internally it
  /// refreshes the per-router compiled forwarding caches).
  TraceResult trace(NodeId from, Ipv4Addr dst, unsigned max_hops = 255) const;

  /// Like trace(), but reuses `result`'s buffers — the allocation-free
  /// form the batch API and hot probe loops build on.
  void trace_into(NodeId from, Ipv4Addr dst, unsigned max_hops,
                  TraceResult& result) const;

  /// One probe of a batch: a packet injected at `from` toward `dst`.
  struct ProbeSpec {
    NodeId from;
    Ipv4Addr dst;
    unsigned max_hops = 255;
  };

  /// Trace every probe, amortizing compiled-FIB compilation across the
  /// batch. results[i] corresponds to probes[i]; each result is identical
  /// to what trace(probes[i]...) would return.
  std::vector<TraceResult> trace_batch(std::span<const ProbeSpec> probes) const;

  /// The compiled forwarding table for `node`, recompiled first if its
  /// route epoch is stale. Valid until the next mutation of fib(node).
  const CompiledFib& compiled_fib(NodeId node) const;

  /// Data-plane counters: how the compiled forwarding tier behaves.
  struct ForwardingStats {
    std::uint64_t traces = 0;        // trace/trace_into invocations
    std::uint64_t lookups = 0;       // per-hop LPM lookups
    std::uint64_t fib_compiles = 0;  // CompiledFib rebuilds (epoch misses)
    std::uint64_t cache_hits = 0;    // hops served by an already-fresh table
  };
  const ForwardingStats& forwarding_stats() const { return forwarding_stats_; }

  /// Telemetry sink for data-plane structure events (per-router compiled
  /// FIB recompiles). Null by default.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  obs::Recorder* recorder() const { return recorder_; }

  std::string describe(const TraceResult& result) const;

 private:
  Topology topology_;
  std::vector<Fib> fibs_;
  std::vector<std::unordered_set<Ipv4Addr>> local_addresses_;

  // Lazily (re)compiled per-router forwarding tables plus the visited-node
  // scratch for loop detection. Mutable: tracing is logically const but
  // maintains these caches (the simulation is single-threaded).
  mutable std::vector<CompiledFib> compiled_fibs_;
  mutable std::vector<std::uint64_t> visit_mark_;
  mutable std::uint64_t visit_gen_ = 0;
  mutable ForwardingStats forwarding_stats_;
  obs::Recorder* recorder_ = nullptr;
};

const char* to_string(Network::TraceResult::Outcome outcome);

}  // namespace evo::net
