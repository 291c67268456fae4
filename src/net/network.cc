#include "net/network.h"

#include <cassert>

namespace evo::net {

const char* to_string(Network::TraceResult::Outcome outcome) {
  using Outcome = Network::TraceResult::Outcome;
  switch (outcome) {
    case Outcome::kDelivered: return "delivered";
    case Outcome::kNoRoute: return "no-route";
    case Outcome::kTtlExpired: return "ttl-expired";
    case Outcome::kForwardingLoop: return "forwarding-loop";
    case Outcome::kLinkDown: return "link-down";
  }
  return "?";
}

Network::Network(Topology topology) : topology_(std::move(topology)) {
  fibs_.resize(topology_.router_count());
  local_addresses_.resize(topology_.router_count());
  compiled_fibs_.resize(topology_.router_count());
  visit_mark_.resize(topology_.router_count(), 0);
  install_connected_routes();
}

void Network::add_local_address(NodeId node, Ipv4Addr addr) {
  local_addresses_[node.value()].insert(addr);
}

void Network::remove_local_address(NodeId node, Ipv4Addr addr) {
  local_addresses_[node.value()].erase(addr);
}

bool Network::has_local_address(NodeId node, Ipv4Addr addr) const {
  return local_addresses_[node.value()].contains(addr);
}

bool Network::delivers_locally(NodeId node, Ipv4Addr dst) const {
  const auto& router = topology_.router(node);
  if (!router.up) return false;  // a crashed router delivers nothing
  if (router.loopback == dst) return true;
  if (local_addresses_[node.value()].contains(dst)) return true;
  return Topology::router_subnet(router.domain, router.index_in_domain).contains(dst);
}

void Network::install_connected_routes() {
  if (fibs_.size() < topology_.router_count()) {
    fibs_.resize(topology_.router_count());
    local_addresses_.resize(topology_.router_count());
    compiled_fibs_.resize(topology_.router_count());
    visit_mark_.resize(topology_.router_count(), 0);
  }
  for (const auto& router : topology_.routers()) {
    auto& fib = fibs_[router.id.value()];
    fib.insert(FibEntry{Prefix::host(router.loopback), NodeId::invalid(),
                        LinkId::invalid(), RouteOrigin::kConnected, 0});
    fib.insert(FibEntry{Topology::router_subnet(router.domain, router.index_in_domain),
                        NodeId::invalid(), LinkId::invalid(), RouteOrigin::kConnected,
                        0});
  }
}

const CompiledFib& Network::compiled_fib(NodeId node) const {
  CompiledFib& compiled = compiled_fibs_[node.value()];
  const Fib& fib = fibs_[node.value()];
  if (compiled.epoch() != fib.epoch()) {
    compiled.compile(fib);
    ++forwarding_stats_.fib_compiles;
    if (recorder_ != nullptr) {
      recorder_->instant(obs::Domain::kNet, "net.fib.recompile", node.value(),
                         fib.size());
    }
  } else {
    ++forwarding_stats_.cache_hits;
  }
  return compiled;
}

Network::TraceResult Network::trace(NodeId from, Ipv4Addr dst,
                                    unsigned max_hops) const {
  TraceResult result;
  trace_into(from, dst, max_hops, result);
  return result;
}

Network::Hop Network::hop(NodeId node, Ipv4Addr dst, unsigned ttl) const {
  using Outcome = TraceResult::Outcome;
  if (delivers_locally(node, dst)) return {Outcome::kDelivered};
  if (ttl == 0) return {Outcome::kTtlExpired};
  const FibEntry* entry = compiled_fib(node).lookup(dst);
  ++forwarding_stats_.lookups;
  // A local-delivery entry that didn't match delivers_locally means a
  // stale route; treat both as no-route.
  if (entry == nullptr || !entry->next_hop.valid()) return {Outcome::kNoRoute};
  if (entry->out_link.valid() && !topology_.link_usable(entry->out_link)) {
    return {Outcome::kLinkDown};
  }
  return {std::nullopt, entry->next_hop, entry->out_link};
}

void Network::trace_into(NodeId from, Ipv4Addr dst, unsigned max_hops,
                         TraceResult& result) const {
  result.outcome = TraceResult::Outcome::kNoRoute;
  result.hops.clear();
  result.delivered_at = NodeId::invalid();
  result.cost = 0;
  result.latency = {};
  result.hops.push_back(from);
  ++forwarding_stats_.traces;

  // Loop detection via generation marking: one counter bump replaces a
  // per-trace hash-set allocation. A revisited node cannot deliver
  // locally (its first visit did not), so marking ahead of the hop rule
  // finds exactly the loops.
  const std::uint64_t gen = ++visit_gen_;
  NodeId current = from;
  for (;;) {
    if (visit_mark_[current.value()] == gen) {
      result.outcome = TraceResult::Outcome::kForwardingLoop;
      return;
    }
    visit_mark_[current.value()] = gen;
    const Hop step = hop(current, dst, max_hops - result.hop_count());
    if (step.stop) {
      result.outcome = *step.stop;
      if (result.delivered()) result.delivered_at = current;
      return;
    }
    if (step.link.valid()) {
      const Link& link = topology_.link(step.link);
      result.cost += link.cost;
      result.latency += link.latency;
    } else {
      result.cost += 1;  // next hop known but link identity elided
    }
    current = step.next;
    result.hops.push_back(current);
  }
}

std::vector<Network::TraceResult> Network::trace_batch(
    std::span<const ProbeSpec> probes) const {
  std::vector<TraceResult> results(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    trace_into(probes[i].from, probes[i].dst, probes[i].max_hops, results[i]);
  }
  return results;
}

std::string Network::describe(const TraceResult& result) const {
  std::string out = to_string(result.outcome);
  out += ":";
  for (const NodeId hop : result.hops) {
    out += " ";
    const auto& router = topology_.router(hop);
    out += topology_.domain(router.domain).name;
    out += "/r";
    out += std::to_string(router.index_in_domain);
  }
  out += " (cost " + std::to_string(result.cost) + ")";
  return out;
}

}  // namespace evo::net
