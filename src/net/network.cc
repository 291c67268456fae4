#include "net/network.h"

#include <algorithm>
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
  local_address_epochs_.resize(topology_.router_count(), 0);
  compiled_fibs_.resize(topology_.router_count());
  visit_mark_.resize(topology_.router_count(), 0);
  install_connected_routes();
}

void Network::add_local_address(NodeId node, Ipv4Addr addr) {
  if (local_addresses_[node.value()].insert(addr).second) {
    ++local_address_epochs_[node.value()];
  }
}

void Network::remove_local_address(NodeId node, Ipv4Addr addr) {
  if (local_addresses_[node.value()].erase(addr) > 0) {
    ++local_address_epochs_[node.value()];
  }
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
    local_address_epochs_.resize(topology_.router_count(), 0);
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

namespace {
/// Initial hop capacity of a trace: one allocation covers the usual path.
constexpr std::size_t kTypicalHops = 16;
/// The leg cache's cap: 16k legs of 40 bytes, their hops at up to 8 per
/// leg on average, and an index at most half full.
constexpr std::size_t kMaxLegs = std::size_t{1} << 14;
constexpr std::size_t kMaxLegHops = kMaxLegs * 8;
constexpr std::size_t kMinLegSlots = 64;
}  // namespace

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
  result.hops.reserve(kTypicalHops);
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

Network::Stamp Network::stamp() const {
  Stamp stamp;
  for (const Fib& fib : fibs_) stamp.fibs += fib.epoch();
  for (const std::uint64_t epoch : local_address_epochs_) stamp.addresses += epoch;
  stamp.topology = topology_.epoch();
  return stamp;
}

void Network::reset_legs(const Stamp& stamp) const {
  leg_stamp_ = stamp;
  legs_.clear();
  leg_hops_.clear();
  leg_index_.assign(std::max(leg_index_.size(), kMinLegSlots), 0);
}

const Network::Leg* Network::find_leg(NodeId from, Ipv4Addr dst, unsigned max_hops,
                                      std::size_t& slot) const {
  const std::uint64_t key = (std::uint64_t{from.value()} << 32) | dst.bits();
  const std::size_t mask = leg_index_.size() - 1;
  slot = static_cast<std::size_t>(((key ^ max_hops) * 0x9E3779B97F4A7C15ull) >> 40) & mask;
  for (;; slot = (slot + 1) & mask) {
    const std::uint32_t at = leg_index_[slot];
    if (at == 0) return nullptr;
    const Leg& leg = legs_[at - 1];
    if (leg.from == from.value() && leg.dst == dst.bits() && leg.max_hops == max_hops) {
      return &leg;
    }
  }
}

void Network::keep_leg(std::size_t slot, unsigned max_hops, Ipv4Addr dst,
                       const TraceResult& result) const {
  if (legs_.size() == kMaxLegs || result.hops.size() > 0xFFFF ||
      leg_hops_.size() + result.hops.size() > kMaxLegHops) {
    return;
  }
  Leg leg;
  leg.from = result.hops.front().value();
  leg.dst = dst.bits();
  leg.max_hops = max_hops;
  leg.delivered_at = result.delivered_at.value();
  leg.hops_begin = static_cast<std::uint32_t>(leg_hops_.size());
  leg.hop_count = static_cast<std::uint16_t>(result.hops.size());
  leg.outcome = result.outcome;
  leg.cost = result.cost;
  leg.latency = result.latency;
  leg_hops_.insert(leg_hops_.end(), result.hops.begin(), result.hops.end());
  legs_.push_back(leg);
  if (2 * legs_.size() <= leg_index_.size()) {
    leg_index_[slot] = static_cast<std::uint32_t>(legs_.size());
    return;
  }
  // Past half full: double the index and re-place every leg.
  leg_index_.assign(2 * leg_index_.size(), 0);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < legs_.size(); ++i) {
    const Leg& kept = legs_[i];
    find_leg(NodeId{kept.from}, Ipv4Addr{kept.dst}, kept.max_hops, at);
    leg_index_[at] = i + 1;
  }
}

Network::Batch Network::begin_batch() const {
  const Stamp now = stamp();
  if (now != leg_stamp_ || leg_index_.empty()) reset_legs(now);
  return Batch(*this);
}

void Network::Batch::trace_into(NodeId from, Ipv4Addr dst, unsigned max_hops,
                                TraceResult& result) const {
  std::size_t slot = 0;
  if (const Leg* leg = network_.find_leg(from, dst, max_hops, slot)) {
    ++network_.forwarding_stats_.leg_hits;
    const auto hops = network_.leg_hops_.begin() + leg->hops_begin;
    result.outcome = leg->outcome;
    result.hops.assign(hops, hops + leg->hop_count);
    result.delivered_at = NodeId{leg->delivered_at};
    result.cost = leg->cost;
    result.latency = leg->latency;
    return;
  }
  network_.trace_into(from, dst, max_hops, result);
  network_.keep_leg(slot, max_hops, dst, result);
}

Network::TraceResult Network::Batch::trace(NodeId from, Ipv4Addr dst,
                                           unsigned max_hops) const {
  TraceResult result;
  trace_into(from, dst, max_hops, result);
  return result;
}

std::vector<Network::TraceResult> Network::trace_batch(
    std::span<const ProbeSpec> probes) const {
  const Batch batch = begin_batch();
  std::vector<TraceResult> results(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    batch.trace_into(probes[i].from, probes[i].dst, probes[i].max_hops, results[i]);
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
