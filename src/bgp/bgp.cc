#include "bgp/bgp.h"

#include <algorithm>
#include <cassert>

namespace evo::bgp {

using net::Cost;
using net::DomainId;
using net::FibEntry;
using net::LinkId;
using net::NodeId;
using net::Prefix;
using net::Relationship;
using net::RouteOrigin;

const char* to_string(LearnedFrom learned) {
  switch (learned) {
    case LearnedFrom::kSelf: return "self";
    case LearnedFrom::kCustomer: return "customer";
    case LearnedFrom::kPeer: return "peer";
    case LearnedFrom::kProvider: return "provider";
  }
  return "?";
}

std::string Route::describe() const {
  std::string out = prefix.to_string() + " path[";
  for (std::size_t i = 0; i < as_path.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(as_path[i].value());
  }
  out += "] pref=" + std::to_string(local_pref);
  out += std::string(" from=") + to_string(learned);
  if (anycast) out += " anycast";
  if (no_export) out += " no-export";
  return out;
}

BgpSystem::BgpSystem(sim::Simulator& simulator, net::Network& network,
                     std::function<const igp::Igp*(net::DomainId)> igp_of)
    : simulator_(simulator), network_(network), igp_of_(std::move(igp_of)) {
  const auto& topo = network_.topology();
  // Every border router is a speaker.
  speakers_.resize(topo.router_count());
  speakers_of_.resize(topo.domain_count());
  for (const auto& router : topo.routers()) {
    speakers_[router.id.value()].domain = router.domain;
    if (router.border) speakers_of_[router.domain.value()].push_back(router.id);
  }
  // eBGP sessions over inter-domain links.
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    const auto rel_of_b = topo.relationship(topo.router(link.a).domain,
                                            topo.router(link.b).domain);
    assert(rel_of_b.has_value());
    add_session_pair(link.a, link.b, link.id, *rel_of_b, /*ibgp=*/false);
  }
  // iBGP full mesh among each domain's border routers. Pairing i < j keeps
  // every speaker's sessions in ascending remote order.
  for (const auto& borders : speakers_of_) {
    for (std::size_t i = 0; i < borders.size(); ++i) {
      for (std::size_t j = i + 1; j < borders.size(); ++j) {
        add_session_pair(borders[i], borders[j], LinkId::invalid(),
                         Relationship::kPeer, /*ibgp=*/true);
      }
    }
  }
}

void BgpSystem::add_session_pair(NodeId a, NodeId b, LinkId link,
                                 Relationship relationship, bool ibgp) {
  const std::size_t ab = sessions_.size();
  sessions_.push_back(Session{a, b, link, relationship, ibgp, ab + 1});
  sessions_.push_back(Session{b, a, link, reverse(relationship), ibgp, ab});
  speaker(a).sessions.push_back(ab);
  speaker(b).sessions.push_back(ab + 1);
}

void BgpSystem::start() {
  started_ = true;
  // Each domain originates its own address block.
  for (const auto& domain : network_.topology().domains()) {
    originate(domain.id, domain.prefix);
  }
  // Every speaker belongs to a domain, so the loop above scheduled a flush
  // at each one; it also carries anything originated before start().
}

void BgpSystem::originate(DomainId domain, Prefix prefix, OriginationPolicy policy) {
  for (const NodeId node : speakers_of(domain)) originate(node, prefix, policy);
}

void BgpSystem::originate(NodeId node, Prefix prefix, const OriginationPolicy& policy) {
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, "bgp.originate", node.value(),
                       (std::uint64_t{prefix.address().bits()} << 8) | prefix.length());
  }
  speaker(node).originated[prefix] = policy;
  seed_self_route(node, prefix, policy);
}

void BgpSystem::seed_self_route(NodeId node, Prefix prefix,
                                const OriginationPolicy& policy) {
  auto& st = speaker(node);
  Route route;
  route.prefix = prefix;
  route.as_path = {st.domain};
  route.egress_router = node;
  route.local_pref = local_pref_for(LearnedFrom::kSelf);
  route.learned = LearnedFrom::kSelf;
  route.no_export = policy.no_export;
  route.propagation_ttl = policy.propagation_ttl;
  route.anycast = policy.anycast;
  st.adj_rib_in[{prefix, kSelfSession}] = std::move(route);
  decide(node, prefix);
  // A re-origination may change only export policy; the decision process
  // cannot see that, so always force a (re-)advertisement pass.
  st.dirty.insert(prefix);
  schedule_send(node);
}

void BgpSystem::withdraw(DomainId domain, Prefix prefix) {
  for (const NodeId node : speakers_of(domain)) withdraw(node, prefix);
}

void BgpSystem::withdraw(NodeId node, Prefix prefix) {
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, "bgp.withdraw", node.value(),
                       (std::uint64_t{prefix.address().bits()} << 8) | prefix.length());
  }
  auto& st = speaker(node);
  st.originated.erase(prefix);
  st.adj_rib_in.erase({prefix, kSelfSession});
  decide(node, prefix);
}

bool BgpSystem::preferred(const Route& a, const Route& b) {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.as_path.size() != b.as_path.size()) return a.as_path.size() < b.as_path.size();
  // Prefer eBGP-learned (and self) over iBGP-learned.
  if (a.via_ibgp != b.via_ibgp) return b.via_ibgp;
  // Deterministic tiebreaks: neighbor domain, then remote router, then
  // egress router.
  const DomainId an = a.as_path.empty() ? DomainId::invalid() : a.as_path.front();
  const DomainId bn = b.as_path.empty() ? DomainId::invalid() : b.as_path.front();
  if (an != bn) return an < bn;
  if (a.ebgp_next_hop != b.ebgp_next_hop) return a.ebgp_next_hop < b.ebgp_next_hop;
  return a.egress_router < b.egress_router;
}

void BgpSystem::decide(NodeId node, Prefix prefix) {
  auto& st = speaker(node);
  const Route* best = nullptr;
  // Scan Adj-RIB-In for this prefix (keys are ordered, so the range is
  // contiguous).
  const auto lo = st.adj_rib_in.lower_bound({prefix, 0});
  for (auto it = lo; it != st.adj_rib_in.end() && it->first.first == prefix; ++it) {
    if (best == nullptr || preferred(it->second, *best)) best = &it->second;
  }

  const auto current = st.loc_rib.find(prefix);
  const bool had = current != st.loc_rib.end();
  if (best == nullptr) {
    if (!had) return;
    st.loc_rib.erase(current);
  } else {
    if (had && current->second == *best) return;  // no effective change
    st.loc_rib[prefix] = *best;
  }
  ++loc_rib_epoch_;
  st.dirty.insert(prefix);
  schedule_send(node);
}

bool BgpSystem::exportable(const SpeakerState& st, const Route& route,
                           const Session& session) const {
  if (session.ibgp) {
    // iBGP: share only eBGP-learned or self-originated routes.
    return !route.via_ibgp;
  }
  // eBGP rules.
  if (route.no_export && route.learned != LearnedFrom::kSelf) return false;
  // GIA-style scoped propagation: stop once the exported path would
  // exceed the radius.
  if (route.propagation_ttl > 0) {
    const std::size_t exported_length =
        route.learned == LearnedFrom::kSelf ? 1 : route.as_path.size() + 1;
    if (exported_length > route.propagation_ttl) return false;
  }
  if (route.learned == LearnedFrom::kSelf) {
    const auto policy = st.originated.find(route.prefix);
    if (policy != st.originated.end() && policy->second.export_scope) {
      const DomainId neighbor = network_.topology().router(session.remote).domain;
      if (!policy->second.export_scope->contains(neighbor)) return false;
    }
    return true;
  }
  // Gao-Rexford: customer-learned exports everywhere; peer/provider-learned
  // exports only to customers.
  const bool from_customer = route.learned == LearnedFrom::kCustomer;
  if (from_customer) return true;
  return session.relationship == Relationship::kCustomer;
}

void BgpSystem::schedule_send(NodeId node) {
  auto& st = speaker(node);
  if (st.send_pending || !started_) return;
  st.send_pending = true;
  simulator_.schedule_after(kUpdateDelay, [this, node] {
    speaker(node).send_pending = false;
    flush_updates(node);
  });
}

bool BgpSystem::session_usable(const Session& session) const {
  const auto& topo = network_.topology();
  if (!topo.router(session.local).up || !topo.router(session.remote).up) {
    return false;
  }
  // iBGP rides the intra-domain fabric; eBGP needs its physical link.
  return session.ibgp ? session.igp_reachable : topo.link_usable(session.link);
}

bool BgpSystem::sync_sessions() {
  bool changed = false;
  for (Session& session : sessions_) {
    if (!session.ibgp || session.local > session.remote) continue;  // once a pair
    const igp::Igp* igp = igp_of_(speaker(session.local).domain);
    const bool reachable =
        igp == nullptr ||
        igp->distance(session.local, session.remote) != net::kInfiniteCost;
    if (reachable == session.igp_reachable) continue;
    changed = true;
    session.igp_reachable = sessions_[session.reverse].igp_reachable = reachable;
    for (const auto& [end, peer] : {std::pair{session.local, session.remote},
                                    std::pair{session.remote, session.local}}) {
      if (reachable) {
        readvertise(end);
      } else {
        drop_sessions(end,
                      [peer](const Session& s) { return s.ibgp && s.remote == peer; });
      }
    }
  }
  return changed;
}

void BgpSystem::readvertise(NodeId node) {
  auto& st = speaker(node);
  for (const auto& [prefix, route] : st.loc_rib) st.dirty.insert(prefix);
  schedule_send(node);
}

void BgpSystem::flush_updates(NodeId node) {
  if (!network_.topology().router(node).up) return;  // crashed: sends nothing
  auto& st = speaker(node);
  const auto dirty = std::move(st.dirty);
  st.dirty.clear();
  if (recorder_ != nullptr && !dirty.empty()) {
    recorder_->instant(obs::Domain::kBgp, "bgp.flush", node.value(), dirty.size());
  }
  for (const Prefix prefix : dirty) {
    const auto best = st.loc_rib.find(prefix);
    for (const std::size_t si : st.sessions) {
      const Session& session = sessions_[si];
      if (!session_usable(session)) continue;
      Update update;
      update.prefix = prefix;
      if (best == st.loc_rib.end() || !exportable(st, best->second, session)) {
        // Withdraw only where an advertisement actually exists.
        if (st.adj_rib_out.erase({prefix, si}) == 0) continue;
        update.withdraw = true;
      } else {
        st.adj_rib_out.insert({prefix, si});
      }
      if (!update.withdraw) {
        update.as_path = best->second.as_path;
        if (!session.ibgp) {
          // Path was already prepended with our domain at origination time
          // (self routes carry {domain}); for learned routes prepend now.
          if (best->second.learned != LearnedFrom::kSelf) {
            update.as_path.insert(update.as_path.begin(), st.domain);
          }
        }
        update.no_export = best->second.no_export;
        update.propagation_ttl = best->second.propagation_ttl;
        update.anycast = best->second.anycast;
      }
      send(si, std::move(update));
    }
  }
}

void BgpSystem::send(std::size_t session_index, Update update) {
  const Session& session = sessions_[session_index];
  const sim::Duration latency =
      session.ibgp ? kIbgpLatency : network_.topology().link(session.link).latency;
  ++messages_sent_;
  simulator_.schedule_after(latency, [this, in = session.reverse,
                                      update = std::move(update)] {
    // Re-check at delivery: the session may have died in flight.
    if (!session_usable(sessions_[in])) return;
    receive(in, update);
  });
}

void BgpSystem::receive(std::size_t session_index, const Update& update) {
  const Session& in = sessions_[session_index];
  auto& st = speaker(in.local);

  if (update.withdraw) {
    if (st.adj_rib_in.erase({update.prefix, session_index}) > 0) {
      decide(in.local, update.prefix);
    }
    return;
  }

  // Loop prevention (eBGP): reject paths containing our own domain.
  if (!in.ibgp && std::find(update.as_path.begin(), update.as_path.end(),
                            st.domain) != update.as_path.end()) {
    return;
  }

  Route route;
  route.prefix = update.prefix;
  route.as_path = update.as_path;
  route.no_export = update.no_export;
  route.propagation_ttl = update.propagation_ttl;
  route.anycast = update.anycast;
  if (in.ibgp) {
    // The sending border router remains the egress; the route keeps the
    // Gao-Rexford class it had where it entered the domain, recomputed
    // from the domain's relationship with the path's first AS hop.
    route.via_ibgp = true;
    route.egress_router = in.remote;
    const auto rel = network_.topology().relationship(
        st.domain, route.as_path.empty() ? DomainId::invalid() : route.as_path.front());
    route.learned = rel ? learned_from(*rel) : LearnedFrom::kPeer;
  } else {
    route.learned = learned_from(in.relationship);
    route.egress_router = in.local;
    route.ebgp_next_hop = in.remote;
    route.via_link = in.link;
  }
  route.local_pref = local_pref_for(route.learned);

  st.adj_rib_in[{update.prefix, session_index}] = std::move(route);
  decide(in.local, update.prefix);
}

void BgpSystem::on_link_change(LinkId link_id) {
  const auto& link = network_.topology().link(link_id);
  if (!link.interdomain) return;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp,
                       network_.topology().link_usable(link_id) ? "bgp.session.up"
                                                                : "bgp.session.down",
                       link_id.value(),
                       (std::uint64_t{link.a.value()} << 32) | link.b.value());
  }
  if (network_.topology().link_usable(link_id)) {
    // Sessions re-establish: both ends re-advertise their full Loc-RIBs.
    for (const NodeId end : {link.a, link.b}) readvertise(end);
  } else {
    // Session down at both ends.
    for (const NodeId end : {link.a, link.b}) {
      drop_sessions(end, [&](const Session& s) { return s.link == link_id; });
    }
  }
}

void BgpSystem::drop_sessions(NodeId node,
                              const std::function<bool(const Session&)>& dead) {
  auto& st = speaker(node);
  std::set<std::size_t> dead_sessions;
  for (const std::size_t si : st.sessions) {
    if (dead(sessions_[si])) dead_sessions.insert(si);
  }
  if (dead_sessions.empty()) return;
  std::vector<Prefix> affected;
  std::erase_if(st.adj_rib_in, [&](const auto& entry) {
    if (!dead_sessions.contains(entry.first.second)) return false;
    affected.push_back(entry.first.first);
    return true;
  });
  std::erase_if(st.adj_rib_out,
                [&](const auto& key) { return dead_sessions.contains(key.second); });
  for (const Prefix prefix : affected) decide(node, prefix);
}

void BgpSystem::on_node_change(NodeId node, bool up) {
  if (!started_) return;
  if (recorder_ != nullptr && is_speaker(node)) {
    recorder_->instant(obs::Domain::kBgp,
                       up ? "bgp.speaker.up" : "bgp.speaker.down", node.value());
  }
  if (!up) {
    // The crashed speaker loses all volatile RIB state; `originated` stays
    // (it is configuration, restored below on recovery).
    if (is_speaker(node)) {
      auto& st = speaker(node);
      if (!st.loc_rib.empty()) ++loc_rib_epoch_;
      st.adj_rib_in.clear();
      st.loc_rib.clear();
      st.adj_rib_out.clear();
      st.dirty.clear();
    }
    // Peers hold down every session to the dead node and withdraw what
    // they learned over those sessions.
    for (std::uint32_t v = 0; v < speakers_.size(); ++v) {
      const NodeId peer{v};
      if (peer == node || !is_speaker(peer)) continue;
      drop_sessions(peer, [&](const Session& s) { return s.remote == node; });
    }
  } else {
    // Recovery: re-seed self-originated routes from configuration...
    if (is_speaker(node)) {
      for (const auto& [prefix, policy] : speaker(node).originated) {
        seed_self_route(node, prefix, policy);
      }
    }
    // ...and peers with a session to the restored speaker re-advertise
    // their full Loc-RIBs toward it (session re-establishment).
    for (std::uint32_t v = 0; v < speakers_.size(); ++v) {
      const NodeId peer{v};
      if (peer == node || !is_speaker(peer)) continue;
      auto& st = speaker(peer);
      const bool has_session =
          std::any_of(st.sessions.begin(), st.sessions.end(),
                      [&](std::size_t si) { return sessions_[si].remote == node; });
      if (!has_session || st.loc_rib.empty()) continue;
      readvertise(peer);
    }
  }
}

const Route* BgpSystem::best_route(NodeId node, Prefix prefix) const {
  if (!is_speaker(node)) return nullptr;
  const auto& st = speaker(node);
  const auto it = st.loc_rib.find(prefix);
  return it == st.loc_rib.end() ? nullptr : &it->second;
}

void BgpSystem::for_each_best_route(
    NodeId node, const std::function<void(const Route&)>& fn) const {
  if (!is_speaker(node)) return;
  for (const auto& [prefix, route] : speaker(node).loc_rib) fn(route);
}

std::size_t BgpSystem::loc_rib_size(NodeId node, bool anycast_only) const {
  if (!is_speaker(node)) return 0;
  const auto& st = speaker(node);
  if (!anycast_only) return st.loc_rib.size();
  std::size_t count = 0;
  for (const auto& [prefix, route] : st.loc_rib) {
    if (route.anycast) ++count;
  }
  return count;
}

net::LinkId BgpSystem::connecting_link(NodeId a, NodeId b) const {
  const auto& topo = network_.topology();
  LinkId best = LinkId::invalid();
  Cost best_cost = net::kInfiniteCost;
  for (const LinkId link_id : topo.router(a).links) {
    const auto& link = topo.link(link_id);
    if (!topo.link_usable(link_id) || link.other_end(a) != b) continue;
    if (link.cost < best_cost) {
      best = link_id;
      best_cost = link.cost;
    }
  }
  return best;
}

void BgpSystem::install_routes() {
  const auto& topo = network_.topology();
  for (const auto& domain : topo.domains()) {
    const auto& borders = speakers_of(domain.id);
    if (borders.empty()) continue;
    const igp::Igp* igp = igp_of_(domain.id);

    // Union of prefixes any border router can reach.
    std::set<Prefix> prefixes;
    for (const NodeId b : borders) {
      for (const auto& [prefix, route] : speaker(b).loc_rib) prefixes.insert(prefix);
    }

    for (const NodeId r : domain.routers) {
      auto& fib = network_.fib(r);
      // Collected first, installed via replace_origins below: a sync that
      // rederives the same BGP table leaves the route epoch (and thus the
      // router's compiled forwarding state) untouched.
      std::vector<FibEntry> routes;
      for (const Prefix prefix : prefixes) {
        // Never install a BGP route for our own aggregate: intra-domain
        // routing handles it.
        if (prefix == domain.prefix) continue;
        // Likewise skip a host route the router terminates itself (an
        // anycast member delivers its group address locally).
        if (prefix.length() == 32 && network_.delivers_locally(r, prefix.address())) {
          continue;
        }
        // Intra-domain routes win over BGP for an identical prefix (the
        // "IGP-preferred" admin-distance rule; see DESIGN.md): a member
        // domain's own anycast members must keep capturing local traffic
        // even when a remote member peer-advertises the same /32 to us.
        if (const auto* existing = fib.find(prefix);
            existing != nullptr && existing->origin != RouteOrigin::kBgp) {
          continue;
        }

        // Hot potato: the IGP-closest border router with a best route.
        NodeId chosen = NodeId::invalid();
        Cost chosen_cost = net::kInfiniteCost;
        const Route* chosen_route = nullptr;
        for (const NodeId b : borders) {
          const auto& rib = speaker(b).loc_rib;
          const auto it = rib.find(prefix);
          if (it == rib.end()) continue;
          // Don't egress through an iBGP-learned copy when its eBGP owner
          // is also a candidate: route through the true egress.
          const NodeId egress = it->second.via_ibgp ? it->second.egress_router : b;
          const Cost d = (r == egress) ? 0
                                       : (igp ? igp->distance(r, egress)
                                              : net::kInfiniteCost);
          if (d < chosen_cost || (d == chosen_cost && egress < chosen)) {
            chosen = egress;
            chosen_cost = d;
            chosen_route = &it->second;
          }
        }
        if (!chosen.valid() || chosen_route == nullptr) continue;

        if (r == chosen) {
          // We are the egress: forward over the eBGP link. Self-originated
          // routes need no FIB entry (IGP covers the domain).
          const auto& rib = speaker(chosen).loc_rib;
          const auto it = rib.find(prefix);
          if (it == rib.end()) continue;
          const Route& route = it->second;
          if (route.learned == LearnedFrom::kSelf || route.via_ibgp) {
            // via_ibgp at the egress itself shouldn't happen (egress
            // resolution above); kSelf means the prefix is ours — skip.
            continue;
          }
          if (!route.via_link.valid() || !topo.link_usable(route.via_link)) continue;
          routes.push_back(FibEntry{prefix, route.ebgp_next_hop, route.via_link,
                                    RouteOrigin::kBgp,
                                    static_cast<Cost>(route.as_path.size())});
        } else {
          const NodeId hop = igp ? igp->next_hop(r, chosen) : NodeId::invalid();
          if (!hop.valid()) continue;
          const LinkId out = connecting_link(r, hop);
          routes.push_back(
              FibEntry{prefix, hop, out, RouteOrigin::kBgp, chosen_cost});
        }
      }
      fib.replace_origins({RouteOrigin::kBgp}, routes);
    }
  }
}

}  // namespace evo::bgp
