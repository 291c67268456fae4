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

/// Path storage comes in chunks of this many domains (a longer path gets a
/// chunk of its own).
constexpr std::size_t kPathChunk = 4096;

PathTable::PathTable() { paths_.push_back(AsPath{}); }

AsPath PathTable::prepend(DomainId head, const AsPath& tail) {
  assert(tail.id() < paths_.size() && paths_[tail.id()] == tail);
  const std::uint64_t key = (std::uint64_t{head.value()} << 32) | tail.id();
  const auto [it, inserted] =
      by_head_tail_.try_emplace(key, static_cast<AsPath::Id>(paths_.size()));
  if (!inserted) return paths_[it->second];
  const std::size_t size = tail.size() + 1;
  if (chunk_capacity_ - chunk_used_ < size) {
    chunk_capacity_ = std::max(kPathChunk, size);
    chunks_.push_back(std::make_unique<DomainId[]>(chunk_capacity_));
    chunk_used_ = 0;
  }
  DomainId* data = chunks_.back().get() + chunk_used_;
  chunk_used_ += size;
  data[0] = head;
  std::copy(tail.begin(), tail.end(), data + 1);
  paths_.push_back(AsPath{data, static_cast<std::uint32_t>(size), it->second});
  return paths_.back();
}

BgpSystem::BgpSystem(sim::Simulator& simulator, net::Network& network,
                     igp::IgpTable igps)
    : simulator_(simulator), network_(network), igps_(igps) {
  const auto& topo = network_.topology();
  // Every border router is a speaker.
  speakers_.resize(topo.router_count());
  speakers_of_.resize(topo.domain_count());
  install_dirty_.resize(topo.domain_count());
  install_inputs_.resize(topo.router_count());
  install_link_usable_.resize(topo.link_count());
  for (const auto& router : topo.routers()) {
    speakers_[router.id.value()].domain = router.domain;
    if (router.border) speakers_of_[router.domain.value()].push_back(router.id);
  }
  install_rows_.resize(topo.domain_count());
  for (const auto& domain : topo.domains()) {
    install_rows_[domain.id.value()].resize(domain.routers.size() *
                                            speakers_of_[domain.id.value()].size());
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
  auto& sa = speaker(a).sessions;
  auto& sb = speaker(b).sessions;
  sessions_.push_back(Session{a, b, link, relationship, ibgp, ab + 1,
                              static_cast<std::uint32_t>(sa.size())});
  sessions_.push_back(Session{b, a, link, reverse(relationship), ibgp, ab,
                              static_cast<std::uint32_t>(sb.size())});
  sa.push_back(ab);
  sb.push_back(ab + 1);
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
  const PrefixId id = prefix_id(prefix);
  Route route;
  route.prefix = prefix;
  route.as_path = paths_.prepend(st.domain, AsPath{});
  route.egress_router = node;
  route.local_pref = local_pref_for(LearnedFrom::kSelf);
  route.learned = LearnedFrom::kSelf;
  route.no_export = policy.no_export;
  route.propagation_ttl = policy.propagation_ttl;
  route.anycast = policy.anycast;
  put_offer(st, id, kSelfSession, std::move(route));
  decide(node, id);
  // A re-origination may change only export policy; the decision process
  // cannot see that, so always force a (re-)advertisement pass.
  mark(st.dirty, id);
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
  const PrefixId id = prefix_id(prefix);
  erase_offer(st, id, kSelfSession);
  decide(node, id);
}

BgpSystem::PrefixId BgpSystem::prefix_id(Prefix prefix) {
  const auto [it, inserted] =
      prefix_ids_.try_emplace(prefix, static_cast<PrefixId>(prefixes_.size()));
  if (inserted) {
    prefixes_.push_back(prefix);
    const auto at = std::upper_bound(
        ids_by_prefix_.begin(), ids_by_prefix_.end(), prefix,
        [&](Prefix p, PrefixId id) { return p < prefixes_[id]; });
    ids_by_prefix_.insert(at, it->second);
  }
  return it->second;
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

const Route* BgpSystem::best_offer(std::span<const Offer> offers) {
  const Route* best = nullptr;
  for (const Offer& offer : offers) {
    if (best == nullptr || preferred(offer.route, *best)) best = &offer.route;
  }
  return best;
}

void BgpSystem::mark(DirtyPrefixes& dirty, PrefixId id) const {
  if (dirty.flag.size() <= id) dirty.flag.resize(prefixes_.size(), 0);
  if (dirty.flag[id] != 0) return;
  dirty.flag[id] = 1;
  dirty.ids.push_back(id);
}

void BgpSystem::put_offer(SpeakerState& st, PrefixId id, std::uint32_t session,
                          Route route) {
  if (st.adj_rib_in.size() <= id) st.adj_rib_in.resize(prefixes_.size());
  auto& offers = st.adj_rib_in[id];
  const auto at = std::find_if(offers.begin(), offers.end(),
                               [&](const Offer& o) { return o.session >= session; });
  if (at != offers.end() && at->session == session) {
    at->route = std::move(route);
  } else {
    offers.insert(at, Offer{session, std::move(route)});
  }
}

bool BgpSystem::erase_offer(SpeakerState& st, PrefixId id, std::uint32_t session) {
  if (id >= st.adj_rib_in.size()) return false;
  return std::erase_if(st.adj_rib_in[id],
                       [&](const Offer& o) { return o.session == session; }) > 0;
}

std::uint8_t& BgpSystem::out_flag(SpeakerState& st, PrefixId id, std::uint32_t slot) {
  const std::size_t n = st.sessions.size();
  if (st.adj_rib_out.size() <= id * n + slot) st.adj_rib_out.resize(prefixes_.size() * n, 0);
  return st.adj_rib_out[id * n + slot];
}

void BgpSystem::decide(NodeId node, PrefixId id) {
  auto& st = speaker(node);
  const Route* best =
      id < st.adj_rib_in.size() ? best_offer(st.adj_rib_in[id]) : nullptr;
  const Route* current = loc_rib_at(st, id);
  if (best == nullptr) {
    if (current == nullptr) return;
    st.loc_rib[id].reset();
    --st.loc_rib_count;
  } else {
    if (current != nullptr && *current == *best) return;  // no effective change
    if (current == nullptr) ++st.loc_rib_count;
    if (st.loc_rib.size() <= id) st.loc_rib.resize(prefixes_.size());
    st.loc_rib[id] = *best;
  }
  ++loc_rib_epoch_;
  mark_install_dirty(st.domain, id);
  mark(st.dirty, id);
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
  for (std::size_t si = 0; si < sessions_.size(); ++si) {
    Session& session = sessions_[si];
    if (!session.ibgp || session.local > session.remote) continue;  // once a pair
    const igp::Igp& igp = *igps_[speaker(session.local).domain.value()];
    const bool reachable =
        igp.distance(session.local, session.remote) != net::kInfiniteCost;
    if (reachable == session.igp_reachable) continue;
    changed = true;
    session.igp_reachable = sessions_[session.reverse].igp_reachable = reachable;
    for (const std::size_t end : {si, session.reverse}) {
      if (reachable) {
        readvertise(sessions_[end].local);
      } else {
        drop_sessions(sessions_[end].local, {&end, 1});
      }
    }
  }
  return changed;
}

void BgpSystem::readvertise(NodeId node) {
  auto& st = speaker(node);
  for (PrefixId id = 0; id < st.loc_rib.size(); ++id) {
    if (st.loc_rib[id]) mark(st.dirty, id);
  }
  schedule_send(node);
}

void BgpSystem::flush_updates(NodeId node) {
  if (!network_.topology().router(node).up) return;  // crashed: sends nothing
  auto& st = speaker(node);
  auto& dirty = st.dirty.ids;
  if (dirty.empty()) return;
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp, "bgp.flush", node.value(), dirty.size());
  }
  std::sort(dirty.begin(), dirty.end(),
            [&](PrefixId a, PrefixId b) { return prefixes_[a] < prefixes_[b]; });
  for (const PrefixId id : dirty) {
    st.dirty.flag[id] = 0;
    const Route* best = loc_rib_at(st, id);
    // The path eBGP sessions carry: learned routes get our domain
    // prepended (self routes were built as {domain}). One lookup per prefix.
    std::optional<AsPath::Id> ebgp_path;
    for (std::uint32_t slot = 0; slot < st.sessions.size(); ++slot) {
      const std::size_t si = st.sessions[slot];
      const Session& session = sessions_[si];
      if (!session_usable(session)) continue;
      Update update;
      update.prefix = id;
      std::uint8_t& advertised = out_flag(st, id, slot);
      if (best == nullptr || !exportable(st, *best, session)) {
        // Withdraw only where an advertisement actually exists.
        if (advertised == 0) continue;
        advertised = 0;
        update.withdraw = true;
      } else {
        advertised = 1;
        if (session.ibgp || best->learned == LearnedFrom::kSelf) {
          update.as_path = best->as_path.id();
        } else {
          if (!ebgp_path) ebgp_path = paths_.prepend(st.domain, best->as_path).id();
          update.as_path = *ebgp_path;
        }
        update.no_export = best->no_export;
        update.propagation_ttl = best->propagation_ttl;
        update.anycast = best->anycast;
      }
      send(si, update);
    }
  }
  dirty.clear();
}

void BgpSystem::send(std::size_t session_index, const Update& update) {
  const Session& session = sessions_[session_index];
  const sim::Duration latency =
      session.ibgp ? kIbgpLatency : network_.topology().link(session.link).latency;
  ++messages_sent_;
  simulator_.schedule_after(latency, [this, in = session.reverse, update] {
    // Re-check at delivery: the session may have died in flight.
    if (!session_usable(sessions_[in])) return;
    receive(in, update);
  });
}

void BgpSystem::receive(std::size_t session_index, const Update& update) {
  const Session& in = sessions_[session_index];
  auto& st = speaker(in.local);
  const auto session = static_cast<std::uint32_t>(session_index);

  if (update.withdraw) {
    if (erase_offer(st, update.prefix, session)) decide(in.local, update.prefix);
    return;
  }

  // Loop prevention (eBGP): reject paths containing our own domain.
  const AsPath path = paths_.get(update.as_path);
  if (!in.ibgp && std::find(path.begin(), path.end(), st.domain) != path.end()) {
    return;
  }

  Route route;
  route.prefix = prefixes_[update.prefix];
  route.as_path = path;
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
        st.domain, path.empty() ? DomainId::invalid() : path.front());
    route.learned = rel ? learned_from(*rel) : LearnedFrom::kPeer;
  } else {
    route.learned = learned_from(in.relationship);
    route.egress_router = in.local;
    route.ebgp_next_hop = in.remote;
    route.via_link = in.link;
  }
  route.local_pref = local_pref_for(route.learned);

  put_offer(st, update.prefix, session, std::move(route));
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
    // Session down at both ends: the pair over this link.
    const auto& at_a = speaker(link.a).sessions;
    const auto ab = std::find_if(at_a.begin(), at_a.end(), [&](std::size_t si) {
      return sessions_[si].link == link_id;
    });
    assert(ab != at_a.end());
    const std::size_t ba = sessions_[*ab].reverse;
    drop_sessions(link.a, {&*ab, 1});
    drop_sessions(link.b, {&ba, 1});
  }
}

void BgpSystem::drop_sessions(NodeId node, std::span<const std::size_t> dead) {
  auto& st = speaker(node);
  const std::size_t n = st.sessions.size();
  for (const std::size_t si : dead) {
    assert(sessions_[si].local == node);
    for (std::size_t at = sessions_[si].slot; at < st.adj_rib_out.size(); at += n) {
      st.adj_rib_out[at] = 0;
    }
  }
  for (const PrefixId id : ids_by_prefix_) {
    if (id >= st.adj_rib_in.size()) continue;
    const auto erased = std::erase_if(st.adj_rib_in[id], [&](const Offer& o) {
      return std::find(dead.begin(), dead.end(), o.session) != dead.end();
    });
    if (erased > 0) decide(node, id);
  }
}

std::vector<std::size_t> BgpSystem::sessions_toward(NodeId node) const {
  std::vector<std::size_t> toward;
  for (const std::size_t si : speaker(node).sessions) toward.push_back(sessions_[si].reverse);
  std::sort(toward.begin(), toward.end(), [&](std::size_t a, std::size_t b) {
    if (sessions_[a].local != sessions_[b].local) return sessions_[a].local < sessions_[b].local;
    return a < b;
  });
  return toward;
}

void BgpSystem::on_node_change(NodeId node, bool up) {
  if (!started_) return;
  if (!is_speaker(node)) return;  // no sessions, no RIBs
  if (recorder_ != nullptr) {
    recorder_->instant(obs::Domain::kBgp,
                       up ? "bgp.speaker.up" : "bgp.speaker.down", node.value());
  }
  const auto toward = sessions_toward(node);
  if (!up) {
    // The crashed speaker loses all volatile RIB state; `originated` stays
    // (it is configuration, restored below on recovery).
    auto& st = speaker(node);
    if (st.loc_rib_count > 0) ++loc_rib_epoch_;
    for (PrefixId id = 0; id < st.loc_rib.size(); ++id) {
      if (st.loc_rib[id]) mark_install_dirty(st.domain, id);
    }
    st.adj_rib_in.clear();
    st.loc_rib.clear();
    st.loc_rib_count = 0;
    st.adj_rib_out.clear();
    st.dirty = {};
    // Peers hold down every session to the dead node and withdraw what
    // they learned over those sessions.
    for (std::size_t i = 0, j = 0; i < toward.size(); i = j) {
      const NodeId peer = sessions_[toward[i]].local;
      while (j < toward.size() && sessions_[toward[j]].local == peer) ++j;
      drop_sessions(peer, std::span(toward).subspan(i, j - i));
    }
  } else {
    // Recovery: re-seed self-originated routes from configuration...
    for (const auto& [prefix, policy] : speaker(node).originated) {
      seed_self_route(node, prefix, policy);
    }
    // ...and peers with a session to the restored speaker re-advertise
    // their full Loc-RIBs toward it (session re-establishment).
    for (std::size_t i = 0; i < toward.size(); ++i) {
      const NodeId peer = sessions_[toward[i]].local;
      if (i > 0 && sessions_[toward[i - 1]].local == peer) continue;
      if (speaker(peer).loc_rib_count > 0) readvertise(peer);
    }
  }
}

const Route* BgpSystem::best_route(NodeId node, Prefix prefix) const {
  if (!is_speaker(node)) return nullptr;
  const auto it = prefix_ids_.find(prefix);
  return it == prefix_ids_.end() ? nullptr : loc_rib_at(speaker(node), it->second);
}

void BgpSystem::for_each_best_route(
    NodeId node, const std::function<void(const Route&)>& fn) const {
  if (!is_speaker(node)) return;
  const auto& st = speaker(node);
  for (const PrefixId id : ids_by_prefix_) {
    if (const Route* route = loc_rib_at(st, id)) fn(*route);
  }
}

std::size_t BgpSystem::loc_rib_size(NodeId node, bool anycast_only) const {
  if (!is_speaker(node)) return 0;
  const auto& st = speaker(node);
  if (!anycast_only) return st.loc_rib_count;
  return static_cast<std::size_t>(
      std::count_if(st.loc_rib.begin(), st.loc_rib.end(),
                    [](const std::optional<Route>& slot) { return slot && slot->anycast; }));
}

std::optional<std::string> BgpSystem::rib_inconsistency() const {
  for (const auto& router : network_.topology().routers()) {
    if (!router.border) continue;
    const auto& st = speaker(router.id);
    const std::size_t n = st.sessions.size();
    const auto at = [&](PrefixId id) {
      return "speaker " + std::to_string(router.id.value()) + " prefix " +
             prefixes_[id].to_string() + ": ";
    };
    std::size_t engaged = 0;
    for (PrefixId id = 0; id < prefixes_.size(); ++id) {
      // The preferred offer; among equally preferred ones, the lowest
      // session index (kSelfSession is the highest).
      const Offer* want = nullptr;
      if (id < st.adj_rib_in.size()) {
        for (const Offer& offer : st.adj_rib_in[id]) {
          if (want == nullptr || preferred(offer.route, want->route) ||
              (!preferred(want->route, offer.route) && offer.session < want->session)) {
            want = &offer;
          }
        }
      }
      const Route* have = loc_rib_at(st, id);
      engaged += have != nullptr;
      if (want == nullptr ? have != nullptr : have == nullptr || *have != want->route) {
        return at(id) + "Loc-RIB holds " + (have ? have->describe() : "nothing") +
               ", Adj-RIB-In prefers " + (want ? want->route.describe() : "nothing");
      }
      if (!started_) continue;  // nothing is flushed before start()
      for (std::uint32_t slot = 0; slot < n; ++slot) {
        const Session& session = sessions_[st.sessions[slot]];
        const std::size_t flag = id * n + slot;
        const bool advertised = flag < st.adj_rib_out.size() && st.adj_rib_out[flag] != 0;
        const bool exported =
            have != nullptr && session_usable(session) && exportable(st, *have, session);
        if (advertised != exported) {
          return at(id) + "Adj-RIB-Out flag toward " +
                 std::to_string(session.remote.value()) +
                 (advertised ? " set, but the best route is not exported there"
                             : " clear, but the best route is exported there");
        }
      }
    }
    if (engaged != st.loc_rib_count) {
      return "speaker " + std::to_string(router.id.value()) + ": Loc-RIB count " +
             std::to_string(st.loc_rib_count) + ", engaged slots " +
             std::to_string(engaged);
    }
  }
  return std::nullopt;
}

void BgpSystem::border_row(NodeId r, std::span<BorderHop> row) const {
  const auto& topo = network_.topology();
  const DomainId domain = topo.router(r).domain;
  const igp::Igp& igp = *igps_[domain.value()];
  const auto& fib = network_.fib(r);
  const auto& borders = speakers_of(domain);
  assert(row.size() == borders.size());
  for (std::size_t i = 0; i < borders.size(); ++i) {
    const NodeId border = borders[i];
    BorderHop& hop = row[i];
    hop.distance = r == border ? 0 : igp.distance(r, border);
    const FibEntry* toward = fib.find(Prefix::host(topo.router(border).loopback));
    hop.via_igp = toward != nullptr && toward->origin == RouteOrigin::kIgp;
    hop.next_hop = hop.via_igp ? toward->next_hop : NodeId::invalid();
    hop.link = hop.via_igp ? toward->out_link : LinkId::invalid();
  }
}

void BgpSystem::gather_egresses(DomainId domain, PrefixId id,
                                std::vector<std::uint32_t>& egresses) const {
  const auto& borders = speakers_of(domain);
  for (const NodeId b : borders) {
    const Route* route = loc_rib_at(speaker(b), id);
    if (route == nullptr) continue;
    // Don't egress through an iBGP-learned copy when its eBGP owner is
    // also a candidate: route through the true egress.
    const NodeId egress = route->via_ibgp ? route->egress_router : b;
    const auto at = std::lower_bound(borders.begin(), borders.end(), egress);
    assert(at != borders.end() && *at == egress);
    egresses.push_back(static_cast<std::uint32_t>(at - borders.begin()));
  }
}

std::optional<FibEntry> BgpSystem::install_rule(NodeId r, PrefixId id,
                                                std::span<const std::uint32_t> egresses,
                                                std::span<const BorderHop> row,
                                                const FibEntry* existing) const {
  const auto& topo = network_.topology();
  const auto& domain = topo.domain(topo.router(r).domain);
  const Prefix prefix = prefixes_[id];
  // Never install a BGP route for our own aggregate: intra-domain routing
  // handles it.
  if (prefix == domain.prefix) return std::nullopt;
  // Likewise skip a host route the router terminates itself (an anycast
  // member delivers its group address locally).
  if (prefix.length() == 32 && network_.delivers_locally(r, prefix.address())) {
    return std::nullopt;
  }
  // Intra-domain routes win over BGP for an identical prefix (the
  // "IGP-preferred" admin-distance rule; see DESIGN.md): a member domain's
  // own anycast members must keep capturing local traffic even when a
  // remote member peer-advertises the same /32 to us.
  if (existing != nullptr && existing->origin != RouteOrigin::kBgp) return std::nullopt;

  // Hot potato: the IGP-closest egress; positions follow NodeId order, so
  // the lowest position breaks ties toward the lowest id.
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::uint32_t chosen = kNone;
  Cost chosen_cost = net::kInfiniteCost;
  for (const std::uint32_t egress : egresses) {
    const Cost d = row[egress].distance;
    if (d < chosen_cost || (d == chosen_cost && egress < chosen)) {
      chosen = egress;
      chosen_cost = d;
    }
  }
  if (chosen == kNone) return std::nullopt;

  const NodeId egress = speakers_of(domain.id)[chosen];
  if (r == egress) {
    // We are the egress: forward over the eBGP link. Self-originated routes
    // need no FIB entry (IGP covers the domain); via_ibgp at the egress
    // itself cannot happen (egress resolution above).
    const Route* route = loc_rib_at(speaker(egress), id);
    if (route == nullptr) return std::nullopt;
    if (route->learned == LearnedFrom::kSelf || route->via_ibgp) return std::nullopt;
    if (!route->via_link.valid() || !topo.link_usable(route->via_link)) return std::nullopt;
    return FibEntry{prefix, route->ebgp_next_hop, route->via_link, RouteOrigin::kBgp,
                    static_cast<Cost>(route->as_path.size())};
  }
  // Toward another border: the next hop and link are the IGP's own, read
  // from its FIB entry for the egress's loopback.
  const BorderHop& toward = row[chosen];
  if (!toward.via_igp) return std::nullopt;
  return FibEntry{prefix, toward.next_hop, toward.link, RouteOrigin::kBgp, chosen_cost};
}

namespace {

/// The index of the first of `entries` (in Prefix order) not below
/// `prefix`, when every entry before `from` is below it: gallop forward
/// from `from`, then bisect the last step. A walk over a sorted list of
/// prefixes costs one step per entry passed when the list is dense and a
/// logarithmic search when it is sparse.
std::size_t seek(const std::vector<FibEntry>& entries, std::size_t from,
                 const Prefix& prefix) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < entries.size() && entries[hi].prefix < prefix;
       step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, entries.size());
  const auto at = std::lower_bound(
      entries.begin() + static_cast<std::ptrdiff_t>(lo),
      entries.begin() + static_cast<std::ptrdiff_t>(hi), prefix,
      [](const FibEntry& e, const Prefix& p) { return e.prefix < p; });
  return static_cast<std::size_t>(at - entries.begin());
}

}  // namespace

void BgpSystem::install_routes() {
  const auto& topo = network_.topology();
  const auto inputs_moved = [&](NodeId r) {
    const InstallInputs& seen = install_inputs_[r.value()];
    const auto& router = topo.router(r);
    if (network_.fib(r).epoch() != seen.fib_epoch || router.up != seen.up ||
        network_.local_address_epoch(r) != seen.local_address_epoch) {
      return true;
    }
    return std::any_of(router.links.begin(), router.links.end(), [&](LinkId link) {
      return topo.link_usable(link) != install_link_usable_[link.value()];
    });
  };

  // One prefix of a domain's pass: its id, whether every router recomputes
  // it, and its candidate egresses as egresses[first, last).
  struct Work {
    PrefixId id;
    bool dirty;
    std::uint32_t first, last;
  };
  std::vector<std::uint8_t> moved;
  std::vector<Work> work;
  std::vector<std::uint32_t> egresses;
  const auto add_work = [&](DomainId domain, PrefixId id, bool is_dirty) {
    const auto first = static_cast<std::uint32_t>(egresses.size());
    gather_egresses(domain, id, egresses);
    const auto last = static_cast<std::uint32_t>(egresses.size());
    if (first != last || is_dirty) work.push_back({id, is_dirty, first, last});
  };
  for (const auto& domain : topo.domains()) {
    auto& dirty = install_dirty_[domain.id.value()];
    moved.assign(domain.routers.size(), 0);
    bool any_moved = false;
    for (std::size_t i = 0; i < domain.routers.size(); ++i) {
      moved[i] = inputs_moved(domain.routers[i]);
      any_moved = any_moved || moved[i];
    }
    const bool any_dirty = !dirty.ids.empty();
    if (!any_dirty && !any_moved) continue;

    // Each prefix's candidates, gathered once, in Prefix order: the dirty
    // prefixes, and when a router moved, every prefix the borders hold.
    work.clear();
    egresses.clear();
    if (any_moved) {
      for (const PrefixId id : ids_by_prefix_) {
        add_work(domain.id, id, id < dirty.flag.size() && dirty.flag[id] != 0);
      }
    } else {
      std::sort(dirty.ids.begin(), dirty.ids.end(),
                [&](PrefixId a, PrefixId b) { return prefixes_[a] < prefixes_[b]; });
      for (const PrefixId id : dirty.ids) add_work(domain.id, id, true);
    }
    for (const PrefixId id : dirty.ids) dirty.flag[id] = 0;
    dirty.ids.clear();

    const std::size_t borders = speakers_of(domain.id).size();
    for (std::size_t i = 0; i < domain.routers.size(); ++i) {
      if (!moved[i] && !any_dirty) continue;
      const NodeId r = domain.routers[i];
      const auto row =
          std::span<BorderHop>(install_rows_[domain.id.value()]).subspan(i * borders, borders);
      if (moved[i]) border_row(r, row);
      // The work list and the Fib are both in Prefix order: one cursor
      // finds each prefix's existing entry. A write lands at the cursor, so
      // the entries before it never shift.
      auto& fib = network_.fib(r);
      const std::size_t size_before = fib.size();
      std::size_t at = 0;
      for (const Work& w : work) {
        if (!moved[i] && !w.dirty) continue;
        const Prefix prefix = prefixes_[w.id];
        const auto& entries = fib.entries();
        at = seek(entries, at, prefix);
        const FibEntry* existing =
            at < entries.size() && entries[at].prefix == prefix ? &entries[at] : nullptr;
        const auto candidates =
            std::span<const std::uint32_t>(egresses).subspan(w.first, w.last - w.first);
        if (const auto entry = install_rule(r, w.id, candidates, row, existing)) {
          if (existing == nullptr || !(*existing == *entry)) fib.insert(*entry);
        } else if (existing != nullptr && existing->origin == RouteOrigin::kBgp) {
          fib.remove(prefix);
        }
      }
      // Inserts grow a table by doubling. After a pass that filled it (the
      // first install of a converging Internet) give back the spare; a
      // pass that moved a few routes keeps it for the next ones.
      if (fib.size() > size_before + size_before / 4) fib.shrink_to_fit();
    }
  }

  for (const auto& router : topo.routers()) {
    install_inputs_[router.id.value()] = {network_.fib(router.id).epoch(),
                                          network_.local_address_epoch(router.id),
                                          router.up};
  }
  for (const auto& link : topo.links()) {
    install_link_usable_[link.id.value()] = topo.link_usable(link.id);
  }
}

void BgpSystem::full_install_pass(
    const std::function<bool(NodeId, std::span<const InstallWant>)>& fn) const {
  // One held prefix: its id and its candidate egresses as egresses[first, last).
  struct Held {
    PrefixId id;
    std::uint32_t first, last;
  };
  std::vector<Held> held;
  std::vector<std::uint32_t> egresses;
  std::vector<BorderHop> row;
  std::vector<InstallWant> wants;
  for (const auto& domain : network_.topology().domains()) {
    held.clear();
    egresses.clear();
    for (const PrefixId id : ids_by_prefix_) {
      const auto first = static_cast<std::uint32_t>(egresses.size());
      gather_egresses(domain.id, id, egresses);
      const auto last = static_cast<std::uint32_t>(egresses.size());
      if (first != last) held.push_back({id, first, last});
    }
    row.resize(speakers_of(domain.id).size());
    for (const NodeId r : domain.routers) {
      border_row(r, row);
      const auto& entries = network_.fib(r).entries();
      wants.clear();
      std::size_t at = 0;
      for (const Held& h : held) {
        const Prefix prefix = prefixes_[h.id];
        at = seek(entries, at, prefix);
        const FibEntry* existing =
            at < entries.size() && entries[at].prefix == prefix ? &entries[at] : nullptr;
        const auto candidates =
            std::span<const std::uint32_t>(egresses).subspan(h.first, h.last - h.first);
        wants.push_back({prefix, install_rule(r, h.id, candidates, row, existing), existing});
      }
      if (!fn(r, wants)) return;
    }
  }
}

}  // namespace evo::bgp
