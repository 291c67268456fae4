#include "vnbone/bgpvn.h"

#include <algorithm>
#include <cassert>

namespace evo::vnbone {

using net::Cost;
using net::DomainId;
using net::NodeId;

BgpVn::BgpVn(sim::Simulator& simulator, const net::Network& network,
             const VnBone& bone, BgpVnConfig config)
    : simulator_(simulator), network_(network), bone_(bone), config_(config) {}

void BgpVn::restart() {
  speakers_.clear();
  restarted_at_ = simulator_.now();
  last_converged_ = restarted_at_;

  const auto& topo = network_.topology();
  const auto domains = bone_.deployed_domains();
  for (const DomainId d : domains) speakers_.emplace(d, SpeakerState{});

  // Sessions: one per pair of deployed domains joined by an inter-domain
  // virtual link; latency = the tunnel's measured underlay latency
  // (cheapest tunnel when several exist).
  std::map<std::pair<DomainId, DomainId>, sim::Duration> session_latency;
  for (const auto& link : bone_.virtual_links()) {
    if (!link.interdomain) continue;
    const DomainId da = topo.router(link.a).domain;
    const DomainId db = topo.router(link.b).domain;
    if (da == db) continue;
    const auto trace = network_.trace(link.a, topo.router(link.b).loopback);
    const sim::Duration latency =
        trace.delivered() ? trace.latency : sim::Duration::millis(20);
    const auto key = std::minmax(da, db);
    const auto it = session_latency.find({key.first, key.second});
    if (it == session_latency.end() || latency < it->second) {
      session_latency[{key.first, key.second}] = latency;
    }
  }
  for (const auto& [pair, latency] : session_latency) {
    speakers_.at(pair.first).sessions.push_back(Session{pair.second, latency});
    speakers_.at(pair.second).sessions.push_back(Session{pair.first, latency});
  }

  // Originations.
  for (const DomainId d : domains) {
    auto& st = speakers_.at(d);
    VnRoute native;
    native.target = d;
    native.vn_path = {d};
    native.native = true;
    st.originated[{d, true}] = native;
    st.rib_in[{{d, true}, d}] = native;
    decide(d, {d, true});

    if (config_.proxy_advertising) {
      for (const auto& legacy : topo.domains()) {
        if (bone_.domain_deployed(legacy.id)) continue;
        const Cost dist = bone_.legacy_path_length(d, legacy.id);
        if (dist == net::kInfiniteCost) continue;
        VnRoute proxy;
        proxy.target = legacy.id;
        proxy.vn_path = {d};
        proxy.legacy_distance = dist;
        proxy.native = false;
        st.originated[{legacy.id, false}] = proxy;
        st.rib_in[{{legacy.id, false}, d}] = proxy;
        decide(d, {legacy.id, false});
      }
    }
  }
}

bool BgpVn::preferred(const VnRoute& a, const VnRoute& b) {
  if (!a.native) {
    // Proxy family: closest advertised legacy distance wins, then the
    // shorter vN path.
    if (a.legacy_distance != b.legacy_distance) {
      return a.legacy_distance < b.legacy_distance;
    }
  }
  if (a.vn_path.size() != b.vn_path.size()) {
    return a.vn_path.size() < b.vn_path.size();
  }
  // Deterministic tiebreak on the first hop.
  const DomainId an = a.vn_path.empty() ? DomainId::invalid() : a.vn_path.front();
  const DomainId bn = b.vn_path.empty() ? DomainId::invalid() : b.vn_path.front();
  return an < bn;
}

void BgpVn::decide(DomainId domain, RouteKey key) {
  auto& st = speakers_.at(domain);
  const VnRoute* best = nullptr;
  for (auto it = st.rib_in.lower_bound({key, DomainId{0}});
       it != st.rib_in.end() && it->first.first == key; ++it) {
    if (best == nullptr || preferred(it->second, *best)) best = &it->second;
  }
  const auto current = st.rib.find(key);
  const bool had = current != st.rib.end();
  if (best == nullptr) {
    if (!had) return;
    st.rib.erase(current);
  } else {
    if (had && current->second.vn_path == best->vn_path &&
        current->second.legacy_distance == best->legacy_distance) {
      return;
    }
    st.rib[key] = *best;
  }
  st.dirty.push_back(key);
  schedule_send(domain);
}

void BgpVn::schedule_send(DomainId domain) {
  auto& st = speakers_.at(domain);
  if (st.send_pending) return;
  st.send_pending = true;
  simulator_.schedule_after(kVnUpdateDelay, [this, domain] {
    // The speaker set may have been rebuilt since; ignore stale timers.
    const auto it = speakers_.find(domain);
    if (it == speakers_.end()) return;
    it->second.send_pending = false;
    flush(domain);
  });
}

void BgpVn::flush(DomainId domain) {
  auto& st = speakers_.at(domain);
  const auto dirty = std::move(st.dirty);
  st.dirty.clear();
  for (const RouteKey& key : dirty) {
    const auto best = st.rib.find(key);
    if (best == st.rib.end()) continue;  // withdrawals elided: restart() rebuilds
    for (const Session& session : st.sessions) {
      // Path-vector split horizon: never advertise back along the path.
      if (std::find(best->second.vn_path.begin(), best->second.vn_path.end(),
                    session.peer) != best->second.vn_path.end()) {
        continue;
      }
      VnRoute advertised = best->second;
      // Prepend ourselves unless we are the origin (self routes already
      // carry {domain}).
      if (advertised.vn_path.empty() || advertised.vn_path.front() != domain) {
        advertised.vn_path.insert(advertised.vn_path.begin(), domain);
      }
      ++messages_sent_;
      simulator_.schedule_after(
          session.latency, [this, peer = session.peer, from = domain, advertised] {
            receive(peer, from, advertised);
          });
    }
  }
  last_converged_ = simulator_.now();
}

void BgpVn::receive(DomainId local, DomainId from, VnRoute route) {
  const auto it = speakers_.find(local);
  if (it == speakers_.end()) return;  // rebuilt mid-flight
  auto& st = it->second;
  // Loop prevention.
  if (std::find(route.vn_path.begin(), route.vn_path.end(), local) !=
      route.vn_path.end()) {
    return;
  }
  // The path as seen locally starts at `from`... it already does: flush
  // prepended the sender.
  const RouteKey key{route.target, route.native};
  st.rib_in[{key, from}] = route;
  decide(local, key);
  last_converged_ = simulator_.now();
}

const VnRoute* BgpVn::best_native(DomainId domain, DomainId target) const {
  const auto sp = speakers_.find(domain);
  if (sp == speakers_.end()) return nullptr;
  const auto it = sp->second.rib.find({target, true});
  return it == sp->second.rib.end() ? nullptr : &it->second;
}

const VnRoute* BgpVn::best_proxy(DomainId domain, DomainId target) const {
  const auto sp = speakers_.find(domain);
  if (sp == speakers_.end()) return nullptr;
  const auto it = sp->second.rib.find({target, false});
  return it == sp->second.rib.end() ? nullptr : &it->second;
}

std::size_t BgpVn::rib_size(DomainId domain) const {
  const auto sp = speakers_.find(domain);
  return sp == speakers_.end() ? 0 : sp->second.rib.size();
}

}  // namespace evo::vnbone
