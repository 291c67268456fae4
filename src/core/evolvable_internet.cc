#include "core/evolvable_internet.h"

#include <cassert>

namespace evo::core {

using net::DomainId;
using net::LinkId;
using net::NodeId;

const char* to_string(IgpKind kind) {
  switch (kind) {
    case IgpKind::kLinkState: return "link-state";
    case IgpKind::kDistanceVector: return "distance-vector";
    case IgpKind::kDistanceVectorTagged: return "distance-vector-tagged";
  }
  return "?";
}

EvolvableInternet::EvolvableInternet(net::Topology topology, Options options) {
  network_ = std::make_unique<net::Network>(std::move(topology));

  const auto& topo = network_->topology();
  igps_.resize(topo.domain_count());
  for (const auto& domain : topo.domains()) {
    if (options.igp == IgpKind::kLinkState) {
      igps_[domain.id.value()] =
          std::make_unique<igp::LinkStateIgp>(simulator_, *network_, domain.id);
    } else {
      igps_[domain.id.value()] = std::make_unique<igp::DistanceVectorIgp>(
          simulator_, *network_, domain.id,
          options.igp == IgpKind::kDistanceVectorTagged, options.distance_vector);
    }
  }

  bgp_ = std::make_unique<bgp::BgpSystem>(simulator_, *network_, igps_);
  anycast_ = std::make_unique<anycast::AnycastService>(*network_, *bgp_, igps_);
  add_generation(options.vnbone);
}

std::size_t EvolvableInternet::add_generation(vnbone::VnBoneConfig config) {
  vnbones_.push_back(
      std::make_unique<vnbone::VnBone>(*network_, *bgp_, igps_, *anycast_, config));
  host_stacks_.push_back(
      std::make_unique<host::HostStack>(*network_, *vnbones_.back()));
  vnbones_.back()->set_recorder(recorder_);
  return vnbones_.size() - 1;
}

void EvolvableInternet::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  simulator_.set_recorder(recorder);
  network_->set_recorder(recorder);
  bgp_->set_recorder(recorder);
  anycast_->set_recorder(recorder);
  for (auto& igp : igps_) igp->set_recorder(recorder);
  for (auto& vnbone : vnbones_) vnbone->set_recorder(recorder);
}

void EvolvableInternet::open_igp_episode(DomainId domain) {
  if (recorder_ == nullptr) return;
  auto& episode = igp_episodes_[domain.value()];
  if (episode.span.valid()) return;  // already reconverging: coalesce
  episode.messages_at_open = igps_[domain.value()]->messages_sent();
  episode.span =
      recorder_->open_span(obs::Domain::kIgp, "igp.reconvergence", domain.value());
}

void EvolvableInternet::open_bgp_episode(std::uint64_t subject) {
  if (recorder_ == nullptr || bgp_episode_.span.valid()) return;
  bgp_episode_.messages_at_open = bgp_->messages_sent();
  bgp_episode_.span =
      recorder_->open_span(obs::Domain::kBgp, "bgp.update_wave", subject);
}

void EvolvableInternet::close_episodes() {
  if (recorder_ == nullptr) return;
  for (auto& [domain, episode] : igp_episodes_) {
    if (!episode.span.valid()) continue;
    recorder_->close_span(episode.span,
                          igps_[domain]->messages_sent() - episode.messages_at_open);
    episode.span = obs::SpanId{};
  }
  if (bgp_episode_.span.valid()) {
    recorder_->close_span(bgp_episode_.span,
                          bgp_->messages_sent() - bgp_episode_.messages_at_open);
    bgp_episode_.span = obs::SpanId{};
  }
}

void EvolvableInternet::start() {
  assert(!started_);
  started_ = true;
  for (auto& igp : igps_) igp->start();
  bgp_->start();
  converge();
}

void EvolvableInternet::deploy_router(NodeId router) {
  vnbones_.front()->deploy_router(router);
  schedule_control_sync();
}

void EvolvableInternet::deploy_domain(DomainId domain) {
  vnbones_.front()->deploy_domain(domain);
  schedule_control_sync();
}

void EvolvableInternet::undeploy_router(NodeId router) {
  vnbones_.front()->undeploy_router(router);
  schedule_control_sync();
}

std::uint64_t EvolvableInternet::converge() {
  schedule_control_sync();
  return simulator_.run();
}

void EvolvableInternet::notify_link_change(LinkId link) {
  const auto& l = network_->topology().link(link);
  if (l.interdomain) {
    open_bgp_episode(link.value());
    bgp_->on_link_change(link);
  } else {
    const DomainId domain = network_->topology().router(l.a).domain;
    open_igp_episode(domain);
    igps_[domain.value()]->on_link_change(link);
  }
}

void EvolvableInternet::schedule_control_sync() {
  if (!started_ || sync_pending_) return;
  sync_pending_ = true;
  simulator_.notify_on_idle([this] {
    sync_pending_ = false;
    // Sessions and origination track IGP reachability; a change sends
    // UPDATEs, so finish at the next quiescence instead.
    const bool sessions_changed = bgp_->sync_sessions();
    if (anycast_->sync_reachability() || sessions_changed) {
      schedule_control_sync();
      return;
    }
    bgp_->install_routes();
    for (auto& vnbone : vnbones_) vnbone->rebuild();
    close_episodes();
  });
}

bool EvolvableInternet::set_link_up(LinkId link, bool up) {
  if (!network_->topology().set_link_up(link, up)) return false;  // no-op flap
  notify_link_change(link);
  schedule_control_sync();
  return true;
}

bool EvolvableInternet::set_node_up(NodeId node, bool up) {
  if (!network_->topology().set_node_up(node, up)) return false;
  open_bgp_episode(node.value());
  bgp_->on_node_change(node, up);
  // Every administratively-up incident link just changed usability; IGPs
  // (and BGP sessions riding those links) react as if the link flapped.
  for (const LinkId link : network_->topology().router(node).links) {
    if (network_->topology().link(link).up) notify_link_change(link);
  }
  schedule_control_sync();
  return true;
}

}  // namespace evo::core
