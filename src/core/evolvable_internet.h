// The paper's synthesis, assembled: one object wiring every substrate —
// simulator, data plane, per-domain IGPs, BGP, the anycast service, the
// vN-Bone, and host stacks — with a deployment API that models gradual,
// partial, incentive-driven rollout of IPvN (assumptions A1-A4).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "anycast/anycast.h"
#include "bgp/bgp.h"
#include "host/endhost.h"
#include "igp/distance_vector.h"
#include "igp/igp.h"
#include "igp/link_state.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "vnbone/vnbone.h"

namespace evo::core {

enum class IgpKind : std::uint8_t {
  kLinkState,              // OSPF-shaped; anycast member discovery built in
  kDistanceVector,         // RIP-shaped; no member discovery (paper's caveat)
  kDistanceVectorTagged,   // RIP + tagged advertisements => discovery
};

const char* to_string(IgpKind kind);

struct Options {
  IgpKind igp = IgpKind::kLinkState;
  igp::LinkStateConfig link_state{};
  igp::DistanceVectorConfig distance_vector{};
  vnbone::VnBoneConfig vnbone{};
};

class EvolvableInternet {
 public:
  explicit EvolvableInternet(net::Topology topology, Options options = {});

  // Non-copyable/movable: internal components hold references to each
  // other.
  EvolvableInternet(const EvolvableInternet&) = delete;
  EvolvableInternet& operator=(const EvolvableInternet&) = delete;

  /// Start the control plane (IGPs + BGP) and converge the base
  /// (pre-IPvN) Internet.
  void start();

  /// Deploy IPvN on one router / a whole domain. Call converge()
  /// afterwards (deployments may be batched). These operate on the
  /// primary generation (index 0).
  void deploy_router(net::NodeId router);
  void deploy_domain(net::DomainId domain);
  void undeploy_router(net::NodeId router);

  /// Launch an additional concurrent IP generation (§3.2: "the number of
  /// simultaneous attempts to deploy different IP versions is likely to
  /// be very small (ideally one)"). Each generation gets its own vN-Bone,
  /// anycast group, and host stack; all share the substrate. Returns the
  /// new generation's index.
  std::size_t add_generation(vnbone::VnBoneConfig config);
  std::size_t generation_count() const { return vnbones_.size(); }
  vnbone::VnBone& generation(std::size_t index) { return *vnbones_[index]; }
  const vnbone::VnBone& generation(std::size_t index) const {
    return *vnbones_[index];
  }
  host::HostStack& generation_hosts(std::size_t index) { return *host_stacks_[index]; }
  const host::HostStack& generation_hosts(std::size_t index) const {
    return *host_stacks_[index];
  }

  /// Run the simulator to quiescence, install BGP routes into FIBs, and
  /// rebuild the vN-Bone. Returns events processed.
  std::uint64_t converge();

  /// Inject a link state change and propagate it to every protocol (IGP or
  /// BGP as appropriate). Also arms a coalesced control-plane sync at the
  /// next simulator quiescence, so BGP FIB installation and vN-Bone
  /// rebuild happen automatically — no manual converge()/rebuild() needed
  /// (run the simulator to let reconvergence play out). Returns false for
  /// a no-op flap (state unchanged: nothing notified).
  bool set_link_up(net::LinkId link, bool up);

  /// Crash (up=false) or recover (up=true) a router: BGP tears down /
  /// re-establishes its sessions, IGPs see every incident link become
  /// unusable/usable, and the vN-Bone drops/readmits the member at the
  /// next sync. Returns false when the state did not change.
  bool set_node_up(net::NodeId node, bool up);

  // --- accessors -----------------------------------------------------------
  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return *network_; }
  const net::Network& network() const { return *network_; }
  const net::Topology& topology() const { return network_->topology(); }
  igp::Igp* igp(net::DomainId domain) { return igps_[domain.value()].get(); }
  const igp::Igp* igp(net::DomainId domain) const {
    return igps_[domain.value()].get();
  }
  bgp::BgpSystem& bgp() { return *bgp_; }
  const bgp::BgpSystem& bgp() const { return *bgp_; }
  anycast::AnycastService& anycast() { return *anycast_; }
  const anycast::AnycastService& anycast() const { return *anycast_; }
  /// The primary generation's vN-Bone / host stack.
  vnbone::VnBone& vnbone() { return *vnbones_.front(); }
  const vnbone::VnBone& vnbone() const { return *vnbones_.front(); }
  host::HostStack& hosts() { return *host_stacks_.front(); }
  const host::HostStack& hosts() const { return *host_stacks_.front(); }
  const Options& options() const { return options_; }

  /// Attach (or detach, with nullptr) a telemetry recorder to every
  /// component: simulator queue, FIB compiler, IGPs, BGP, anycast, and all
  /// vN-Bone generations. Control-plane episodes (IGP reconvergence per
  /// domain, BGP update waves) become spans carrying message-count deltas,
  /// opened when a change is injected and closed at the next quiescence.
  void set_recorder(obs::Recorder* recorder);
  obs::Recorder* recorder() { return recorder_; }

 private:
  /// The IGP lookup handed to BGP, anycast and every vN-Bone: nullptr for
  /// a domain outside the topology.
  std::function<igp::Igp*(net::DomainId)> igp_accessor();

  /// Route a link-state change to the protocol that owns the link.
  void notify_link_change(net::LinkId link);

  /// Episode spans: opened lazily on the first disturbance, closed (with
  /// the protocol's messages_sent delta) at the next quiescent sync.
  struct Episode {
    obs::SpanId span;
    std::uint64_t messages_at_open = 0;
  };
  void open_igp_episode(net::DomainId domain);
  void open_bgp_episode(std::uint64_t subject);
  void close_episodes();

  /// Bring iBGP sessions and anycast origination in line with the
  /// converged IGPs; true when either changed (UPDATEs are in flight).
  bool sync_with_igp();

  /// Arm a one-shot control-plane sync (BGP route installation + vN-Bone
  /// rebuilds) at the next simulator quiescence; coalesces repeat calls.
  void schedule_control_sync();
  /// The tail of every control-plane sync: install BGP routes, rebuild
  /// every vN-Bone generation and close the episode spans.
  void finish_sync();

  Options options_;
  sim::Simulator simulator_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<igp::Igp>> igps_;  // indexed by DomainId
  std::unique_ptr<bgp::BgpSystem> bgp_;
  std::unique_ptr<anycast::AnycastService> anycast_;
  std::vector<std::unique_ptr<vnbone::VnBone>> vnbones_;
  std::vector<std::unique_ptr<host::HostStack>> host_stacks_;
  obs::Recorder* recorder_ = nullptr;
  std::map<std::uint32_t, Episode> igp_episodes_;  // by DomainId value
  Episode bgp_episode_;
  bool started_ = false;
  bool sync_pending_ = false;
};

}  // namespace evo::core
