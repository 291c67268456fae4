#include "core/failure_plane.h"

#include <algorithm>
#include <string>

namespace evo::core {

using net::LinkId;
using net::NodeId;

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kLinkDown: return "link-down";
    case FailureKind::kLinkUp: return "link-up";
    case FailureKind::kNodeDown: return "node-down";
    case FailureKind::kNodeUp: return "node-up";
    case FailureKind::kMemberLoss: return "member-loss";
    case FailureKind::kMemberJoin: return "member-join";
  }
  return "?";
}

std::optional<FailureKind> failure_kind_from_string(std::string_view name) {
  for (const auto kind :
       {FailureKind::kLinkDown, FailureKind::kLinkUp, FailureKind::kNodeDown,
        FailureKind::kNodeUp, FailureKind::kMemberLoss, FailureKind::kMemberJoin}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

void apply_event(EvolvableInternet& internet, const FailureEvent& event) {
  switch (event.kind) {
    case FailureKind::kLinkDown:
      internet.set_link_up(LinkId{event.subject}, false);
      break;
    case FailureKind::kLinkUp:
      internet.set_link_up(LinkId{event.subject}, true);
      break;
    case FailureKind::kNodeDown:
      internet.set_node_up(NodeId{event.subject}, false);
      break;
    case FailureKind::kNodeUp:
      internet.set_node_up(NodeId{event.subject}, true);
      break;
    case FailureKind::kMemberLoss:
      internet.undeploy_router(NodeId{event.subject});
      break;
    case FailureKind::kMemberJoin:
      internet.deploy_router(NodeId{event.subject});
      break;
  }
}

FailureSchedule& FailureSchedule::add(sim::TimePoint at, FailureKind kind,
                                      std::uint32_t subject) {
  events_.push_back(FailureEvent{at, kind, subject});
  sorted_ = events_.size() <= 1 ||
            (sorted_ && events_[events_.size() - 2].at <= at);
  return *this;
}

FailureSchedule& FailureSchedule::link_down(sim::TimePoint at, LinkId link) {
  return add(at, FailureKind::kLinkDown, link.value());
}

FailureSchedule& FailureSchedule::link_up(sim::TimePoint at, LinkId link) {
  return add(at, FailureKind::kLinkUp, link.value());
}

FailureSchedule& FailureSchedule::link_flap(sim::TimePoint at, sim::Duration outage,
                                            LinkId link) {
  return link_down(at, link).link_up(at + outage, link);
}

FailureSchedule& FailureSchedule::node_down(sim::TimePoint at, NodeId node) {
  return add(at, FailureKind::kNodeDown, node.value());
}

FailureSchedule& FailureSchedule::node_up(sim::TimePoint at, NodeId node) {
  return add(at, FailureKind::kNodeUp, node.value());
}

FailureSchedule& FailureSchedule::node_crash(sim::TimePoint at, sim::Duration outage,
                                             NodeId node) {
  return node_down(at, node).node_up(at + outage, node);
}

FailureSchedule& FailureSchedule::member_loss(sim::TimePoint at, NodeId router) {
  return add(at, FailureKind::kMemberLoss, router.value());
}

FailureSchedule& FailureSchedule::member_join(sim::TimePoint at, NodeId router) {
  return add(at, FailureKind::kMemberJoin, router.value());
}

const std::vector<FailureEvent>& FailureSchedule::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FailureEvent& a, const FailureEvent& b) {
                       return a.at < b.at;
                     });
    sorted_ = true;
  }
  return events_;
}

FailurePlane::FailurePlane(EvolvableInternet& internet,
                           sim::MetricRegistry& metrics)
    : internet_(internet), metrics_(metrics) {}

void FailurePlane::add_probe(NodeId from, net::Ipv4Addr dst) {
  probes_.push_back(Probe{from, dst});
}

void FailurePlane::arm(FailureSchedule schedule) {
  events_ = schedule.events();
  next_ = 0;
  arm_next();
}

void FailurePlane::arm_next() {
  if (next_ >= events_.size()) return;
  const FailureEvent event = events_[next_++];
  auto& simulator = internet_.simulator();
  // Nominal times in the past (e.g. the previous event reconverged slowly)
  // collapse to "now": order is preserved, spacing is best-effort.
  const sim::TimePoint when = std::max(event.at, simulator.now());
  simulator.schedule_at(when, [this, event] { apply(event); });
}

void FailurePlane::apply(const FailureEvent& event) {
  obs::SpanId span;
  if (auto* recorder = internet_.recorder()) {
    span = recorder->open_span(
        obs::Domain::kFailure, "failure.episode",
        (std::uint64_t{static_cast<std::uint8_t>(event.kind)} << 32) |
            event.subject);
  }
  apply_event(internet_, event);
  ++applied_;
  metrics_.increment("net.failure.events");
  metrics_.increment(std::string("net.failure.events.") + to_string(event.kind));

  // Snapshot the data plane while it is (potentially) broken.
  measure("during");

  await_reconvergence(internet_.simulator().now(), span);
}

void FailurePlane::await_reconvergence(sim::TimePoint hit, obs::SpanId span) {
  // The internet armed its sync first, so it fires first in the batch.
  // If it re-armed (UPDATEs in flight again), wait for the next quiescence.
  internet_.simulator().notify_on_idle([this, hit, span] {
    if (!internet_.synced()) {
      await_reconvergence(hit, span);
      return;
    }
    const sim::Duration took = internet_.simulator().now() - hit;
    metrics_.observe("net.failure.reconverge_ms", took.count_millis());
    if (auto* recorder = internet_.recorder()) {
      recorder->close_span(span,
                           static_cast<std::uint64_t>(took.count_micros()));
    }
    measure("after");
    arm_next();
  });
}

void FailurePlane::measure(const char* phase) {
  if (probes_.empty()) return;
  std::size_t delivered = 0;
  std::int64_t blackholes = 0;
  std::int64_t loops = 0;
  net::Network::TraceResult result;
  for (const Probe& probe : probes_) {
    internet_.network().trace_into(probe.from, probe.dst, 64, result);
    switch (result.outcome) {
      case net::Network::TraceResult::Outcome::kDelivered:
        ++delivered;
        break;
      case net::Network::TraceResult::Outcome::kNoRoute:
      case net::Network::TraceResult::Outcome::kLinkDown:
        ++blackholes;
        break;
      case net::Network::TraceResult::Outcome::kForwardingLoop:
      case net::Network::TraceResult::Outcome::kTtlExpired:
        ++loops;
        break;
    }
  }
  metrics_.observe(std::string("net.failure.") + phase + ".delivery_rate",
                   100.0 * static_cast<double>(delivered) /
                       static_cast<double>(probes_.size()));
  if (blackholes > 0) metrics_.increment("net.failure.blackholes", blackholes);
  if (loops > 0) metrics_.increment("net.failure.loops", loops);
}

}  // namespace evo::core
