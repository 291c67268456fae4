#include "redirect/provider_select.h"

#include <cassert>

namespace evo::redirect {

using net::DomainId;
using net::GroupId;
using net::HostId;
using net::NodeId;

ProviderSelect::ProviderSelect(core::EvolvableInternet& internet)
    : internet_(internet) {}

GroupId ProviderSelect::enable_provider(DomainId provider) {
  assert(!groups_.contains(provider) && "provider already enabled");
  assert(internet_.vnbone().domain_deployed(provider) &&
         "provider has no deployed routers to terminate its address");
  anycast::GroupConfig config;
  // A provider-rooted address: default routes naturally pull traffic to
  // the provider itself, and only its routers are members, so packets to
  // this address always land with the chosen provider.
  config.mode = anycast::InterDomainMode::kDefaultRoute;
  config.default_domain = provider;
  const GroupId group = internet_.anycast().create_group(config);
  groups_.emplace(provider, group);
  refresh_provider(provider);
  return group;
}

void ProviderSelect::refresh_provider(DomainId provider) {
  const auto it = groups_.find(provider);
  assert(it != groups_.end() && "provider not enabled");
  const GroupId group = it->second;
  // Enroll exactly the provider's currently deployed routers.
  const auto current = internet_.anycast().group(group).members;
  for (const NodeId member : current) {
    if (!internet_.vnbone().deployed(member)) {
      internet_.anycast().remove_member(group, member);
    }
  }
  for (const NodeId router : internet_.vnbone().deployed_routers_in(provider)) {
    internet_.anycast().add_member(group, router);
  }
}

std::optional<net::Ipv4Addr> ProviderSelect::provider_address(
    DomainId provider) const {
  const auto it = groups_.find(provider);
  if (it == groups_.end()) return std::nullopt;
  return internet_.anycast().group(it->second).address;
}

core::EndToEndTrace send_ipvn_via_provider(const core::EvolvableInternet& internet,
                                           const ProviderSelect& select,
                                           DomainId provider, HostId src,
                                           HostId dst,
                                           std::optional<vnbone::EgressMode> mode) {
  const auto address = select.provider_address(provider);
  if (!address) {
    core::EndToEndTrace result;
    result.failure = core::EndToEndTrace::Failure::kNoDeployment;
    return result;
  }
  // The datagram must land with the chosen provider, on a deployed router.
  return core::send_via_ingress(
      internet, src, dst, *address,
      [&internet, provider](NodeId at) {
        return internet.topology().router(at).domain == provider &&
               internet.vnbone().deployed(at);
      },
      mode);
}

}  // namespace evo::redirect
