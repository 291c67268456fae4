#include "check/replay.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace evo::check {

namespace {

std::string format_double(double value) {
  char buffer[64];
  // max_digits10 for double: round-trips exactly through parse.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::optional<core::IgpKind> igp_from_string(std::string_view name) {
  for (const auto kind :
       {core::IgpKind::kLinkState, core::IgpKind::kDistanceVector,
        core::IgpKind::kDistanceVectorTagged}) {
    if (name == core::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<anycast::InterDomainMode> anycast_from_string(std::string_view name) {
  for (const auto mode :
       {anycast::InterDomainMode::kGlobalRoutes,
        anycast::InterDomainMode::kDefaultRoute, anycast::InterDomainMode::kGia}) {
    if (name == anycast::to_string(mode)) return mode;
  }
  return std::nullopt;
}

std::optional<vnbone::EgressMode> egress_from_string(std::string_view name) {
  for (const auto mode :
       {vnbone::EgressMode::kExitAtIngress, vnbone::EgressMode::kOwnPathKnowledge,
        vnbone::EgressMode::kProxyAdvertising,
        vnbone::EgressMode::kEndhostAdvertised}) {
    if (name == vnbone::to_string(mode)) return mode;
  }
  return std::nullopt;
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Split "key=value"; returns false when '=' is missing.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  int base = 10;
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
    base = 16;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, base);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, wide) || wide > 0xFFFFFFFFULL) return false;
  out = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double& out) {
  // std::from_chars for double is unreliable across standard libraries;
  // strtod on a NUL-terminated copy is portable and exact.
  const std::string copy(text);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

}  // namespace

std::string format_replay(const ScenarioPlan& plan) {
  std::ostringstream out;
  char seed[32];
  std::snprintf(seed, sizeof(seed), "0x%" PRIx64, plan.seed);
  out << "# evo_check replay v1\n";
  out << "seed " << seed << "\n";
  out << "break " << to_string(plan.breakage) << "\n";
  out << "budget " << plan.convergence_budget << "\n";
  out << "igp " << core::to_string(plan.igp) << "\n";
  out << "anycast " << anycast::to_string(plan.anycast_mode) << "\n";
  out << "vnbone k=" << plan.k_neighbors
      << " egress=" << vnbone::to_string(plan.egress_mode) << "\n";
  char topo_seed[32];
  std::snprintf(topo_seed, sizeof(topo_seed), "0x%" PRIx64, plan.topology.seed);
  out << "topology transit=" << plan.topology.transit_domains
      << " stubs=" << plan.topology.stubs_per_transit
      << " transit_routers=" << plan.topology.transit_internal.routers
      << " transit_chord="
      << format_double(plan.topology.transit_internal.chord_probability)
      << " stub_routers=" << plan.topology.stub_internal.routers
      << " stub_chord="
      << format_double(plan.topology.stub_internal.chord_probability)
      << " peering="
      << format_double(plan.topology.extra_transit_peering_probability)
      << " multihoming=" << format_double(plan.topology.multihoming_probability)
      << " waxman=" << (plan.topology.waxman_interiors ? 1 : 0)
      << " topo_seed=" << topo_seed << "\n";
  for (const auto router : plan.initial_deployment) {
    out << "deploy " << router.value() << "\n";
  }
  for (const auto& event : plan.events) {
    out << "event " << event.at.count_micros() << " "
        << core::to_string(event.kind) << " " << event.subject << "\n";
  }
  return out.str();
}

ParsedReplay parse_replay(std::string_view text) {
  ParsedReplay parsed;
  ScenarioPlan& plan = parsed.plan;
  std::size_t line_number = 0;
  const auto fail = [&](const std::string& what) {
    parsed.error = "line " + std::to_string(line_number) + ": " + what;
  };

  std::size_t pos = 0;
  std::size_t directives = 0;
  while (pos <= text.size() && parsed.error.empty()) {
    const auto newline = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, newline == std::string_view::npos ? text.size() - pos : newline - pos);
    pos = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    ++directives;
    const std::string_view key = tokens.front();

    if (key == "seed" && tokens.size() == 2) {
      if (!parse_u64(tokens[1], plan.seed)) fail("bad seed");
    } else if (key == "break" && tokens.size() == 2) {
      if (const auto b = breakage_from_string(tokens[1])) {
        plan.breakage = *b;
      } else {
        fail("unknown breakage '" + std::string(tokens[1]) + "'");
      }
    } else if (key == "budget" && tokens.size() == 2) {
      if (!parse_u64(tokens[1], plan.convergence_budget)) fail("bad budget");
    } else if (key == "igp" && tokens.size() == 2) {
      if (const auto kind = igp_from_string(tokens[1])) {
        plan.igp = *kind;
      } else {
        fail("unknown igp '" + std::string(tokens[1]) + "'");
      }
    } else if (key == "anycast" && tokens.size() == 2) {
      if (const auto mode = anycast_from_string(tokens[1])) {
        plan.anycast_mode = *mode;
      } else {
        fail("unknown anycast mode '" + std::string(tokens[1]) + "'");
      }
    } else if (key == "vnbone") {
      for (std::size_t i = 1; i < tokens.size() && parsed.error.empty(); ++i) {
        std::string_view k, v;
        if (!split_kv(tokens[i], k, v)) {
          fail("vnbone expects key=value pairs");
        } else if (k == "k") {
          if (!parse_u32(v, plan.k_neighbors)) fail("bad k");
        } else if (k == "egress") {
          if (const auto mode = egress_from_string(v)) {
            plan.egress_mode = *mode;
          } else {
            fail("unknown egress mode '" + std::string(v) + "'");
          }
        } else {
          fail("unknown vnbone key '" + std::string(k) + "'");
        }
      }
    } else if (key == "topology") {
      auto& topo = plan.topology;
      for (std::size_t i = 1; i < tokens.size() && parsed.error.empty(); ++i) {
        std::string_view k, v;
        bool ok = split_kv(tokens[i], k, v);
        if (!ok) {
          fail("topology expects key=value pairs");
          break;
        }
        std::uint32_t waxman = 0;
        if (k == "transit") ok = parse_u32(v, topo.transit_domains);
        else if (k == "stubs") ok = parse_u32(v, topo.stubs_per_transit);
        else if (k == "transit_routers") ok = parse_u32(v, topo.transit_internal.routers);
        else if (k == "transit_chord") ok = parse_double(v, topo.transit_internal.chord_probability);
        else if (k == "stub_routers") ok = parse_u32(v, topo.stub_internal.routers);
        else if (k == "stub_chord") ok = parse_double(v, topo.stub_internal.chord_probability);
        else if (k == "peering") ok = parse_double(v, topo.extra_transit_peering_probability);
        else if (k == "multihoming") ok = parse_double(v, topo.multihoming_probability);
        else if (k == "topo_seed") ok = parse_u64(v, topo.seed);
        else if (k == "waxman") {
          ok = parse_u32(v, waxman);
          topo.waxman_interiors = waxman != 0;
        } else {
          fail("unknown topology key '" + std::string(k) + "'");
          break;
        }
        if (!ok) fail("bad topology value for '" + std::string(k) + "'");
      }
      if (!parsed.error.empty()) continue;
      // What the address plan (net::Topology) can number.
      const auto numbered = [](std::uint32_t routers) {
        return routers >= 1 && routers <= net::Topology::kMaxRoutersPerDomain;
      };
      const std::uint64_t domains = std::uint64_t{topo.transit_domains} *
                                    (1 + std::uint64_t{topo.stubs_per_transit});
      if (!numbered(topo.transit_internal.routers) ||
          !numbered(topo.stub_internal.routers)) {
        fail("transit_routers and stub_routers must be in 1.." +
             std::to_string(net::Topology::kMaxRoutersPerDomain));
      } else if (domains > net::Topology::kMaxDomains) {
        fail("more domains than the address plan numbers");
      }
    } else if (key == "deploy" && tokens.size() == 2) {
      std::uint32_t router = 0;
      if (!parse_u32(tokens[1], router)) {
        fail("bad deploy router id");
      } else {
        plan.initial_deployment.push_back(net::NodeId{router});
      }
    } else if (key == "event" && tokens.size() == 4) {
      std::int64_t at_micros = 0;
      std::uint32_t subject = 0;
      const auto kind = core::failure_kind_from_string(tokens[2]);
      if (!parse_i64(tokens[1], at_micros)) {
        fail("bad event time");
      } else if (!kind) {
        fail("unknown event kind '" + std::string(tokens[2]) + "'");
      } else if (!parse_u32(tokens[3], subject)) {
        fail("bad event subject");
      } else {
        plan.events.push_back(
            {sim::TimePoint{at_micros}, *kind, subject});
      }
    } else {
      fail("unrecognized line starting with '" + std::string(key) + "'");
    }
  }
  if (parsed.error.empty() && directives == 0) {
    // A truncated or empty file must not silently become the default plan.
    parsed.error = "no directives found";
  }
  return parsed;
}

std::string write_replay_file(const std::string& path, const ScenarioPlan& plan) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return "cannot open " + path + " for writing";
  out << format_replay(plan);
  out.close();
  return out ? std::string{} : "failed writing " + path;
}

ParsedReplay load_replay_file(const std::string& path) {
  std::ifstream in(path);
  ParsedReplay parsed;
  if (!in) {
    parsed.error = "cannot open " + path;
    return parsed;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_replay(buffer.str());
}

}  // namespace evo::check
