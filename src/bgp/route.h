// BGP route representation and policy attributes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "net/ids.h"
#include "net/topology.h"

namespace evo::bgp {

/// How a route entered the local *domain* (drives Gao-Rexford export and
/// local preference). A route received over iBGP keeps the class it had at
/// the border that learned it — see Route::via_ibgp.
enum class LearnedFrom : std::uint8_t {
  kSelf,      // originated by this domain
  kCustomer,  // learned over a customer session
  kPeer,      // learned over a peer session
  kProvider,  // learned over a provider session
};

const char* to_string(LearnedFrom learned);

/// Standard Gao-Rexford local preference: prefer customer > peer > provider.
constexpr int local_pref_for(LearnedFrom learned) {
  switch (learned) {
    case LearnedFrom::kSelf: return 400;
    case LearnedFrom::kCustomer: return 300;
    case LearnedFrom::kPeer: return 200;
    case LearnedFrom::kProvider: return 100;
  }
  return 0;
}

/// The class of a route learned from a neighbor in relationship `rel`.
constexpr LearnedFrom learned_from(net::Relationship rel) {
  switch (rel) {
    case net::Relationship::kCustomer: return LearnedFrom::kCustomer;
    case net::Relationship::kPeer: return LearnedFrom::kPeer;
    case net::Relationship::kProvider: return LearnedFrom::kProvider;
  }
  return LearnedFrom::kProvider;
}

/// An AS path, nearest first: a read-only handle to one path interned in a
/// PathTable, read as a contiguous range. The table is append-only and
/// never moves a path's storage, so a handle stays valid for the table's
/// lifetime. One table stores each distinct path once, so equal handles
/// share storage and compare in O(1); handles of equal length that do not
/// share it compare element by element (which also keeps handles of two
/// tables comparable by value).
class AsPath {
 public:
  /// A path's index in its table; 0 is the empty path in every table.
  using Id = std::uint32_t;

  AsPath() = default;

  Id id() const { return id_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const net::DomainId* begin() const { return data_; }
  const net::DomainId* end() const { return data_ + size_; }
  auto rbegin() const { return std::make_reverse_iterator(end()); }
  auto rend() const { return std::make_reverse_iterator(begin()); }
  net::DomainId front() const { return data_[0]; }
  net::DomainId back() const { return data_[size_ - 1]; }
  net::DomainId operator[](std::size_t i) const { return data_[i]; }

  friend bool operator==(const AsPath& a, const AsPath& b) {
    if (a.data_ == b.data_ || a.size_ != b.size_) return a.size_ == b.size_;
    return std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  friend class PathTable;
  AsPath(const net::DomainId* data, std::uint32_t size, Id id)
      : data_(data), size_(size), id_(id) {}

  const net::DomainId* data_ = nullptr;
  std::uint32_t size_ = 0;
  Id id_ = 0;
};

/// Append-only table of interned AS paths. Every path is built from the
/// empty path by prepend(), which is memoized on (head, tail id), so each
/// distinct path gets exactly one id and one contiguous copy.
class PathTable {
 public:
  PathTable();

  /// The path with id `id` (which this table returned).
  AsPath get(AsPath::Id id) const { return paths_[id]; }
  /// `head` followed by `tail`, a path of this table.
  AsPath prepend(net::DomainId head, const AsPath& tail);

 private:
  std::vector<AsPath> paths_;  // by id
  std::unordered_map<std::uint64_t, AsPath::Id> by_head_tail_;
  /// Path storage, in chunks that never move; a path never straddles two.
  std::vector<std::unique_ptr<net::DomainId[]>> chunks_;
  std::size_t chunk_used_ = 0;
  std::size_t chunk_capacity_ = 0;
};

struct Route {
  net::Prefix prefix;
  /// AS path, nearest first; back() is the origin domain. A handle into
  /// the owning BgpSystem's path table.
  AsPath as_path;
  /// The local border router holding the eBGP session this route entered
  /// through (== the egress for hot-potato forwarding).
  net::NodeId egress_router;
  /// The remote border router to forward to at the egress.
  net::NodeId ebgp_next_hop;
  /// The inter-domain link at the egress.
  net::LinkId via_link;
  int local_pref = 0;
  LearnedFrom learned = LearnedFrom::kSelf;
  /// True when this copy arrived over iBGP (the egress is a *different*
  /// border router of this domain). `learned` still records how the route
  /// entered the domain, so export policy survives iBGP distribution.
  bool via_ibgp = false;
  /// Community "no-export": receivers keep the route but never propagate
  /// it. Used for the paper's bilateral anycast peering arrangements.
  bool no_export = false;
  /// GIA-style propagation radius carried with the route (see
  /// OriginationPolicy::propagation_ttl); 0 = unlimited.
  std::uint8_t propagation_ttl = 0;
  /// Marks anycast group routes (for state-counting experiments).
  bool anycast = false;

  net::DomainId origin_domain() const {
    return as_path.empty() ? net::DomainId::invalid() : as_path.back();
  }
  bool contains_domain(net::DomainId d) const {
    for (const auto dom : as_path) {
      if (dom == d) return true;
    }
    return false;
  }

  std::string describe() const;

  friend bool operator==(const Route&, const Route&) = default;
};

/// How a locally originated prefix is exported.
struct OriginationPolicy {
  /// When set, export only to these neighbor domains (the paper's "peer
  /// with neighboring domains to advertise their anycast route").
  std::optional<std::set<net::DomainId>> export_scope;
  /// Receivers must not propagate further (bilateral arrangement).
  bool no_export = false;
  /// Stop propagating once the AS path reaches this length (GIA-style
  /// scoped search dissemination: members are visible within a radius,
  /// default routes to the home domain cover the rest). 0 = unlimited.
  std::uint8_t propagation_ttl = 0;
  bool anycast = false;
};

}  // namespace evo::bgp
