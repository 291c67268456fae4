#include "net/fib.h"

#include <algorithm>
#include <bit>

namespace evo::net {

const char* to_string(RouteOrigin origin) {
  switch (origin) {
    case RouteOrigin::kConnected: return "connected";
    case RouteOrigin::kIgp: return "igp";
    case RouteOrigin::kBgp: return "bgp";
    case RouteOrigin::kAnycast: return "anycast";
    case RouteOrigin::kStatic: return "static";
  }
  return "?";
}

namespace {

/// Prefix order as one integer: address, then length.
std::uint64_t order_key(const Prefix& p) {
  return (std::uint64_t{p.address().bits()} << 8) | p.length();
}

/// Index of the first entry not below `prefix`. Branchless (the comparison
/// becomes a conditional move, so random probes cost no mispredicts): base
/// ends on the last entry below `prefix`, or on the first entry.
std::size_t first_not_below(const std::vector<FibEntry>& entries, const Prefix& prefix) {
  if (entries.empty()) return 0;
  const std::uint64_t key = order_key(prefix);
  const FibEntry* base = entries.data();
  for (std::size_t n = entries.size(); n > 1;) {
    const std::size_t half = n / 2;
    base += order_key(base[half].prefix) < key ? half : 0;
    n -= half;
  }
  return static_cast<std::size_t>(base - entries.data()) + (order_key(base->prefix) < key);
}

}  // namespace

void Fib::insert(const FibEntry& entry) {
  const auto it = entries_.begin() +
                  static_cast<std::ptrdiff_t>(first_not_below(entries_, entry.prefix));
  if (it != entries_.end() && it->prefix == entry.prefix) {
    if (*it == entry) return;  // no-op: keep the epoch
    *it = entry;
  } else {
    entries_.insert(it, entry);
    lengths_ |= std::uint64_t{1} << entry.prefix.length();
  }
  ++epoch_;
}

bool Fib::remove(const Prefix& prefix) {
  const auto it =
      entries_.begin() + static_cast<std::ptrdiff_t>(first_not_below(entries_, prefix));
  if (it == entries_.end() || it->prefix != prefix) return false;
  entries_.erase(it);
  ++epoch_;
  return true;
}

std::size_t Fib::remove_origin(RouteOrigin origin) {
  const std::size_t removed =
      std::erase_if(entries_, [&](const FibEntry& e) { return e.origin == origin; });
  if (removed > 0) {
    recount_lengths();
    ++epoch_;
  }
  return removed;
}

void Fib::replace_origins(std::initializer_list<RouteOrigin> origins,
                          std::span<const FibEntry> entries) {
  const auto in_set = [&](const FibEntry& e) {
    return std::find(origins.begin(), origins.end(), e.origin) != origins.end();
  };

  // Desired table for these origins, sorted by prefix; a later duplicate
  // prefix wins, exactly as repeated insert() calls would behave.
  std::vector<FibEntry> desired(entries.begin(), entries.end());
  std::stable_sort(desired.begin(), desired.end(),
                   [](const FibEntry& a, const FibEntry& b) { return a.prefix < b.prefix; });
  const auto last_wins = std::unique(
      desired.rbegin(), desired.rend(),
      [](const FibEntry& a, const FibEntry& b) { return a.prefix == b.prefix; });
  desired.erase(desired.begin(), last_wins.base());

  // No-op detection: when the entries of these origins already equal
  // `desired`, leave the table and the epoch, so compiled state stays valid.
  auto want = desired.begin();
  bool identical = true;
  for (const FibEntry& e : entries_) {
    if (!in_set(e)) continue;
    if (want == desired.end() || !(*want == e)) {
      identical = false;
      break;
    }
    ++want;
  }
  if (identical && want == desired.end()) return;

  // Merge: keep the other origins' entries except where `desired` names the
  // same prefix (insert() would have replaced them).
  std::vector<FibEntry> merged;
  merged.reserve(entries_.size() + desired.size());
  want = desired.begin();
  for (const FibEntry& e : entries_) {
    if (in_set(e)) continue;
    while (want != desired.end() && want->prefix < e.prefix) merged.push_back(*want++);
    if (want != desired.end() && want->prefix == e.prefix) continue;
    merged.push_back(e);
  }
  merged.insert(merged.end(), want, desired.end());
  entries_ = std::move(merged);
  recount_lengths();
  ++epoch_;
}

const FibEntry* Fib::lookup(Ipv4Addr addr) const {
  for (std::uint64_t lengths = lengths_; lengths != 0;) {
    const unsigned length = 63 - static_cast<unsigned>(std::countl_zero(lengths));
    lengths &= ~(std::uint64_t{1} << length);
    if (const FibEntry* e = find(Prefix{addr, static_cast<std::uint8_t>(length)})) {
      return e;
    }
  }
  return nullptr;
}

const FibEntry* Fib::find(const Prefix& prefix) const {
  const std::size_t at = first_not_below(entries_, prefix);
  return at < entries_.size() && entries_[at].prefix == prefix ? &entries_[at] : nullptr;
}

std::size_t Fib::size_with_origin(RouteOrigin origin) const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [&](const FibEntry& e) { return e.origin == origin; }));
}

void Fib::clear() {
  if (!entries_.empty()) ++epoch_;
  entries_.clear();
  recount_lengths();
}

void Fib::recount_lengths() {
  lengths_ = 0;
  for (const FibEntry& e : entries_) lengths_ |= std::uint64_t{1} << e.prefix.length();
}

std::string Fib::dump() const {
  std::string out;
  for (const auto& e : entries_) {
    out += e.prefix.to_string();
    out += " -> ";
    out += e.next_hop.valid() ? ("node " + std::to_string(e.next_hop.value()))
                              : std::string("local");
    out += " (";
    out += to_string(e.origin);
    out += ", metric ";
    out += std::to_string(e.metric);
    out += ")\n";
  }
  return out;
}

}  // namespace evo::net
