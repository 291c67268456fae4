// Metric accumulators used by experiments and benchmarks.
//
// Summary keeps every sample so exact percentiles can be reported; the
// experiment scales here (<= millions of samples) make that affordable and
// it avoids quantile-sketch approximation error in reported results. The
// samples live in fixed-size blocks (a deque), so growing never holds an
// old and a new copy at once: a contiguous vector's regrowth doubles the
// resident size of a million-sample summary for the length of the copy,
// which makes a process's peak memory a step function of its sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace evo::sim {

/// Online accumulation of scalar samples with exact percentile queries.
class Summary {
 public:
  void add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

  /// Exact percentile via nearest-rank; p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// The samples in their current order (sorted once a percentile was read).
  std::vector<double> samples() const { return {samples_.begin(), samples_.end()}; }

  /// Append every sample of `other` (in its current order) to this summary.
  void append(const Summary& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

  /// "n=5 mean=2.1 p50=2.0 p95=4.0 p99=4.0 max=4.0". Sweep tails are the
  /// interesting part under failure injection, hence p99 alongside p95.
  std::string brief() const;

 private:
  void ensure_sorted() const;

  mutable std::deque<double> samples_;
  mutable bool sorted_ = false;
};

/// Named counters + summaries; the shared scoreboard for an experiment run.
class MetricRegistry {
 public:
  void increment(const std::string& name, std::int64_t by = 1) {
    counters_[name] += by;
  }
  std::int64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  Summary& summary(const std::string& name) { return summaries_[name]; }
  const Summary* find_summary(const std::string& name) const {
    auto it = summaries_.find(name);
    return it == summaries_.end() ? nullptr : &it->second;
  }

  void observe(const std::string& name, double sample) {
    summaries_[name].add(sample);
  }

  const std::map<std::string, std::int64_t>& counters() const { return counters_; }

  /// Fold `other` into this registry: counters are summed, summary samples
  /// appended. Used to merge per-cell registries of a parallel sweep.
  void merge_from(const MetricRegistry& other) {
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
    for (const auto& [name, summary] : other.summaries_) {
      summaries_[name].append(summary);
    }
  }

  void clear() {
    counters_.clear();
    summaries_.clear();
  }

  /// Multi-line human-readable dump of all metrics.
  std::string report() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace evo::sim
