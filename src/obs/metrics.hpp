// Run observability: thread-safe counters, gauges, histograms and RAII
// scoped timers, cheap enough to live inside phase-1 worker chunks.
//
// Updates go to per-thread shards (registered lazily, found through a
// thread-local cache keyed by a process-unique registry id), so the hot path
// is a plain array write with no atomics and no locks. snapshot()/to_json()
// merge the shards; they must not run concurrently with add()/observe() —
// in practice every parallel producer in this codebase drains through
// util::ThreadPool::parallel_for, whose return gives the merge the required
// happens-before edge. Counters are integers and histogram bucket counts are
// integers, so a merged snapshot is bit-identical for any pool size; only
// wall-clock-valued observations (timers) vary run to run.
//
// Handles (Counter/Gauge/Histogram) are null-safe: a default-constructed
// handle ignores updates, so instrumented code paths need no branching when
// no registry is attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mpleo::obs {

class MetricsRegistry;

// Monotonic event count. add() is safe from any thread.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const;
  [[nodiscard]] explicit operator bool() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::size_t slot) : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t slot_ = 0;
};

// Last-write-wins scalar (e.g. configured wave slots, thread count).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;
  [[nodiscard]] explicit operator bool() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::size_t slot) : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t slot_ = 0;
};

// Bucketed distribution with exact count/min/max/sum. observe() is safe from
// any thread.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;
  [[nodiscard]] explicit operator bool() const noexcept { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::size_t slot) : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t slot_ = 0;
};

// Times a scope with the steady clock and records the elapsed seconds into a
// histogram on destruction (or at stop()). A null histogram still measures
// but records nowhere, keeping call sites branch-free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram) noexcept
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { (void)stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Records now instead of at scope exit; returns the elapsed seconds.
  // Subsequent calls (and the destructor) are no-ops returning 0.
  double stop();

 private:
  Histogram histogram_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

// Merged view of one histogram. bucket_counts[i] counts observations with
// value <= upper_bounds[i]; the final entry (no bound) is the +inf overflow
// bucket, so bucket_counts.size() == upper_bounds.size() + 1 and the bucket
// counts sum to `count`.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;
};

// Shard-merged state of every registered metric, name-sorted per kind.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration: returns a handle for `name`, creating the metric on first
  // use. Registering the same name under two different kinds throws.
  // Registration itself takes a lock — grab handles once per run, outside
  // the hot loops they instrument.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  // Histogram with explicit finite bucket upper bounds (strictly increasing;
  // a +inf overflow bucket is always appended).
  [[nodiscard]] Histogram histogram(std::string_view name, std::vector<double> upper_bounds);
  // Defaults to default_seconds_bounds() — the timer histogram.
  [[nodiscard]] Histogram histogram(std::string_view name);

  [[nodiscard]] bool empty() const;

  // Merges all per-thread shards. Callers must ensure no add()/observe() is
  // concurrently in flight (quiesce the pool first — parallel_for returning
  // is enough).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Convenience over snapshot() for tests and report printers: the merged
  // value of one counter (0 when never registered).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  // Renders the merged snapshot as a JSON object
  //   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  // with two-space indentation; every line after the first is prefixed by
  // `base_indent` spaces so the object can be embedded in a larger document.
  // Keys are name-sorted, so output is deterministic for deterministic
  // metric values.
  [[nodiscard]] std::string to_json(std::size_t base_indent = 0) const;

  // Zeroes every shard and gauge (metric names stay registered). Same
  // quiescence contract as snapshot().
  void reset();

  // Exponential seconds buckets for timer histograms: 1 us .. 100 s.
  [[nodiscard]] static std::vector<double> default_seconds_bounds();
  // Power-of-two-ish buckets for per-step occupancy counts: 1 .. 65536.
  [[nodiscard]] static std::vector<double> default_count_bounds();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;

  void counter_add(std::size_t slot, std::uint64_t delta);
  void gauge_set(std::size_t slot, double value);
  void histogram_observe(std::size_t slot, double value);
  [[nodiscard]] Shard& local_shard();

  // Process-unique id: the thread-local shard cache keys on it, so a cache
  // entry can never alias a destroyed registry that happened to be
  // reallocated at the same address.
  std::uint64_t id_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_values_;
  std::vector<std::string> histogram_names_;
  std::vector<std::vector<double>> histogram_bounds_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

// Escapes `text` for embedding inside a JSON string literal (quotes,
// backslashes, control characters). Shared by MetricsRegistry::to_json and
// mpleo-bench's results writer so every exporter speaks the same schema.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace mpleo::obs
