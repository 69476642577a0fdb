/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket
 * histograms with near-zero-cost updates and JSON snapshot export.
 *
 * Instrumented code looks its metric up once (a map lookup) and holds
 * a reference; the hot-path update is then a single add on an atomic
 * integer. The registry owns every metric, keeps registration order
 * deterministic (std::map), and serializes to a stable JSON schema so
 * two identical runs produce byte-identical snapshots
 * (see docs/OBSERVABILITY.md for the schema).
 *
 * Thread safety: metric updates are atomic (counters, gauges) or
 * mutex-guarded (histograms), and registry lookups are guarded, so
 * concurrent threads may share one registry. Counter updates commute;
 * a histogram's sum does not (floating-point addition is not
 * associative), so byte-identical snapshots need the observations in
 * a fixed order. The harness gets that order by recording every
 * metric on one committing thread (see harness/runner.hh).
 */

#ifndef RIGOR_SUPPORT_METRICS_HH
#define RIGOR_SUPPORT_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace rigor {

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Add `n` to the counter. */
    void inc(uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return val.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> val{0};
};

/** Last-write-wins scalar (e.g. a high-water mark or a config knob). */
class Gauge
{
  public:
    void set(double v) { val.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return val.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> val{0.0};
};

/**
 * Fixed-bucket histogram. Buckets are defined by their inclusive
 * upper bounds; one implicit overflow bucket (+inf) catches the rest.
 */
class Histogram
{
  public:
    /** @param upper_bounds strictly increasing bucket upper bounds. */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Record one observation. */
    void observe(double v);

    uint64_t count() const;
    double sum() const;
    /** Bucket bounds (immutable after construction; lock-free). */
    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts; back() is the +inf overflow bucket. */
    std::vector<uint64_t> bucketCounts() const;

    /**
     * Overwrite this (empty) histogram's state with
     * checkpointed data: per-bucket counts, total count and the exact
     * partial sum. Later observe() calls continue the very same
     * floating-point accumulation a never-checkpointed histogram
     * would have performed, which is what keeps a resumed run's
     * metrics snapshot byte-identical to an uninterrupted one.
     */
    void restore(const std::vector<uint64_t> &bucket_counts,
                 uint64_t count, double sum);

  private:
    std::vector<double> bounds_;
    mutable std::mutex mu;
    std::vector<uint64_t> counts;  ///< bounds_.size() + 1 entries
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Owner and namespace of all metrics for one process/run. Lookups
 * create the metric on first use; returned references stay valid for
 * the registry's lifetime. Registering the same name as two different
 * metric kinds panics (it is a bug, not an input error).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * Find-or-create a histogram. `upper_bounds` is used only on
     * first registration; later lookups ignore it.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    /** Counter value, or 0 if never registered (for tests/reports). */
    uint64_t counterValue(const std::string &name) const;

    /**
     * Snapshot every metric:
     *   {"counters": {name: value, ...},
     *    "gauges": {name: value, ...},
     *    "histograms": {name: {"count": n, "sum": s,
     *                          "buckets": [{"le": bound|"+inf",
     *                                       "count": n}, ...]}}}
     */
    Json toJson() const;

    /**
     * Rebuild a registry from a toJson() snapshot (resume after a
     * checkpoint). Must be called on a freshly-constructed registry
     * (panics otherwise): counters, gauges and histograms —
     * bucket bounds included — are recreated exactly as dumped, so
     * toJson() of the restored registry reproduces the snapshot byte
     * for byte and further updates continue the original accumulation.
     */
    void restoreFromJson(const Json &doc);

    /**
     * `count` upper bounds starting at `start`, each `factor` times
     * the previous (the standard decades-spanning time buckets).
     */
    static std::vector<double> exponentialBuckets(double start,
                                                  double factor,
                                                  int count);

  private:
    mutable std::mutex mu;  ///< guards the three maps
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

} // namespace rigor

#endif // RIGOR_SUPPORT_METRICS_HH
