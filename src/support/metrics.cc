#include "support/metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rigor {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    if (bounds_.empty())
        panic("Histogram: at least one bucket bound required");
    for (size_t i = 1; i < bounds_.size(); ++i)
        if (bounds_[i] <= bounds_[i - 1])
            panic("Histogram: bucket bounds must be strictly "
                  "increasing (%g after %g)",
                  bounds_[i], bounds_[i - 1]);
    counts.assign(bounds_.size() + 1, 0);
}

void
Histogram::observe(double v)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    std::lock_guard<std::mutex> lock(mu);
    ++counts[static_cast<size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += v;
}

uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mu);
    return sum_;
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counts;
}

void
Histogram::restore(const std::vector<uint64_t> &bucket_counts,
                   uint64_t count, double sum)
{
    std::lock_guard<std::mutex> lock(mu);
    if (count_ != 0)
        panic("Histogram::restore: histogram already has "
              "observations");
    if (bucket_counts.size() != counts.size())
        panic("Histogram::restore: %zu bucket counts for %zu buckets",
              bucket_counts.size(), counts.size());
    counts = bucket_counts;
    count_ = count;
    sum_ = sum;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = counters.find(name);
    if (it != counters.end())
        return *it->second;
    if (gauges.count(name) || histograms.count(name))
        panic("metric '%s' already registered with another kind",
              name.c_str());
    return *counters.emplace(name, std::make_unique<Counter>())
                .first->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = gauges.find(name);
    if (it != gauges.end())
        return *it->second;
    if (counters.count(name) || histograms.count(name))
        panic("metric '%s' already registered with another kind",
              name.c_str());
    return *gauges.emplace(name, std::make_unique<Gauge>())
                .first->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = histograms.find(name);
    if (it != histograms.end())
        return *it->second;
    if (counters.count(name) || gauges.count(name))
        panic("metric '%s' already registered with another kind",
              name.c_str());
    return *histograms
                .emplace(name,
                         std::make_unique<Histogram>(
                             std::move(upper_bounds)))
                .first->second;
}

uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
}

Json
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    Json root = Json::object();
    Json cs = Json::object();
    for (const auto &[name, c] : counters)
        cs.set(name, c->value());
    root.set("counters", std::move(cs));

    Json gs = Json::object();
    for (const auto &[name, g] : gauges)
        gs.set(name, g->value());
    root.set("gauges", std::move(gs));

    Json hs = Json::object();
    for (const auto &[name, h] : histograms) {
        Json j = Json::object();
        j.set("count", h->count());
        j.set("sum", h->sum());
        Json buckets = Json::array();
        const auto &bounds = h->bounds();
        const auto counts = h->bucketCounts();
        for (size_t i = 0; i < counts.size(); ++i) {
            Json b = Json::object();
            if (i < bounds.size())
                b.set("le", bounds[i]);
            else
                b.set("le", "+inf");
            b.set("count", counts[i]);
            buckets.push(std::move(b));
        }
        j.set("buckets", std::move(buckets));
        hs.set(name, std::move(j));
    }
    root.set("histograms", std::move(hs));
    return root;
}

void
MetricsRegistry::restoreFromJson(const Json &doc)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!counters.empty() || !gauges.empty() ||
            !histograms.empty())
            panic("MetricsRegistry::restoreFromJson: registry is "
                  "not empty");
    }
    const Json &cs = doc.at("counters");
    for (const auto &name : cs.keys())
        counter(name).inc(
            static_cast<uint64_t>(cs.at(name).asInt()));
    const Json &gs = doc.at("gauges");
    for (const auto &name : gs.keys())
        gauge(name).set(gs.at(name).asDouble());
    const Json &hs = doc.at("histograms");
    for (const auto &name : hs.keys()) {
        const Json &h = hs.at(name);
        const Json &buckets = h.at("buckets");
        std::vector<double> bounds;
        std::vector<uint64_t> counts;
        for (size_t i = 0; i < buckets.size(); ++i) {
            const Json &b = buckets.at(i);
            const Json &le = b.at("le");
            // The "+inf" overflow bucket has no explicit bound.
            if (le.type() != Json::Type::String)
                bounds.push_back(le.asDouble());
            counts.push_back(
                static_cast<uint64_t>(b.at("count").asInt()));
        }
        histogram(name, std::move(bounds))
            .restore(counts, static_cast<uint64_t>(
                                 h.at("count").asInt()),
                     h.at("sum").asDouble());
    }
}

std::vector<double>
MetricsRegistry::exponentialBuckets(double start, double factor,
                                    int count)
{
    if (start <= 0.0 || factor <= 1.0 || count < 1)
        panic("exponentialBuckets(%g, %g, %d): need start > 0, "
              "factor > 1, count >= 1",
              start, factor, count);
    std::vector<double> bounds;
    bounds.reserve(static_cast<size_t>(count));
    double b = start;
    for (int i = 0; i < count; ++i, b *= factor)
        bounds.push_back(b);
    return bounds;
}

} // namespace rigor
