/**
 * @file
 * Small statistics helpers: the geometric mean of report tables, and
 * the log2-bucketed histogram behind every latency percentile the
 * service and the datacenter simulator report.
 */

#ifndef CISA_COMMON_STATS_HH
#define CISA_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cisa
{

/** Geometric mean; 0 for an empty set. Values must be positive. */
double geomean(const std::vector<double> &xs);

/**
 * Histogram with power-of-two buckets: bucket i holds samples in
 * [2^(i-1), 2^i) (bucket 0 holds 0), and the last bucket also holds
 * every larger sample. 40 buckets cover ~12 days of microseconds.
 * Two histograms merge exactly by adding buckets, so a percentile of
 * a merge equals the percentile of the union of the samples.
 */
struct Log2Histogram
{
    static constexpr size_t kBuckets = 40;

    std::array<uint64_t, kBuckets> counts{};

    /** Bucket index of sample @p x. */
    static size_t
    bucketOf(uint64_t x)
    {
        return std::min<size_t>(std::bit_width(x), kBuckets - 1);
    }

    void add(uint64_t x) { counts[bucketOf(x)]++; }

    uint64_t total() const;

    /** Add @p o's buckets into this one. */
    void merge(const Log2Histogram &o);

    /** The p-quantile, p clamped to [0, 1]: the upper edge 2^i of the
     * bucket holding the sample of rank floor((n-1)p)+1; 0 when
     * empty. */
    uint64_t percentile(double p) const;

    bool operator==(const Log2Histogram &) const = default;
};

} // namespace cisa

#endif // CISA_COMMON_STATS_HH
