#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace cisa
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs) {
        panic_if(x <= 0.0, "geomean of non-positive value %f", x);
        s += std::log(x);
    }
    return std::exp(s / double(xs.size()));
}

uint64_t
Log2Histogram::total() const
{
    uint64_t n = 0;
    for (uint64_t c : counts)
        n += c;
    return n;
}

void
Log2Histogram::merge(const Log2Histogram &o)
{
    for (size_t b = 0; b < kBuckets; b++)
        counts[b] += o.counts[b];
}

uint64_t
Log2Histogram::percentile(double p) const
{
    uint64_t n = total();
    if (!n)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    uint64_t rank = uint64_t(double(n - 1) * p) + 1;
    uint64_t seen = 0;
    size_t b = 0;
    while ((seen += counts[b]) < rank)
        b++;
    return uint64_t(1) << b;
}

} // namespace cisa
