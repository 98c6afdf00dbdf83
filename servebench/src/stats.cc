#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace servebench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("quantile of an empty sample");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("quantile outside [0, 1]");
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
nmse(const std::vector<float> &ref, const std::vector<float> &a)
{
    if (ref.size() != a.size())
        throw std::invalid_argument("nmse of different-sized tensors");
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double d = double(a[i]) - double(ref[i]);
        num += d * d;
        den += double(ref[i]) * double(ref[i]);
    }
    if (den == 0.0)
        throw std::invalid_argument("nmse against an all-zero reference");
    return num / den;
}

} // namespace servebench
