#include "checks.h"

#include <sstream>

#include "stats.h"

namespace servebench {

namespace {

CheckResult
result(const char *name, bool ok, const std::string &detail)
{
    return CheckResult{name, ok, detail};
}

} // namespace

CheckResult
checkRerunIdentical(int request, const std::vector<int> &served,
                    const std::vector<int> &alone)
{
    std::ostringstream os;
    os << "request " << request << ": " << served.size() << " served vs "
       << alone.size() << " alone";
    if (served == alone)
        return result("rerun_identical", true, os.str());
    size_t i = 0;
    while (i < served.size() && i < alone.size() && served[i] == alone[i])
        ++i;
    os << ", first difference at token " << i;
    return result("rerun_identical", false, os.str());
}

CheckResult
checkLogitNmse(double nmse_value, double bound)
{
    std::ostringstream os;
    os << "nmse " << nmse_value << " (bound " << bound << ")";
    return result("logit_nmse", nmse_value >= 0.0 && nmse_value < bound,
                  os.str());
}

CheckResult
checkTenderImplicitExplicit(const tender::Matrix &implicit,
                            const tender::Matrix &explicit_ref, double bound)
{
    std::ostringstream os;
    if (implicit.rows() != explicit_ref.rows() ||
        implicit.cols() != explicit_ref.cols()) {
        os << "shape " << implicit.rows() << "x" << implicit.cols()
           << " vs " << explicit_ref.rows() << "x" << explicit_ref.cols();
        return result("tender_implicit_explicit", false, os.str());
    }
    const double e = nmse(explicit_ref.data(), implicit.data());
    os << implicit.rows() << "x" << implicit.cols() << " nmse " << e
       << " (bound " << bound << ")";
    return result("tender_implicit_explicit", e <= bound, os.str());
}

CheckResult
checkStreamCount(int64_t streamed_tokens, int64_t result_tokens)
{
    std::ostringstream os;
    os << streamed_tokens << " streamed vs " << result_tokens
       << " in results";
    return result("stream_count", streamed_tokens == result_tokens,
                  os.str());
}

CheckResult
checkPoolDrained(const tender::BlockAllocator &pool)
{
    const tender::BlockPoolStats s = pool.stats();
    const bool consistent = pool.refcountsConsistent();
    std::ostringstream os;
    os << s.allocatedBlocks << " blocks allocated, " << s.reservedBlocks
       << " reserved, refcounts "
       << (consistent ? "consistent" : "INCONSISTENT");
    return result("pool_drained",
                  s.allocatedBlocks == 0 && s.reservedBlocks == 0 &&
                      consistent,
                  os.str());
}

CheckResult
checkTenderWithinProjections(double tender_us, double projections_us)
{
    std::ostringstream os;
    os << "tender " << tender_us / 1e3 << " ms vs projections "
       << projections_us / 1e3 << " ms";
    return result("tender_within_projections",
                  tender_us >= 0.0 && tender_us <= projections_us, os.str());
}

} // namespace servebench
