/**
 * @file
 * The benchmark's correctness checks. Each compares the served output with
 * an independent path or a property of the method, never with a stored
 * copy of an earlier output:
 *
 *  - rerun_identical: a request re-run alone (fresh session, unbounded
 *    pool, no prefix cache, no preemption, no speculation) produces the
 *    tokens it was served — the scheduling-, preemption- and
 *    speculation-independence contracts.
 *  - logit_nmse: the served configuration's logits on a fixed probe stay
 *    within an INT8 error bound of a fp32 Serial-backend modelForward.
 *  - tender_implicit_explicit: on (x, w) pairs the served Tender GEMMs
 *    saw, implicit runtime requantization (tenderMatmul) equals explicit
 *    per-group dequantization (tenderMatmulExplicit) up to fp rounding.
 *  - stream_count: tokens delivered by the streaming callbacks equal the
 *    tokens in the retired results.
 *  - pool_drained: after drain and prefix-cache clear, no KV block is
 *    allocated and every refcount is consistent.
 *  - tender_within_projections: in the traced run, time inside the Tender
 *    GEMM decorator does not exceed the projections phase containing it.
 */

#ifndef SERVEBENCH_CHECKS_H
#define SERVEBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/block_allocator.h"
#include "tensor/matrix.h"

namespace servebench {

struct CheckResult
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Logit NMSE bound for INT8 serving: one part in a hundred of the
 *  reference logits' energy. Per-operand 8-bit rounding contributes about
 *  1e-5 each; the bound leaves two orders of magnitude for accumulation
 *  across layers and still fails on any broken quantizer, which lands
 *  near 1. */
constexpr double kInt8LogitNmseBound = 1e-2;

/** Implicit and explicit requantization compute the same sum; they differ
 *  only in fp accumulation order. */
constexpr double kImplicitExplicitNmseBound = 1e-8;

CheckResult checkRerunIdentical(int request, const std::vector<int> &served,
                                const std::vector<int> &alone);

CheckResult checkLogitNmse(double nmse, double bound = kInt8LogitNmseBound);

CheckResult checkTenderImplicitExplicit(
    const tender::Matrix &implicit, const tender::Matrix &explicit_ref,
    double bound = kImplicitExplicitNmseBound);

CheckResult checkStreamCount(int64_t streamed_tokens, int64_t result_tokens);

CheckResult checkPoolDrained(const tender::BlockAllocator &pool);

CheckResult checkTenderWithinProjections(double tender_us,
                                         double projections_us);

} // namespace servebench

#endif // SERVEBENCH_CHECKS_H
