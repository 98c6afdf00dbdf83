/**
 * @file
 * Kernel replays for the traced run: the program's own kernels timed in
 * isolation at the shapes a workload serves, next to a large-shape peak
 * for each kernel family. Bytes are computed from tensor sizes (operands
 * read once, result written once), not measured.
 */

#ifndef SERVEBENCH_REPLAY_H
#define SERVEBENCH_REPLAY_H

#include "runtime/decode_engine.h"
#include "workloads.h"

namespace servebench {

struct KernelReplays
{
    double readoutUsPerToken = 0.0;  ///< Vocab::logits + sampleToken
    double weightQuantizeMs = 0.0;   ///< quantizeWeight, one layer's six
    double tenderGmacs = 0.0;        ///< tenderMatmul, one layer, one row
    double tenderPeakGmacs = 0.0;    ///< tenderMatmul, 256 rows x fc1
    double projGemmGflops = 0.0;     ///< fp32 gemm, rows/step x fc1
    double projGemmGbps = 0.0;
    double gemmPeakGflops = 0.0;     ///< fp32 gemm, 256 rows x fc1
    double attnGemmInt8Gops = 0.0;   ///< gemmInt8, decode panel x KV chunk
};

/** `rows_per_step`: the traced phase's mean stacked rows per step (the
 *  projection GEMM's M). */
KernelReplays runReplays(const WorkloadSpec &spec, tender::SyntheticModel &model,
                         const tender::Vocab &vocab, double rows_per_step);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_H
