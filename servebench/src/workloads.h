/**
 * @file
 * The benchmark's workloads: model shape, serving configuration, and the
 * seeded generator of the requests a run submits.
 *
 * Each workload puts most of its time in a different layer (README.md has
 * the full rationale and the per-layer metric each should move):
 *  - tender_weights_decode: closed batches of greedy requests on the
 *    OPT-6.7B replica at d=512 with TenderScheme INT8 weight/activation
 *    GEMMs — the only workload where core/tender_gemm runs.
 *  - chat_serve: open-loop Poisson arrivals of sampled chat turns sharing
 *    a system prompt plus long unshared Batch documents, over a bounded
 *    KV pool with prefix caching and one preemption per request, fp32
 *    weights at d=256 — the scheduler, prefix cache, allocator, sampler
 *    and streaming.
 *  - long_context_spec: ~1k-token prompts with repeated spans decoded a
 *    few hundred tokens each with the prompt-lookup drafter on the GQA
 *    Llama-2-70B replica — attention over many frozen KV chunks, KV
 *    append/truncate and runtime/draft.
 * All three keep fused Tender-quantized KV (the paper's KV path).
 */

#ifndef SERVEBENCH_WORKLOADS_H
#define SERVEBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/decompose.h"
#include "model/config.h"
#include "serve/serve_session.h"

namespace servebench {

/** Deterministic input generator (splitmix64): the same seed yields the
 *  same requests on every platform. */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi]. */
    int range(int lo, int hi);

  private:
    uint64_t state_;
};

/** Stable 64-bit mix of a seed with a stream tag (per round, per request). */
uint64_t mixSeed(uint64_t seed, uint64_t tag);

struct WorkloadSpec
{
    std::string name;
    tender::ModelConfig model;
    uint64_t modelSeed = 1;
    /** Serving configuration; decode.kernels and decode.phases are left
     *  null (defaultKernels(), untraced) and set by the harness. */
    tender::SchedulerOptions scheduler;
    /** Serve the weight GEMMs through TenderScheme with this config. */
    bool tenderWeights = false;
    tender::TenderConfig tenderConfig;
    /** Open loop: Poisson arrivals at ratePerS over the run. Closed loop:
     *  rounds of requests submitted together, the next round once the
     *  previous one has drained. */
    bool openLoop = false;
    double ratePerS = 0.0;
    /** Requests re-run alone per run (besides every preempted one). */
    int rerunSamples = 2;
    /** Fixed teacher-forced logit probe: length and the rows fed as one
     *  multi-row prefill step before single-row decode steps. */
    int probeTokens = 64;
    int probePrefillRows = 40;
    /** Sampling of a typical request (readout replay). */
    tender::SamplingParams sampling;
};

/** Names of all workloads, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** Throws std::invalid_argument for an unknown name. */
WorkloadSpec workloadByName(const std::string &name);

/** One request of a run and when it is due, in seconds from the start of
 *  its round (0 for every request of a closed-loop round). */
struct Arrival
{
    double dueS = 0.0;
    tender::ServeRequest request;
};

/** Requests of round `round` of a run with `seed`. Open-loop workloads
 *  have one round of round(ratePerS * seconds) arrivals: a Poisson
 *  process conditioned on that count, i.e. sorted uniform times over
 *  [0, seconds). */
std::vector<Arrival> makeRound(const WorkloadSpec &spec, uint64_t seed,
                               int round, double seconds);

/** The fixed logit probe of a workload (independent of the run seed). */
std::vector<int> probeTokens(const WorkloadSpec &spec);

} // namespace servebench

#endif // SERVEBENCH_WORKLOADS_H
