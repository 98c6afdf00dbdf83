/**
 * @file
 * Drives one workload through the program's public serving API
 * (ServeSession::submit/step) from a single generator thread and records
 * what a client sees: when each request was due and submitted, when each
 * token was streamed. The traced variant additionally wraps every
 * ServeSession::step with a span carrying the scheduler-stat,
 * DecodePhaseTimes and Tender-GEMM deltas of that step; the untraced one
 * adds nothing to the serving path but the clock read in each stream
 * callback.
 */

#ifndef SERVEBENCH_HARNESS_H
#define SERVEBENCH_HARNESS_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "checks.h"
#include "core/tender_scheme.h"
#include "serve/serve_session.h"
#include "workloads.h"

namespace servebench {

/**
 * GemmScheme decorator: forwards every call to the wrapped scheme,
 * counts calls, times them when timing is on, and keeps a seeded
 * reservoir sample of the (x, w) operand pairs it forwarded — separately
 * for single-row (decode) and multi-row (prefill) activations — for the
 * implicit/explicit requantization check. w is kept by address: the
 * weights live in the SyntheticModel for the whole run.
 */
class TimingScheme : public tender::GemmScheme
{
  public:
    struct Pair
    {
        tender::Matrix x;
        const tender::Matrix *w = nullptr;
    };

    TimingScheme(const tender::GemmScheme &inner, uint64_t sample_seed,
                 int samples_per_kind);

    std::string name() const override { return inner_.name(); }
    tender::Matrix fakeQuant(const tender::Matrix &m,
                             tender::Operand op) const override;
    tender::Matrix matmul(const tender::Matrix &x,
                          const tender::Matrix &w) const override;

    void setTiming(bool on) { timing_ = on; }
    int64_t calls() const { return calls_; }
    double busyUs() const { return busyUs_; }
    /** Both reservoirs (single-row pairs first). */
    std::vector<Pair> samples() const;

  private:
    void sample(const tender::Matrix &x, const tender::Matrix &w) const;

    const tender::GemmScheme &inner_;
    int perKind_;
    bool timing_ = false;
    // matmul() is const in the interface; the decoder is only ever called
    // from the scheduler's calling thread (decodeBlockForward runs the
    // scheme sequentially per segment), so plain members suffice.
    mutable int64_t calls_ = 0;
    mutable double busyUs_ = 0.0;
    mutable InputRng rng_;
    mutable int64_t seen_[2] = {0, 0};
    mutable std::vector<Pair> reservoir_[2];
};

/** What a client saw of one request. Times in seconds from the phase
 *  start. */
struct RequestTrace
{
    int id = -1;
    double dueS = 0.0;
    double submitS = 0.0;
    double firstS = -1.0; ///< first streamed token
    double lastS = -1.0;  ///< last streamed token
    int64_t streamed = 0; ///< tokens delivered by the stream callback
    std::vector<double> gapsS; ///< between consecutive streamed tokens
};

/** One ServeSession::step that ran a decode iteration (traced only). */
struct StepSpan
{
    double startS = 0.0;
    double endS = 0.0;
    int64_t rows = 0;        ///< rows stacked into the step
    int64_t prefillRows = 0; ///< of which prompt rows
    tender::DecodePhaseTimes phases; ///< this step's phase times
    int64_t tenderCalls = 0;
    double tenderUs = 0.0;
};

/** Everything one measured phase produced. */
struct PhaseResult
{
    double elapsedS = 0.0; ///< first due time to last retirement
    int rounds = 0;
    int attempted = 0;
    int failed = 0;
    int64_t streamedTokens = 0;
    int64_t resultTokens = 0;
    double generatorLateMaxS = 0.0;
    std::deque<RequestTrace> traces;
    std::vector<tender::ServeRequest> requests; ///< as generated
    std::vector<tender::ServeResult> results;   ///< parallel to traces
    std::vector<StepSpan> steps;                ///< traced phases only
    tender::SchedulerStats scheduler;
    tender::BlockPoolStats pool;
    tender::DecodePhaseTimes phases;
    int64_t tenderCalls = 0;
    double tenderUs = 0.0;
    std::vector<CheckResult> checks; ///< stream_count, pool_drained
};

/** A workload's model, schemes and session factory. */
class Harness
{
  public:
    /** Builds the model and every layer's weights (set-up work). */
    Harness(const WorkloadSpec &spec, uint64_t seed);

    const WorkloadSpec &spec() const { return spec_; }
    tender::SyntheticModel &model() { return model_; }
    TimingScheme *timingScheme() { return timing_.get(); }

    /** The workload's serving options; `phases` non-null turns on the
     *  decode phase accumulator (traced). Weight GEMMs go through the
     *  timing decorator when `decorated`, else the plain TenderScheme. */
    tender::ServeSessionOptions
    sessionOptions(tender::DecodePhaseTimes *phases,
                   bool decorated = true) const;

    /** Serve `seconds` worth of the workload on `session`. Closed loops
     *  run whole rounds until the time is used; open loops one round of
     *  arrivals spread over the time. Ends with the stream-count and
     *  pool-drained checks (which clear the prefix cache). */
    PhaseResult runPhase(tender::ServeSession &session, uint64_t seed,
                         double seconds, bool traced,
                         const tender::DecodePhaseTimes *phases);

    /** Re-run a seeded sample of `phase`'s requests, plus every preempted
     *  one, each alone in a fresh session (unbounded pool, no prefix
     *  cache, no preemption, no speculation). */
    std::vector<CheckResult> rerunChecks(const PhaseResult &phase,
                                         uint64_t seed);

    /** NMSE of the served configuration's logits on the workload's fixed
     *  probe vs fp32 modelForward on the Serial backend. */
    double logitNmse(const tender::Vocab &vocab);

    /** tenderMatmul vs tenderMatmulExplicit on the decorator's samples
     *  (empty when the workload serves fp32 weights). */
    std::vector<CheckResult> tenderEquivalenceChecks() const;

  private:
    WorkloadSpec spec_;
    tender::SyntheticModel model_;
    std::unique_ptr<tender::TenderScheme> tender_;
    std::unique_ptr<TimingScheme> timing_;
};

} // namespace servebench

#endif // SERVEBENCH_HARNESS_H
