#include "harness.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/tender_gemm.h"
#include "model/transformer.h"
#include "stats.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

tender::DecodePhaseTimes
phaseDelta(const tender::DecodePhaseTimes &after,
           const tender::DecodePhaseTimes &before)
{
    tender::DecodePhaseTimes d;
    d.projectionsUs = after.projectionsUs - before.projectionsUs;
    d.appendUs = after.appendUs - before.appendUs;
    d.historyUs = after.historyUs - before.historyUs;
    d.attentionUs = after.attentionUs - before.attentionUs;
    d.steps = after.steps - before.steps;
    return d;
}

} // namespace

// ---- TimingScheme -----------------------------------------------------------

TimingScheme::TimingScheme(const tender::GemmScheme &inner,
                           uint64_t sample_seed, int samples_per_kind)
    : inner_(inner), perKind_(samples_per_kind), rng_(sample_seed)
{
}

tender::Matrix
TimingScheme::fakeQuant(const tender::Matrix &m, tender::Operand op) const
{
    return inner_.fakeQuant(m, op);
}

tender::Matrix
TimingScheme::matmul(const tender::Matrix &x, const tender::Matrix &w) const
{
    ++calls_;
    sample(x, w);
    if (!timing_)
        return inner_.matmul(x, w);
    const auto t0 = Clock::now();
    tender::Matrix y = inner_.matmul(x, w);
    busyUs_ += secondsSince(t0) * 1e6;
    return y;
}

void
TimingScheme::sample(const tender::Matrix &x, const tender::Matrix &w) const
{
    const int kind = x.rows() > 1 ? 1 : 0;
    const int64_t seen = ++seen_[kind];
    std::vector<Pair> &res = reservoir_[kind];
    if (int(res.size()) < perKind_) {
        res.push_back({x, &w});
        return;
    }
    const int64_t slot = int64_t(rng_.next() % uint64_t(seen));
    if (slot < perKind_)
        res[size_t(slot)] = {x, &w};
}

std::vector<TimingScheme::Pair>
TimingScheme::samples() const
{
    std::vector<Pair> all = reservoir_[0];
    all.insert(all.end(), reservoir_[1].begin(), reservoir_[1].end());
    return all;
}

// ---- Harness ----------------------------------------------------------------

Harness::Harness(const WorkloadSpec &spec, uint64_t seed)
    : spec_(spec), model_(spec.model, spec.modelSeed)
{
    for (int l = 0; l < spec_.model.nLayers; ++l)
        model_.blockWeights(l);
    if (spec_.tenderWeights) {
        tender_ = std::make_unique<tender::TenderScheme>(spec_.tenderConfig);
        timing_ = std::make_unique<TimingScheme>(*tender_,
                                                 mixSeed(seed, 0x7e5), 3);
    }
}

tender::ServeSessionOptions
Harness::sessionOptions(tender::DecodePhaseTimes *phases,
                        bool decorated) const
{
    tender::ServeSessionOptions o;
    o.scheduler = spec_.scheduler;
    o.scheduler.decode.phases = phases;
    if (spec_.tenderWeights)
        o.scheduler.decode.scheme =
            decorated ? static_cast<const tender::GemmScheme *>(timing_.get())
                      : tender_.get();
    return o;
}

PhaseResult
Harness::runPhase(tender::ServeSession &session, uint64_t seed,
                  double seconds, bool traced,
                  const tender::DecodePhaseTimes *phases)
{
    PhaseResult out;
    if (timing_)
        timing_->setTiming(traced);
    const int64_t tenderCalls0 = timing_ ? timing_->calls() : 0;
    const double tenderUs0 = timing_ ? timing_->busyUs() : 0.0;
    const auto t0 = Clock::now();

    const auto submit = [&](const Arrival &a, double due) {
        out.traces.emplace_back();
        RequestTrace &tr = out.traces.back();
        out.requests.push_back(a.request);
        tender::ServeRequest r = a.request;
        r.onEvent = [&tr, t0](const tender::StreamEvent &e) {
            if (e.token < 0)
                return;
            const double t = secondsSince(t0);
            if (tr.streamed == 0)
                tr.firstS = t;
            else
                tr.gapsS.push_back(t - tr.lastS);
            tr.lastS = t;
            ++tr.streamed;
        };
        tr.dueS = due;
        tr.submitS = secondsSince(t0);
        out.generatorLateMaxS =
            std::max(out.generatorLateMaxS, tr.submitS - due);
        tr.id = session.submit(r);
    };

    const auto step = [&]() {
        if (!traced)
            return session.step();
        const tender::SchedulerStats s0 = session.scheduler().stats();
        const tender::DecodePhaseTimes p0 = *phases;
        const int64_t calls0 = timing_ ? timing_->calls() : 0;
        const double us0 = timing_ ? timing_->busyUs() : 0.0;
        StepSpan span;
        span.startS = secondsSince(t0);
        const bool more = session.step();
        span.endS = secondsSince(t0);
        const tender::SchedulerStats &s1 = session.scheduler().stats();
        if (s1.steps > s0.steps) {
            span.rows = s1.batchedRows - s0.batchedRows;
            span.prefillRows = s1.prefillRows - s0.prefillRows;
            span.phases = phaseDelta(*phases, p0);
            if (timing_) {
                span.tenderCalls = timing_->calls() - calls0;
                span.tenderUs = timing_->busyUs() - us0;
            }
            out.steps.push_back(span);
        }
        return more;
    };

    if (spec_.openLoop) {
        const std::vector<Arrival> arrivals = makeRound(spec_, seed, 0, seconds);
        size_t next = 0;
        while (true) {
            const double now = secondsSince(t0);
            while (next < arrivals.size() && arrivals[next].dueS <= now) {
                submit(arrivals[next], arrivals[next].dueS);
                ++next;
            }
            if (step())
                continue;
            if (next == arrivals.size())
                break;
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::max(0.0, arrivals[next].dueS - secondsSince(t0))));
        }
        out.rounds = 1;
    } else {
        // Whole rounds only; stop at the round count that lands closest to
        // the requested time.
        while (out.rounds == 0 ||
               secondsSince(t0) * (1.0 + 0.5 / out.rounds) < seconds) {
            const std::vector<Arrival> round =
                makeRound(spec_, seed, out.rounds, seconds);
            const double start = secondsSince(t0);
            for (const Arrival &a : round)
                submit(a, start + a.dueS);
            while (step()) {
            }
            ++out.rounds;
        }
    }
    out.elapsedS = secondsSince(t0);

    session.drain();
    for (const RequestTrace &tr : out.traces) {
        const tender::ServeResult *r = session.result(tr.id);
        if (!r)
            throw std::runtime_error("request retired without a result");
        out.results.push_back(*r);
        ++out.attempted;
        if (r->state == tender::RequestState::Failed)
            ++out.failed;
        out.streamedTokens += tr.streamed;
        out.resultTokens += int64_t(r->tokens.size());
    }
    out.scheduler = session.scheduler().stats();
    out.pool = session.poolStats();
    if (phases)
        out.phases = *phases;
    if (timing_) {
        out.tenderCalls = timing_->calls() - tenderCalls0;
        out.tenderUs = timing_->busyUs() - tenderUs0;
    }
    out.checks.push_back(
        checkStreamCount(out.streamedTokens, out.resultTokens));
    if (tender::PrefixCache *pc = session.scheduler().prefixCache())
        pc->clear();
    out.checks.push_back(checkPoolDrained(session.scheduler().pool()));
    return out;
}

std::vector<CheckResult>
Harness::rerunChecks(const PhaseResult &phase, uint64_t seed)
{
    std::vector<size_t> picks;
    for (size_t i = 0; i < phase.results.size(); ++i)
        if (phase.results[i].metrics.preemptions > 0)
            picks.push_back(i);
    InputRng rng(mixSeed(seed, 0x5e1ec7));
    const int n = int(phase.results.size());
    for (int k = 0; k < spec_.rerunSamples && int(picks.size()) < n; ++k) {
        size_t i = size_t(rng.range(0, n - 1));
        while (std::find(picks.begin(), picks.end(), i) != picks.end())
            i = (i + 1) % size_t(n);
        picks.push_back(i);
    }

    tender::ServeSessionOptions alone = sessionOptions(nullptr, false);
    alone.scheduler.kvPoolBlocks = 0;
    alone.scheduler.prefixCache = false;
    alone.scheduler.maxPreemptions = 0;
    std::vector<CheckResult> checks;
    for (size_t i : picks) {
        if (phase.results[i].state == tender::RequestState::Failed)
            continue;
        tender::ServeRequest r = phase.requests[i];
        r.speculation = tender::SpeculationParams{};
        tender::ServeSession session(model_, alone);
        const int id = session.submit(r);
        session.drain();
        checks.push_back(checkRerunIdentical(
            phase.results[i].id, phase.results[i].tokens,
            session.result(id)->tokens));
    }
    return checks;
}

double
Harness::logitNmse(const tender::Vocab &vocab)
{
    const std::vector<int> probe = probeTokens(spec_);
    const tender::Matrix x = vocab.embedAll(probe);
    const int n = x.rows();

    tender::DecodeOptions served = spec_.scheduler.decode;
    served.scheme = tender_.get();
    tender::DecodeEngine engine(model_, served);
    const tender::KernelContext &kc = tender::defaultKernels();
    std::vector<float> got;
    const auto keep = [&](const tender::Matrix &h) {
        for (int r = 0; r < h.rows(); ++r) {
            const tender::Matrix l = vocab.logits(h, r, kc);
            got.insert(got.end(), l.data().begin(), l.data().end());
        }
    };
    keep(engine.prefill(x.rowSlice(0, spec_.probePrefillRows)));
    for (int r = spec_.probePrefillRows; r < n; ++r)
        keep(engine.step(x.rowSlice(r, r + 1)));

    const tender::KernelContext serial(tender::Backend::Serial);
    const tender::Matrix h = tender::modelForward(model_, x, &serial);
    std::vector<float> ref;
    for (int r = 0; r < n; ++r) {
        const tender::Matrix l = vocab.logits(h, r, serial);
        ref.insert(ref.end(), l.data().begin(), l.data().end());
    }
    return nmse(ref, got);
}

std::vector<CheckResult>
Harness::tenderEquivalenceChecks() const
{
    std::vector<CheckResult> checks;
    if (!timing_)
        return checks;
    for (const TimingScheme::Pair &p : timing_->samples())
        checks.push_back(checkTenderImplicitExplicit(
            tender::tenderMatmul(p.x, *p.w, spec_.tenderConfig),
            tender::tenderMatmulExplicit(p.x, *p.w, spec_.tenderConfig)));
    return checks;
}

} // namespace servebench
