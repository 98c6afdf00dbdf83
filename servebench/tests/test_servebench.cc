// Tests of the benchmark's own code: the statistics helpers, the input
// generator, the timing decorator, and every correctness check — each
// shown to pass on the program's real output and to fail on a corrupted
// one (a flipped token, a leaked block, a perturbed GEMM output).

#include <gtest/gtest.h>

#include <stdexcept>

#include "checks.h"
#include "core/tender_gemm.h"
#include "harness.h"
#include "runtime/kv_cache.h"
#include "stats.h"
#include "workloads.h"

using namespace servebench;

namespace {

/** A workload shrunk to a small model so a test serves it in a second. */
WorkloadSpec
small(const std::string &name)
{
    WorkloadSpec spec = workloadByName(name);
    spec.model = tender::replicaOf(tender::modelByName("OPT-6.7B"), 32);
    return spec;
}

} // namespace

TEST(Stats, QuantileInterpolatesBetweenClosestRanks)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
    EXPECT_NEAR(quantile(v, 0.9), 3.7, 1e-12);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, NmseIsErrorEnergyOverReferenceEnergy)
{
    EXPECT_DOUBLE_EQ(nmse({3.f, 4.f}, {3.f, 4.f}), 0.0);
    EXPECT_NEAR(nmse({3.f, 4.f}, {3.f, 5.f}), 1.0 / 25.0, 1e-12);
    EXPECT_THROW(nmse({1.f}, {1.f, 2.f}), std::invalid_argument);
    EXPECT_THROW(nmse({0.f, 0.f}, {1.f, 2.f}), std::invalid_argument);
}

TEST(Workloads, InputsAreAFunctionOfTheSeed)
{
    for (const std::string &name : workloadNames()) {
        const WorkloadSpec spec = workloadByName(name);
        const auto a = makeRound(spec, 7, 0, 30.0);
        const auto b = makeRound(spec, 7, 0, 30.0);
        const auto c = makeRound(spec, 8, 0, 30.0);
        ASSERT_EQ(a.size(), b.size()) << name;
        bool differs = a.size() != c.size();
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].dueS, b[i].dueS);
            EXPECT_EQ(a[i].request.promptTokens, b[i].request.promptTokens);
            EXPECT_EQ(a[i].request.sampling.seed, b[i].request.sampling.seed);
            differs = differs || i >= c.size() ||
                      a[i].request.promptTokens != c[i].request.promptTokens;
        }
        EXPECT_TRUE(differs) << name;
    }
    EXPECT_THROW(workloadByName("nope"), std::invalid_argument);
}

TEST(Workloads, ChatArrivalsAreSortedWithAnExactDocumentShare)
{
    const WorkloadSpec spec = workloadByName("chat_serve");
    const auto round = makeRound(spec, 3, 0, 30.0);
    ASSERT_EQ(round.size(), size_t(spec.ratePerS * 30.0));
    int docs = 0;
    for (size_t i = 0; i < round.size(); ++i) {
        EXPECT_GE(round[i].dueS, 0.0);
        EXPECT_LT(round[i].dueS, 30.0);
        if (i > 0) {
            EXPECT_LE(round[i - 1].dueS, round[i].dueS);
        }
        docs += round[i].request.priority == tender::Priority::Batch;
    }
    EXPECT_EQ(docs, int(round.size()) / 5);
}

TEST(Checks, RerunFailsOnOneFlippedToken)
{
    EXPECT_TRUE(checkRerunIdentical(3, {1, 2, 3}, {1, 2, 3}).ok);
    const CheckResult bad = checkRerunIdentical(3, {1, 2, 3}, {1, 9, 3});
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.detail.find("token 1"), std::string::npos) << bad.detail;
    EXPECT_FALSE(checkRerunIdentical(3, {1, 2, 3}, {1, 2}).ok);
}

TEST(Checks, PoolDrainedFailsOnOneLeakedBlock)
{
    const tender::ModelConfig model = small("chat_serve").model;
    tender::KVCacheConfig cache;
    cache.mode = tender::KVCacheMode::TenderQuantized;
    tender::BlockAllocator pool(tender::blockPoolConfigFor(model, cache, 64));
    EXPECT_TRUE(checkPoolDrained(pool).ok);
    const int block = pool.allocate(false);
    EXPECT_FALSE(checkPoolDrained(pool).ok);
    pool.release(block);
    EXPECT_TRUE(checkPoolDrained(pool).ok);
    ASSERT_TRUE(pool.tryReserve(2));
    EXPECT_FALSE(checkPoolDrained(pool).ok);
    pool.unreserve(2);
    EXPECT_TRUE(checkPoolDrained(pool).ok);
}

TEST(Checks, ScalarChecksFailOnTheWrongSideOfTheirBound)
{
    EXPECT_TRUE(checkStreamCount(120, 120).ok);
    EXPECT_FALSE(checkStreamCount(119, 120).ok);
    EXPECT_TRUE(checkLogitNmse(1e-5).ok);
    EXPECT_FALSE(checkLogitNmse(kInt8LogitNmseBound).ok);
    EXPECT_FALSE(checkLogitNmse(0.5).ok);
    EXPECT_TRUE(checkTenderWithinProjections(90.0, 100.0).ok);
    EXPECT_FALSE(checkTenderWithinProjections(101.0, 100.0).ok);
}

TEST(Checks, TenderImplicitExplicitFailsOnAPerturbedOutput)
{
    tender::Rng rng(5);
    const tender::Matrix x = tender::randomGaussian(40, 64, rng);
    const tender::Matrix w = tender::randomGaussian(64, 48, rng, 0.f, 0.05f);
    tender::TenderConfig cfg;
    cfg.rowChunk = 16;
    tender::Matrix implicit = tender::tenderMatmul(x, w, cfg);
    const tender::Matrix ref = tender::tenderMatmulExplicit(x, w, cfg);
    EXPECT_TRUE(checkTenderImplicitExplicit(implicit, ref).ok);
    implicit(7, 5) += 0.5f;
    EXPECT_FALSE(checkTenderImplicitExplicit(implicit, ref).ok);
    EXPECT_FALSE(
        checkTenderImplicitExplicit(implicit.rowSlice(0, 8), ref).ok);
}

TEST(TimingScheme, ForwardsExactlyAndKeepsBoundedSamples)
{
    tender::TenderConfig cfg;
    cfg.rowChunk = 16;
    const tender::TenderScheme inner(cfg);
    TimingScheme timed(inner, 1, 2);
    timed.setTiming(true);
    tender::Rng rng(9);
    const tender::Matrix w = tender::randomGaussian(32, 24, rng);
    for (int rows : {1, 1, 1, 20, 20, 1, 20}) {
        const tender::Matrix x = tender::randomGaussian(rows, 32, rng);
        EXPECT_TRUE(timed.matmul(x, w) == inner.matmul(x, w));
    }
    EXPECT_EQ(timed.calls(), 7);
    EXPECT_GT(timed.busyUs(), 0.0);
    const auto samples = timed.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].x.rows(), 1);
    EXPECT_EQ(samples[3].x.rows(), 20);
    EXPECT_EQ(samples[0].w, &w);
}

TEST(Harness, ChatRunPassesEveryCheckAndRerunCatchesAFlippedToken)
{
    Harness harness(small("chat_serve"), 4);
    tender::ServeSession session(harness.model(),
                                 harness.sessionOptions(nullptr));
    PhaseResult phase = harness.runPhase(session, 4, 1.0, false, nullptr);
    EXPECT_EQ(phase.attempted, 4);
    EXPECT_EQ(phase.failed, 0);
    EXPECT_GT(phase.streamedTokens, 0);
    for (const CheckResult &c : phase.checks)
        EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
    for (const CheckResult &c : harness.rerunChecks(phase, 4))
        EXPECT_TRUE(c.ok) << c.detail;
    EXPECT_TRUE(
        checkLogitNmse(harness.logitNmse(session.scheduler().vocab())).ok);

    for (tender::ServeResult &r : phase.results)
        if (!r.tokens.empty())
            r.tokens[0] = (r.tokens[0] + 1) % 512;
    const std::vector<CheckResult> flipped = harness.rerunChecks(phase, 4);
    ASSERT_FALSE(flipped.empty());
    for (const CheckResult &c : flipped)
        EXPECT_FALSE(c.ok) << c.detail;
}

TEST(Harness, TenderRunSamplesServedGemmsThatSatisfyTheEquivalence)
{
    Harness harness(small("tender_weights_decode"), 2);
    tender::DecodePhaseTimes phases;
    tender::ServeSession session(harness.model(),
                                 harness.sessionOptions(&phases));
    const PhaseResult phase =
        harness.runPhase(session, 2, 0.01, true, &phases);
    EXPECT_EQ(phase.rounds, 1);
    EXPECT_EQ(phase.failed, 0);
    EXPECT_GT(phase.tenderCalls, 0);
    EXPECT_FALSE(phase.steps.empty());
    EXPECT_TRUE(
        checkTenderWithinProjections(phase.tenderUs, phase.phases.projectionsUs)
            .ok);
    const std::vector<CheckResult> eq = harness.tenderEquivalenceChecks();
    EXPECT_EQ(eq.size(), 6u);
    for (const CheckResult &c : eq)
        EXPECT_TRUE(c.ok) << c.detail;
}
