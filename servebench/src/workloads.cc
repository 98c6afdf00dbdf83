#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace servebench {

uint64_t
InputRng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
InputRng::uniform()
{
    return double(next() >> 11) * (1.0 / 9007199254740992.0);
}

int
InputRng::range(int lo, int hi)
{
    return lo + int(next() % uint64_t(hi - lo + 1));
}

uint64_t
mixSeed(uint64_t seed, uint64_t tag)
{
    InputRng rng(seed * 0x2545f4914f6cdd1dULL ^ (tag + 0x632be59bd9b4e019ULL));
    return rng.next();
}

namespace {

constexpr int kVocab = 512;

tender::SchedulerOptions
fusedTenderKv(int max_batch)
{
    tender::SchedulerOptions s;
    s.maxBatch = max_batch;
    s.vocabSize = kVocab;
    s.decode.cache.mode = tender::KVCacheMode::TenderQuantized;
    s.decode.fusedQuantKv = true;
    return s;
}

std::vector<int>
randomTokens(InputRng &rng, int n)
{
    std::vector<int> t(static_cast<size_t>(n));
    for (int &x : t)
        x = rng.range(0, kVocab - 1);
    return t;
}

// ---- tender_weights_decode ------------------------------------------------

constexpr int kTenderBatch = 8;
constexpr int kTenderNewTokens = 12;

WorkloadSpec
tenderWeightsDecode()
{
    WorkloadSpec w;
    w.name = "tender_weights_decode";
    w.model = tender::replicaOf(tender::modelByName("OPT-6.7B"), 8);
    w.modelSeed = 11;
    w.scheduler = fusedTenderKv(kTenderBatch);
    w.tenderWeights = true;
    w.tenderConfig.bits = 8;
    // 256 rows scaled by the replica's 1/8 token budget, as the accuracy
    // harnesses do; prompts of 80-112 tokens span three or four chunks.
    w.tenderConfig.rowChunk = 32;
    w.rerunSamples = 3;
    return w;
}

std::vector<Arrival>
tenderRound(InputRng &rng)
{
    std::vector<Arrival> out;
    for (int i = 0; i < kTenderBatch; ++i) {
        Arrival a;
        a.request.promptTokens = randomTokens(rng, rng.range(80, 112));
        a.request.maxNewTokens = kTenderNewTokens;
        out.push_back(std::move(a));
    }
    return out;
}

// ---- chat_serve -------------------------------------------------------------

constexpr int kSystemPromptTokens = 256;
constexpr double kDocShare = 0.2;

WorkloadSpec
chatServe()
{
    WorkloadSpec w;
    w.name = "chat_serve";
    w.model = tender::replicaOf(tender::modelByName("OPT-6.7B"), 16);
    w.modelSeed = 12;
    w.scheduler = fusedTenderKv(8);
    w.scheduler.prefixCache = true;
    // Two or more preemptions per request abort the process (CHANGES.md
    // FOUND line on preemptVictim); one keeps preemption exercised.
    w.scheduler.maxPreemptions = 1;
    w.scheduler.kvPoolBlocks = 4000;
    w.openLoop = true;
    w.ratePerS = 4.0;
    w.rerunSamples = 4;
    w.sampling.temperature = 0.8f;
    w.sampling.topK = 20;
    return w;
}

std::vector<Arrival>
chatRound(const WorkloadSpec &spec, InputRng &rng, double seconds)
{
    const int n = std::max(1, int(std::lround(spec.ratePerS * seconds)));
    std::vector<double> due(static_cast<size_t>(n));
    for (double &t : due)
        t = rng.uniform() * seconds;
    std::sort(due.begin(), due.end());
    // Exactly round(kDocShare * n) documents at shuffled positions, so the
    // mix (and the work) of a run does not swing with the seed.
    std::vector<char> doc(static_cast<size_t>(n), 0);
    const int docs = int(std::lround(kDocShare * n));
    std::fill(doc.begin(), doc.begin() + docs, 1);
    for (int i = n - 1; i > 0; --i)
        std::swap(doc[size_t(i)], doc[size_t(rng.range(0, i))]);

    const std::vector<int> system = randomTokens(rng, kSystemPromptTokens);
    std::vector<Arrival> out;
    for (int i = 0; i < n; ++i) {
        Arrival a;
        a.dueS = due[size_t(i)];
        tender::ServeRequest &r = a.request;
        if (doc[size_t(i)]) {
            r.promptTokens = randomTokens(rng, rng.range(384, 448));
            r.maxNewTokens = rng.range(8, 16);
            r.priority = tender::Priority::Batch;
        } else {
            r.promptTokens = system;
            const std::vector<int> turn = randomTokens(rng, rng.range(8, 24));
            r.promptTokens.insert(r.promptTokens.end(), turn.begin(),
                                  turn.end());
            r.maxNewTokens = rng.range(16, 32);
            r.priority = tender::Priority::Interactive;
            r.sampling = spec.sampling;
            r.sampling.seed = rng.next();
            if (i % 3 == 0)
                r.stopSequences = {{rng.range(0, kVocab - 1)},
                                   {rng.range(0, kVocab - 1)},
                                   {rng.range(0, kVocab - 1),
                                    rng.range(0, kVocab - 1)}};
        }
        out.push_back(std::move(a));
    }
    return out;
}

// ---- long_context_spec ------------------------------------------------------

constexpr int kLongBatch = 2;
constexpr int kLongNewTokens = 192;

WorkloadSpec
longContextSpec()
{
    WorkloadSpec w;
    w.name = "long_context_spec";
    w.model = tender::replicaOf(tender::modelByName("Llama-2-70B"), 16);
    w.modelSeed = 13;
    w.scheduler = fusedTenderKv(kLongBatch);
    w.rerunSamples = 1;
    return w;
}

std::vector<Arrival>
longRound(InputRng &rng)
{
    std::vector<Arrival> out;
    for (int i = 0; i < kLongBatch; ++i) {
        // A document assembled from a handful of recurring spans: the
        // repetition prompt lookup exploits.
        std::vector<std::vector<int>> spans;
        for (int s = 0; s < 6; ++s)
            spans.push_back(randomTokens(rng, rng.range(24, 48)));
        const int len = rng.range(1000, 1024);
        Arrival a;
        tender::ServeRequest &r = a.request;
        while (int(r.promptTokens.size()) < len) {
            const std::vector<int> &s =
                spans[size_t(rng.range(0, int(spans.size()) - 1))];
            r.promptTokens.insert(r.promptTokens.end(), s.begin(), s.end());
        }
        r.promptTokens.resize(size_t(len));
        r.maxNewTokens = kLongNewTokens;
        r.speculation.drafter = tender::DrafterKind::PromptLookup;
        r.speculation.maxDraft = 6;
        out.push_back(std::move(a));
    }
    return out;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"tender_weights_decode", "chat_serve", "long_context_spec"};
}

WorkloadSpec
workloadByName(const std::string &name)
{
    if (name == "tender_weights_decode")
        return tenderWeightsDecode();
    if (name == "chat_serve")
        return chatServe();
    if (name == "long_context_spec")
        return longContextSpec();
    throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Arrival>
makeRound(const WorkloadSpec &spec, uint64_t seed, int round, double seconds)
{
    InputRng rng(mixSeed(seed, uint64_t(round)));
    if (spec.name == "chat_serve")
        return chatRound(spec, rng, seconds);
    if (spec.name == "long_context_spec")
        return longRound(rng);
    return tenderRound(rng);
}

std::vector<int>
probeTokens(const WorkloadSpec &spec)
{
    InputRng rng(0x9b0be);
    return randomTokens(rng, spec.probeTokens);
}

} // namespace servebench
