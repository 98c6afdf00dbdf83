#include "replay.h"

#include <chrono>
#include <cmath>
#include <functional>

#include "core/tender_gemm.h"
#include "serve/sampler.h"
#include "stats.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/** Median over five repeats of the seconds one call of `fn` takes, each
 *  repeat looping until it has run for at least `min_seconds`. */
double
secondsPerCall(const std::function<void()> &fn, double min_seconds = 0.03)
{
    fn(); // warm-up: caches, lazily built pools
    std::vector<double> per;
    for (int rep = 0; rep < 5; ++rep) {
        int64_t calls = 0;
        const auto t0 = Clock::now();
        double s = 0.0;
        do {
            fn();
            ++calls;
            s = std::chrono::duration<double>(Clock::now() - t0).count();
        } while (s < min_seconds);
        per.push_back(s / double(calls));
    }
    return median(per);
}

tender::IntMatrix
int8Codes(int rows, int cols, InputRng &rng)
{
    tender::IntMatrix m(rows, cols);
    for (int32_t &v : m.data())
        v = rng.range(-127, 127);
    return m;
}

/** Keeps a kernel's result observable so the call is not optimized out. */
volatile float g_sink = 0.f;

} // namespace

KernelReplays
runReplays(const WorkloadSpec &spec, tender::SyntheticModel &model,
           const tender::Vocab &vocab, double rows_per_step)
{
    const tender::KernelContext &kc = tender::defaultKernels();
    const tender::ModelConfig &cfg = spec.model;
    const tender::BlockWeights &w = model.blockWeights(0);
    KernelReplays r;

    const tender::Matrix hidden = model.sampleInput(16, 0x4ead);
    int row = 0;
    r.readoutUsPerToken = 1e6 * secondsPerCall([&] {
        const tender::Matrix l = vocab.logits(hidden, row % 16, kc);
        g_sink = float(tender::sampleToken(l, spec.sampling, row));
        ++row;
    });

    const tender::TenderConfig tc = spec.tenderConfig;
    const tender::Matrix *six[] = {&w.wq, &w.wk, &w.wv, &w.wo, &w.wfc1,
                                   &w.wfc2};
    r.weightQuantizeMs = 1e3 * secondsPerCall([&] {
        for (const tender::Matrix *m : six)
            g_sink = tender::quantizeWeight(*m, tc.bits).colScale[0];
    });

    // One decode row through the layer's six weight GEMMs.
    const tender::Matrix x1 = model.sampleInput(1, 0x1);
    tender::Rng grng(0xff);
    const tender::Matrix xf = tender::randomGaussian(1, cfg.dFfn, grng);
    double macs = 0.0;
    for (const tender::Matrix *m : six)
        macs += double(m->rows()) * double(m->cols());
    r.tenderGmacs = macs / 1e9 / secondsPerCall([&] {
        for (const tender::Matrix *m : six) {
            const tender::Matrix &x = m->rows() == cfg.dFfn ? xf : x1;
            g_sink = tender::tenderMatmul(x, *m, tc, nullptr, &kc)(0, 0);
        }
    });

    const tender::Matrix xpeak = model.sampleInput(256, 0x2);
    r.tenderPeakGmacs =
        256.0 * cfg.dModel * cfg.dFfn / 1e9 / secondsPerCall([&] {
            g_sink = tender::tenderMatmul(xpeak, w.wfc1, tc, nullptr, &kc)(0, 0);
        });

    const int m = std::max(1, int(std::lround(rows_per_step)));
    const tender::Matrix xm = model.sampleInput(m, 0x3);
    const double s = secondsPerCall([&] { g_sink = kc.gemm(xm, w.wfc1)(0, 0); });
    const double k = cfg.dModel, n = cfg.dFfn;
    r.projGemmGflops = 2.0 * m * k * n / 1e9 / s;
    r.projGemmGbps = 4.0 * (m * k + k * n + m * n) / 1e9 / s;
    r.gemmPeakGflops = 2.0 * 256 * k * n / 1e9 / secondsPerCall([&] {
        g_sink = kc.gemm(xpeak, w.wfc1)(0, 0);
    });

    // Decode attention: the q heads sharing one kv head against one
    // frozen KV chunk of int8 codes.
    InputRng rng(0xa77);
    const int group = cfg.nHeads / cfg.kvHeads;
    const int chunk = spec.scheduler.decode.cache.tender.rowChunk;
    const tender::IntMatrix qa = int8Codes(group, cfg.headDim(), rng);
    const tender::IntMatrix kb = int8Codes(chunk, cfg.headDim(), rng);
    r.attnGemmInt8Gops =
        2.0 * group * chunk * cfg.headDim() / 1e9 / secondsPerCall([&] {
            g_sink = float(kc.gemmInt8(qa, kb, 127, 127)(0, 0));
        });
    return r;
}

} // namespace servebench
