// servebench: run one workload of the serving-stack benchmark.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>]
//
// Prints the run's inputs, environment, metrics and check verdicts, then as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// workload untraced and then traced for half the time each and reports the
// per-layer metrics (README.md lists both sets).

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "replay.h"
#include "stats.h"
#include "util/cpu_features.h"

using namespace servebench;

namespace {

using Clock = std::chrono::steady_clock;

// Set during static initialization, before main: the set-up time runs from
// the process's start.
const Clock::time_point g_processStart = Clock::now();

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string v = argv[++i];
        size_t used = 0;
        if (flag == "--workload") {
            a.workload = v;
            have[0] = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v, &used);
            have[1] = used == v.size() && v[0] != '-';
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v, &used);
            have[2] = used == v.size() && a.seconds > 0.0 &&
                      a.seconds <= 3600.0;
        } else if (flag == "--trace") {
            have[3] = v == "0" || v == "1";
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        throw std::invalid_argument(
            "usage: servebench --workload <name> --seed <n> --seconds <s>"
            " --trace <0|1> [--trace-out <file>]");
    return a;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Client-side latency samples of a phase, in ms: TTFT from the due time,
 *  per-request mean gap after the first token, and every inter-token gap. */
struct Latencies
{
    std::vector<double> ttft, tpot, itl;
};

Latencies
latencies(const PhaseResult &p)
{
    Latencies l;
    for (const RequestTrace &t : p.traces) {
        if (t.streamed > 0)
            l.ttft.push_back(1e3 * (t.firstS - t.dueS));
        if (t.streamed > 1)
            l.tpot.push_back(1e3 * (t.lastS - t.firstS) /
                             double(t.streamed - 1));
        for (double g : t.gapsS)
            l.itl.push_back(1e3 * g);
    }
    for (const auto &[name, v] :
         {std::pair{"ttft", &l.ttft}, {"tpot", &l.tpot}, {"itl", &l.itl}})
        std::printf("%s: %zu samples, ms quartiles %.3f %.3f %.3f, p90 %.3f, "
                    "max %.3f\n",
                    name, v->size(), quantile(*v, 0.25), quantile(*v, 0.5),
                    quantile(*v, 0.75), quantile(*v, 0.9), quantile(*v, 1.0));
    return l;
}

std::vector<Metric>
endToEnd(const PhaseResult &p, double setup_s, double rss_mib,
         double logit_nmse)
{
    latencies(p);
    return {
        {"tokens_per_s", double(p.streamedTokens) / p.elapsedS, "tokens/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", rss_mib, "MiB"},
        {"logit_nmse", logit_nmse, "ratio"},
    };
}

std::vector<Metric>
perLayer(const PhaseResult &untraced,
         const PhaseResult &traced, const KernelReplays &k)
{
    const tender::SchedulerStats &s = traced.scheduler;
    const Latencies lat = latencies(traced);
    std::vector<double> queued, stepMs;
    for (const tender::ServeResult &r : traced.results)
        if (r.metrics.queuedUs >= 0.0)
            queued.push_back(r.metrics.queuedUs / 1e3);
    double prefillAttn = 0.0, decodeAttn = 0.0, unattributed = 0.0;
    int prefillSteps = 0;
    for (const StepSpan &st : traced.steps) {
        const double wall = (st.endS - st.startS) * 1e6;
        stepMs.push_back(wall / 1e3);
        unattributed += wall - st.phases.projectionsUs - st.phases.appendUs -
                        st.phases.historyUs - st.phases.attentionUs;
        if (st.prefillRows > 0) {
            prefillAttn += st.phases.attentionUs;
            ++prefillSteps;
        } else {
            decodeAttn += st.phases.attentionUs;
        }
    }
    const double steps = double(traced.steps.size());
    const int decodeSteps = int(traced.steps.size()) - prefillSteps;
    const tender::DecodePhaseTimes &ph = traced.phases;
    const double specSteps = double(s.specSteps + s.specFallbackSteps);
    const double untracedRate =
        double(untraced.streamedTokens) / untraced.elapsedS;
    const double tracedRate = double(traced.streamedTokens) / traced.elapsedS;
    std::printf("traced phase: %zu steps (%d with prefill rows), %d "
                "requests\n",
                traced.steps.size(), prefillSteps, traced.attempted);
    return {
        {"serve.ttft_ms_p50", median(lat.ttft), "ms"},
        {"serve.tpot_ms_p50", median(lat.tpot), "ms"},
        {"serve.queued_ms_p50", median(queued), "ms"},
        {"serve.step_ms_p50", median(stepMs), "ms"},
        {"serve.step_ms_p90", quantile(stepMs, 0.9), "ms"},
        {"serve.itl_ms_p90", quantile(lat.itl, 0.9), "ms"},
        {"readout.us_per_token", k.readoutUsPerToken, "us"},
        {"bench.generator_late_ms_max", traced.generatorLateMaxS * 1e3, "ms"},
        {"scheduler.steps", double(s.steps), "count"},
        {"scheduler.rows_per_step", ratio(double(s.batchedRows), double(s.steps)),
         "rows"},
        {"scheduler.prefill_rows", double(s.prefillRows), "rows"},
        {"scheduler.deferred", double(s.deferred), "count"},
        {"scheduler.overtakes", double(s.overtakes), "count"},
        {"scheduler.preemptions", double(s.preemptions), "count"},
        {"prefix_cache.hit_ratio",
         ratio(double(s.prefixHits), double(s.prefixHits + s.prefixMisses)),
         "ratio"},
        {"prefix_cache.skipped_rows", double(s.prefillSkippedRows), "rows"},
        {"kv_pool.peak_bytes", double(traced.pool.peakAllocatedBytes()),
         "bytes"},
        {"kv_pool.cow_copies", double(traced.pool.cowCopies), "count"},
        {"decode.projections_ms_per_step", ph.projectionsUs / 1e3 / steps,
         "ms"},
        {"decode.kv_append_ms_per_step", ph.appendUs / 1e3 / steps, "ms"},
        {"decode.history_ms_per_step", ph.historyUs / 1e3 / steps, "ms"},
        {"decode.attention_ms_per_prefill_step",
         ratio(prefillAttn / 1e3, prefillSteps), "ms"},
        {"decode.attention_ms_per_decode_step",
         ratio(decodeAttn / 1e3, decodeSteps), "ms"},
        {"decode.unattributed_ms_per_step", unattributed / 1e3 / steps, "ms"},
        {"draft.acceptance",
         ratio(double(s.acceptedDraftTokens), double(s.draftedTokens)),
         "ratio"},
        {"draft.tokens_per_step",
         ratio(specSteps + double(s.acceptedDraftTokens), specSteps),
         "tokens"},
        {"draft.fallback_steps", double(s.specFallbackSteps), "count"},
        {"tender_gemm.calls_per_step", double(traced.tenderCalls) / steps,
         "count"},
        {"tender_gemm.ms_per_step", traced.tenderUs / 1e3 / steps, "ms"},
        {"tender_gemm.weight_quantize_ms", k.weightQuantizeMs, "ms"},
        {"tender_gemm.gmacs_per_s", k.tenderGmacs, "GMAC/s"},
        {"kernels.tender_peak_gmacs", k.tenderPeakGmacs, "GMAC/s"},
        {"kernels.proj_gemm_gflops", k.projGemmGflops, "GFLOP/s"},
        {"kernels.proj_gemm_gbps", k.projGemmGbps, "GB/s"},
        {"kernels.gemm_peak_gflops", k.gemmPeakGflops, "GFLOP/s"},
        {"kernels.attn_gemm_int8_gops", k.attnGemmInt8Gops, "Gop/s"},
        {"bench.trace_overhead_pct",
         100.0 * (untracedRate / tracedRate - 1.0), "%"},
    };
}

void
writeTrace(const std::string &path, const Args &args, const PhaseResult &p)
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
    const tender::KernelContext &kc = tender::defaultKernels();
    f.precision(9);
    f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"backend\": \"" << tender::backendName(kc.backend())
      << "\", \"workers\": " << kc.workers() << ", \"simd\": \""
      << tender::simdDescription() << "\",\n \"steps\": [";
    for (size_t i = 0; i < p.steps.size(); ++i) {
        const StepSpan &s = p.steps[i];
        f << (i ? ",\n  " : "\n  ") << "{\"start_s\": " << s.startS
          << ", \"end_s\": " << s.endS << ", \"rows\": " << s.rows
          << ", \"prefill_rows\": " << s.prefillRows
          << ", \"projections_us\": " << s.phases.projectionsUs
          << ", \"append_us\": " << s.phases.appendUs
          << ", \"history_us\": " << s.phases.historyUs
          << ", \"attention_us\": " << s.phases.attentionUs
          << ", \"tender_calls\": " << s.tenderCalls
          << ", \"tender_us\": " << s.tenderUs << "}";
    }
    f << "],\n \"requests\": [";
    for (size_t i = 0; i < p.traces.size(); ++i) {
        const RequestTrace &t = p.traces[i];
        const tender::ServeResult &r = p.results[i];
        f << (i ? ",\n  " : "\n  ") << "{\"id\": " << t.id
          << ", \"due_s\": " << t.dueS << ", \"submit_s\": " << t.submitS
          << ", \"queued_us\": " << r.metrics.queuedUs
          << ", \"first_token_s\": " << t.firstS
          << ", \"last_token_s\": " << t.lastS
          << ", \"tokens\": " << t.streamed
          << ", \"preemptions\": " << r.metrics.preemptions
          << ", \"state\": \"" << tender::requestStateName(r.state) << "\"}";
    }
    f << "]}\n";
}

void
describeInputs(const char *label, const PhaseResult &p)
{
    int64_t prompt = 0;
    for (const tender::ServeRequest &r : p.requests)
        prompt += int64_t(r.promptTokens.size());
    std::printf("%s: %d rounds, %d requests, %lld prompt tokens, %lld "
                "streamed tokens in %.3f s, generator late by at most "
                "%.3f ms\n",
                label, p.rounds, p.attempted, (long long)prompt,
                (long long)p.streamedTokens, p.elapsedS,
                p.generatorLateMaxS * 1e3);
}

int
run(const Args &args)
{
    const WorkloadSpec spec = workloadByName(args.workload);
    Harness harness(spec, args.seed);
    auto session = std::make_unique<tender::ServeSession>(
        harness.model(), harness.sessionOptions(nullptr));
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - g_processStart).count();

    const tender::KernelContext &kc = tender::defaultKernels();
    const tender::ModelConfig &m = spec.model;
    std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
                spec.name.c_str(), (unsigned long long)args.seed,
                args.seconds, int(args.trace));
    std::printf("environment: backend=%s workers=%d simd=%s\n",
                tender::backendName(kc.backend()).c_str(), kc.workers(),
                tender::simdDescription().c_str());
    std::printf("model: %s d=%d heads=%d kv_heads=%d layers=%d ffn=%d, "
                "weights %s\n",
                m.name.c_str(), m.dModel, m.nHeads, m.kvHeads, m.nLayers,
                m.dFfn, spec.tenderWeights ? "Tender INT8" : "fp32");

    std::vector<Metric> metrics;
    std::vector<CheckResult> checks;
    int attempted = 0, failed = 0;
    const auto account = [&](const PhaseResult &p) {
        attempted += p.attempted;
        failed += p.failed;
        checks.insert(checks.end(), p.checks.begin(), p.checks.end());
    };

    const double phaseSeconds = args.trace ? args.seconds / 2 : args.seconds;
    const PhaseResult untraced =
        harness.runPhase(*session, args.seed, phaseSeconds, false, nullptr);
    const double rss = peakRssMiB();
    describeInputs("untraced", untraced);
    account(untraced);
    const std::vector<CheckResult> reruns =
        harness.rerunChecks(untraced, args.seed);
    checks.insert(checks.end(), reruns.begin(), reruns.end());
    const double nmse = harness.logitNmse(session->scheduler().vocab());
    checks.push_back(checkLogitNmse(nmse));
    const std::vector<CheckResult> tender = harness.tenderEquivalenceChecks();
    checks.insert(checks.end(), tender.begin(), tender.end());

    if (!args.trace) {
        metrics = endToEnd(untraced, setup_s, rss, nmse);
    } else {
        tender::DecodePhaseTimes phases;
        tender::ServeSession tracedSession(harness.model(),
                                           harness.sessionOptions(&phases));
        const PhaseResult traced = harness.runPhase(
            tracedSession, args.seed, phaseSeconds, true, &phases);
        describeInputs("traced", traced);
        account(traced);
        checks.push_back(checkTenderWithinProjections(
            traced.tenderUs, traced.phases.projectionsUs));
        const double rows = ratio(double(traced.scheduler.batchedRows),
                                  double(traced.scheduler.steps));
        const KernelReplays k = runReplays(spec, harness.model(),
                                           session->scheduler().vocab(), rows);
        metrics = perLayer(untraced, traced, k);
        if (!args.traceOut.empty())
            writeTrace(args.traceOut, args, traced);
    }

    bool correct = true;
    for (const CheckResult &c : checks) {
        std::printf("check %-26s %s  %s\n", c.name.c_str(),
                    c.ok ? "ok  " : "FAIL", c.detail.c_str());
        correct = correct && c.ok;
    }
    for (const Metric &mt : metrics) {
        if (!std::isfinite(mt.value))
            throw std::runtime_error("metric " + mt.name + " is not finite");
        std::printf("metric %-36s %.6g %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str());
    }
    std::printf("attempted=%d failed=%d correct=%s\n", attempted, failed,
                correct ? "true" : "false");

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 2;
    }
}
