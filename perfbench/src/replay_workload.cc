/**
 * @file
 * replay_validated: repeated validated replay of a recorded BRPL log.
 *
 * Set-up records a seeded stream of SGEMM jobs (the fleet generator's
 * client-0 stream) through the guest driver of a FullSystem session
 * with 32 MiB of RAM and synchronous submit, as bench_replay does, into
 * an in-memory log.  The timed window repeats replay::replay(log) with
 * validation on and one host thread: each chain re-records the
 * Recorder's per-page shadow CRC and fingerprints, and is diffed
 * against the log.  This is the only workload that measures the
 * replay layer and the Recorder's hashing, which differs from the
 * fleet's one whole-RAM pass per job.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "replay/replay.h"
#include "requests.h"
#include "workloads/sgemm_variants.h"

namespace perfbench {

namespace rt = bifsim::rt;
namespace rp = bifsim::replay;
using bifsim::SimError;

namespace {

constexpr unsigned kSetupReps = 3;
constexpr uint64_t kChains = 5;      // Jobs recorded into the log.
constexpr unsigned kPlainReplays = 9;
constexpr unsigned kBootsAtStart = 200;
constexpr unsigned kBootsPerReplay = 16;

rt::SystemConfig
recordConfig()
{
    rt::SystemConfig cfg;
    cfg.ramBytes = 32u << 20;
    cfg.gpu.hostThreads = 1;
    cfg.gpu.syncSubmit = true;   // Recording requires it.
    return cfg;
}

/** The recorded jobs: one chain per SGEMM variant valid at m = 16, in
 *  a seed-permuted order with seeded inputs.  SGEMM has no
 *  data-dependent branches, so every seed records the same simulated
 *  work in a different order on different data. */
std::vector<FleetJob>
recordedJobs(uint64_t seed)
{
    std::vector<uint32_t> variants = {1, 2, 3, 5, 6};
    Rng rng(seed ^ 0x5EC0DEull);
    for (size_t i = variants.size() - 1; i > 0; --i)
        std::swap(variants[i],
                  variants[rng.below(static_cast<uint32_t>(i + 1))]);
    std::vector<FleetJob> jobs;
    for (size_t i = 0; i < variants.size(); ++i)
        jobs.push_back(
            makeSgemmJob(rng, fleetJobId(0, i + 1), 0, 16, variants[i],
                         false));
    return jobs;
}

/** A recorded log plus the counts its recording moved. */
struct Recording
{
    std::vector<uint8_t> bytes;
    JobCounts counts;
    uint64_t kernelInstrs = 0;   ///< What every replay must re-execute.
};

Recording
record(const Options &opt, trace::TraceBuffer *buf, Result &res)
{
    rt::Session s(recordConfig(), rt::Mode::FullSystem);
    // Registry layout of the fleet's warm image: buffers A, B, C, then
    // kernels sgemm1..6, so fleet jobs run unchanged.
    size_t bytes = 32 * 32 * 4;
    for (int i = 0; i < 3; ++i)
        s.alloc(bytes);
    const char *src = bifsim::workloads::sgemmVariantsSource();
    for (int v = 1; v <= 6; ++v) {
        Span sp(buf, "compile", layer::kKclc, 0, 0);
        s.compile(src, "sgemm" + std::to_string(v));
    }
    // Prime the driver (GPU mappings installed) before recording.
    JobCounts ignored;
    runOnSession(s, makeFleetJob(opt.seed, 0, 0, false), nullptr, ignored);

    Recording r;
    Span sp(buf, "record", layer::kReplay, 0, 0);
    s.startRecording();
    for (const FleetJob &job : recordedJobs(opt.seed)) {
        ++res.attempted;
        Outcome o = runOnSession(s, job, buf, r.counts);
        std::string bad = checkReadback(job, o.readback);
        if (!bad.empty())
            res.fail("recorded job " + std::to_string(job.id) + ": " + bad);
        r.kernelInstrs += o.kernelInstrs;
    }
    r.bytes = s.stopRecording();
    return r;
}

} // namespace

Result
runReplay(const Options &opt)
{
    Result res;
    std::map<std::string, double> &mx = res.metrics;
    Spans spans(opt.trace);
    trace::TraceBuffer *buf = spans.thread("main");

    // ---- Set-up: record and parse the log, repeated. ----
    Recording rec;
    std::unique_ptr<rp::Log> log;
    mx["setup_s"] = calmMedianSeconds(kSetupReps, [&] {
        rec = record(opt, buf, res);
        std::vector<uint8_t> bytes = rec.bytes;
        Span sp(buf, "log_parse", layer::kReplay, 0, 0);
        log = std::make_unique<rp::Log>(rp::Log::fromBytes(std::move(bytes)));
    });

    rp::ReplayOptions validated;
    validated.hostThreads = 1;
    validated.validate = true;

    uint64_t replay_id = 0;
    struct Window
    {
        std::vector<double> msPerChain, steal;   ///< Per replay.
        uint64_t kernelInstrs = 0;
        double seconds = 0;

        /** Per-chain times of the calm replays (see calmUnits). */
        std::vector<double>
        calmMsPerChain() const
        {
            return pick(msPerChain, calmUnits(steal));
        }
    };
    // Cold boots of the recording configuration: a batch now, on an
    // idle machine, and one after each replay of the untraced window.
    ColdBoots boots(recordConfig());
    boots.run(kBootsAtStart);
    auto window = [&](double secs, trace::TraceBuffer *tb) {
        Window w;
        double start = nowS();
        double deadline = start + secs;
        while (nowS() < deadline) {
            ++replay_id;
            ++res.attempted;
            CpuSample cpu0 = cpuSample();
            double t0 = nowS();
            rp::ReplayResult rr;
            try {
                Span sp(tb, "validated", layer::kReplay, replay_id, 0);
                rr = rp::replay(*log, validated);
            } catch (const SimError &e) {
                res.fail(std::string("replay: ") + e.what());
                continue;
            }
            double ms = (nowS() - t0) * 1e3;
            if (!rr.ok)
                res.fail("replay diverged: " + rr.divergence);
            else if (rr.chains != kChains ||
                     rr.totalKernel.totalInstrs() != rec.kernelInstrs)
                res.fail("replay re-executed different work");
            w.msPerChain.push_back(ms / static_cast<double>(kChains));
            w.steal.push_back(stealShare(cpu0, cpuSample()));
            if (!tb)
                boots.run(kBootsPerReplay);
            w.kernelInstrs += rr.totalKernel.totalInstrs();
        }
        w.seconds = nowS() - start;
        return w;
    };

    Window base = window(opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
    // Every replay re-executes the same work, so the rates come from
    // the median calm replay.
    std::vector<double> calm = base.calmMsPerChain();
    std::printf("replay window: %zu validated replays of %llu chains in "
                "%.2f s, %zu of them calm\n",
                base.msPerChain.size(),
                static_cast<unsigned long long>(kChains), base.seconds,
                calm.size());
    double chain_ms = median(calm);
    mx["jobs_per_s"] = 1e3 / chain_ms;
    mx["job_p50_ms"] = chain_ms;
    mx["job_p99_ms"] = quantile(calm, 0.99);
    mx["sim_gpu_mips"] = static_cast<double>(rec.kernelInstrs) /
                         (chain_ms * 1e-3 * static_cast<double>(kChains)) *
                         1e-6;

    mx["boot_ms"] = boots.bestMs();
    mx["peak_rss_mb"] = peakRssMb();

    res.fixedCounts = {
        {"replay.chains", kChains},
        {"replay.log_bytes", rec.bytes.size()},
        {"replay.log_crc", bifsim::snapshot::crc32(rec.bytes.data(),
                                                   rec.bytes.size())},
        {"gpu.kernel_instrs", rec.kernelInstrs},
        {"cpu.driver_instrs", rec.counts.driverInstrs},
        {"gpu.irqs", rec.counts.irqs},
        {"shader_cache.decodes", rec.counts.decodes},
        {"cpu.instret", boots.cpu().instret},
    };
    if (!opt.trace)
        return res;

    Window traced = window(opt.seconds / 2, buf);
    rp::ReplayOptions plain = validated;
    plain.validate = false;
    for (unsigned i = 0; i < kPlainReplays; ++i) {
        ++res.attempted;
        try {
            Span sp(buf, "plain", layer::kReplay, ++replay_id, 0);
            if (rp::replay(*log, plain).chains != kChains)
                res.fail("plain replay re-executed different work");
        } catch (const SimError &e) {
            res.fail(std::string("plain replay: ") + e.what());
        }
    }

    rec.counts.report(mx);
    reportBoot(boots.cpu(), mx);
    mx["replay.chains"] = static_cast<double>(kChains);
    mx["replay.log_bytes"] = static_cast<double>(rec.bytes.size());
    mx["replay.chains_per_s"] = mx["jobs_per_s"];
    mx["trace.overhead_jobs_per_s"] =
        1e3 / median(traced.calmMsPerChain()) - mx["jobs_per_s"];
    mx["trace.overhead_job_p50_ms"] =
        median(traced.calmMsPerChain()) - mx["job_p50_ms"];

    std::vector<trace::Event> events = spans.collect();
    std::map<std::string, std::vector<double>> d = spanDurationsMs(events);
    double chains = static_cast<double>(kChains);
    mx["replay.validated_ms_per_chain"] = median(d["replay.validated"]) / chains;
    mx["replay.plain_ms_per_chain"] = median(d["replay.plain"]) / chains;
    mx["replay.record_ms"] = median(d["replay.record"]);
    mx["replay.log_parse_ms"] = median(d["replay.log_parse"]);
    mx["kclc.compile_ms"] = median(d["kclc.compile"]);
    mx["runtime.write_ms"] = median(d["runtime.write"]);
    mx["runtime.enqueue_ms"] = median(d["runtime.enqueue"]);
    mx["runtime.read_ms"] = median(d["runtime.read"]);
    mx["gpu.ns_per_kernel_instr"] =
        nsPer(d["replay.validated"], traced.kernelInstrs);
    finishTrace(spans, events.size(), opt, mx);
    return res;
}

} // namespace perfbench
