/**
 * @file
 * solo_fullsystem: Table II kernels on FullSystem sessions, one cold
 * boot per kernel, with no fleet layer in the way.
 *
 * Each pass runs sgemm, sobelfilter, reduction, bfs, binarysearch and
 * spmv in a seed-permuted order.  Every kernel gets a cold-booted
 * FullSystem rt::Session with the default SystemConfig (asynchronous
 * submit) widened to kThreads GPU host threads and 8 shader cores, and
 * is checked by its workload's own host reference.  Kernels are
 * compiled once in set-up, so the timed window measures boot, guest
 * driver, GPU execution and readback.  Every pass does the same
 * simulated work, so its counts must repeat exactly pass after pass.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "requests.h"
#include "workloads/workload.h"

namespace perfbench {

namespace rt = bifsim::rt;
namespace wl = bifsim::workloads;
using bifsim::SimError;

namespace {

constexpr unsigned kSetupReps = 7;

const std::vector<std::string> &
kernelNames()
{
    static const std::vector<std::string> names = {
        "sgemm", "sobelfilter", "reduction", "bfs", "binarysearch", "spmv"};
    return names;
}

rt::SystemConfig
soloConfig()
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = kThreads;
    cfg.gpu.numCores = 8;
    return cfg;
}

/** One Table II workload with its kernels compiled in set-up. */
struct Prepared
{
    std::unique_ptr<wl::Workload> workload;
    std::vector<bifsim::kclc::CompiledKernel> kernels;
};

/**
 * A workloads::Device over one Session that loads the set-up's
 * compiled kernels instead of compiling, records a span around every
 * runtime call, and keeps each launch's latency and counters.
 */
class TimedDevice final : public wl::Device
{
  public:
    TimedDevice(rt::Session &s, const Prepared &p, trace::TraceBuffer *buf,
                uint64_t job)
        : s_(s), prepared_(p), buf_(buf), job_(job)
    {
    }

    void
    build(const std::string &, const bifsim::kclc::CompilerOptions &) override
    {
        for (const bifsim::kclc::CompiledKernel &k : prepared_.kernels)
            kernels_[k.name] = s_.load(k);
    }

    wl::BufHandle
    alloc(size_t bytes) override
    {
        rt::Buffer b = s_.alloc(bytes);
        buffers_[b.gpuVa] = b;
        return b.gpuVa;
    }

    void
    write(wl::BufHandle h, const void *src, size_t len,
          size_t offset) override
    {
        Span sp(buf_, "write", layer::kRuntime, job_, job_);
        s_.write(buffers_.at(h), src, len, offset);
    }

    void
    read(wl::BufHandle h, void *dst, size_t len, size_t offset) override
    {
        Span sp(buf_, "read", layer::kRuntime, job_, job_);
        s_.read(buffers_.at(h), dst, len, offset);
    }

    bool
    launch(const std::string &kernel, wl::Dim3 global, wl::Dim3 local,
           const std::vector<wl::WArg> &args, std::string &error) override
    {
        auto it = kernels_.find(kernel);
        if (it == kernels_.end()) {
            error = "kernel not built: " + kernel;
            return false;
        }
        std::vector<rt::Arg> rargs;
        for (const wl::WArg &a : args) {
            rt::Arg r;
            r.kind = a.kind == wl::WArg::Kind::Buf   ? rt::Arg::Kind::Buf
                     : a.kind == wl::WArg::Kind::F32 ? rt::Arg::Kind::F32
                     : a.kind == wl::WArg::Kind::U32 ? rt::Arg::Kind::U32
                                                     : rt::Arg::Kind::I32;
            r.value = a.value;
            rargs.push_back(r);
        }
        ++launches_;
        uint64_t t0 = trace::nowNs();
        bifsim::gpu::JobResult res;
        {
            Span sp(buf_, "enqueue", layer::kRuntime, job_, job_);
            res = s_.enqueue(it->second,
                             rt::NDRange{global.x, global.y, global.z},
                             rt::NDRange{local.x, local.y, local.z}, rargs);
        }
        latMs.push_back(static_cast<double>(trace::nowNs() - t0) * 1e-6);
        perJob.addJob(res);
        if (res.faulted) {
            error = "GPU fault: " + res.fault.detail;
            return false;
        }
        return true;
    }

    std::vector<double> latMs;   ///< Per launch, host ms.
    JobCounts perJob;            ///< Per-job fields over all launches.

  private:
    rt::Session &s_;
    const Prepared &prepared_;
    trace::TraceBuffer *buf_;
    uint64_t job_;
    std::map<std::string, rt::KernelHandle> kernels_;
    std::map<wl::BufHandle, rt::Buffer> buffers_;
};

/** bfs_step's visited check races benignly on cost[]: how often a
 *  thread still finds a vertex unvisited depends on how the GPU
 *  workers interleave, so its instruction count varies by a few
 *  instructions from run to run while its result does not. */
bool
racy(const std::string &kernel)
{
    return kernel == "bfs";
}

/** One pass over the six kernels. */
struct Pass
{
    double launchRate, instrRate;   ///< Per second.
    double steal;                   ///< Stolen CPU share during it.
    std::vector<double> latMs, bootMs;
};

/** Observations over a run of passes; figures come from the calm
 *  passes (see calmUnits). */
struct Window
{
    std::vector<Pass> passes;
    uint64_t launches = 0, kernelInstrs = 0;
    double seconds = 0;

    /** Launch latencies, boot times and rates of the calm passes. */
    struct Calm
    {
        std::vector<double> latMs, bootMs, launchRate, instrRate;
    };

    Calm
    calm() const
    {
        std::vector<double> steal;
        for (const Pass &p : passes)
            steal.push_back(p.steal);
        Calm c;
        for (size_t i : calmUnits(steal)) {
            const Pass &p = passes[i];
            c.latMs.insert(c.latMs.end(), p.latMs.begin(), p.latMs.end());
            c.bootMs.insert(c.bootMs.end(), p.bootMs.begin(),
                            p.bootMs.end());
            c.launchRate.push_back(p.launchRate);
            c.instrRate.push_back(p.instrRate);
        }
        return c;
    }
};

} // namespace

Result
runSolo(const Options &opt)
{
    Result res;
    std::map<std::string, double> &mx = res.metrics;
    Spans spans(opt.trace);
    trace::TraceBuffer *buf = spans.thread("main");

    std::vector<std::string> order = kernelNames();
    Rng rng(opt.seed);
    for (size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(static_cast<uint32_t>(i + 1))]);

    // ---- Set-up: inputs and compiled kernels, repeated. ----
    std::map<std::string, Prepared> prepared;
    mx["setup_s"] = calmMedianSeconds(
        kSetupReps,
        [&] {
            for (const std::string &name : order) {
                Prepared &p = prepared[name];
                p.workload = wl::makeWorkload(name);
                Span sp(buf, "compile", layer::kKclc, 0, 0);
                p.kernels = bifsim::kclc::compileAll(p.workload->source());
            }
        },
        [&] { prepared.clear(); });

    // Counts of each kernel's first run; later runs must match them.
    std::map<std::string, JobCounts> first;
    std::map<std::string, std::pair<uint64_t, uint64_t>> instrRange,
        driverRange;
    auto widen = [](std::pair<uint64_t, uint64_t> &r, uint64_t v) {
        if (r.first == 0 && r.second == 0)
            r = {v, v};
        r = {std::min(r.first, v), std::max(r.second, v)};
    };
    bifsim::sa32::CoreStats boot_cpu;
    uint64_t job = 0;

    auto window = [&](double secs, trace::TraceBuffer *tb) {
        Window w;
        double start = nowS();
        double deadline = start + secs;
        // Whole passes only: every pass is the same simulated work.
        while (nowS() < deadline) {
            CpuSample cpu0 = cpuSample();
            double pass_start = nowS();
            uint64_t pass_launches = 0, pass_instrs = 0;
            std::vector<double> pass_lat, pass_boot;
            for (const std::string &name : order) {
                const Prepared &p = prepared.at(name);
                ++job;
                ++res.attempted;
                Span root(tb, "kernel_run", layer::kBench, job, 0);
                try {
                    std::unique_ptr<rt::Session> session;
                    double t0 = nowS();
                    {
                        Span sp(tb, "boot", layer::kRuntime, job, job);
                        session = std::make_unique<rt::Session>(
                            soloConfig(), rt::Mode::FullSystem);
                    }
                    pass_boot.push_back((nowS() - t0) * 1e3);
                    rt::Session &s = *session;
                    boot_cpu = s.system().cpu().stats();
                    TimedDevice dev(s, p, tb, job);
                    dev.build(p.workload->source(), {});
                    JobCounts before = JobCounts::cumulative(s);
                    wl::RunResult rr = p.workload->run(dev);
                    if (!rr.ok) {
                        res.fail(name + ": " + rr.error);
                        continue;
                    }
                    JobCounts c = dev.perJob;
                    c.addDelta(JobCounts::cumulative(s), before);
                    auto [it, fresh] = first.emplace(name, c);
                    const JobCounts &f = it->second;
                    if (!fresh &&
                        (c.irqs != f.irqs || c.decodes != f.decodes ||
                         (!racy(name) && c.kernelInstrs != f.kernelInstrs)))
                        res.fail(name + ": simulated counts changed "
                                        "between runs of the same kernel");
                    widen(instrRange[name], c.kernelInstrs);
                    widen(driverRange[name], c.driverInstrs);
                    pass_lat.insert(pass_lat.end(), dev.latMs.begin(),
                                    dev.latMs.end());
                    pass_launches += rr.launches;
                    pass_instrs += c.kernelInstrs;
                } catch (const SimError &e) {
                    res.fail(name + ": " + e.what());
                }
            }
            double dt = nowS() - pass_start;
            w.passes.push_back({static_cast<double>(pass_launches) / dt,
                                static_cast<double>(pass_instrs) / dt,
                                stealShare(cpu0, cpuSample()),
                                std::move(pass_lat), std::move(pass_boot)});
            w.launches += pass_launches;
            w.kernelInstrs += pass_instrs;
        }
        w.seconds = nowS() - start;
        return w;
    };

    Window base = window(opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
    Window::Calm calm = base.calm();
    std::printf("solo window: %zu passes, %llu launches in %.2f s; %zu "
                "calm passes hold %zu launch latencies\n",
                base.passes.size(),
                static_cast<unsigned long long>(base.launches), base.seconds,
                calm.launchRate.size(), calm.latMs.size());
    if (first.size() != order.size())
        res.fail("the window did not run every kernel once");
    mx["jobs_per_s"] = median(calm.launchRate);
    mx["job_p50_ms"] = median(calm.latMs);
    mx["job_p99_ms"] = quantile(calm.latMs, 0.99);
    mx["sim_gpu_mips"] = median(calm.instrRate) * 1e-6;
    // Best-of-N, as ColdBoots explains.
    mx["boot_ms"] = calm.bootMs.empty()
                        ? 0
                        : *std::min_element(calm.bootMs.begin(),
                                            calm.bootMs.end());
    mx["peak_rss_mb"] = peakRssMb();

    JobCounts pass;
    uint64_t race_free_instrs = 0;
    for (const auto &[name, c] : first) {
        pass += c;
        if (!racy(name))
            race_free_instrs += c.kernelInstrs;
    }
    // Under asynchronous submit the guest driver's instruction count
    // depends on when the job IRQ lands, so it is reported, not fixed.
    res.fixedCounts = {
        {"gpu.kernel_instrs_race_free", race_free_instrs},
        {"gpu.irqs", pass.irqs},
        {"shader_cache.decodes", pass.decodes},
        {"cpu.instret", boot_cpu.instret},
    };
    auto noteVariation = [&] {
        for (const auto &[what, ranges] :
             {std::pair{"kernel instructions", &instrRange},
              std::pair{"driver instructions", &driverRange}})
            for (const auto &[name, r] : *ranges)
                if (r.first != r.second)
                    res.notes.push_back(name + " " + what + " ranged " +
                                        std::to_string(r.first) + ".." +
                                        std::to_string(r.second) +
                                        " across runs");
    };
    if (!opt.trace) {
        noteVariation();
        return res;
    }

    Window traced = window(opt.seconds / 2, buf);
    noteVariation();
    pass.report(mx);
    reportBoot(boot_cpu, mx);
    Window::Calm traced_calm = traced.calm();
    mx["trace.overhead_jobs_per_s"] =
        median(traced_calm.launchRate) - mx["jobs_per_s"];
    mx["trace.overhead_job_p50_ms"] =
        median(traced_calm.latMs) - mx["job_p50_ms"];

    std::vector<trace::Event> events = spans.collect();
    std::map<std::string, std::vector<double>> d = spanDurationsMs(events);
    mx["kclc.compile_ms"] = median(d["kclc.compile"]);
    mx["runtime.write_ms"] = median(d["runtime.write"]);
    mx["runtime.enqueue_ms"] = median(d["runtime.enqueue"]);
    mx["runtime.read_ms"] = median(d["runtime.read"]);
    mx["gpu.ns_per_kernel_instr"] =
        nsPer(d["runtime.enqueue"], traced.kernelInstrs);
    mx["bench.job_self_ms"] =
        median(rootCoverage(events, "kernel_run").selfMs());
    finishTrace(spans, events.size(), opt, mx);
    return res;
}

} // namespace perfbench
