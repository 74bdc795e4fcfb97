/**
 * @file
 * CPU execution-tier A/B benchmark: interpreter (CoreConfig::dbt =
 * false) versus the threaded-code DBT tier with block chaining
 * (DESIGN.md §5g).
 *
 * Two workloads:
 *
 *  - guest_boot: a boot-shaped bare-metal guest (BSS clear, memory
 *    checksum/fill, then a call-heavy "scheduler" compute loop) run on
 *    a bare core.  Reports guest MIPS per tier; this is the gated
 *    series.
 *  - driver_loop: the full-system guest driver servicing GPU enqueues
 *    (Session FullSystem mode), the paper's CPU/GPU interaction path.
 *    Reports wall seconds and driver-side MIPS per tier (GPU
 *    simulation time dilutes the end-to-end speedup by design).
 *  - session_boot: wall time of a cold FullSystem Session (guest OS
 *    image load plus its 10000-instruction init budget on the DBT
 *    tier).  Records the first boot in the process, which alone
 *    assembles the guest OS image, and the best of the rest; recorded,
 *    never gated.
 *
 * Results land in BENCH_cpu_dbt.json.  `--gate` exits non-zero if the
 * guest_boot DBT speedup falls below 3x, the same arming pattern as
 * fig10's thread-scaling gate.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "cpu/asm/assembler.h"
#include "cpu/core.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "runtime/session.h"

namespace {

using namespace bifsim;

constexpr Addr kBase = 0x80000000;

/** Boot-shaped guest: clear 256 KiB, checksum+pattern it, then run a
 *  call-heavy compute loop @p sched_iters times and halt. */
std::string
bootProgram(unsigned sched_iters)
{
    return R"(
        .org 0x80000000
        la   t0, handler
        csrw mtvec, t0

        # Phase 1: clear 256 KiB of "BSS".
        li   t0, 0x80100000
        li   t1, 0x80140000
clear:
        sw   zero, 0(t0)
        sw   zero, 4(t0)
        sw   zero, 8(t0)
        sw   zero, 12(t0)
        addi t0, t0, 16
        bltu t0, t1, clear

        # Phase 2: checksum the region and fill it with a pattern.
        li   t0, 0x80100000
        li   t1, 0x80140000
        li   s0, 0
fill:
        lw   t2, 0(t0)
        add  s0, s0, t2
        xor  t2, s0, t0
        sw   t2, 0(t0)
        addi t0, t0, 4
        bltu t0, t1, fill

        # Phase 3: "scheduler" loop, one call per tick.  The task leaf
        # mixes several accumulators (checksum-style, with normal ILP)
        # and a data-dependent branch, the shape of driver bookkeeping
        # code.
        li   s1, 0
        li   s2, )" + std::to_string(sched_iters) + R"(
sched:
        jal  ra, task
        addi s1, s1, 1
        bltu s1, s2, sched
        halt
task:
        li   t0, 0
        li   t1, 50
tloop:
        xor  a0, a0, t0
        add  a1, a1, s1
        srli a2, a0, 3
        andi t2, t0, 3
        beqz t2, tskip
        add  a3, a3, a2
tskip:
        addi t0, t0, 1
        blt  t0, t1, tloop
        mul  t3, a0, a1
        add  s0, s0, t3
        ret
handler:
        mret
)";
}

struct TierMetrics
{
    double secs = 0;
    double mips = 0;
    uint64_t instret = 0;
};

/** One booted core per tier, reusable across timed reps. */
struct BootTier
{
    PhysMem mem;
    Bus bus;
    sa32::Core core;

    BootTier(const sa32::Program &prog, bool dbt)
        : mem(kBase, 8u << 20), bus(),
          core(bus, [&] {
              sa32::CoreConfig cfg;
              cfg.dbt = dbt;
              return cfg;
          }())
    {
        bus.attachMemory(&mem);
        prog.loadInto(mem);
        core.reset();
        // Warm-up pass populates the decode / translation cache.
        while (core.run(1u << 20) == sa32::StopReason::MaxInsts) {
        }
    }

    /** Run the guest to halt once; fold the rep into @p m if fastest. */
    void rep(TierMetrics &m)
    {
        core.reset();
        uint64_t instret0 = core.stats().instret;
        bench::Timer t;
        // Sliced like System::runCpu, so run-entry overhead counts.
        sa32::StopReason r;
        do {
            r = core.run(100000);
        } while (r == sa32::StopReason::MaxInsts);
        double secs = t.seconds();
        if (secs < m.secs) {
            m.secs = secs;
            m.instret = core.stats().instret - instret0;
        }
    }
};

/** A/B the interpreter and DBT tiers on the boot guest.  Reps are
 *  interleaved tier-by-tier and the best of five kept per tier, so a
 *  transient load spike on the host hits both sides of the ratio
 *  rather than one tier's contiguous timing window (the CI gate rides
 *  on this ratio and the box may be contended). */
void
runBoot(const sa32::Program &prog, TierMetrics &interp, TierMetrics &dbt)
{
    BootTier a(prog, false);
    BootTier b(prog, true);
    interp.secs = 1e30;
    dbt.secs = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        a.rep(interp);
        b.rep(dbt);
    }
    interp.mips =
        interp.secs > 0 ? interp.instret / interp.secs / 1e6 : 0;
    dbt.mips = dbt.secs > 0 ? dbt.instret / dbt.secs / 1e6 : 0;
}

const char *kTriad = R"(
kernel void triad(global const float* a, global const float* b,
                  global float* c, float s, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + s * b[i];
    }
}
)";

TierMetrics
runDriverLoop(bool dbt, int n, int launches)
{
    rt::SystemConfig cfg;
    cfg.cpuDbt = dbt;
    rt::Session s(cfg, rt::Mode::FullSystem);

    rt::KernelHandle k = s.compile(kTriad, "triad");
    size_t bytes = static_cast<size_t>(n) * 4;
    rt::Buffer a = s.alloc(bytes);
    rt::Buffer b = s.alloc(bytes);
    rt::Buffer c = s.alloc(bytes);
    std::vector<float> init(n);
    for (int i = 0; i < n; ++i)
        init[i] = 0.5f * static_cast<float>(i % 31);
    s.write(a, init.data(), bytes);
    s.write(b, init.data(), bytes);
    std::vector<rt::Arg> args = {rt::Arg::buf(a), rt::Arg::buf(b),
                                 rt::Arg::buf(c), rt::Arg::f32(2.0f),
                                 rt::Arg::i32(n)};
    rt::NDRange global{static_cast<uint32_t>(n), 1, 1};
    rt::NDRange local{64, 1, 1};

    s.enqueue(k, global, local, args);   // Warm-up.

    TierMetrics m;
    uint64_t before = s.driverInstructions();
    bench::Timer t;
    for (int it = 0; it < launches; ++it) {
        gpu::JobResult r = s.enqueue(k, global, local, args);
        if (r.faulted) {
            std::fprintf(stderr, "driver_loop: job faulted\n");
            std::exit(1);
        }
    }
    m.secs = t.seconds();
    m.instret = s.driverInstructions() - before;
    m.mips = m.secs > 0 ? m.instret / m.secs / 1e6 : 0;
    return m;
}

/** Cold FullSystem boots, timed one by one. */
struct BootTiming
{
    double firstSecs = 0;   ///< The process's first boot.
    double bestSecs = 0;    ///< Fastest of the later boots.
    uint64_t instret = 0;   ///< Guest instructions one boot retires.
};

/** Boots @p reps fresh Sessions.  One GPU host thread with inline
 *  submit, so a boot starts no host thread and the timing is the
 *  guest boot itself.  Must run before any other Session in the
 *  process for firstSecs to include the OS assembly. */
BootTiming
runSessionBoot(int reps)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 1;
    cfg.gpu.syncSubmit = true;
    BootTiming b;
    b.bestSecs = 1e30;
    for (int i = 0; i < reps; ++i) {
        bench::Timer t;
        rt::Session s(cfg, rt::Mode::FullSystem);
        double secs = t.seconds();
        if (i == 0)
            b.firstSecs = secs;
        else
            b.bestSecs = std::min(b.bestSecs, secs);
        b.instret = s.system().cpu().stats().instret;
    }
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.25);
    bool gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gate") == 0)
            gate = true;
    }
    setInformEnabled(false);

    bench::banner("CPU DBT tier — threaded code + block chaining",
                  "A/B of the interpreter oracle vs the DBT tier on a "
                  "boot-shaped guest and the full-system driver loop.");

    unsigned sched_iters =
        static_cast<unsigned>(40000 * opt.scale);
    if (sched_iters < 1000)
        sched_iters = 1000;
    sa32::Program boot = sa32::assemble(bootProgram(sched_iters));

    TierMetrics boot_interp, boot_dbt;
    runBoot(boot, boot_interp, boot_dbt);
    double boot_speedup = boot_dbt.secs > 0 && boot_interp.secs > 0
                              ? boot_interp.secs / boot_dbt.secs
                              : 0;

    constexpr int kBootReps = 100;
    BootTiming boot_timing = runSessionBoot(kBootReps);

    int n = static_cast<int>(8192 * opt.scale) & ~63;
    if (n < 256)
        n = 256;
    int launches = 6;
    TierMetrics drv_interp = runDriverLoop(false, n, launches);
    TierMetrics drv_dbt = runDriverLoop(true, n, launches);
    double drv_speedup = drv_dbt.secs > 0 && drv_interp.secs > 0
                             ? drv_interp.secs / drv_dbt.secs
                             : 0;

    std::printf("%-12s %14s %14s %9s %14s\n", "workload", "interp MIPS",
                "DBT MIPS", "speedup", "guest insts");
    std::printf("%-12s %14.1f %14.1f %8.2fx %14llu\n", "guest_boot",
                boot_interp.mips, boot_dbt.mips, boot_speedup,
                static_cast<unsigned long long>(boot_dbt.instret));
    std::printf("%-12s %14.1f %14.1f %8.2fx %14llu\n", "driver_loop",
                drv_interp.mips, drv_dbt.mips, drv_speedup,
                static_cast<unsigned long long>(drv_dbt.instret));
    std::printf("%-12s first %.3f ms, best of %d %.3f ms, %llu guest "
                "insts\n",
                "session_boot", boot_timing.firstSecs * 1e3,
                kBootReps - 1, boot_timing.bestSecs * 1e3,
                static_cast<unsigned long long>(boot_timing.instret));
    std::printf("\nguest_boot DBT speedup: %.2fx (gate >= 3x: %s)\n",
                boot_speedup, gate ? "enforced" : "not requested");

    bench::Report report("cpu_dbt", opt.scale);
    auto tier = [](const TierMetrics &tm) {
        json::Value t = json::Value::object();
        t.set("secs", json::Value(tm.secs));
        t.set("mips", json::Value(tm.mips));
        return t;
    };
    json::Value gb = json::Value::object();
    gb.set("instret", json::Value(boot_dbt.instret));
    gb.set("interp", tier(boot_interp));
    gb.set("dbt", tier(boot_dbt));
    gb.set("speedup", json::Value(boot_speedup));
    report.metrics().set("guest_boot", std::move(gb));
    json::Value dl = json::Value::object();
    dl.set("driver_instret", json::Value(drv_dbt.instret));
    dl.set("interp", tier(drv_interp));
    dl.set("dbt", tier(drv_dbt));
    dl.set("speedup", json::Value(drv_speedup));
    report.metrics().set("driver_loop", std::move(dl));
    json::Value sb = json::Value::object();
    sb.set("instret", json::Value(boot_timing.instret));
    sb.set("reps", json::Value(kBootReps));
    sb.set("first_ms", json::Value(boot_timing.firstSecs * 1e3));
    sb.set("best_ms", json::Value(boot_timing.bestSecs * 1e3));
    report.metrics().set("session_boot", std::move(sb));
    report.gate("guest_boot.speedup", 3.0, boot_speedup, gate);
    report.write();

    if (gate && boot_speedup < 3.0) {
        std::fprintf(stderr,
                     "FAIL: guest_boot DBT speedup %.2fx below the 3x "
                     "gate\n",
                     boot_speedup);
        return 1;
    }
    return 0;
}
