/** @file Tests for the mini guest OS / GPU driver running on the
 *  simulated CPU (the full-system software stack of the paper). */

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "guestos/guest_os.h"
#include "runtime/session.h"

namespace bifsim::guestos {
namespace {

using rt::Mode;
using rt::Session;
using rt::System;
using rt::SystemConfig;

const char *kCopy = R"(
kernel void copy(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i];
    }
}
)";

TEST(GuestOs, AssemblesForPlatformAddresses)
{
    Layout lay = defaultLayout(0x80000000);
    sa32::Program os =
        buildOs(lay, System::kUartBase, System::kIntcBase,
                System::kGpuBase, System::kGpuIntcLine);
    EXPECT_EQ(os.base, 0x80000000u);
    EXPECT_GT(os.bytes.size(), 200u);
    EXPECT_NO_THROW(os.symbol("trap_handler"));
    EXPECT_NO_THROW(os.symbol("install_mappings"));
}

/** The architectural state a FullSystem session is left in by its cold
 *  boot: whole-RAM CRC, retired instructions, PC and the 16 mailbox
 *  words. */
struct BootState
{
    uint32_t ramCrc = 0;
    uint64_t instret = 0;
    Addr pc = 0;
    std::array<uint32_t, 16> mailbox{};
};

BootState
bootState()
{
    Session s(SystemConfig(), Mode::FullSystem);
    BootState b;
    b.ramCrc = s.system().mem().crc();
    b.instret = s.system().cpu().stats().instret;
    b.pc = s.system().cpu().pc();
    Layout lay = defaultLayout(System::kRamBase);
    for (unsigned i = 0; i < b.mailbox.size(); ++i)
        b.mailbox[i] = s.system().mem().read<uint32_t>(lay.mailbox + 4 * i);
    return b;
}

/** Golden post-boot state, recorded with the OS assembled on every boot
 *  and every guest load on the general path.  Sharing the image and the
 *  inline RAM load path are pure speedups: a boot must land exactly
 *  here. */
const BootState kGoldenBoot = {
    .ramCrc = 0xbb4c9fb5u,
    .instret = 10001,   // The 10000-instruction budget plus one.
    .pc = 0x8000005c,   // Inside the mailbox poll loop.
    .mailbox = {},      // The guest leaves the mailbox zeroed.
};

void
expectGolden(const BootState &got, const char *where)
{
    const BootState &want = kGoldenBoot;
    EXPECT_EQ(got.ramCrc, want.ramCrc) << where;
    EXPECT_EQ(got.instret, want.instret) << where;
    EXPECT_EQ(got.pc, want.pc) << where;
    for (unsigned i = 0; i < want.mailbox.size(); ++i)
        EXPECT_EQ(got.mailbox[i], want.mailbox[i])
            << where << ": mailbox word " << i;
}

// Defined before every other test that boots a session, so that in a
// full run of this binary these boots are the process's first and race
// to build the shared OS image.
TEST(GuestOs, ConcurrentBootsMatchGoldenState)
{
    constexpr int kThreads = 4;
    std::vector<BootState> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&got, t] { got[t] = bootState(); });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        expectGolden(got[t], ("thread " + std::to_string(t)).c_str());
}

TEST(GuestOs, BootMatchesGoldenState)
{
    // Several boots in one process, all from the one shared OS image.
    for (int i = 0; i < 3; ++i)
        expectGolden(bootState(), ("boot " + std::to_string(i)).c_str());
}

TEST(GuestOs, DriverInstallsPageTablesTheGpuWalks)
{
    Session s(SystemConfig(), Mode::FullSystem);
    constexpr int kN = 512;
    std::vector<int32_t> in(kN);
    for (int i = 0; i < kN; ++i)
        in[i] = i * 3;
    rt::Buffer din = s.alloc(kN * 4);
    rt::Buffer dout = s.alloc(kN * 4);
    s.write(din, in.data(), kN * 4);
    rt::KernelHandle k = s.compile(kCopy, "copy");
    gpu::JobResult r = s.enqueue(k, rt::NDRange{kN, 1, 1},
                                 rt::NDRange{64, 1, 1},
                                 {rt::Arg::buf(din), rt::Arg::buf(dout),
                                  rt::Arg::i32(kN)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    std::vector<int32_t> got(kN);
    s.read(dout, got.data(), kN * 4);
    EXPECT_EQ(got, in);
    // The GPU's page-table root is the one the host handed the driver.
    EXPECT_NE(s.system().gpu().mmu().root(), 0u);
}

TEST(GuestOs, SecondSubmitSkipsExistingMappings)
{
    Session s(SystemConfig(), Mode::FullSystem);
    rt::Buffer b = s.alloc(4096);
    rt::KernelHandle k = s.compile(kCopy, "copy");
    auto args = std::vector<rt::Arg>{rt::Arg::buf(b), rt::Arg::buf(b),
                                     rt::Arg::i32(0)};
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{64, 1, 1}, args);
    uint64_t pages_after_first = s.mappedPages();
    uint64_t instrs_first = s.driverInstructions();
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{64, 1, 1}, args);
    // No new buffers: no new mappings; the second submission's driver
    // work is much smaller.
    EXPECT_EQ(s.mappedPages(), pages_after_first);
    uint64_t instrs_second = s.driverInstructions() - instrs_first;
    EXPECT_LT(instrs_second, instrs_first);
}

TEST(GuestOs, GpuFaultReportedThroughDriver)
{
    Session s(SystemConfig(), Mode::FullSystem);
    // Kernel reads far outside any mapping.
    const char *bad = R"(
kernel void bad(global int* out) {
    out[4194304] = 1;
}
)";
    rt::Buffer b = s.alloc(4096);
    rt::KernelHandle k = s.compile(bad, "bad");
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1},
                                 {rt::Arg::buf(b)});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::MmuFault);
    // The guest observed the fault (RESULT=1 in the mailbox).
    Layout lay = defaultLayout(System::kRamBase);
    EXPECT_EQ(s.system().mem().read<uint32_t>(lay.mailbox + kMbResult),
              1u);
}

TEST(GuestOs, IrqCountTracksSubmissions)
{
    Session s(SystemConfig(), Mode::FullSystem);
    rt::Buffer b = s.alloc(4096);
    rt::KernelHandle k = s.compile(kCopy, "copy");
    Layout lay = defaultLayout(System::kRamBase);
    for (int i = 1; i <= 3; ++i) {
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{64, 1, 1},
                  {rt::Arg::buf(b), rt::Arg::buf(b), rt::Arg::i32(0)});
        EXPECT_GE(s.system().mem().read<uint32_t>(lay.mailbox +
                                                  kMbIrqCount),
                  static_cast<uint32_t>(i));
    }
}

TEST(GuestOs, DriverWorkScalesWithPages)
{
    // The install_mappings loop is O(pages): a 64x larger buffer costs
    // substantially more driver instructions (the Fig. 9 mechanism).
    auto driver_cost = [&](size_t bytes) {
        Session s(SystemConfig(), Mode::FullSystem);
        rt::Buffer b = s.alloc(bytes);
        rt::KernelHandle k = s.compile(kCopy, "copy");
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{64, 1, 1},
                  {rt::Arg::buf(b), rt::Arg::buf(b), rt::Arg::i32(0)});
        return s.driverInstructions();
    };
    uint64_t small = driver_cost(4096);
    uint64_t large = driver_cost(4096 * 256);
    EXPECT_GT(large, small + 3000);
}

} // namespace
} // namespace bifsim::guestos
