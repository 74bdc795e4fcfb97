/** @file Unit tests for guest memory, its page-CRC cache and the
 *  system bus. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"

namespace bifsim {
namespace {

class StubDevice : public Device
{
  public:
    uint32_t lastWriteOffset = 0;
    uint32_t lastWriteValue = 0;
    int reads = 0;

    uint32_t
    mmioRead(Addr offset) override
    {
        reads++;
        return static_cast<uint32_t>(offset) + 0x100;
    }

    void
    mmioWrite(Addr offset, uint32_t value) override
    {
        lastWriteOffset = static_cast<uint32_t>(offset);
        lastWriteValue = value;
    }

    std::string name() const override { return "stub"; }
};

TEST(PhysMem, ReadWriteScalars)
{
    PhysMem m(0x80000000, 4096);
    m.write<uint32_t>(0x80000010, 0xCAFEBABE);
    EXPECT_EQ(m.read<uint32_t>(0x80000010), 0xCAFEBABEu);
    EXPECT_EQ(m.read<uint8_t>(0x80000010), 0xBEu);
    EXPECT_EQ(m.read<uint16_t>(0x80000012), 0xCAFEu);
    m.write<uint8_t>(0x80000013, 0x12);
    EXPECT_EQ(m.read<uint32_t>(0x80000010), 0x12FEBABEu);
}

TEST(PhysMem, Contains)
{
    PhysMem m(0x80000000, 4096);
    EXPECT_TRUE(m.contains(0x80000000, 4096));
    EXPECT_TRUE(m.contains(0x80000FFC, 4));
    EXPECT_FALSE(m.contains(0x80000FFD, 4));
    EXPECT_FALSE(m.contains(0x7FFFFFFF, 1));
    EXPECT_FALSE(m.contains(0x80001000, 1));
}

TEST(PhysMem, BlockOps)
{
    PhysMem m(0, 128);
    uint8_t src[4] = {1, 2, 3, 4};
    m.writeBlock(8, src, 4);
    uint8_t dst[4] = {};
    m.readBlock(8, dst, 4);
    EXPECT_EQ(dst[0], 1);
    EXPECT_EQ(dst[3], 4);
    m.fill(8, 0xEE, 2);
    EXPECT_EQ(m.read<uint8_t>(8), 0xEEu);
    EXPECT_EQ(m.read<uint8_t>(10), 3u);
}

TEST(Bus, RamRouting)
{
    PhysMem m(0x80000000, 4096);
    Bus bus;
    bus.attachMemory(&m);
    ASSERT_EQ(bus.write(0x80000020, 4, 0x1234), BusResult::Ok);
    uint64_t v = 0;
    ASSERT_EQ(bus.read(0x80000020, 4, v), BusResult::Ok);
    EXPECT_EQ(v, 0x1234u);
    ASSERT_EQ(bus.read(0x80000020, 8, v), BusResult::Ok);
    ASSERT_EQ(bus.read(0x80000020, 1, v), BusResult::Ok);
}

TEST(Bus, UnmappedIsError)
{
    PhysMem m(0x80000000, 4096);
    Bus bus;
    bus.attachMemory(&m);
    uint64_t v;
    EXPECT_EQ(bus.read(0x10000000, 4, v), BusResult::Unmapped);
    EXPECT_EQ(bus.write(0x90000000, 4, 1), BusResult::Unmapped);
}

TEST(Bus, DeviceRouting)
{
    Bus bus;
    StubDevice dev;
    bus.attachDevice(0x10000000, 0x1000, &dev);
    uint64_t v = 0;
    ASSERT_EQ(bus.read(0x10000008, 4, v), BusResult::Ok);
    EXPECT_EQ(v, 0x108u);
    ASSERT_EQ(bus.write(0x1000000C, 4, 77), BusResult::Ok);
    EXPECT_EQ(dev.lastWriteOffset, 0xCu);
    EXPECT_EQ(dev.lastWriteValue, 77u);
}

TEST(Bus, DeviceAccessSizeRules)
{
    Bus bus;
    StubDevice dev;
    bus.attachDevice(0x10000000, 0x1000, &dev);
    uint64_t v;
    EXPECT_EQ(bus.read(0x10000000, 1, v), BusResult::BadSize);
    EXPECT_EQ(bus.read(0x10000000, 8, v), BusResult::BadSize);
    EXPECT_EQ(bus.read(0x10000002, 4, v), BusResult::Misaligned);
    EXPECT_EQ(dev.reads, 0);
}

TEST(Bus, DeviceBoundary)
{
    Bus bus;
    StubDevice dev;
    bus.attachDevice(0x10000000, 0x1000, &dev);
    uint64_t v;
    EXPECT_EQ(bus.read(0x10000FFC, 4, v), BusResult::Ok);
    EXPECT_EQ(bus.read(0x10001000, 4, v), BusResult::Unmapped);
}

TEST(Bus, RamWinsOverDevice)
{
    // RAM and devices should not overlap, but if they do RAM wins
    // (checked first); this pins the routing priority.
    PhysMem m(0x80000000, 4096);
    Bus bus;
    StubDevice dev;
    bus.attachMemory(&m);
    bus.attachDevice(0x80000000, 0x1000, &dev);
    bus.write(0x80000000, 4, 5);
    uint64_t v;
    bus.read(0x80000000, 4, v);
    EXPECT_EQ(v, 5u);
    EXPECT_EQ(dev.reads, 0);
}

TEST(Bus, DeviceAt)
{
    Bus bus;
    StubDevice dev;
    bus.attachDevice(0x40000000, 0x10000, &dev);
    Addr base = 0;
    EXPECT_EQ(bus.deviceAt(0x40000abc, base), &dev);
    EXPECT_EQ(base, 0x40000000u);
    EXPECT_EQ(bus.deviceAt(0x50000000, base), nullptr);
}

// ------------------------------------------------------ page-CRC cache

constexpr Addr kRam = 0x80000000;
constexpr size_t kPage = PhysMem::kPageBytes;
constexpr size_t kOddSize = 16 * kPage + 100;   ///< Short last page.

/** The cache's oracle: every cached page CRC and the composed whole-RAM
 *  CRC against hashing RAM from scratch.  Returns the first mismatch,
 *  or "" when the cache is exact. */
std::string
cacheMismatch(PhysMem &m)
{
    const std::vector<uint32_t> &crcs = m.pageCrcs();
    const size_t pages = (m.size() + kPage - 1) / kPage;
    if (crcs.size() != pages)
        return strfmt("%zu page CRCs for %zu pages", crcs.size(), pages);
    for (size_t p = 0; p < pages; ++p) {
        const size_t off = p * kPage;
        if (crcs[p] != snapshot::crc32(m.hostPtr(m.base() + off),
                                       std::min(kPage, m.size() - off)))
            return strfmt("page %zu CRC is stale", p);
    }
    if (m.crc() != snapshot::crc32(m.hostPtr(m.base()), m.size()))
        return "composed crc() differs from crc32 over all of RAM";
    return "";
}

/** A MEM chunk of @p m's content. */
snapshot::ChunkWriter
memChunk(const PhysMem &m)
{
    snapshot::ChunkWriter w;
    m.saveState(w);
    return w;
}

TEST(PhysMemCrc, StraddlingStoreMarksBothPages)
{
    PhysMem m(kRam, kOddSize);
    Bus bus;
    bus.attachMemory(&m);
    ASSERT_EQ(cacheMismatch(m), "");
    ASSERT_EQ(bus.write(kRam + 3 * kPage - 4, 8, 0x0123456789abcdefull),
              BusResult::Ok);
    EXPECT_EQ(cacheMismatch(m), "");
    m.write<uint32_t>(kRam + 5 * kPage - 1, 0xa5a5a5a5u);
    EXPECT_EQ(cacheMismatch(m), "");
    m.write<uint16_t>(kRam + kOddSize - 2, 0xbeef);   // Short last page.
    EXPECT_EQ(cacheMismatch(m), "");
}

TEST(PhysMemCrc, RandomWritesThroughEveryHostPath)
{
    PhysMem m(kRam, kOddSize);
    Bus bus;
    bus.attachMemory(&m);
    PhysMem other(kRam, kOddSize);
    other.fill(kRam + 5 * kPage + 17, 0x3c, 2 * kPage);
    other.write<uint16_t>(kRam + kOddSize - 2, 0xbeef);
    const snapshot::ChunkWriter saved = memChunk(other);

    std::mt19937_64 rng(14);
    auto anyAddr = [&](size_t len) {
        return kRam + static_cast<Addr>(rng() % (kOddSize - len + 1));
    };
    for (int step = 0; step < 2000; ++step) {
        const unsigned path = static_cast<unsigned>(rng() % 8);
        switch (path) {
          case 0: {   // CPU store of 1/2/4/8 bytes, unaligned included.
            const unsigned size = 1u << (rng() % 4);
            ASSERT_EQ(bus.write(anyAddr(size), size, rng()), BusResult::Ok);
            break;
          }
          case 1:
            m.write<uint32_t>(anyAddr(4), static_cast<uint32_t>(rng()));
            break;
          case 2: {
            std::vector<uint8_t> src(rng() % (3 * kPage));
            for (uint8_t &b : src)
                b = static_cast<uint8_t>(rng());
            m.writeBlock(anyAddr(src.size()), src.data(), src.size());
            break;
          }
          case 3: {
            const size_t len = rng() % (3 * kPage);
            m.fill(anyAddr(len), static_cast<uint8_t>(rng()), len);
            break;
          }
          case 4: {
            const size_t len = 1 + rng() % kPage;
            std::memset(m.writablePtr(anyAddr(len), len),
                        static_cast<int>(rng() & 0xff), len);
            break;
          }
          case 5:
            if (rng() % 16 == 0)
                m.clear();
            break;
          case 6:
            if (rng() % 16 == 0) {
                snapshot::ChunkReader r(snapshot::kTagMem,
                                        saved.data().data(), saved.size());
                m.restoreState(r);
            }
            break;
          default:
            // Check only now and then, so stale pages must stay marked
            // across several writes and resets.
            ASSERT_EQ(cacheMismatch(m), "")
                << "step " << step;
            break;
        }
    }
    EXPECT_EQ(cacheMismatch(m), "");
}

TEST(PhysMemCrc, ResetsInstallTheirContentCrcs)
{
    // Each reset follows a crc() that cached the dirty content, so a
    // reset that left the cache alone would serve those stale CRCs.
    PhysMem src(kRam, kOddSize);
    src.fill(kRam + kPage, 0x11, 3 * kPage + 5);
    src.write<uint32_t>(kRam + 9 * kPage + 8, 0xfeedf00du);
    src.write<uint16_t>(kRam + kOddSize - 2, 0xbeef);
    snapshot::Writer w;
    src.saveState(w.chunk(snapshot::kTagMem));
    snapshot::Image image = snapshot::Image::fromBytes(w.finish());
    std::shared_ptr<RamImage> ram = RamImage::sealFromSnapshot(image);
    if (!ram)
        GTEST_SKIP() << "sealed memfd images need Linux";
    EXPECT_EQ(ram->pageCrcs(), src.pageCrcs());

    PhysMem m(kRam, kOddSize, ram);
    ASSERT_EQ(cacheMismatch(m), "");
    EXPECT_EQ(m.crc(), src.crc());

    m.fill(kRam + 2 * kPage, 0x77, 4 * kPage);
    ASSERT_EQ(cacheMismatch(m), "");
    ASSERT_TRUE(m.resetToImage());
    ASSERT_EQ(cacheMismatch(m), "");
    EXPECT_EQ(m.crc(), src.crc());

    m.fill(kRam, 0x99, kOddSize);
    ASSERT_EQ(cacheMismatch(m), "");
    m.clear();
    ASSERT_EQ(cacheMismatch(m), "");
    EXPECT_EQ(m.crc(), PhysMem(kRam, kOddSize).crc());

    m.fill(kRam + 7 * kPage, 0x42, kPage);
    ASSERT_EQ(cacheMismatch(m), "");
    ASSERT_TRUE(m.resetToImage());
    ASSERT_EQ(cacheMismatch(m), "");

    m.fill(kRam, 0x99, kOddSize);
    ASSERT_EQ(cacheMismatch(m), "");
    snapshot::ChunkReader r = image.chunk(snapshot::kTagMem);
    m.restoreState(r);
    ASSERT_EQ(cacheMismatch(m), "");
    EXPECT_EQ(m.crc(), src.crc());
}

const char *kMixSrc = R"(
kernel void mix(global int* out, global int* hist, int n, int salt) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * salt + 7;
        atomic_add(hist[i % 16], salt);
    }
}
)";

TEST(PhysMemCrc, GpuStoresAndAtomicsMarkTheirPages)
{
    // Four GPU workers store and add atomically into pages no host path
    // touched since the last hash.  Two jobs write the same pages with
    // a crc() between them: the second job's stores are seen only
    // because TLBs flush at the job boundary and the refill re-marks.
    struct Variant
    {
        rt::Mode mode;
        bool syncSubmit;
    };
    for (const Variant &v : {Variant{rt::Mode::Direct, true},
                             Variant{rt::Mode::Direct, false},
                             Variant{rt::Mode::FullSystem, false},
                             Variant{rt::Mode::FullSystem, true}}) {
        SCOPED_TRACE(strfmt("fullSystem=%d sync=%d",
                            v.mode == rt::Mode::FullSystem, v.syncSubmit));
        rt::SystemConfig cfg;
        cfg.ramBytes = 16u << 20;
        cfg.gpu.hostThreads = 4;
        cfg.gpu.syncSubmit = v.syncSubmit;
        rt::Session s(cfg, v.mode);
        PhysMem &m = s.system().mem();
        rt::KernelHandle k = s.compile(kMixSrc, "mix");
        constexpr uint32_t kN = 4096;   // Four pages of output.
        rt::Buffer out = s.alloc(kN * 4);
        rt::Buffer hist = s.alloc(16 * 4);
        std::vector<int32_t> init(kN, -1);
        s.write(out, init.data(), init.size() * 4);
        ASSERT_EQ(cacheMismatch(m), "");

        for (int32_t salt : {3, 5}) {
            gpu::JobResult r = s.enqueue(
                k, rt::NDRange{kN, 1, 1}, rt::NDRange{64, 1, 1},
                {rt::Arg::buf(out), rt::Arg::buf(hist),
                 rt::Arg::i32(static_cast<int32_t>(kN)),
                 rt::Arg::i32(salt)});
            ASSERT_FALSE(r.faulted) << r.fault.detail;
            ASSERT_EQ(cacheMismatch(m), "") << "after salt " << salt;
        }
        int32_t h0 = 0;
        s.read(hist, &h0, 4);
        EXPECT_EQ(h0, (3 + 5) * static_cast<int32_t>(kN / 16));
    }
}

} // namespace
} // namespace bifsim
