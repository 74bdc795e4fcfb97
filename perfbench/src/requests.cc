#include "requests.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "bench.h"
#include "snapshot/snapshot.h"

namespace perfbench {

namespace fl = bifsim::fleet;

namespace {

/** Launch geometry of one SGEMM variant at size m (see the kernels in
 *  workloads/sgemm_variants.cc). */
struct Geometry
{
    uint32_t gx, gy, lx, ly;
    bool transposedB;
};

Geometry
geometry(uint32_t variant, uint32_t m)
{
    switch (variant) {
    case 1: return {m, m, 8, 8, false};            // one thread/element
    case 2: return {16, 16, 16, 16, false};        // 16x16 tiles
    case 3: return {16, 4, 16, 4, false};          // 4 outputs/thread
    case 5: return {16, 16, 16, 16, true};         // tiles over Bt
    default: return {m / 2, m / 2, m / 2, m / 2, false};   // 6: 2x2 blocks
    }
}

/** Job shapes (m, variant) of one block of consecutive jobs: half at
 *  m = 8 and half at m = 16, each variant valid at that size equally
 *  often (variant 4 needs 32-wide tiles; 2, 3 and 5 need 16-wide
 *  ones).  A seeded permutation of the block orders it, so every run
 *  has the same mix and only its order and data depend on the seed. */
const std::vector<std::pair<uint32_t, uint32_t>> &
shapeBlock()
{
    static const std::vector<std::pair<uint32_t, uint32_t>> block = [] {
        std::vector<std::pair<uint32_t, uint32_t>> b;
        for (int i = 0; i < 5; ++i)
            for (uint32_t v : {1u, 6u})
                b.emplace_back(8, v);
        for (int i = 0; i < 2; ++i)
            for (uint32_t v : {1u, 2u, 3u, 5u, 6u})
                b.emplace_back(16, v);
        return b;
    }();
    return block;
}

/** Element @p index % n of a seeded permutation of 0..n-1, one
 *  permutation per block of n consecutive indices. */
size_t
permuted(uint64_t seed, unsigned client, uint64_t index, size_t n,
         uint64_t salt)
{
    Rng rng(seed ^ mix64(fleetJobId(client, index / n)) ^ salt);
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (size_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(static_cast<uint32_t>(i + 1))]);
    return perm[index % n];
}

fl::WriteSpec
matrixWrite(uint32_t buf, const std::vector<float> &v)
{
    fl::WriteSpec w;
    w.buf = buf;
    w.bytes.resize(v.size() * 4);
    std::memcpy(w.bytes.data(), v.data(), w.bytes.size());
    return w;
}

} // namespace

uint64_t
fleetJobId(unsigned client, uint64_t index)
{
    return (static_cast<uint64_t>(client + 1) << 40) | (index + 1);
}

FleetJob
makeSgemmJob(Rng &rng, uint64_t id, unsigned client, uint32_t m,
             uint32_t variant, bool ram_crc)
{
    FleetJob j;
    j.id = id;
    j.m = m;
    j.variant = variant;
    size_t elems = static_cast<size_t>(m) * m;
    j.a.resize(elems);
    j.b.resize(elems);
    for (float &v : j.a)
        v = rng.unitFloat();
    for (float &v : j.b)
        v = rng.unitFloat();

    Geometry g = geometry(variant, m);
    fl::JobRequest &r = j.req;
    r.tenant = "tenant-" + std::to_string(client);
    r.kernel = variant - 1;
    r.gx = g.gx;
    r.gy = g.gy;
    r.lx = g.lx;
    r.ly = g.ly;
    r.args = {{fl::ArgSpec::Kind::BufIndex, 0},
              {fl::ArgSpec::Kind::BufIndex, 1},
              {fl::ArgSpec::Kind::BufIndex, 2},
              {fl::ArgSpec::Kind::I32, m}};
    r.writes.push_back(matrixWrite(0, j.a));
    if (g.transposedB) {
        std::vector<float> bt(elems);
        for (uint32_t row = 0; row < m; ++row)
            for (uint32_t col = 0; col < m; ++col)
                bt[col * m + row] = j.b[row * m + col];
        r.writes.push_back(matrixWrite(1, bt));
    } else {
        r.writes.push_back(matrixWrite(1, j.b));
    }
    r.reads.push_back(fl::ReadSpec{2, 0, elems * 4});
    r.wantRamCrc = ram_crc;
    return j;
}

FleetJob
makeFleetJob(uint64_t seed, unsigned client, uint64_t index,
             bool ram_crc_mix)
{
    const auto &shapes = shapeBlock();
    auto [m, variant] =
        shapes[permuted(seed, client, index, shapes.size(), 0x5A9E)];
    // Exactly one job in each block of eight asks for the CRC, at a
    // seeded position, so every run hashes the same share of jobs.
    bool crc = ram_crc_mix && permuted(seed, client, index, 8, 0xB10C) == 0;
    uint64_t id = fleetJobId(client, index);
    Rng rng(seed ^ mix64(id));
    return makeSgemmJob(rng, id, client, m, variant, crc);
}

std::vector<uint8_t>
jobPayload(const fl::JobRequest &req)
{
    bifsim::snapshot::ChunkWriter w;
    req.serialize(w);
    return w.data();
}

std::string
checkReadback(const FleetJob &job, const std::vector<uint8_t> &readback)
{
    size_t elems = static_cast<size_t>(job.m) * job.m;
    if (readback.size() != elems * 4)
        return "readback is " + std::to_string(readback.size()) +
               " bytes, want " + std::to_string(elems * 4);
    std::vector<float> c(elems);
    std::memcpy(c.data(), readback.data(), readback.size());
    for (uint32_t row = 0; row < job.m; ++row) {
        for (uint32_t col = 0; col < job.m; ++col) {
            float want = 0;
            for (uint32_t k = 0; k < job.m; ++k)
                want += job.a[row * job.m + k] * job.b[k * job.m + col];
            float got = c[row * job.m + col];
            if (!(std::fabs(got - want) <= 1e-2f + 1e-3f * std::fabs(want)))
                return "C[" + std::to_string(row) + "," +
                       std::to_string(col) + "] = " + std::to_string(got) +
                       ", want " + std::to_string(want);
        }
    }
    return "";
}

JobCounts
JobCounts::cumulative(bifsim::rt::Session &s)
{
    bifsim::gpu::GpuDevice &gpu = s.system().gpu();
    bifsim::gpu::SystemStats sys = gpu.systemStats();
    bifsim::gpu::ShaderCacheStats sc = gpu.shaderCacheStats();
    bifsim::gpu::SchedStats sch = gpu.schedulerStats();
    JobCounts c;
    c.kernelInstrs = gpu.totalKernelStats().totalInstrs();
    c.driverInstrs = s.driverInstructions();
    c.irqs = sys.irqsAsserted;
    c.ctrlWrites = sys.ctrlRegWrites;
    c.decodes = sc.decodes;
    c.cacheHits = sc.hits;
    c.slices = sch.slicesRun;
    c.steals = sch.steals;
    c.stealAttempts = sch.stealAttempts;
    return c;
}

void
JobCounts::addDelta(const JobCounts &after, const JobCounts &before)
{
    kernelInstrs += after.kernelInstrs - before.kernelInstrs;
    driverInstrs += after.driverInstrs - before.driverInstrs;
    irqs += after.irqs - before.irqs;
    ctrlWrites += after.ctrlWrites - before.ctrlWrites;
    decodes += after.decodes - before.decodes;
    cacheHits += after.cacheHits - before.cacheHits;
    slices += after.slices - before.slices;
    steals += after.steals - before.steals;
    stealAttempts += after.stealAttempts - before.stealAttempts;
}

void
JobCounts::addJob(const bifsim::gpu::JobResult &r)
{
    pages += r.pagesAccessed;
    walks += r.tlb.walks;
    tlbLookups += r.tlb.lookups();
}

JobCounts &
JobCounts::operator+=(const JobCounts &o)
{
    addDelta(o, JobCounts());
    pages += o.pages;
    walks += o.walks;
    tlbLookups += o.tlbLookups;
    return *this;
}

void
JobCounts::report(std::map<std::string, double> &mx) const
{
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    mx["gpu.kernel_instrs"] = count(kernelInstrs);
    mx["cpu.driver_instrs"] = count(driverInstrs);
    mx["gpu.irqs"] = count(irqs);
    mx["gpu.ctrl_reg_writes"] = count(ctrlWrites);
    mx["gpu.pages_accessed"] = count(pages);
    mx["shader_cache.decodes"] = count(decodes);
    mx["shader_cache.hit_ratio"] = ratio(cacheHits, cacheHits + decodes);
    mx["gmmu.walks"] = count(walks);
    mx["gmmu.tlb_hit_ratio"] = ratio(tlbLookups - walks, tlbLookups);
    mx["sched.slices"] = count(slices);
    mx["sched.steals"] = count(steals);
    mx["sched.steal_attempts"] = count(stealAttempts);
    mx["sched.steal_success_ratio"] = ratio(steals, stealAttempts);
}

Outcome
runOnSession(bifsim::rt::Session &s, const FleetJob &job,
             trace::TraceBuffer *buf, JobCounts &counts)
{
    namespace rt = bifsim::rt;
    const fl::JobRequest &req = job.req;
    const std::vector<rt::Buffer> &buffers = s.buffers();
    std::vector<rt::Arg> args;
    for (const fl::ArgSpec &a : req.args)
        args.push_back(a.kind == fl::ArgSpec::Kind::BufIndex
                           ? rt::Arg::buf(buffers.at(a.value))
                           : rt::Arg::i32(static_cast<int32_t>(a.value)));

    JobCounts before = JobCounts::cumulative(s);
    for (const fl::WriteSpec &w : req.writes) {
        Span sp(buf, "write", layer::kRuntime, job.id, job.id);
        s.write(buffers.at(w.buf), w.bytes.data(), w.bytes.size(),
                static_cast<size_t>(w.offset));
    }
    bifsim::gpu::JobResult r;
    {
        Span sp(buf, "enqueue", layer::kRuntime, job.id, job.id);
        r = s.enqueue(s.kernels().at(req.kernel),
                      rt::NDRange{req.gx, req.gy, req.gz},
                      rt::NDRange{req.lx, req.ly, req.lz}, args);
    }
    if (r.faulted)
        throw bifsim::SimError("gpu fault: " + r.fault.detail);
    Outcome o;
    o.kernelInstrs = r.kernel.totalInstrs();
    for (const fl::ReadSpec &rd : req.reads) {
        Span sp(buf, "read", layer::kRuntime, job.id, job.id);
        std::vector<uint8_t> tmp(static_cast<size_t>(rd.length));
        s.read(buffers.at(rd.buf), tmp.data(), tmp.size(),
               static_cast<size_t>(rd.offset));
        o.readback.insert(o.readback.end(), tmp.begin(), tmp.end());
    }
    if (req.wantRamCrc) {
        Span sp(buf, "ram_crc", layer::kSnapshot, job.id, job.id);
        bifsim::PhysMem &mem = s.system().mem();
        o.ramCrc = bifsim::snapshot::crc32(
            mem.hostPtr(rt::System::kRamBase), mem.size());
    }
    counts.addDelta(JobCounts::cumulative(s), before);
    counts.addJob(r);
    return o;
}

} // namespace perfbench
