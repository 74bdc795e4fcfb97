/** @file Differential validation of the GPU model (paper §V-A2): the
 *  optimised warp executor is fuzzed against the independent reference
 *  interpreter over randomly generated BIF programs — the open
 *  equivalent of tracing against Arm's proprietary simulator. */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>

#include "gpu/isa/bif.h"
#include "gpu/ref/ref_interp.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"
#include "workloads/sgemm_variants.h"

namespace bifsim {
namespace {

using bif::Instr;
using bif::Op;

constexpr uint8_t kNone = bif::kOperandNone;

/** Ops safe for pure-arithmetic fuzzing (no memory, no CF). */
const Op kFuzzOps[] = {
    Op::FAdd, Op::FSub, Op::FMul, Op::FFma, Op::FMin, Op::FMax,
    Op::FAbs, Op::FNeg, Op::FFloor, Op::IAdd, Op::ISub, Op::IMul,
    Op::IAnd, Op::IOr, Op::IXor, Op::INot, Op::IShl, Op::IShr,
    Op::IAsr, Op::IMin, Op::IMax, Op::UMin, Op::UMax, Op::FCmp,
    Op::ICmp, Op::UCmp, Op::CSel, Op::Mov, Op::MovImm, Op::F2I,
    Op::F2U, Op::I2F, Op::U2F, Op::IDiv, Op::IRem, Op::UDiv, Op::URem,
    Op::LdRom,
};

/** Generates a random arithmetic program: several clauses, GRF-only
 *  operands (plus specials), with structurally valid slot placement. */
bif::Module
randomProgram(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto reg = [&]() -> uint8_t {
        return static_cast<uint8_t>(rng() % 16);   // r0..r15
    };
    auto src = [&]() -> uint8_t {
        uint32_t pick = rng() % 10;
        if (pick < 7)
            return reg();
        if (pick < 9) {
            return static_cast<uint8_t>(bif::kSrLaneId +
                                        rng() % (bif::kSrZero -
                                                 bif::kSrLaneId + 1));
        }
        return bif::kSrZero;
    };

    bif::Module m;
    unsigned num_clauses = 1 + rng() % 4;
    for (unsigned c = 0; c < num_clauses; ++c) {
        bif::Clause cl;
        unsigned tuples = 1 + rng() % bif::kMaxTuplesPerClause;
        for (unsigned t = 0; t < tuples; ++t) {
            bif::Tuple tu;
            for (int s = 0; s < 2; ++s) {
                if (rng() % 5 == 0)
                    continue;   // Leave an empty slot.
                Instr in;
                in.op = kFuzzOps[rng() % std::size(kFuzzOps)];
                in.dst = reg();
                in.src0 = src();
                in.src1 = src();
                in.src2 = src();
                in.imm = static_cast<int32_t>(rng() % 11) - 5;
                if (in.op == Op::LdRom)
                    in.imm = static_cast<int32_t>(rng() % 4);
                tu.slot[s] = in;
            }
            cl.tuples.push_back(tu);
        }
        m.clauses.push_back(cl);
    }
    // Terminate.
    bif::Tuple ret;
    ret.slot[1].op = Op::Ret;
    m.clauses.back().tuples.push_back(ret);
    if (m.clauses.back().tuples.size() > bif::kMaxTuplesPerClause) {
        bif::Clause cl;
        cl.tuples.push_back(m.clauses.back().tuples.back());
        m.clauses.back().tuples.pop_back();
        m.clauses.push_back(cl);
    }
    m.rom = {0x3f800000, 0x40000000, 0xbf000000, 0x00000007};
    m.regCount = 16;
    return m;
}

/** Runs the program on the full GPU model and dumps each thread's
 *  GRF to a buffer, then compares against the reference interpreter
 *  thread by thread. */
class DifferentialFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DifferentialFuzz, CoreMatchesReference)
{
    uint32_t seed = GetParam();
    bif::Module prog = randomProgram(seed);
    ASSERT_EQ(bif::validate(prog), "");

    // Append a dump stage: out[(gid*16 + i)*4] = r_i for r0..r15.
    bif::Module dumper = prog;
    // Recompute global id into r16.. using specials (kept out of the
    // fuzzed register range r0..r15).
    bif::Clause dump;
    auto add = [&](Instr in) {
        bif::Tuple t;
        t.slot[0] = in;
        dump.tuples.push_back(t);
        if (dump.tuples.size() == bif::kMaxTuplesPerClause) {
            dumper.clauses.push_back(dump);
            dump.tuples.clear();
        }
    };
    Instr in;
    in = Instr();
    in.op = Op::IMul;
    in.dst = 16;
    in.src0 = bif::kSrGroupIdX;
    in.src1 = bif::kSrLocalSizeX;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 16;
    in.src0 = 16;
    in.src1 = bif::kSrLocalIdX;
    add(in);
    // r17 = base + gid*64
    in = Instr();
    in.op = Op::MovImm;
    in.dst = 18;
    in.imm = 6;
    add(in);
    in = Instr();
    in.op = Op::IShl;
    in.dst = 17;
    in.src0 = 16;
    in.src1 = 18;
    add(in);
    in = Instr();
    in.op = Op::LdArg;
    in.dst = 19;
    in.imm = 0;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 17;
    in.src0 = 17;
    in.src1 = 19;
    add(in);
    for (int r = 0; r < 16; ++r) {
        in = Instr();
        in.op = Op::StGlobal;
        in.dst = kNone;
        in.src0 = 17;
        in.src1 = static_cast<uint8_t>(r);
        in.imm = r * 4;
        add(in);
    }
    if (!dump.tuples.empty())
        dumper.clauses.push_back(dump);
    bif::Clause fin;
    bif::Tuple rt;
    rt.slot[1].op = Op::Ret;
    fin.tuples.push_back(rt);
    dumper.clauses.push_back(fin);
    dumper.regCount = 20;   // The dump stage scratches r16..r19.

    // Strip the original Ret (it would end threads before the dump).
    for (bif::Clause &cl : dumper.clauses) {
        for (bif::Tuple &t : cl.tuples) {
            for (Instr &i2 : t.slot) {
                if (i2.op == Op::Ret &&
                    &cl != &dumper.clauses.back()) {
                    i2 = Instr();   // Nop
                }
            }
        }
    }
    ASSERT_EQ(bif::validate(dumper), "");

    constexpr uint32_t kThreads = 8;
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session session(cfg);
    kclc::CompiledKernel ck;
    ck.name = "fuzz";
    ck.mod = dumper;
    ck.binary = bif::encode(dumper);
    rt::KernelHandle k = session.load(ck);
    rt::Buffer out = session.alloc(kThreads * 64);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{kThreads, 1, 1}, rt::NDRange{4, 1, 1},
        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    std::vector<uint32_t> got(kThreads * 16);
    session.read(out, got.data(), got.size() * 4);

    // Reference: run each thread independently on the scalar
    // interpreter over the *original* program.
    for (uint32_t t = 0; t < kThreads; ++t) {
        gpu::ref::RefContext ctx;
        ctx.localId[0] = t % 4;
        ctx.groupId[0] = t / 4;
        ctx.localSize[0] = 4;
        ctx.gridSize[0] = kThreads;
        ctx.numGroups[0] = kThreads / 4;
        ctx.laneId = t % 4;
        gpu::ref::RefResult rr = gpu::ref::runThread(prog, ctx);
        ASSERT_TRUE(rr.ok) << rr.error;
        for (int reg = 0; reg < 16; ++reg) {
            EXPECT_EQ(got[t * 16 + reg], rr.grf[reg])
                << "seed " << seed << " thread " << t << " r" << reg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, DifferentialFuzz,
                         ::testing::Range(1u, 33u));

/** Random forward-branching program: every clause may end in a
 *  Branch/BranchZ/BranchNZ to a later clause, conditions derived from
 *  lane-varying state so warps actually diverge.  No Ret — threads
 *  fall off the end (so a dump stage can be appended unchanged). */
bif::Module
randomBranchProgram(uint32_t seed)
{
    std::mt19937 rng(seed);
    bif::Module m;
    unsigned num_clauses = 4 + rng() % 5;   // 4..8
    static const Op kOps[] = {Op::IAdd, Op::ISub, Op::IXor, Op::IAnd,
                              Op::MovImm, Op::IMul, Op::ICmp};
    for (unsigned c = 0; c < num_clauses; ++c) {
        bif::Clause cl;
        if (c == 0) {
            // Seed lane-varying state into r0 so conditions diverge.
            Instr in;
            in.op = Op::IAdd;
            in.dst = 0;
            in.src0 = bif::kSrLaneId;
            in.src1 = bif::kSrLocalIdX;
            bif::Tuple t;
            t.slot[0] = in;
            cl.tuples.push_back(t);
        }
        unsigned tuples = 1 + rng() % 3;
        for (unsigned t = 0; t < tuples; ++t) {
            Instr in;
            in.op = kOps[rng() % std::size(kOps)];
            in.dst = static_cast<uint8_t>(rng() % 8);
            in.src0 = static_cast<uint8_t>(rng() % 8);
            in.src1 = static_cast<uint8_t>(rng() % 8);
            in.imm = static_cast<int32_t>(rng() % 7) - 3;
            if (in.op == Op::ICmp)
                in.imm = static_cast<int32_t>(rng() % 6);
            bif::Tuple tu;
            tu.slot[0] = in;
            cl.tuples.push_back(tu);
        }
        if (c + 1 < num_clauses && rng() % 4 != 0) {
            Instr br;
            unsigned kind = rng() % 3;
            br.op = kind == 0   ? Op::Branch
                    : kind == 1 ? Op::BranchZ
                                : Op::BranchNZ;
            if (br.op != Op::Branch)
                br.src0 = static_cast<uint8_t>(rng() % 8);
            br.imm = static_cast<int32_t>(c + 1 +
                                          rng() % (num_clauses - c - 1));
            bif::Tuple bt;
            bt.slot[1] = br;
            cl.tuples.push_back(bt);
        }
        m.clauses.push_back(cl);
    }
    m.regCount = 8;
    return m;
}

/** Branch/BranchZ/BranchNZ clauses: the fast path and the scalar
 *  reference must agree bit-exactly on the final GRF state (the
 *  analyzer's CFG is built from the same successor rules, so all of
 *  them define the executed paths). */
class BranchDifferential : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BranchDifferential, AllInterpretersAgree)
{
    uint32_t seed = GetParam();
    bif::Module prog = randomBranchProgram(seed);
    ASSERT_EQ(bif::validate(prog), "");

    // Append the dump stage: out[gid*32 + i*4] = r_i for r0..r7.
    bif::Module dumper = prog;
    bif::Clause dump;
    auto add = [&](Instr in) {
        bif::Tuple t;
        t.slot[0] = in;
        dump.tuples.push_back(t);
        if (dump.tuples.size() == bif::kMaxTuplesPerClause) {
            dumper.clauses.push_back(dump);
            dump.tuples.clear();
        }
    };
    Instr in;
    in = Instr();
    in.op = Op::IMul;
    in.dst = 16;
    in.src0 = bif::kSrGroupIdX;
    in.src1 = bif::kSrLocalSizeX;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 16;
    in.src0 = 16;
    in.src1 = bif::kSrLocalIdX;
    add(in);
    in = Instr();
    in.op = Op::MovImm;
    in.dst = 18;
    in.imm = 5;
    add(in);
    in = Instr();
    in.op = Op::IShl;
    in.dst = 17;
    in.src0 = 16;
    in.src1 = 18;
    add(in);
    in = Instr();
    in.op = Op::LdArg;
    in.dst = 19;
    in.imm = 0;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 17;
    in.src0 = 17;
    in.src1 = 19;
    add(in);
    for (int r = 0; r < 8; ++r) {
        in = Instr();
        in.op = Op::StGlobal;
        in.dst = kNone;
        in.src0 = 17;
        in.src1 = static_cast<uint8_t>(r);
        in.imm = r * 4;
        add(in);
    }
    if (!dump.tuples.empty())
        dumper.clauses.push_back(dump);
    bif::Clause fin;
    bif::Tuple rt;
    rt.slot[1].op = Op::Ret;
    fin.tuples.push_back(rt);
    dumper.clauses.push_back(fin);
    dumper.regCount = 20;
    ASSERT_EQ(bif::validate(dumper), "");

    constexpr uint32_t kThreads = 8;
    std::vector<uint32_t> fast(kThreads * 8);
    {
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = 2;
        rt::Session s(cfg);
        kclc::CompiledKernel ck;
        ck.name = "branchfuzz";
        ck.mod = dumper;
        ck.binary = bif::encode(dumper);
        ck.regCount = dumper.regCount;
        rt::KernelHandle k = s.load(ck);
        rt::Buffer out = s.alloc(kThreads * 32);
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{kThreads, 1, 1}, rt::NDRange{4, 1, 1},
            {rt::Arg::buf(out)});
        EXPECT_FALSE(r.faulted) << r.fault.detail;
        s.read(out, fast.data(), fast.size() * 4);
    }

    for (uint32_t t = 0; t < kThreads; ++t) {
        gpu::ref::RefContext ctx;
        ctx.localId[0] = t % 4;
        ctx.groupId[0] = t / 4;
        ctx.localSize[0] = 4;
        ctx.gridSize[0] = kThreads;
        ctx.numGroups[0] = kThreads / 4;
        ctx.laneId = t % 4;
        gpu::ref::RefResult rr = gpu::ref::runThread(prog, ctx);
        ASSERT_TRUE(rr.ok) << rr.error;
        for (int reg = 0; reg < 8; ++reg) {
            EXPECT_EQ(fast[t * 8 + reg], rr.grf[reg])
                << "seed " << seed << " thread " << t << " r" << reg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BranchSeeds, BranchDifferential,
                         ::testing::Range(1u, 25u));

/** The reference interpreter's tracing mode (paper's instruction
 *  tracing validation). */
TEST(RefInterp, TraceMode)
{
    bif::Module m = randomProgram(7);
    gpu::ref::RefContext ctx;
    gpu::ref::RefResult r = gpu::ref::runThread(m, ctx, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.trace.size(), r.executedInstrs);
    EXPECT_FALSE(r.trace.empty());
}

/** Runs sgemm1 (naive, no barriers) once and returns output bytes plus
 *  the job's kernel statistics. */
static gpu::JobResult
runSgemm1(uint32_t n, const std::vector<float> &a,
          const std::vector<float> &b, std::vector<uint8_t> &out_bytes,
          std::vector<uint32_t> *buffer_vas = nullptr)
{
    rt::SystemConfig cfg;
    rt::Session s(cfg);
    rt::KernelHandle k =
        s.compile(workloads::sgemmVariantsSource(), "sgemm1");
    size_t bytes = static_cast<size_t>(n) * n * 4;
    rt::Buffer da = s.alloc(bytes), db = s.alloc(bytes),
               dc = s.alloc(bytes);
    s.write(da, a.data(), bytes);
    s.write(db, b.data(), bytes);
    gpu::JobResult r = s.enqueue(
        k, rt::NDRange{n, n, 1}, rt::NDRange{16, 16, 1},
        {rt::Arg::buf(da), rt::Arg::buf(db), rt::Arg::buf(dc),
         rt::Arg::i32(static_cast<int32_t>(n))});
    out_bytes.resize(bytes);
    s.read(dc, out_bytes.data(), bytes);
    if (buffer_vas)
        *buffer_vas = {da.gpuVa, db.gpuVa, dc.gpuVa};
    return r;
}

/** The fast path folds its instrumentation lazily (per workgroup, per
 *  worker); the folded totals must not drift.  The golden values are
 *  what the eagerly counting tuple-walking interpreter, since removed,
 *  reported for this exact job; the fast path matched it bit for bit
 *  when both existed.  The output is pinned by its CRC-32 and, against
 *  the reference interpreter, by FastPathMatchesScalarReference. */
TEST(SgemmDifferential, FastPathStatsMatchGolden)
{
    constexpr uint32_t n = 32;
    std::vector<float> a(n * n), b(n * n);
    std::mt19937 rng(42);
    auto rnd = [&] {
        return static_cast<float>(rng() % 65536) / 65536.0f - 0.5f;
    };
    for (float &v : a)
        v = rnd();
    for (float &v : b)
        v = rnd();

    std::vector<uint8_t> out;
    gpu::JobResult r = runSgemm1(n, a, b, out);
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    EXPECT_EQ(snapshot::crc32(out.data(), out.size()), 0xa0dd28d3u);

    const gpu::KernelStats &f = r.kernel;
    EXPECT_EQ(f.arithInstrs, 575488u);
    EXPECT_EQ(f.lsInstrs, 66560u);
    EXPECT_EQ(f.cfInstrs, 67584u);
    EXPECT_EQ(f.nopSlots, 33792u);
    EXPECT_EQ(f.grfReads, 603136u);
    EXPECT_EQ(f.grfWrites, 270336u);
    EXPECT_EQ(f.tempAccesses, 741376u);
    EXPECT_EQ(f.constReads, 4096u);
    EXPECT_EQ(f.romReads, 0u);
    EXPECT_EQ(f.globalLdSt, 66560u);
    EXPECT_EQ(f.localLdSt, 0u);
    EXPECT_EQ(f.clausesExecuted, 101376u);
    EXPECT_EQ(f.threadsLaunched, 1024u);
    EXPECT_EQ(f.warpsLaunched, 256u);
    EXPECT_EQ(f.workgroups, 4u);
    EXPECT_EQ(f.divergentBranches, 0u);
    EXPECT_EQ(f.clauseSizes.total(), 101376u);
    const std::map<uint64_t, uint64_t> edges = {
        {gpu::cfgEdgeKey(1, 2), 32768},
        {gpu::cfgEdgeKey(1, 4), 1024},
        {gpu::cfgEdgeKey(3, 1), 32768},
        {gpu::cfgEdgeKey(4, 0xffffffffu), 1024},   // 4 -> exit
    };
    EXPECT_EQ(f.cfgEdges, edges);

    // The fast path actually used the translation fast path.
    EXPECT_GT(r.tlb.lookups(), 0u);
    EXPECT_GT(r.tlb.hitRate(), 0.9);
}

/** The fast path against the independent scalar reference interpreter
 *  (paper §V-A2), thread by thread over a flat memory image where
 *  GPU VA == vector index. */
TEST(SgemmDifferential, FastPathMatchesScalarReference)
{
    constexpr uint32_t n = 32;
    std::vector<float> a(n * n), b(n * n);
    std::mt19937 rng(7);
    auto rnd = [&] {
        return static_cast<float>(rng() % 65536) / 65536.0f - 0.5f;
    };
    for (float &v : a)
        v = rnd();
    for (float &v : b)
        v = rnd();

    std::vector<uint8_t> out_fast;
    std::vector<uint32_t> vas;
    gpu::JobResult r = runSgemm1(n, a, b, out_fast, &vas);
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    const uint32_t va_a = vas[0], va_b = vas[1], va_c = vas[2];

    // Build the flat reference image at the same GPU VAs.
    size_t bytes = static_cast<size_t>(n) * n * 4;
    std::vector<uint8_t> flat(static_cast<size_t>(va_c) + bytes, 0);
    std::memcpy(flat.data() + va_a, a.data(), bytes);
    std::memcpy(flat.data() + va_b, b.data(), bytes);

    kclc::CompiledKernel ck =
        kclc::compileKernel(workloads::sgemmVariantsSource(), "sgemm1");

    std::vector<uint8_t> local(64 * 1024, 0);
    for (uint32_t row = 0; row < n; ++row) {
        for (uint32_t col = 0; col < n; ++col) {
            gpu::ref::RefContext ctx;
            ctx.localId[0] = col % 16;
            ctx.localId[1] = row % 16;
            ctx.groupId[0] = col / 16;
            ctx.groupId[1] = row / 16;
            ctx.localSize[0] = 16;
            ctx.localSize[1] = 16;
            ctx.gridSize[0] = n;
            ctx.gridSize[1] = n;
            ctx.numGroups[0] = n / 16;
            ctx.numGroups[1] = n / 16;
            ctx.laneId =
                (ctx.localId[1] * 16 + ctx.localId[0]) % bif::kWarpWidth;
            ctx.args = {va_a, va_b, va_c, n};
            ctx.globalMem = &flat;
            ctx.localMem = &local;
            gpu::ref::RefResult rr = gpu::ref::runThread(ck.mod, ctx);
            ASSERT_TRUE(rr.ok)
                << rr.error << " at row " << row << " col " << col;
        }
    }

    // Bit-identical C matrix.
    EXPECT_EQ(std::memcmp(out_fast.data(), flat.data() + va_c, bytes), 0);
}

TEST(RefInterp, BudgetGuard)
{
    // An infinite loop trips the instruction budget.
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t;
    t.slot[1].op = Op::Branch;
    t.slot[1].imm = 0;
    cl.tuples.push_back(t);
    m.clauses.push_back(cl);
    gpu::ref::RefContext ctx;
    gpu::ref::RefResult r = gpu::ref::runThread(m, ctx, false, 1000);
    EXPECT_FALSE(r.ok);
}

} // namespace
} // namespace bifsim
