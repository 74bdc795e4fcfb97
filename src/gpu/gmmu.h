#ifndef BIFSIM_GPU_GMMU_H
#define BIFSIM_GPU_GMMU_H

/**
 * @file
 * The GPU's memory management unit (paper §III-B5).
 *
 * The driver running on the simulated CPU builds page tables in guest
 * memory and hands the root pointer to the GPU through the AS_TRANSTAB
 * register; every shader memory access is translated through these
 * tables.  Faults are reported back through AS_FAULTSTATUS /
 * AS_FAULTADDRESS and an interrupt, exactly like the modelled hardware.
 *
 * GPU page-table format (distinct from the CPU's, as on the real SoC):
 * two levels of 1024 32-bit entries, 4 KiB pages.
 *
 *   PTE: bit0 VALID, bit1 WRITE; PPN in bits [29:10]
 *   level-1 entries are always pointers (no huge pages).
 *
 * Fast path: successful walks cache the *host* pointer to the frame in
 * the worker's TLB entry, so a hit turns a shader load/store into a
 * direct memcpy with no physical-address recomposition and no per-access
 * RAM bounds check.  Invalidation is epoch-based: AS_COMMAND, root
 * changes and job boundaries bump a global epoch counter; workers
 * compare their TLB's epoch lazily at clause boundaries and flush only
 * when stale, so there is no cross-thread flush coordination.
 *
 * Dirty tracking: a walk that fills an entry for a writable frame takes
 * its pointer from PhysMem::writablePtr, which marks the frame dirty.
 * Stores and atomics that hit the entry later mark nothing, which is
 * sound because the device bumps the epoch at every job boundary and
 * PhysMem::pageCrcs() runs only between jobs: no entry filled before a
 * hash is written through after it.
 *
 * Concurrency model (DESIGN.md §5f): GpuMmu itself is a *stateless*
 * walker over guest memory plus two atomics (root, epoch) — it is safe
 * to call translate()/lookup() from any number of threads as long as
 * each call site passes its *own* GpuTlb.  All mutable per-thread
 * translation state, including the walk/hit counters, lives in the
 * GpuTlb, which must never be shared between threads.  Counters are
 * folded into the job result once at job completion, so the
 * translation fast path performs no shared-memory writes at all.
 *
 * Static-contract note (§5i): atomics-only — no sim::Mutex here, so
 * nothing carries GUARDED_BY; the epoch protocol is the contract and
 * TSan/the replay differ are its checkers.
 */

#include <atomic>
#include <cstdint>

#include "mem/phys_mem.h"

namespace bifsim::trace {
class TraceBuffer;
}

namespace bifsim::gpu {

class GpuMmu;

/** GPU PTE bits. */
enum GpuPteBits : uint32_t
{
    kGpuPteValid = 1u << 0,
    kGpuPteWrite = 1u << 1,
};

/** GPU page geometry. */
constexpr uint32_t kGpuPageShift = 12;
constexpr uint32_t kGpuPageBytes = 1u << kGpuPageShift;

/** A small per-worker TLB; workers own one each so no locking is
 *  needed on the translation fast path.  Strictly thread-local: the
 *  owning thread is the only one that may pass it to
 *  GpuMmu::translate()/lookup() or read its counters. */
struct GpuTlb
{
    static constexpr size_t kEntries = 64;

    /** Sentinel VPN: 32-bit GPU VAs have 20-bit VPNs, so this never
     *  matches a real page and doubles as the invalid marker. */
    static constexpr uint32_t kInvalidVpn = 0xffffffffu;

    struct Entry
    {
        uint32_t vpn = kInvalidVpn;
        uint32_t ppn = 0;
        uint8_t *host = nullptr;  ///< Host pointer to the frame base, or
                                  ///< null if the frame is not entirely
                                  ///< inside RAM (slow path per access).
                                  ///< Written through only when
                                  ///< `writable`: it then came from
                                  ///< PhysMem::writablePtr, which marked
                                  ///< the frame dirty at fill time.
        bool writable = false;
    };

    Entry entries[kEntries];

    /** One-entry last-page cache in front of the set-indexed array. */
    const Entry *last = nullptr;

    /** Epoch observed at the last flush (see GpuMmu::epoch()). */
    uint64_t epoch = 0;

    // Per-worker translation counters (no atomics; folded into the job
    // result at completion, so adding host threads adds no shared
    // counter traffic).
    uint64_t lastPageHits = 0;
    uint64_t arrayHits = 0;
    uint64_t walks = 0;        ///< Full page-table walks through this TLB.

    /** Owning thread's trace buffer (null = tracing off); walks record
     *  an mmu_walk instant into it. */
    trace::TraceBuffer *traceBuf = nullptr;

    void
    flush()
    {
        for (Entry &e : entries)
            e.vpn = kInvalidVpn;
        last = nullptr;
    }

    /** Lazily flushes if the MMU epoch moved (clause-boundary check).
     *  @return true if a flush happened. */
    inline bool syncEpoch(const GpuMmu &mmu);
};

/**
 * Stateless page-table walker for the GPU address space.  The root
 * pointer is atomic so the job-manager thread and MMIO writes from the
 * CPU thread can exchange it safely.
 *
 * Walk counts accumulate in the caller's GpuTlb (thread-local, no
 * atomics); the walker itself carries no mutable statistics, so any
 * number of workers can translate concurrently without touching a
 * shared cache line.
 */
class GpuMmu
{
  public:
    explicit GpuMmu(PhysMem &mem) : mem_(mem) {}

    /** Sets the page-table root physical address (AS_TRANSTAB).
     *  Bumps the epoch: cached translations become stale.
     *  Threading: any thread (typically the MMIO/submit path). */
    void
    setRoot(Addr root_pa)
    {
        root_.store(root_pa);
        bumpEpoch();
    }

    /** Current page-table root.  Threading: any thread. */
    Addr root() const { return root_.load(); }

    /**
     * Translates GPU virtual address @p va.
     * @param write  Whether the access is a store.
     * @param tlb    The calling thread's own TLB (never shared).
     * @param pa_out Receives the physical address.
     * @return false on translation fault.
     * Threading: any thread, concurrently; may race with setRoot()/
     * bumpEpoch() — a stale translation is served until the caller's
     * next GpuTlb::syncEpoch() (the lazy-shootdown contract).
     */
    bool translate(uint32_t va, bool write, GpuTlb &tlb, Addr &pa_out);

    /**
     * Fast-path lookup: returns the TLB entry covering @p va (filling it
     * by a walk on miss), or null on a translation/permission fault.
     * On success the entry is also installed as @p tlb's last-page
     * cache.  The entry's host pointer is null when the frame is not
     * entirely inside RAM; callers must then fall back to physical
     * addressing.
     * Threading: as translate().
     */
    const GpuTlb::Entry *lookup(uint32_t va, bool write, GpuTlb &tlb);

    /** Global TLB-invalidation epoch (bumped by AS_COMMAND, root
     *  changes and job boundaries).  Threading: any thread. */
    uint64_t
    epoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    /** Invalidates all worker TLBs lazily: workers notice the new epoch
     *  at their next clause boundary and flush locally.  Threading:
     *  any thread; O(1), no cross-thread coordination. */
    void bumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  private:
    /** Cold path: walks the page table and fills @p e. */
    const GpuTlb::Entry *walkFill(uint32_t va, bool write, GpuTlb &tlb);

    PhysMem &mem_;
    std::atomic<Addr> root_{0};
    std::atomic<uint64_t> epoch_{1};
};

inline bool
GpuTlb::syncEpoch(const GpuMmu &mmu)
{
    uint64_t cur = mmu.epoch();
    if (epoch == cur)
        return false;
    flush();
    epoch = cur;
    return true;
}

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_GMMU_H
