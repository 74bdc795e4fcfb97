#ifndef BIFSIM_MEM_PHYS_MEM_H
#define BIFSIM_MEM_PHYS_MEM_H

/**
 * @file
 * Guest physical DRAM, shared between the simulated CPU and GPU
 * exactly as on the modelled SoC (unified memory).
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/device.h"
#include "snapshot/snapshot.h"

namespace bifsim {

/**
 * A sealed, read-only RAM image backing many PhysMem instances at once
 * (DESIGN.md §5j).
 *
 * Built once from the MEM chunk of a validated snapshot image: the
 * sparse run table is expanded into an anonymous memfd, which is then
 * sealed (F_SEAL_WRITE | F_SEAL_SHRINK | F_SEAL_GROW) so no path —
 * not even this process — can mutate the bytes afterwards.  Every
 * fleet session maps the file MAP_PRIVATE: clean pages are shared
 * through the page cache across all sessions, and only pages a
 * session actually dirties fault in a private copy.  `memCrc`/`memLen`
 * identify the exact MEM chunk the image was sealed from, so a
 * restore can prove the fast path applies before skipping the chunk.
 * `pageCrcs` holds the CRC-32 of every image page, computed once while
 * sealing, so a session reset to the image starts with a valid CRC
 * cache and never rehashes (or faults in) a clean page.
 *
 * Threading: immutable after sealFromSnapshot returns; share freely.
 */
class RamImage
{
  public:
    ~RamImage();

    RamImage(const RamImage &) = delete;
    RamImage &operator=(const RamImage &) = delete;

    /**
     * Expands @p image's MEM chunk into a sealed memfd.  Returns
     * nullptr when the platform cannot provide sealed shared memory
     * (non-Linux hosts) — callers fall back to the ordinary sparse
     * restore path.  Throws snapshot::SnapshotError on a malformed
     * MEM chunk.
     */
    static std::shared_ptr<RamImage>
    sealFromSnapshot(const snapshot::Image &image);

    Addr base() const { return base_; }
    size_t size() const { return size_; }
    int fd() const { return fd_; }

    /** CRC-32 of the MEM chunk payload this image was sealed from. */
    uint32_t memCrc() const { return memCrc_; }

    /** Length of that MEM chunk payload. */
    size_t memLen() const { return memLen_; }

    /** snapshot::crc32 of each image page (PhysMem's page granule). */
    const std::vector<uint32_t> &pageCrcs() const { return pageCrcs_; }

  private:
    RamImage(Addr base, size_t size, int fd, uint32_t mem_crc,
             size_t mem_len, std::vector<uint32_t> page_crcs)
        : base_(base), size_(size), fd_(fd), memCrc_(mem_crc),
          memLen_(mem_len), pageCrcs_(std::move(page_crcs))
    {
    }

    Addr base_;
    size_t size_;
    int fd_ = -1;
    uint32_t memCrc_;
    size_t memLen_;
    std::vector<uint32_t> pageCrcs_;
};

/**
 * A contiguous block of guest physical memory.
 *
 * Backed by host memory; both the CPU model and the GPU model read and
 * write through this object, giving the fully shared CPU/GPU memory
 * system of the Bifrost platform.
 *
 * On Linux the backing store is an anonymous mmap: untouched guest
 * pages are never materialised, and clear() drops the mapped pages
 * with madvise(MADV_DONTNEED) instead of writing zeroes, so
 * constructing, cold-booting and snapshot-restoring a machine cost
 * O(pages actually used), not O(configured RAM).
 *
 * Fleet mode (DESIGN.md §5j): constructed over a RamImage, the backing
 * becomes a MAP_PRIVATE mapping of the sealed image file.  All
 * sessions spawned from one warm-boot image then share every clean
 * RAM page, and resetToImage() recycles a dirty session back to the
 * image content by remapping — O(dirtied pages), no copy of RAM.
 *
 * Incremental hashing (DESIGN.md §5e): PhysMem is the one owner of
 * "which RAM changed".  It keeps the snapshot::crc32 of every
 * kPageBytes page plus one dirty flag per page; a set flag means that
 * page's cached CRC is stale.  pageCrcs() rehashes only the stale
 * pages, and crc() composes the whole-RAM CRC from them, equal bit
 * for bit to snapshot::crc32 over all of RAM.  clear(), resetToImage()
 * and restoreState() reset the cache to the content they install.
 *
 * Contract:
 *  - Every mutation marks the pages it touches: write<T>, writeBlock
 *    and fill do it themselves, and writablePtr() — the only mutable
 *    raw pointer into RAM — marks its whole range when it hands the
 *    pointer out.  A holder of such a pointer may write through it
 *    only until the next pageCrcs()/crc() call; the GPU MMU's TLBs
 *    meet this because they flush at every job boundary (gmmu.h).
 *  - Marking is thread-safe: flags are set with relaxed atomic byte
 *    stores, so CPU stores, GPU workers and the JM thread may mark
 *    concurrently.
 *  - pageCrcs() and crc() need no concurrent writer: call them from
 *    the simulation thread while the GPU is idle, as the Recorder
 *    (syncSubmit) and the fleet (after the job) do.
 */
class PhysMem
{
  public:
    /** Creates @p size bytes of RAM based at physical address @p base.
     *  When @p image is non-null and matches the geometry, the RAM is
     *  a copy-on-write view of the sealed image content; otherwise an
     *  anonymous zero-filled mapping (image content then arrives via
     *  restoreState). */
    PhysMem(Addr base, size_t size,
            std::shared_ptr<const RamImage> image = nullptr);
    ~PhysMem();

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    /** Base physical address. */
    Addr base() const { return base_; }

    /** Size in bytes. */
    size_t size() const { return size_; }

    /** Returns true if [addr, addr+len) lies entirely inside this RAM. */
    bool
    contains(Addr addr, size_t len) const
    {
        return addr >= base_ && len <= size_ &&
               addr - base_ <= size_ - len;
    }

    /** Raw const host pointer to guest physical address @p addr (must
     *  be in range). */
    const uint8_t *
    hostPtr(Addr addr) const
    {
        return data_ + (addr - base_);
    }

    /** Mutable host pointer to [addr, addr+len) (must be in range):
     *  marks every page of the range dirty, then hands out the pointer.
     *  Writes through it stay covered only until the next pageCrcs()
     *  or crc() call (see the class contract). */
    uint8_t *
    writablePtr(Addr addr, size_t len)
    {
        markDirty(addr, len);
        return data_ + (addr - base_);
    }

    /** Loads a little-endian scalar of type T at @p addr. */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        std::memcpy(&v, hostPtr(addr), sizeof(T));
        return v;
    }

    /** Stores a little-endian scalar of type T at @p addr. */
    template <typename T>
    void
    write(Addr addr, T value)
    {
        std::memcpy(writablePtr(addr, sizeof(T)), &value, sizeof(T));
    }

    /** Copies a block out of guest memory. */
    void
    readBlock(Addr addr, void *dst, size_t len) const
    {
        std::memcpy(dst, hostPtr(addr), len);
    }

    /** Copies a block into guest memory. */
    void
    writeBlock(Addr addr, const void *src, size_t len)
    {
        std::memcpy(writablePtr(addr, len), src, len);
    }

    /** Fills a block of guest memory with @p byte. */
    void
    fill(Addr addr, uint8_t byte, size_t len)
    {
        std::memset(writablePtr(addr, len), byte, len);
    }

    /** snapshot::crc32 of every page (the last one short when the size
     *  is not a page multiple), rehashing only pages written since
     *  their last hash.  Needs no concurrent writer. */
    const std::vector<uint32_t> &pageCrcs();

    /** snapshot::crc32 over all of RAM, composed from pageCrcs().
     *  Needs no concurrent writer. */
    uint32_t crc();

    /** What pageCrcs() returns for @p size bytes of all-zero RAM. */
    static std::vector<uint32_t> zeroPageCrcs(size_t size);

    /** Zeroes all of RAM (cold boot / restore baseline).  In CoW mode
     *  the file backing is replaced by a fresh anonymous mapping; a
     *  later resetToImage() re-attaches the image. */
    void clear();

    /** True when this RAM is a copy-on-write view of a RamImage. */
    bool hasImage() const { return image_ != nullptr; }

    /** The backing image, or nullptr. */
    const RamImage *image() const { return image_.get(); }

    /**
     * Resets RAM content to the backing image: private (dirtied) pages
     * are dropped and the CoW mapping is re-established, so the cost
     * tracks the session's dirtied working set.  Falls back to clear()
     * when there is no backing image (callers must then restore RAM
     * by other means).  @return true when image content was restored.
     */
    bool resetToImage();

    /** Snapshot and CRC-cache page granule. */
    static constexpr size_t kPageBytes = 4096;

    /**
     * Serialises RAM into @p w using a sparse run-length encoding:
     * all-zero pages are elided and consecutive non-zero pages coalesce
     * into runs, so a mostly-empty guest image stays small.
     */
    void saveState(snapshot::ChunkWriter &w) const;

    /**
     * Restores RAM from @p r.  Validates the complete run table
     * (geometry match, ordering, bounds) before writing any byte, then
     * zero-fills and applies the runs.
     */
    void restoreState(snapshot::ChunkReader &r);

  private:
    /** Marks every page [addr, addr+len) touches stale. */
    void
    markDirty(Addr addr, size_t len)
    {
        if (len == 0)
            return;
        const size_t first = (addr - base_) / kPageBytes;
        const size_t last = (addr - base_ + len - 1) / kPageBytes;
        for (size_t p = first; p <= last; ++p)
            std::atomic_ref<uint8_t>(dirty_[p]).store(
                1, std::memory_order_relaxed);
    }

    /** Makes every page's CRC that of the content a reset installed. */
    void resetCrcs(bool image);

    /** Zeroes RAM content, leaving the CRC cache to the caller. */
    void zeroBacking();

    Addr base_;
    size_t size_;
    uint8_t *data_ = nullptr;
    bool mmapped_ = false;
    bool cowMapped_ = false;   ///< Current mapping is MAP_PRIVATE
                               ///< over image_'s fd.
    std::shared_ptr<const RamImage> image_;
    std::vector<uint32_t> pageCrc_;   ///< crc32 per page; stale where
                                      ///< dirty_ is set.
    /** Where the CRCs of clean pages are: in pageCrc_, or not yet
     *  copied in from all-zero RAM or the image.  Resets only record
     *  it, so spawning and recycling a session never touch the CRC
     *  array; pageCrcs() fills it when first asked. */
    enum class CleanCrcs : uint8_t { Cached, Zero, Image };
    CleanCrcs cleanCrcs_ = CleanCrcs::Zero;
    /** One byte per page, set when the page's cached CRC goes stale.
     *  Marking goes through std::atomic_ref (concurrent writers);
     *  reading and clearing happen with no concurrent writer, so they
     *  use plain (memchr/memset) accesses. */
    std::unique_ptr<uint8_t[]> dirty_;
};

} // namespace bifsim

#endif // BIFSIM_MEM_PHYS_MEM_H
