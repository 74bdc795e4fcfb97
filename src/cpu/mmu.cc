#include "cpu/mmu.h"

#include "common/bits.h"

namespace bifsim::sa32 {

TrapCause
CpuMmu::faultCause(AccessType type)
{
    switch (type) {
      case AccessType::Fetch: return kCauseFetchPageFault;
      case AccessType::Load:  return kCauseLoadPageFault;
      case AccessType::Store: return kCauseStorePageFault;
    }
    return kCauseLoadPageFault;
}

void
CpuMmu::flushTlb()
{
    epoch_++;
    for (TlbEntry &e : tlb_)
        e.valid = false;
}

TranslateResult
CpuMmu::translate(Addr va, AccessType type, Priv priv, uint32_t satp)
{
    TranslateResult res;

    // Machine mode, or paging disabled: identity mapping.
    if (identityTranslation(priv, satp)) {
        res.ok = true;
        res.pa = va;
        return res;
    }

    uint32_t need = type == AccessType::Fetch ? kPteExec
                  : type == AccessType::Load  ? kPteRead
                                              : kPteWrite;

    uint32_t vpn = static_cast<uint32_t>(va >> 12);
    TlbEntry &e = tlb_[vpn % kTlbEntries];
    if (e.valid && e.vpn == vpn) {
        stats_.tlbHits++;
        if ((e.perms & need) && (e.perms & kPteUser)) {
            res.ok = true;
            res.pa = (static_cast<Addr>(e.ppn) << 12) | (va & 0xfff);
            return res;
        }
        stats_.faults++;
        res.cause = faultCause(type);
        return res;
    }
    stats_.tlbMisses++;
    stats_.pageWalks++;

    Addr root = static_cast<Addr>(satp & 0xfffffu) << 12;
    uint32_t vpn1 = bits(va, 31, 22);
    uint32_t vpn0 = bits(va, 21, 12);

    uint64_t pte1 = 0;
    if (bus_.read(root + vpn1 * 4, 4, pte1) != BusResult::Ok ||
        !(pte1 & kPteValid)) {
        stats_.faults++;
        res.cause = faultCause(type);
        return res;
    }

    uint32_t perms;
    uint32_t leaf_ppn;
    if (pte1 & (kPteRead | kPteWrite | kPteExec)) {
        // 4 MiB megapage leaf.
        perms = static_cast<uint32_t>(pte1) & 0x1f;
        leaf_ppn = (static_cast<uint32_t>(pte1 >> 10) & 0xffc00u) | vpn0;
    } else {
        Addr l0 = static_cast<Addr>((pte1 >> 10) & 0xfffffu) << 12;
        uint64_t pte0 = 0;
        if (bus_.read(l0 + vpn0 * 4, 4, pte0) != BusResult::Ok ||
            !(pte0 & kPteValid) ||
            !(pte0 & (kPteRead | kPteWrite | kPteExec))) {
            stats_.faults++;
            res.cause = faultCause(type);
            return res;
        }
        perms = static_cast<uint32_t>(pte0) & 0x1f;
        leaf_ppn = static_cast<uint32_t>(pte0 >> 10) & 0xfffffu;
    }

    e.valid = true;
    e.vpn = vpn;
    e.ppn = leaf_ppn;
    e.perms = perms;

    if ((perms & need) && (perms & kPteUser)) {
        res.ok = true;
        res.pa = (static_cast<Addr>(leaf_ppn) << 12) | (va & 0xfff);
        return res;
    }
    stats_.faults++;
    res.cause = faultCause(type);
    return res;
}

} // namespace bifsim::sa32
