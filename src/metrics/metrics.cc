#include "metrics/metrics.h"

#include <cstring>
#include <unordered_map>

#include "instrument/stats.h"
#include "trace/trace.h"

namespace bifsim::metrics {

namespace {

/** Reader retry cap per shard: past this we accept a possibly
 *  torn-batch (never torn-word) sum rather than livelock behind a
 *  publish storm; metrics.reader_retries records how often the loop
 *  spun at all. */
constexpr int kMaxReaderRetries = 8;

} // namespace

namespace {

/** Never-reused registry generation (see Registry::id_). */
uint64_t
nextRegistryId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Registry::Registry(size_t ring_capacity)
    : id_(nextRegistryId()), ring_(ring_capacity ? ring_capacity : 1)
{
}

Registry::~Registry() = default;

uint16_t
Registry::slot(const char *name)
{
    sim::LockGuard g(lock_);
    return slotLocked(name);
}

uint16_t
Registry::slotLocked(const char *name)
{
    // String-keyed scan: distinct literals with equal text (e.g. the
    // same counter name registered from two translation units) must
    // share a slot.  The table is small and this is the cold path —
    // the publish hot path never gets here (pointer-keyed
    // thread_local cache in publish()).
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name || std::strcmp(names_[i], name) == 0)
            return static_cast<uint16_t>(i);
    }
    if (names_.size() >= kMaxSlots) {
        slotsDropped_.fetch_add(1, std::memory_order_relaxed);
        return kInvalidSlot;
    }
    names_.push_back(name);
    nameCount_.store(names_.size(), std::memory_order_release);
    return static_cast<uint16_t>(names_.size() - 1);
}

const char *
Registry::slotName(uint16_t slot) const
{
    sim::LockGuard g(lock_);
    return slot < names_.size() ? names_[slot] : nullptr;
}

size_t
Registry::slotCount() const
{
    return nameCount_.load(std::memory_order_acquire);
}

Registry::Shard *
Registry::localShard()
{
    // One shard per (thread, registry) pair.  Keyed by the registry's
    // never-reused generation id, NOT its address: a new registry
    // allocated where a destroyed one lived (common in test suites)
    // must miss here instead of dereferencing the dead registry's
    // shard pointer.
    thread_local std::unordered_map<uint64_t, Shard *> tl_shards;
    auto it = tl_shards.find(id_);
    if (it != tl_shards.end())
        return it->second;
    Shard *s;
    {
        sim::LockGuard g(lock_);
        shards_.push_back(std::make_unique<Shard>());
        s = shards_.back().get();
        shardCount_.store(shards_.size(), std::memory_order_release);
    }
    tl_shards.emplace(id_, s);
    return s;
}

void
Registry::publish(const std::vector<gpu::NamedCounter> &deltas)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    // Per-(thread, registry) name->slot cache: the names
    // instrument::appendCounters emits are string literals, so after
    // the first publish from a thread the loop below is hash-lookup +
    // relaxed fetch_add per counter, no locks.  Keyed by generation
    // id like localShard's cache — a recycled registry address must
    // not inherit a predecessor's slot assignments.
    thread_local std::unordered_map<uint64_t,
                                    std::unordered_map<const char *,
                                                       uint16_t>>
        tl_slots;
    auto &cache = tl_slots[id_];
    Shard *shard = localShard();

    // Open the batch: odd seq marks "write in progress" for the
    // snapshot reader (seqlock write side).  acq_rel, not release:
    // the acquire half keeps the cell adds below from hoisting above
    // the open, the close below keeps them from sinking past it.
    shard->seq.fetch_add(1, std::memory_order_acq_rel);
    for (const auto &d : deltas) {
        if (d.value == 0)
            continue;
        uint16_t idx;
        auto it = cache.find(d.name);
        if (it != cache.end()) {
            idx = it->second;
        } else {
            idx = slot(d.name);
            cache.emplace(d.name, idx);
        }
        if (idx == kInvalidSlot)
            continue;
        shard->cells[idx].fetch_add(d.value,
                                    std::memory_order_relaxed);
    }
    // Close the batch (back to even).
    shard->seq.fetch_add(1, std::memory_order_release);
    publishes_.fetch_add(1, std::memory_order_relaxed);
}

void
Registry::setGauge(const char *name, uint64_t value)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    // Keyed by generation id, as in publish().
    thread_local std::unordered_map<uint64_t,
                                    std::unordered_map<const char *,
                                                       uint16_t>>
        tl_gslots;
    auto &cache = tl_gslots[id_];
    uint16_t idx;
    auto it = cache.find(name);
    if (it != cache.end()) {
        idx = it->second;
    } else {
        idx = slot(name);
        cache.emplace(name, idx);
    }
    if (idx == kInvalidSlot)
        return;
    gauges_[idx].store(value, std::memory_order_relaxed);
    gaugeMask_[idx].store(1, std::memory_order_release);
}

std::array<uint64_t, kMaxSlots>
Registry::totals() const
{
    std::array<uint64_t, kMaxSlots> sum{};
    size_t nshards = shardCount_.load(std::memory_order_acquire);
    // Walk the stable shard prefix without the lock: shards_ only
    // grows and entries are heap-pinned, so index < nshards is safe.
    // The vector itself may reallocate concurrently, which moves the
    // unique_ptr cells but not the Shards they own — take the lock
    // briefly to copy the pointer prefix instead of indexing the
    // vector raw.
    std::vector<Shard *> shards;
    shards.reserve(nshards);
    {
        sim::LockGuard g(lock_);
        for (size_t i = 0; i < nshards && i < shards_.size(); ++i)
            shards.push_back(shards_[i].get());
    }
    for (Shard *s : shards) {
        std::array<uint64_t, kMaxSlots> local{};
        for (int attempt = 0;; ++attempt) {
            uint64_t seq0 = s->seq.load(std::memory_order_acquire);
            for (size_t i = 0; i < kMaxSlots; ++i)
                local[i] =
                    s->cells[i].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            uint64_t seq1 = s->seq.load(std::memory_order_acquire);
            if (seq0 == seq1 && (seq0 & 1) == 0)
                break;
            readerRetries_.fetch_add(1, std::memory_order_relaxed);
            if (attempt >= kMaxReaderRetries)
                break;   // Accept a torn batch over a livelock.
        }
        for (size_t i = 0; i < kMaxSlots; ++i)
            sum[i] += local[i];
    }
    // Gauges overwrite: their cell holds the level, not a delta.
    for (size_t i = 0; i < kMaxSlots; ++i) {
        if (gaugeMask_[i].load(std::memory_order_acquire))
            sum[i] = gauges_[i].load(std::memory_order_relaxed);
    }
    return sum;
}

Sample
Registry::snapshot() const
{
    Sample s;
    s.ns = trace::nowNs();
    s.v = totals();
    return s;
}

void
Registry::sample()
{
    Sample s = snapshot();
    uint64_t n = ringCount_.load(std::memory_order_relaxed);
    ring_[n % ring_.size()] = s;
    ringCount_.store(n + 1, std::memory_order_release);
    samples_.fetch_add(1, std::memory_order_relaxed);
}

size_t
Registry::ringSize() const
{
    uint64_t n = ringCount_.load(std::memory_order_acquire);
    return n < ring_.size() ? static_cast<size_t>(n) : ring_.size();
}

uint64_t
Registry::ringPushed() const
{
    return ringCount_.load(std::memory_order_acquire);
}

bool
Registry::ringAt(size_t age_from_newest, Sample &out) const
{
    uint64_t n = ringCount_.load(std::memory_order_acquire);
    if (n == 0 || age_from_newest >= ringSize())
        return false;
    uint64_t idx = n - 1 - age_from_newest;
    out = ring_[idx % ring_.size()];
    return true;
}

double
Registry::rate(uint16_t slot, uint64_t window_ns) const
{
    if (slot >= kMaxSlots)
        return 0;
    Sample newest;
    if (!ringAt(0, newest))
        return 0;
    // Scan back for the oldest retained sample still inside the
    // window.  The ring is small (default 1024) and the HUD calls
    // this a handful of times per refresh; linear is fine.
    Sample oldest = newest;
    bool have_older = false;
    for (size_t age = 1;; ++age) {
        Sample s;
        if (!ringAt(age, s))
            break;
        if (newest.ns - s.ns > window_ns)
            break;
        oldest = s;
        have_older = true;
    }
    if (!have_older || newest.ns <= oldest.ns)
        return 0;
    uint64_t dv = newest.v[slot] >= oldest.v[slot]
                      ? newest.v[slot] - oldest.v[slot]
                      : 0;   // Gauge moved down; rate is meaningless.
    double dt = static_cast<double>(newest.ns - oldest.ns) * 1e-9;
    return static_cast<double>(dv) / dt;
}

RegistryStats
Registry::stats() const
{
    RegistryStats s;
    s.publishes = publishes_.load(std::memory_order_relaxed);
    s.samples = samples_.load(std::memory_order_relaxed);
    s.readerRetries = readerRetries_.load(std::memory_order_relaxed);
    s.slotsDropped = slotsDropped_.load(std::memory_order_relaxed);
    s.shards = shardCount_.load(std::memory_order_acquire);
    return s;
}

Registry &
registry()
{
    // Leaked on purpose: publisher threads (fleet workers, GPU
    // workers) may still be publishing during static destruction.
    static Registry *g = new Registry();
    return *g;
}

} // namespace bifsim::metrics
