#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared plumbing of the perfbench driver: run options, the metric
 * table every workload fills, spans recorded through trace::Tracer
 * around the calls the benchmark makes into each simulator layer, the
 * simulation-fixed count check, and small statistics helpers.
 *
 * Timing is host time on std::chrono::steady_clock (trace::nowNs).
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/session.h"
#include "trace/trace.h"

namespace perfbench {

namespace trace = bifsim::trace;

/** Host threads every workload's load shape is sized for: the CPU
 *  count of the host the benchmark was defined on.  Fixed, so a
 *  result means the same load on every host; a host with fewer CPUs
 *  marks its results invalid in the envelope line main() prints. */
constexpr unsigned kThreads = 4;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";   ///< Traces and the count ledger go here.
};

/** How one metric is reported. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (printed with --trace 0), in BENCHMARK.json
 *  order. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics (printed with --trace 1), in BENCHMARK.json
 *  order.  A layer a workload does not exercise reports 0. */
const std::vector<MetricDef> &perLayerMetrics();

/** What a workload hands back to main(). */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;     ///< First few failures.
    std::vector<std::string> notes;      ///< Printed, not failures.
    std::map<std::string, double> metrics;
    /** Simulation-fixed counts over a seed-determined unit of work;
     *  they must repeat exactly for the same seed. */
    std::map<std::string, uint64_t> fixedCounts;

    /** Records a failed operation (first few messages are kept). */
    void fail(const std::string &what);
};

// ---------------------------------------------------------- timing

/** Seconds since an arbitrary process-wide epoch. */
double nowS();

/** Median of @p v (0 when empty).  Reorders @p v. */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

double mean(const std::vector<double> &v);

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(uint64_t num, uint64_t den);

/** Host ns per unit: the summed span times @p ms over @p units. */
double nsPer(const std::vector<double> &ms, uint64_t units);

// ---------------------------------------------------------- host noise

/** Whole-host CPU time from /proc/stat, in clock ticks (zeros when it
 *  cannot be read). */
struct CpuSample
{
    uint64_t steal = 0;   ///< Time the hypervisor ran other guests.
    uint64_t total = 0;
};
CpuSample cpuSample();

/** Share of the CPU time between @p a and @p b stolen by the
 *  hypervisor (0 when unknown). */
double stealShare(const CpuSample &a, const CpuSample &b);

/**
 * The calm measurement units of a run (buckets, passes, replays,
 * set-ups): the indices whose stolen share is under 2% or among the
 * least-stolen tenth.  On a shared host, other guests can take a third
 * of the CPUs for seconds at a time, and a latency-bound closed loop
 * then slows by far more than the stolen share; units it hit are
 * dropped, on the measured interference and not on the outcome.  With
 * no steal every unit is kept.
 */
std::vector<size_t> calmUnits(const std::vector<double> &steal);

/** Times @p reps runs of @p setup, calling the untimed @p teardown
 *  between them (not after the last, whose state the caller keeps).
 *  @return the median time of the calm runs, s. */
double calmMedianSeconds(unsigned reps, const std::function<void()> &setup,
                         const std::function<void()> &teardown = [] {});

/** @p v restricted to @p idx. */
std::vector<double> pick(const std::vector<double> &v,
                         const std::vector<size_t> &idx);

/** Length of one bucket of a timed window, s. */
constexpr double kBucketS = 0.25;

/**
 * Completed operations of a timed window, cut into kBucketS buckets
 * by completion time, with each bucket's stolen share in @p steal.
 * Rates are means over the calm buckets, the p50 is the median of their
 * medians, and the p99 is over every operation that completed in one.
 */
struct Buckets
{
    double opsPerS = 0;    ///< Operations per second.
    double workPerS = 0;   ///< Work units per second.
    double p50Ms = 0;      ///< Median of the buckets' median latency.
    double p99Ms = 0;
    size_t samples = 0;    ///< Operations in the calm buckets.
};
Buckets bucketize(double start, const std::vector<double> &steal,
                  const std::vector<double> &end_s,
                  const std::vector<double> &lat_ms,
                  const std::vector<double> &work);

/** Peak resident set of this process, MiB (getrusage ru_maxrss). */
double peakRssMb();

// ---------------------------------------------------------- spans

/** Per-layer span categories; the category is the metric prefix. */
namespace layer {
constexpr const char *kBench = "bench";
constexpr const char *kFleet = "fleet";
constexpr const char *kPool = "session_pool";
constexpr const char *kRuntime = "runtime";
constexpr const char *kSnapshot = "snapshot";
constexpr const char *kReplay = "replay";
constexpr const char *kKclc = "kclc";
} // namespace layer

/**
 * Span recording over trace::Tracer.  Every span carries two
 * arguments: "job", the id of the request it serves, and "parent",
 * the id of the span that caused it.  A request's root span has the
 * request's id and parent 0, so a child's parent is its job's root;
 * set-up spans use job 0.
 *
 * A disabled Spans records nothing and costs one branch per site.
 */
class Spans
{
  public:
    explicit Spans(bool enabled);

    /** Registers a buffer for one producer thread and returns it, or
     *  nullptr when tracing is off.  Call once per thread. */
    trace::TraceBuffer *thread(const std::string &thread_name);

    /** Every retained span, all threads.  Call only while no thread
     *  records. */
    std::vector<trace::Event> collect() const;

    /** Events dropped because a ring wrapped. */
    uint64_t dropped() const;

    /** Writes the Chrome trace_event JSON; false on I/O failure. */
    bool exportChromeJson(const std::string &path) const;

  private:
    trace::Tracer tracer_;
    std::vector<trace::TraceBuffer *> buffers_;
};

/** RAII span: records [construction, destruction) into @p buf
 *  (nothing when @p buf is null). */
class Span
{
  public:
    Span(trace::TraceBuffer *buf, const char *name, const char *cat,
         uint64_t job, uint64_t parent)
        : buf_(buf), name_(name), cat_(cat), job_(job), parent_(parent),
          start_(buf ? trace::nowNs() : 0)
    {
    }
    ~Span()
    {
        if (buf_)
            buf_->span(name_, cat_, start_, "job", job_, "parent",
                       parent_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    trace::TraceBuffer *buf_;
    const char *name_;
    const char *cat_;
    uint64_t job_;
    uint64_t parent_;
    uint64_t start_;
};

/** Durations of the spans in @p events, grouped by "cat.name", ms. */
std::map<std::string, std::vector<double>>
spanDurationsMs(const std::vector<trace::Event> &events);

/** Per-root totals: for each root span (parent 0, job != 0) named
 *  @p root_name, its duration and the summed duration of its direct
 *  children, ms.  Roots whose children may have been overwritten by
 *  a ring wrap are skipped. */
struct RootCover
{
    std::vector<double> rootMs;
    std::vector<double> childMs;

    /** Each root's self time: its duration minus its children's. */
    std::vector<double> selfMs() const;
};
RootCover rootCoverage(const std::vector<trace::Event> &events,
                       const char *root_name);

/** Records trace.spans and trace.spans_dropped into @p mx and writes
 *  the Chrome trace to <out-dir>/trace-<workload>.json. */
void finishTrace(const Spans &spans, size_t events, const Options &opt,
                 std::map<std::string, double> &mx);

// ---------------------------------------------------------- boot

/**
 * Cold FullSystem boots spread over a run, a few at a time, each batch
 * pinned to the calling thread's CPU.  boot_ms is the fastest:
 * best-of-N, as bench/ does for sub-millisecond regions.  On a shared
 * VM the time above the minimum follows how fast idle virtual CPUs wake
 * for the GPU threads a boot starts; pinning keeps those threads on a
 * CPU that is awake, and spreading the batches over the window meets
 * its calm moments.
 */
class ColdBoots
{
  public:
    explicit ColdBoots(bifsim::rt::SystemConfig cfg) : cfg_(std::move(cfg)) {}

    /** Boots @p n sessions now. */
    void run(unsigned n);

    /** The fastest boot so far, ms (0 before the first). */
    double bestMs() const { return best_; }

    /** Core statistics of the last boot. */
    const bifsim::sa32::CoreStats &cpu() const { return cpu_; }

  private:
    bifsim::rt::SystemConfig cfg_;
    double best_ = 0;
    bifsim::sa32::CoreStats cpu_;
};

/** Records cpu.instret and cpu.block_hit_ratio of a cold boot. */
void reportBoot(const bifsim::sa32::CoreStats &cpu,
                std::map<std::string, double> &mx);

// ---------------------------------------------------------- checks

/**
 * Compares @p r.fixedCounts with the ledger entry for (@p workload,
 * @p seed) under @p out_dir, failing @p r on any difference; the
 * first run of a seed writes the entry.
 */
void checkFixedCounts(Result &r, const std::string &out_dir,
                      const std::string &workload, uint64_t seed);

/** splitmix64: the benchmark's seed mixer. */
uint64_t mix64(uint64_t x);

/** Small deterministic PRNG (xorshift64*), seeded through mix64. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(mix64(seed) | 1) {}

    uint64_t
    next()
    {
        s_ ^= s_ >> 12;
        s_ ^= s_ << 25;
        s_ ^= s_ >> 27;
        return s_ * 0x2545F4914F6CDD1Dull;
    }

    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

    /** Uniform float in [-0.5, 0.5). */
    float
    unitFloat()
    {
        return static_cast<float>((next() >> 40) & 0xffff) / 65536.0f -
               0.5f;
    }

  private:
    uint64_t s_;
};

// ---------------------------------------------------------- workloads

Result runFleet(const Options &opt, bool ram_crc);
Result runSolo(const Options &opt);
Result runReplay(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
