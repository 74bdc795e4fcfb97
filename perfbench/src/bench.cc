#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"jobs_per_s", "1/s"},
        {"job_p50_ms", "ms"},
        {"job_p99_ms", "ms"},
        {"sim_gpu_mips", "Minstr/s"},
        {"boot_ms", "ms"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"error_rate", "fraction"},
        {"fleet.queue_ms_p50", "ms"},
        {"fleet.queue_ms_p99", "ms"},
        {"fleet.exec_ms_p50", "ms"},
        {"fleet.wire_ms_p50", "ms"},
        {"fleet.proto_us", "us"},
        {"fleet.rejected", "count"},
        {"fleet.bad_request", "count"},
        {"fleet.exec_unattributed_share", "fraction"},
        {"session_pool.acquire_ms", "ms"},
        {"session_pool.recycle_ms", "ms"},
        {"session_pool.spawns", "count"},
        {"session_pool.recycles", "count"},
        {"session_pool.recycle_failures", "count"},
        {"session_pool.acquire_waits", "count"},
        {"runtime.write_ms", "ms"},
        {"runtime.enqueue_ms", "ms"},
        {"runtime.read_ms", "ms"},
        {"cpu.driver_instrs", "count"},
        {"cpu.instret", "count"},
        {"cpu.block_hit_ratio", "fraction"},
        {"gpu.kernel_instrs", "count"},
        {"gpu.ns_per_kernel_instr", "ns"},
        {"gpu.irqs", "count"},
        {"gpu.ctrl_reg_writes", "count"},
        {"gpu.pages_accessed", "count"},
        {"shader_cache.decodes", "count"},
        {"shader_cache.hit_ratio", "fraction"},
        {"gmmu.walks", "count"},
        {"gmmu.tlb_hit_ratio", "fraction"},
        {"sched.slices", "count"},
        {"sched.steals", "count"},
        {"sched.steal_attempts", "count"},
        {"sched.steal_success_ratio", "fraction"},
        {"snapshot.ram_crc_ms", "ms"},
        {"snapshot.image_build_ms", "ms"},
        {"snapshot.image_parse_ms", "ms"},
        {"replay.validated_ms_per_chain", "ms"},
        {"replay.plain_ms_per_chain", "ms"},
        {"replay.record_ms", "ms"},
        {"replay.log_parse_ms", "ms"},
        {"replay.log_bytes", "bytes"},
        {"replay.chains", "count"},
        {"replay.chains_per_s", "1/s"},
        {"kclc.compile_ms", "ms"},
        {"bench.job_self_ms", "ms"},
        {"trace.overhead_jobs_per_s", "1/s"},
        {"trace.overhead_job_p50_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.spans_dropped", "count"},
    };
    return defs;
}

void
Result::fail(const std::string &what)
{
    correct = false;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

// ---------------------------------------------------------- timing

double
nowS()
{
    return static_cast<double>(trace::nowNs()) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid),
                     v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(),
                                  v.begin() + static_cast<long>(mid));
    return (lo + hi) / 2;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    return v[std::min(rank, v.size() - 1)];
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

CpuSample
cpuSample()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    CpuSample c;
    if (!(in >> label) || label != "cpu")
        return c;
    uint64_t v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        c.total += v;
        if (field == 7)
            c.steal = v;
    }
    return c;
}

double
stealShare(const CpuSample &a, const CpuSample &b)
{
    if (b.total <= a.total)
        return 0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

std::vector<size_t>
calmUnits(const std::vector<double> &steal)
{
    // Steal below 2% is scheduling noise, not another guest's burst.
    double limit = std::max(quantile(steal, 0.1), 0.02);
    std::vector<size_t> idx;
    for (size_t i = 0; i < steal.size(); ++i)
        if (steal[i] <= limit)
            idx.push_back(i);
    return idx;
}

double
calmMedianSeconds(unsigned reps, const std::function<void()> &setup,
                  const std::function<void()> &teardown)
{
    std::vector<double> secs, steal;
    for (unsigned i = 0; i < reps; ++i) {
        if (i > 0)
            teardown();
        CpuSample a = cpuSample();
        double t0 = nowS();
        setup();
        secs.push_back(nowS() - t0);
        steal.push_back(stealShare(a, cpuSample()));
    }
    return median(pick(secs, calmUnits(steal)));
}

std::vector<double>
pick(const std::vector<double> &v, const std::vector<size_t> &idx)
{
    std::vector<double> out;
    for (size_t i : idx)
        out.push_back(v[i]);
    return out;
}

Buckets
bucketize(double start, const std::vector<double> &steal,
          const std::vector<double> &end_s, const std::vector<double> &lat_ms,
          const std::vector<double> &work)
{
    size_t n = steal.size();
    std::vector<double> ops(n, 0), units(n, 0);
    std::vector<std::vector<double>> lat(n);
    for (size_t i = 0; i < end_s.size(); ++i) {
        double at = (end_s[i] - start) / kBucketS;
        if (at < 0 || at >= static_cast<double>(n))
            continue;
        size_t b = static_cast<size_t>(at);
        ops[b] += 1;
        units[b] += work[i];
        lat[b].push_back(lat_ms[i]);
    }
    std::vector<size_t> calm = calmUnits(steal);
    std::vector<double> p50, all;
    for (size_t b : calm) {
        p50.push_back(median(lat[b]));
        all.insert(all.end(), lat[b].begin(), lat[b].end());
    }
    Buckets r;
    r.opsPerS = mean(pick(ops, calm)) / kBucketS;
    r.workPerS = mean(pick(units, calm)) / kBucketS;
    r.p50Ms = median(p50);
    r.p99Ms = quantile(all, 0.99);
    r.samples = all.size();
    return r;
}

double
nsPer(const std::vector<double> &ms, uint64_t units)
{
    double total = std::accumulate(ms.begin(), ms.end(), 0.0);
    return units ? total * 1e6 / static_cast<double>(units) : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux.
}

// ---------------------------------------------------------- spans

/** Ring size per producer thread: enough for every span of a traced
 *  window at the fastest observed job rate, so nothing wraps. */
constexpr size_t kSpanRing = 1u << 17;

Spans::Spans(bool enabled) : tracer_(enabled, kSpanRing) {}

trace::TraceBuffer *
Spans::thread(const std::string &thread_name)
{
    trace::TraceBuffer *b = tracer_.registerThread(thread_name);
    if (b)
        buffers_.push_back(b);
    return b;
}

std::vector<trace::Event>
Spans::collect() const
{
    std::vector<trace::Event> all;
    for (const trace::TraceBuffer *b : buffers_)
        b->snapshot(all);   // Appends.
    return all;
}

uint64_t
Spans::dropped() const
{
    uint64_t n = 0;
    for (const trace::TraceBuffer *b : buffers_)
        n += b->pushed() - b->size();
    return n;
}

bool
Spans::exportChromeJson(const std::string &path) const
{
    return tracer_.exportChromeJsonFile(path);
}

namespace {

uint64_t
arg(const trace::Event &e, const char *name)
{
    for (uint8_t i = 0; i < e.numArgs; ++i)
        if (std::string_view(e.args[i].name) == name)
            return e.args[i].value;
    return 0;
}

} // namespace

std::map<std::string, std::vector<double>>
spanDurationsMs(const std::vector<trace::Event> &events)
{
    std::map<std::string, std::vector<double>> out;
    for (const trace::Event &e : events) {
        if (e.phase != trace::Phase::Span)
            continue;
        out[std::string(e.cat) + "." + e.name].push_back(
            static_cast<double>(e.dur) * 1e-6);
    }
    return out;
}

RootCover
rootCoverage(const std::vector<trace::Event> &events,
             const char *root_name)
{
    // A ring keeps its newest events and a span is pushed when it
    // ends, so children precede their root; a root that starts before
    // the oldest retained event may have lost children.
    uint64_t oldest = UINT64_MAX;
    for (const trace::Event &e : events)
        oldest = std::min(oldest, e.ts);

    std::map<uint64_t, double> children;
    for (const trace::Event &e : events) {
        uint64_t parent = arg(e, "parent");
        if (e.phase == trace::Phase::Span && parent != 0)
            children[parent] += static_cast<double>(e.dur) * 1e-6;
    }
    RootCover c;
    for (const trace::Event &e : events) {
        if (e.phase != trace::Phase::Span ||
            std::string_view(e.name) != root_name ||
            arg(e, "parent") != 0 || arg(e, "job") == 0 ||
            e.ts <= oldest)
            continue;
        c.rootMs.push_back(static_cast<double>(e.dur) * 1e-6);
        auto it = children.find(arg(e, "job"));
        c.childMs.push_back(it == children.end() ? 0.0 : it->second);
    }
    return c;
}

std::vector<double>
RootCover::selfMs() const
{
    std::vector<double> self;
    for (size_t i = 0; i < rootMs.size(); ++i)
        self.push_back(rootMs[i] - childMs[i]);
    return self;
}

void
finishTrace(const Spans &spans, size_t events, const Options &opt,
            std::map<std::string, double> &mx)
{
    mx["trace.spans"] = static_cast<double>(events);
    mx["trace.spans_dropped"] = static_cast<double>(spans.dropped());
    std::string path = (std::filesystem::path(opt.outDir) /
                        ("trace-" + opt.workload + ".json")).string();
    if (spans.exportChromeJson(path))
        std::printf("wrote %s\n", path.c_str());
}

// ---------------------------------------------------------- boot

void
ColdBoots::run(unsigned n)
{
    // Pinned to one CPU, with the threads a boot starts: their start-up
    // then needs no idle virtual CPU to wake.
    cpu_set_t saved, one;
    bool pinned = sched_getaffinity(0, sizeof(saved), &saved) == 0;
    if (pinned) {
        CPU_ZERO(&one);
        CPU_SET(sched_getcpu(), &one);
        pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    for (unsigned i = 0; i < n; ++i) {
        double t0 = nowS();
        bifsim::rt::Session s(cfg_, bifsim::rt::Mode::FullSystem);
        double ms = (nowS() - t0) * 1e3;
        best_ = best_ == 0 ? ms : std::min(best_, ms);
        cpu_ = s.system().cpu().stats();
    }
    if (pinned)
        sched_setaffinity(0, sizeof(saved), &saved);
}

void
reportBoot(const bifsim::sa32::CoreStats &cpu,
           std::map<std::string, double> &mx)
{
    mx["cpu.instret"] = static_cast<double>(cpu.instret);
    mx["cpu.block_hit_ratio"] =
        ratio(cpu.blockHits, cpu.blockHits + cpu.blocksDecoded);
}

// ---------------------------------------------------------- checks

uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

void
checkFixedCounts(Result &r, const std::string &out_dir,
                 const std::string &workload, uint64_t seed)
{
    namespace fs = std::filesystem;
    std::ostringstream now;
    for (const auto &[name, value] : r.fixedCounts)
        now << name << ' ' << value << '\n';

    fs::path dir = fs::path(out_dir) / "fixed-counts";
    fs::path file = dir / (workload + "-" + std::to_string(seed) + ".txt");
    std::ifstream in(file);
    if (in) {
        std::stringstream before;
        before << in.rdbuf();
        if (before.str() != now.str())
            r.fail("simulation-fixed counts differ from an earlier run "
                   "with seed " + std::to_string(seed) + ":\n" +
                   before.str() + "now:\n" + now.str());
        return;
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    fs::path tmp = file;
    tmp += ".tmp";
    {
        std::ofstream out(tmp);
        out << now.str();
        if (!out)
            return;   // Best effort: the next run writes it instead.
    }
    fs::rename(tmp, file, ec);
}

} // namespace perfbench
