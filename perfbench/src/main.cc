/**
 * @file
 * perfbench: the repository's benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *   perfbench --list-metrics
 *   perfbench --dump-requests <seed> <jobs>
 *
 * A run prints its host envelope and any failures, then as its last
 * line one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing off; with --trace 1 they are the per-layer ones, from a run
 * that records spans around every call the benchmark makes into a
 * layer.  See perfbench/README.md.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "requests.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <fleet_small|fleet_ramcrc|"
                 "solo_fullsystem|replay_validated> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "       perfbench --list-metrics\n"
                 "       perfbench --dump-requests <seed> <jobs>\n");
    return 2;
}

/** Host threads a workload keeps busy at once. */
unsigned
threadsUsed(const std::string &workload)
{
    return workload == "replay_validated" ? 1 : kThreads;
}

void
printEnvelope(const Options &opt)
{
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    unsigned threads = threadsUsed(opt.workload);
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::string why;
    if (!optimized)
        why += "built without optimisation; ";
    if (nproc < static_cast<long>(threads))
        why += "fewer CPUs than the workload's threads; ";
    std::printf("envelope {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"threads\": %u, \"build_type\": \"%s\", "
                "\"optimized\": %s, \"compiler\": \"%s\", "
                "\"valid\": %s, \"invalid_reason\": \"%s\"}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, nproc, threads, PERFBENCH_BUILD_TYPE,
                optimized ? "true" : "false", __VERSION__,
                why.empty() ? "true" : "false", why.c_str());
}

void
printMetricTable()
{
    std::printf("{\"end_to_end\": [");
    const char *sep = "";
    for (const MetricDef &m : endToEndMetrics()) {
        std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", sep, m.name,
                    m.unit);
        sep = ", ";
    }
    std::printf("], \"per_layer\": [");
    sep = "";
    for (const MetricDef &m : perLayerMetrics()) {
        std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", sep, m.name,
                    m.unit);
        sep = ", ";
    }
    std::printf("]}\n");
}

/** FLTJ payloads of the first @p jobs of every client, one hex line
 *  each, for the generator's determinism test. */
void
dumpRequests(uint64_t seed, uint64_t jobs)
{
    for (unsigned c = 0; c < kThreads; ++c)
        for (uint64_t i = 0; i < jobs; ++i) {
            for (uint8_t b :
                 jobPayload(makeFleetJob(seed, c, i, true).req))
                std::printf("%02x", b);
            std::printf("\n");
        }
}

void
printResult(const Options &opt, const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char *sep = "";
    for (const MetricDef &m :
         opt.trace ? perLayerMetrics() : endToEndMetrics()) {
        auto it = r.metrics.find(m.name);
        double v = it == r.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name, v, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--list-metrics") {
            printMetricTable();
            return 0;
        } else if (a == "--dump-requests" && i + 2 < argc) {
            uint64_t seed = std::strtoull(argv[i + 1], nullptr, 10);
            uint64_t jobs = std::strtoull(argv[i + 2], nullptr, 10);
            dumpRequests(seed, jobs);
            return 0;
        }
        const char *v = value();
        if (!v)
            return usage();
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::atof(v);
            have_seconds = opt.seconds > 0;
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "0") != 0;
            have_trace = true;
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else {
            return usage();
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
        return usage();

    bifsim::setInformEnabled(false);
    printEnvelope(opt);
    Result r;
    try {
        if (opt.workload == "fleet_small")
            r = runFleet(opt, false);
        else if (opt.workload == "fleet_ramcrc")
            r = runFleet(opt, true);
        else if (opt.workload == "solo_fullsystem")
            r = runSolo(opt);
        else if (opt.workload == "replay_validated")
            r = runReplay(opt);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    checkFixedCounts(r, opt.outDir, opt.workload, opt.seed);
    if (r.attempted == 0)
        r.fail("no operation was attempted");
    r.metrics["error_rate"] = static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted);
    for (const std::string &e : r.errors)
        std::printf("FAILED: %s\n", e.c_str());
    for (const std::string &n : r.notes)
        std::printf("note: %s\n", n.c_str());
    std::printf("error_rate %.6f (%llu of %llu operations failed)\n",
                r.metrics["error_rate"],
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto &[name, value] : r.fixedCounts)
        std::printf("fixed %s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    std::fflush(stdout);
    printResult(opt, r);
    return 0;
}
