#ifndef PERFBENCH_REQUESTS_H
#define PERFBENCH_REQUESTS_H

/**
 * @file
 * The seeded fleet request stream.  Job @p index of client @p client
 * is a pure function of (seed, client, index): a square size m in
 * {8, 16} and an SGEMM variant whose launch geometry is valid at m,
 * drawn without replacement from a balanced block of shapes; random A
 * and B; and, on the RAM-CRC mix, wantRamCrc on one job in each block
 * of eight.  The program only ever sees the generated FLTJ bytes.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/proto.h"
#include "runtime/session.h"
#include "bench.h"

namespace perfbench {

/** One generated job plus what the host needs to check its result. */
struct FleetJob
{
    uint64_t id = 0;       ///< Nonzero; also the trace job id.
    uint32_t m = 0;        ///< Matrix size.
    uint32_t variant = 0;  ///< SGEMM variant 1..6 (kernel index + 1).
    std::vector<float> a, b;
    bifsim::fleet::JobRequest req;
};

/** Trace/job id of (client, index); never 0. */
uint64_t fleetJobId(unsigned client, uint64_t index);

/** An SGEMM job of size @p m and @p variant with A and B drawn from
 *  @p rng. */
FleetJob makeSgemmJob(Rng &rng, uint64_t id, unsigned client, uint32_t m,
                      uint32_t variant, bool ram_crc);

/** Generates job @p index of @p client's stream. */
FleetJob makeFleetJob(uint64_t seed, unsigned client, uint64_t index,
                      bool ram_crc_mix);

/** The FLTJ payload bytes of @p req. */
std::vector<uint8_t> jobPayload(const bifsim::fleet::JobRequest &req);

/**
 * Checks an FLTR readback against the host SGEMM reference, with the
 * tolerance workloads::runSgemmVariants applies.  @return an empty
 * string when it matches, else what is wrong.
 */
std::string checkReadback(const FleetJob &job,
                          const std::vector<uint8_t> &readback);

/** Simulator counters, summed over jobs. */
struct JobCounts
{
    uint64_t kernelInstrs = 0, driverInstrs = 0, irqs = 0,
             ctrlWrites = 0, decodes = 0, cacheHits = 0, slices = 0,
             steals = 0, stealAttempts = 0;
    /** Per-job fields, from gpu::JobResult. */
    uint64_t pages = 0, walks = 0, tlbLookups = 0;

    /** The session's cumulative counters (per-job fields left 0). */
    static JobCounts cumulative(bifsim::rt::Session &s);

    /** Adds the cumulative fields of @p after - @p before. */
    void addDelta(const JobCounts &after, const JobCounts &before);

    /** Adds the per-job fields of @p r. */
    void addJob(const bifsim::gpu::JobResult &r);

    /** Adds every field of @p o. */
    JobCounts &operator+=(const JobCounts &o);

    /** Records these counts as the gpu, cpu.driver_instrs,
     *  shader_cache, gmmu and sched per-layer metrics. */
    void report(std::map<std::string, double> &mx) const;

    bool operator==(const JobCounts &) const = default;
};

/** What the host sees of a fleet job's result. */
struct Outcome
{
    std::vector<uint8_t> readback;
    uint64_t kernelInstrs = 0;
    uint32_t ramCrc = 0;
};

/**
 * Runs @p job on @p s through the calls FleetServer::runJob makes, in
 * its order (Session::write, enqueue, read, then snapshot::crc32 over
 * guest RAM when the job asks for it), with one span per call when
 * @p buf is set, and adds the counters it moved to @p counts.
 * @throws bifsim::SimError on a GPU fault.
 */
Outcome runOnSession(bifsim::rt::Session &s, const FleetJob &job,
                     trace::TraceBuffer *buf, JobCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_H
