/**
 * @file
 * fleet_small and fleet_ramcrc: closed-loop tenant traffic against an
 * in-process FleetServer::serve() over its Unix socket.
 *
 * kThreads clients each hold one connection and send their next FLTJ
 * only after the previous FLTR arrived, with no think time (simctl's
 * callers wait for each reply the same way).  The server runs with
 * simd's defaults (workers = kThreads, one GPU host thread per pooled
 * session, 64 sessions max) over the sgemm warm image at n = 32 with
 * simd's default 64 MiB of guest RAM.
 *
 * The traced run splits its time three ways: the untraced socket loop
 * (the baseline for the tracing overhead), the same loop with spans
 * around the client's codec and socket calls, and a direct drive of
 * the same stream through the public calls FleetServer::runJob makes
 * (SessionPool::acquire, Session::write/enqueue/read, snapshot::crc32,
 * Lease release) with kThreads workers, one span per call.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"
#include "fleet/fleet.h"
#include "requests.h"
#include "runtime/session.h"

namespace perfbench {

namespace fl = bifsim::fleet;
namespace rt = bifsim::rt;
namespace snap = bifsim::snapshot;
using bifsim::SimError;

namespace {

constexpr uint32_t kMatrixN = 32;
constexpr size_t kRamBytes = 64u << 20;   // simd's default.
constexpr unsigned kSetupReps = 7;
/** Jobs per client in set-up.  They always complete, so they are also
 *  the fixed probe re-run on a solo session after the window. */
constexpr uint64_t kWarmupJobs = 8;
constexpr unsigned kCrcSamples = 3;
/** The untimed window runs in this many parts, each on a fresh set-up:
 *  how the scheduler places the fleet's sixteen threads on four CPUs
 *  is fixed per set-up and moves throughput by up to 10%, so the
 *  parts average over placements. */
constexpr unsigned kParts = 4;
/** Job-index distance between the streams of two parts. */
constexpr uint64_t kPartStride = 1ull << 32;
constexpr unsigned kBootsAtStart = 200;
constexpr unsigned kBootsPerSecond = 10;

/** Host-side knobs of pooled sessions: simd's defaults, plus the
 *  synchronous submit the pool forces.  Solo re-runs use them too: with
 *  asynchronous submit the completion IRQ interrupts the guest at a
 *  host-timed point, so the interrupted state it saves on the guest
 *  stack, and with it the RAM CRC, varies from run to run. */
rt::SystemConfig
poolBase()
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 1;
    cfg.gpu.syncSubmit = true;
    return cfg;
}

void
sendAll(int fd, const std::vector<uint8_t> &bytes)
{
    size_t put = 0;
    while (put < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + put, bytes.size() - put,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            throw SimError(std::string("client send: ") +
                           std::strerror(errno));
        put += static_cast<size_t>(n);
    }
}

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw SimError("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    double give_up = nowS() + 10;
    while (true) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            throw SimError("client socket failed");
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        if (nowS() > give_up)
            throw SimError("cannot connect to " + path);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/** One tenant connection and everything it observed. */
struct Client
{
    unsigned idx = 0;
    int fd = -1;
    uint64_t next = 0;    ///< Next job index of this client's stream.
    trace::TraceBuffer *buf = nullptr;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<uint64_t, Outcome> probe;       ///< Warm-up jobs.
    std::map<uint64_t, Outcome> crcJobs;     ///< wantRamCrc jobs.

    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 4)
            errors.push_back("client " + std::to_string(idx) + ": " + what);
    }
};

/** Per-window client-side observations. */
struct Window
{
    std::vector<double> latMs, queueMs, execMs, wireMs;
    std::vector<double> endS, instrs;   ///< Per ok job.
    std::vector<double> steal;          ///< Per bucket.
    uint64_t ok = 0;
    double start = 0, seconds = 0;

    Buckets
    buckets() const
    {
        return bucketize(start, steal, endS, latMs, instrs);
    }

    /** Appends @p p's whole buckets after this window's, on one
     *  timeline that starts at 0; jobs that ended after @p p's last
     *  whole bucket are left out. */
    void
    append(const Window &p)
    {
        double offset = static_cast<double>(steal.size()) * kBucketS;
        double span = static_cast<double>(p.steal.size()) * kBucketS;
        for (size_t i = 0; i < p.endS.size(); ++i) {
            double at = p.endS[i] - p.start;
            if (at >= span)
                continue;
            endS.push_back(at + offset);
            instrs.push_back(p.instrs[i]);
            latMs.push_back(p.latMs[i]);
            queueMs.push_back(p.queueMs[i]);
            execMs.push_back(p.execMs[i]);
            wireMs.push_back(p.wireMs[i]);
            ++ok;
        }
        steal.insert(steal.end(), p.steal.begin(), p.steal.end());
        seconds += p.seconds;
    }
};

/** One complete set-up: image, server, connected and warmed clients. */
class Fixture
{
  public:
    /** Window jobs of set-up @p part start at index
     *  kWarmupJobs + part * kPartStride of each client's stream. */
    Fixture(const Options &opt, bool ram_crc,
            const std::vector<trace::TraceBuffer *> &client_bufs,
            trace::TraceBuffer *setup_buf, uint64_t part = 0)
        : opt_(opt), ramCrc_(ram_crc), part_(part)
    {
        std::vector<uint8_t> bytes;
        {
            Span s(setup_buf, "image_build", layer::kSnapshot, 0, 0);
            bytes = fl::buildSgemmWarmImage(kMatrixN, kRamBytes);
        }
        {
            Span s(setup_buf, "image_parse", layer::kSnapshot, 0, 0);
            image = std::make_shared<const snap::Image>(
                snap::Image::fromBytes(std::move(bytes)));
        }
        fl::FleetConfig cfg;
        cfg.workers = kThreads;
        cfg.pool.maxSessions = 64;
        cfg.pool.base = poolBase();
        server = std::make_unique<fl::FleetServer>(image, cfg);
        socketPath_ = (std::filesystem::path(opt.outDir) /
                       ("perfbench-" + std::to_string(::getpid()) +
                        ".sock")).string();
        serveThread_ = std::thread([this] { server->serve(socketPath_); });
        try {
            connectAndWarm(client_bufs);
        } catch (...) {
            teardown();
            throw;
        }
    }

    ~Fixture() { teardown(); }

    Fixture(const Fixture &) = delete;
    Fixture &operator=(const Fixture &) = delete;

    /** Closed loop on every client for @p secs; @p traced records
     *  client-side spans.  This thread samples the stolen CPU share
     *  once a bucket (kBucketS) and calls @p each_second once a
     *  second and at the end. */
    Window
    run(double secs, bool traced,
        const std::function<void()> &each_second = [] {})
    {
        std::vector<Window> per(clients.size());
        Window w;
        CpuSample prev = cpuSample();
        double start = nowS();
        double deadline = start + secs;
        std::vector<double> ends(clients.size());
        std::vector<std::thread> ts;
        for (size_t i = 0; i < clients.size(); ++i)
            ts.emplace_back([&, i] {
                Client &c = clients[i];
                while (nowS() < deadline &&
                       roundTrip(c, &per[i], traced ? c.buf : nullptr)) {
                }
                ends[i] = nowS();
            });
        size_t buckets =
            std::max<size_t>(1, static_cast<size_t>(secs / kBucketS));
        size_t per_second = static_cast<size_t>(1 / kBucketS);
        for (size_t i = 1; i <= buckets; ++i) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                start + static_cast<double>(i) * kBucketS - nowS()));
            CpuSample now = cpuSample();
            w.steal.push_back(stealShare(prev, now));
            prev = now;
            if (i % per_second == 0 || i == buckets)
                each_second();
        }
        for (std::thread &t : ts)
            t.join();
        w.start = start;
        w.seconds = *std::max_element(ends.begin(), ends.end()) - start;
        for (const Window &p : per) {
            w.latMs.insert(w.latMs.end(), p.latMs.begin(), p.latMs.end());
            w.queueMs.insert(w.queueMs.end(), p.queueMs.begin(),
                             p.queueMs.end());
            w.execMs.insert(w.execMs.end(), p.execMs.begin(),
                            p.execMs.end());
            w.wireMs.insert(w.wireMs.end(), p.wireMs.begin(),
                            p.wireMs.end());
            w.endS.insert(w.endS.end(), p.endS.begin(), p.endS.end());
            w.instrs.insert(w.instrs.end(), p.instrs.begin(),
                            p.instrs.end());
            w.ok += p.ok;
        }
        return w;
    }

    /** FLTS counters, queried over client 0's connection. */
    std::map<std::string, uint64_t>
    serverCounters()
    {
        sendAll(clients[0].fd, fl::encodeFrame(fl::kMsgStatsQuery, {}));
        fl::Frame f;
        if (!fl::readFrame(clients[0].fd, f) ||
            f.kind != fl::kMsgStatsReply)
            throw SimError("no stats reply");
        snap::ChunkReader rd = f.reader();
        std::map<std::string, uint64_t> out;
        for (const auto &[name, value] : fl::StatsReply::parse(rd).counters)
            out[name] = value;
        return out;
    }

    std::shared_ptr<const snap::Image> image;
    std::unique_ptr<fl::FleetServer> server;
    std::vector<Client> clients;

  private:
    const Options &opt_;
    bool ramCrc_;
    uint64_t part_;
    std::string socketPath_;
    std::thread serveThread_;

    void
    connectAndWarm(const std::vector<trace::TraceBuffer *> &client_bufs)
    {
        clients.resize(kThreads);
        for (unsigned c = 0; c < kThreads; ++c) {
            clients[c].idx = c;
            clients[c].fd = connectTo(socketPath_);
            clients[c].buf = client_bufs[c];
            fl::Frame f;
            if (!fl::readFrame(clients[c].fd, f) ||
                f.kind != fl::kMsgWelcome)
                throw SimError("no welcome frame");
        }
        std::vector<std::thread> ts;
        for (Client &c : clients)
            ts.emplace_back([&c, this] {
                for (uint64_t i = 0; i < kWarmupJobs; ++i)
                    if (!roundTrip(c, nullptr, nullptr, true))
                        break;
            });
        for (std::thread &t : ts)
            t.join();
        for (Client &c : clients)
            c.next = kWarmupJobs + part_ * kPartStride;
    }

    /** Hangs up every client, then drains and stops the server. */
    void
    teardown()
    {
        for (Client &c : clients) {
            if (c.fd >= 0)
                ::close(c.fd);
            c.fd = -1;
        }
        server->requestShutdown();
        if (serveThread_.joinable())
            serveThread_.join();
    }

    /** One FLTJ -> FLTR exchange plus its correctness check.
     *  @return false when the connection is unusable. */
    bool
    roundTrip(Client &c, Window *w, trace::TraceBuffer *buf,
              bool warmup = false)
    {
        try {
            exchange(c, w, buf, warmup);
            return true;
        } catch (const SimError &e) {
            c.fail(e.what());
            return false;
        }
    }

    /** @p warmup drops the RAM CRC: set-up spawns sessions and warms
     *  caches, it does not hash. */
    void
    exchange(Client &c, Window *w, trace::TraceBuffer *buf, bool warmup)
    {
        uint64_t index = c.next++;
        FleetJob job = makeFleetJob(opt_.seed, c.idx, index, ramCrc_);
        if (warmup)
            job.req.wantRamCrc = false;
        ++c.attempted;
        fl::JobResultMsg m;
        uint64_t t0 = trace::nowNs();
        {
            Span root(buf, "request", layer::kBench, job.id, 0);
            std::vector<uint8_t> payload, frame;
            {
                Span s(buf, "serialize", layer::kFleet, job.id, job.id);
                payload = jobPayload(job.req);
            }
            {
                Span s(buf, "encode_frame", layer::kFleet, job.id, job.id);
                frame = fl::encodeFrame(fl::kMsgJob, payload);
            }
            fl::Frame f;
            {
                Span s(buf, "socket", layer::kFleet, job.id, job.id);
                sendAll(c.fd, frame);
                if (!fl::readFrame(c.fd, f) || f.kind != fl::kMsgResult)
                    throw SimError("lost connection mid-job");
            }
            {
                Span s(buf, "parse", layer::kFleet, job.id, job.id);
                snap::ChunkReader rd = f.reader();
                m = fl::JobResultMsg::parse(rd);
            }
            if (buf) {
                // The server's half of the codec, re-run on the same
                // bytes: spans inside the server are not reachable
                // from its public API.
                {
                    Span s(buf, "server_parse", layer::kFleet, job.id,
                           job.id);
                    snap::ChunkReader rd(fl::kMsgJob, payload.data(),
                                         payload.size());
                    fl::JobRequest::parse(rd);
                }
                Span s(buf, "server_serialize", layer::kFleet, job.id,
                       job.id);
                snap::ChunkWriter wr;
                m.serialize(wr);
                fl::encodeFrame(fl::kMsgResult, wr.data());
            }
        }
        double lat_ms = static_cast<double>(trace::nowNs() - t0) * 1e-6;

        if (m.status != fl::JobStatus::Ok) {
            c.fail(std::string(fl::jobStatusName(m.status)) + ": " +
                   m.detail);
            return;
        }
        std::string bad = checkReadback(job, m.readback);
        if (!bad.empty()) {
            c.fail("job " + std::to_string(index) + ": " + bad);
            return;
        }
        if (warmup)
            c.probe[index] = {m.readback, m.kernelInstrs, m.ramCrc};
        if (job.req.wantRamCrc)
            c.crcJobs[index] = {{}, m.kernelInstrs, m.ramCrc};
        if (w) {
            ++w->ok;
            w->endS.push_back(nowS());
            w->instrs.push_back(static_cast<double>(m.kernelInstrs));
            w->latMs.push_back(lat_ms);
            double q = static_cast<double>(m.queueNs) * 1e-6;
            double e = static_cast<double>(m.execNs) * 1e-6;
            w->queueMs.push_back(q);
            w->execMs.push_back(e);
            w->wireMs.push_back(lat_ms - q - e);
        }
    }
};

/** Direct drive of the seeded stream through the pool (traced run).
 *  @return the kernel instructions the drive executed. */
uint64_t
driveDirect(Fixture &fx, const Options &opt, bool ram_crc, double secs,
            Spans &spans, Result &res)
{
    fl::SessionPool &pool = fx.server->pool();
    std::vector<trace::TraceBuffer *> bufs;
    for (unsigned c = 0; c < kThreads; ++c)
        bufs.push_back(spans.thread("worker-" + std::to_string(c)));
    std::vector<uint64_t> attempted(kThreads), instrs(kThreads);
    std::vector<std::vector<std::string>> errs(kThreads);
    double deadline = nowS() + secs;
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < kThreads; ++c)
        ts.emplace_back([&, c] {
            Client &cl = fx.clients[c];
            trace::TraceBuffer *buf = bufs[c];
            while (nowS() < deadline) {
                FleetJob job =
                    makeFleetJob(opt.seed, c, cl.next++, ram_crc);
                ++attempted[c];
                JobCounts counts;
                Outcome o;
                try {
                    Span root(buf, "job", layer::kBench, job.id, 0);
                    fl::SessionPool::Lease lease;
                    {
                        Span s(buf, "acquire", layer::kPool, job.id,
                               job.id);
                        lease = pool.acquire();
                    }
                    o = runOnSession(lease.session(), job, buf, counts);
                    Span s(buf, "recycle", layer::kPool, job.id, job.id);
                    lease = fl::SessionPool::Lease();
                } catch (const SimError &e) {
                    errs[c].push_back(e.what());
                    continue;
                }
                std::string bad = checkReadback(job, o.readback);
                if (!bad.empty())
                    errs[c].push_back(bad);
                instrs[c] += counts.kernelInstrs;
            }
        });
    for (std::thread &t : ts)
        t.join();
    uint64_t total = 0;
    for (unsigned c = 0; c < kThreads; ++c) {
        total += instrs[c];
        res.attempted += attempted[c];
        for (const std::string &e : errs[c])
            res.fail("direct drive: " + e);
    }
    return total;
}

} // namespace

Result
runFleet(const Options &opt, bool ram_crc)
{
    Result res;
    std::map<std::string, double> &mx = res.metrics;
    Spans spans(opt.trace);
    trace::TraceBuffer *main_buf = spans.thread("main");

    // Cold boots of the fleet's machine configuration: a batch now, on
    // an idle machine, and one each second of the untraced window.
    rt::SystemConfig boot_cfg = poolBase();
    boot_cfg.ramBytes = kRamBytes;
    boot_cfg.gpu.numCores = 4;     // buildSgemmWarmImage's default.
    ColdBoots boots(boot_cfg);
    boots.run(kBootsAtStart);

    // ---- Set-up, repeated; the last fixture serves the window. ----
    std::vector<trace::TraceBuffer *> client_bufs;
    for (unsigned c = 0; c < kThreads; ++c)
        client_bufs.push_back(spans.thread("client-" + std::to_string(c)));
    // Every set-up's warm-up jobs count as attempted and are checked.
    auto absorb = [&res](const std::vector<Client> &clients) {
        for (const Client &c : clients) {
            res.attempted += c.attempted;
            res.failed += c.failed;
            res.errors.insert(res.errors.end(), c.errors.begin(),
                              c.errors.end());
            if (c.failed)
                res.correct = false;
        }
    };
    std::unique_ptr<Fixture> fx;
    mx["setup_s"] = calmMedianSeconds(
        kSetupReps,
        [&] {
            fx = std::make_unique<Fixture>(opt, ram_crc, client_bufs,
                                           main_buf);
        },
        [&] {
            absorb(fx->clients);
            fx.reset();
        });

    // ---- Timed windows. ----
    Window base;
    unsigned parts = opt.trace ? 1 : kParts;
    double part_s = (opt.trace ? opt.seconds / 3 : opt.seconds) / parts;
    for (unsigned part = 0; part < parts; ++part) {
        if (part > 0) {
            absorb(fx->clients);
            fx.reset();
            fx = std::make_unique<Fixture>(opt, ram_crc, client_bufs,
                                           main_buf, part);
        }
        base.append(fx->run(part_s, false,
                            [&boots] { boots.run(kBootsPerSecond); }));
    }
    mx["boot_ms"] = boots.bestMs();
    Window traced;
    uint64_t direct_instrs = 0;
    if (opt.trace) {
        traced = fx->run(opt.seconds / 3, true);
        fl::PoolStats p0 = fx->server->pool().stats();
        direct_instrs =
            driveDirect(*fx, opt, ram_crc, opt.seconds / 3, spans, res);
        fl::PoolStats p1 = fx->server->pool().stats();
        mx["session_pool.spawns"] = static_cast<double>(p1.spawns - p0.spawns);
        mx["session_pool.recycles"] =
            static_cast<double>(p1.recycles - p0.recycles);
        mx["session_pool.recycle_failures"] =
            static_cast<double>(p1.recycleFailures - p0.recycleFailures);
        mx["session_pool.acquire_waits"] =
            static_cast<double>(p1.acquireWaits - p0.acquireWaits);
        std::map<std::string, uint64_t> counters = fx->serverCounters();
        mx["fleet.rejected"] =
            static_cast<double>(counters["fleet.jobs_rejected"]);
        mx["fleet.bad_request"] =
            static_cast<double>(counters["fleet.jobs_bad_request"]);
    }

    Buckets b = base.buckets();
    std::printf("fleet window: %llu jobs in %.2f s; %zu calm buckets of "
                "%zu hold %zu latency samples\n",
                static_cast<unsigned long long>(base.ok), base.seconds,
                calmUnits(base.steal).size(), base.steal.size(), b.samples);
    mx["jobs_per_s"] = b.opsPerS;
    mx["job_p50_ms"] = b.p50Ms;
    mx["job_p99_ms"] = b.p99Ms;
    mx["sim_gpu_mips"] = b.workPerS * 1e-6;

    std::shared_ptr<const snap::Image> image = fx->image;
    std::vector<Client> clients = fx->clients;
    fx.reset();
    absorb(clients);

    // ---- Fleet vs solo: the warm-up jobs on one solo warm session,
    // bit-identical readback and counts, and the fixed counts. ----
    JobCounts probe;
    {
        std::unique_ptr<rt::Session> solo =
            rt::Session::fromSnapshot(*image, poolBase());
        bool first = true;
        for (const Client &c : clients) {
            for (uint64_t i = 0; i < kWarmupJobs; ++i) {
                FleetJob job = makeFleetJob(opt.seed, c.idx, i, ram_crc);
                job.req.wantRamCrc = false;   // Checked separately below.
                if (!first)
                    solo->resetFromSnapshot(*image);
                first = false;
                ++res.attempted;
                try {
                    Outcome o = runOnSession(*solo, job, nullptr, probe);
                    auto it = c.probe.find(i);
                    if (it == c.probe.end())
                        res.fail("probe job " + std::to_string(i) +
                                 " has no fleet result");
                    else if (it->second.readback != o.readback ||
                             it->second.kernelInstrs != o.kernelInstrs)
                        res.fail("fleet and solo runs of job " +
                                 std::to_string(job.id) + " differ");
                } catch (const SimError &e) {
                    res.fail(std::string("solo probe: ") + e.what());
                }
            }
        }
    }

    // ---- Sampled wantRamCrc jobs on fresh solo sessions. ----
    if (ram_crc) {
        std::vector<std::pair<unsigned, uint64_t>> crc_jobs;
        for (const Client &c : clients)
            for (const auto &[index, o] : c.crcJobs)
                crc_jobs.emplace_back(c.idx, index);
        if (crc_jobs.empty())
            res.fail("no wantRamCrc job completed");
        Rng pick(opt.seed ^ 0xC2C5A3B1Eull);
        for (unsigned k = 0; k < kCrcSamples && !crc_jobs.empty(); ++k) {
            auto [client, index] = crc_jobs[pick.below(
                static_cast<uint32_t>(crc_jobs.size()))];
            FleetJob job = makeFleetJob(opt.seed, client, index, true);
            std::unique_ptr<rt::Session> solo =
                rt::Session::fromSnapshot(*image, poolBase());
            JobCounts ignored;
            ++res.attempted;
            try {
                Outcome o = runOnSession(*solo, job, nullptr, ignored);
                if (o.ramCrc != clients[client].crcJobs.at(index).ramCrc)
                    res.fail("ramCrc of job " + std::to_string(job.id) +
                             " differs between fleet and solo");
            } catch (const SimError &e) {
                res.fail(std::string("solo ramCrc check: ") + e.what());
            }
        }
    }

    mx["peak_rss_mb"] = peakRssMb();

    res.fixedCounts = {
        {"gpu.kernel_instrs", probe.kernelInstrs},
        {"cpu.driver_instrs", probe.driverInstrs},
        {"gpu.irqs", probe.irqs},
        {"gpu.ctrl_reg_writes", probe.ctrlWrites},
        {"gpu.pages_accessed", probe.pages},
        {"shader_cache.decodes", probe.decodes},
        {"cpu.instret", boots.cpu().instret},
    };

    if (!opt.trace)
        return res;

    // ---- Per-layer metrics from the traced run. ----
    probe.report(mx);
    reportBoot(boots.cpu(), mx);

    mx["fleet.queue_ms_p50"] = median(traced.queueMs);
    mx["fleet.queue_ms_p99"] = quantile(traced.queueMs, 0.99);
    mx["fleet.exec_ms_p50"] = median(traced.execMs);
    mx["fleet.wire_ms_p50"] = median(traced.wireMs);
    Buckets tb = traced.buckets();
    mx["trace.overhead_jobs_per_s"] = tb.opsPerS - mx["jobs_per_s"];
    mx["trace.overhead_job_p50_ms"] = tb.p50Ms - mx["job_p50_ms"];

    std::vector<trace::Event> events = spans.collect();
    std::map<std::string, std::vector<double>> d = spanDurationsMs(events);
    mx["snapshot.image_build_ms"] = median(d["snapshot.image_build"]);
    mx["snapshot.image_parse_ms"] = median(d["snapshot.image_parse"]);
    mx["session_pool.acquire_ms"] = median(d["session_pool.acquire"]);
    mx["session_pool.recycle_ms"] = median(d["session_pool.recycle"]);
    mx["runtime.write_ms"] = median(d["runtime.write"]);
    mx["runtime.enqueue_ms"] = median(d["runtime.enqueue"]);
    mx["runtime.read_ms"] = median(d["runtime.read"]);
    mx["snapshot.ram_crc_ms"] = median(d["snapshot.ram_crc"]);

    // Codec time per request: the client's and the server's halves.
    std::map<uint64_t, double> proto_ms;
    for (const trace::Event &e : events) {
        std::string_view n(e.name);
        if (std::string_view(e.cat) == layer::kFleet && n != "socket")
            proto_ms[e.args[0].value] += static_cast<double>(e.dur) * 1e-6;
    }
    std::vector<double> proto_us;
    for (const auto &[job, ms] : proto_ms)
        proto_us.push_back(ms * 1e3);
    mx["fleet.proto_us"] = median(proto_us);

    mx["gpu.ns_per_kernel_instr"] = nsPer(d["runtime.enqueue"], direct_instrs);

    // What the direct drive's spans leave of the server's execNs.
    RootCover cover = rootCoverage(events, "job");
    mx["bench.job_self_ms"] = median(cover.selfMs());
    double exec_mean = mean(base.execMs);
    mx["fleet.exec_unattributed_share"] =
        exec_mean > 0 ? (exec_mean - mean(cover.childMs)) / exec_mean : 0;
    finishTrace(spans, events.size(), opt, mx);
    return res;
}

} // namespace perfbench
