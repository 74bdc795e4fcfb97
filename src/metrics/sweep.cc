#include "metrics/sweep.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace bifsim::metrics::sweep {

namespace {

void
flattenInto(const json::Value &v, const std::string &prefix,
            std::map<std::string, Flat> &out)
{
    switch (v.kind()) {
      case json::Value::Kind::Obj:
        for (const auto &[k, child] : v.obj())
            flattenInto(child, prefix.empty() ? k : prefix + "." + k,
                        out);
        return;
      case json::Value::Kind::Arr: {
        const auto &arr = v.arr();
        // Arrays of named objects key by name so reordering (or an
        // inserted element) doesn't shift every later key.
        bool named = !arr.empty();
        for (const json::Value &e : arr) {
            const json::Value *n = e.find("name");
            if (!n || !n->isStr()) {
                named = false;
                break;
            }
        }
        for (size_t i = 0; i < arr.size(); ++i) {
            std::string k = named ? arr[i].find("name")->str()
                                  : std::to_string(i);
            flattenInto(arr[i], prefix + "." + k, out);
        }
        return;
      }
      case json::Value::Kind::Num:
        out[prefix] = Flat{false, v.num(), {}};
        return;
      case json::Value::Kind::Bool:
        out[prefix] = Flat{false, v.boolean() ? 1.0 : 0.0, {}};
        return;
      case json::Value::Kind::Str: {
        // "name" members only repeat the key under named-array
        // flattening; drop them rather than diffing a tautology.
        size_t dot = prefix.rfind('.');
        std::string leaf =
            dot == std::string::npos ? prefix : prefix.substr(dot + 1);
        if (leaf != "name")
            out[prefix] = Flat{true, 0, v.str()};
        return;
      }
      case json::Value::Kind::Null:
        return;
    }
}

bool
contains(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

const char *
ruleName(Rule r)
{
    switch (r) {
      case Rule::Identity: return "identity";
      case Rule::Timing: return "timing";
      case Rule::Schedule: return "schedule";
      case Rule::Ratio: return "ratio";
      case Rule::Count: return "count";
      case Rule::Provenance: return "provenance";
    }
    return "?";
}

const char *
statusName(DiffStatus s)
{
    switch (s) {
      case DiffStatus::Ok: return "ok";
      case DiffStatus::Regression: return "REGRESSION";
      case DiffStatus::Missing: return "MISSING";
      case DiffStatus::Added: return "added";
    }
    return "?";
}

} // namespace

std::map<std::string, Flat>
flatten(const json::Value &doc)
{
    std::map<std::string, Flat> out;
    flattenInto(doc, "", out);
    return out;
}

Rule
classify(const std::string &key)
{
    // Envelope first: identity and provenance beat every pattern.
    if (key == "bench" || key == "schema" || key == "scale")
        return Rule::Identity;
    if (key.rfind("host.", 0) == 0 || key.rfind("gate.", 0) == 0)
        return Rule::Provenance;

    // Wall-clock deltas, host-noise estimates and quotients of two
    // host timings are host measurements even when shaped like ratios
    // ("wall_overhead", "noise_floor_overhead", "validated_over_plain");
    // never gate them.
    if (contains(key, "wall_") || contains(key, "noise") ||
        contains(key, "_over_"))
        return Rule::Timing;

    // Ratios divide the host out; gate them before the timing
    // patterns can shadow e.g. "warm_spawn_speedup".
    if (contains(key, "speedup") || contains(key, "hit_rate") ||
        contains(key, "overhead") || contains(key, "agree"))
        return Rule::Ratio;

    // Host-dependent timing and throughput.
    if (contains(key, "secs") || contains(key, "_ms") ||
        contains(key, "_ns") || contains(key, "ns_per") ||
        contains(key, "mips") || contains(key, "per_sec") ||
        contains(key, "jobs_per"))
        return Rule::Timing;

    // Schedule-dependent counts: legal to vary run to run.  "driver"
    // covers the full-system driver loop, whose instruction count is
    // wall-clock coupled (WFI parks and idle-spin bailouts retire a
    // timing-dependent number of guest instructions).
    if (contains(key, "steal") || contains(key, "spawn") ||
        contains(key, "recycle") || contains(key, "wait") ||
        contains(key, "peak") || contains(key, "live") ||
        contains(key, "idle") || contains(key, "walks") ||
        contains(key, "hits") || contains(key, "fills") ||
        contains(key, "retries") || contains(key, "events") ||
        contains(key, "driver"))
        return Rule::Schedule;

    return Rule::Count;
}

DiffResult
diff(const json::Value &baseline, const json::Value &candidate)
{
    std::map<std::string, Flat> base = flatten(baseline);
    std::map<std::string, Flat> cand = flatten(candidate);

    DiffResult res;
    for (const auto &[key, b] : base) {
        DiffRow row;
        row.key = key;
        row.rule = classify(key);
        row.base = b.num;

        auto it = cand.find(key);
        if (it == cand.end()) {
            row.status = DiffStatus::Missing;
            row.detail = "present in baseline, absent from candidate";
            res.rows.push_back(std::move(row));
            ++res.regressions;
            continue;
        }
        const Flat &c = it->second;
        row.cand = c.num;

        if (b.isStr != c.isStr) {
            row.status = DiffStatus::Regression;
            row.detail = "type changed";
        } else if (b.isStr) {
            if (row.rule == Rule::Identity && b.str != c.str) {
                row.status = DiffStatus::Regression;
                row.detail =
                    "\"" + b.str + "\" became \"" + c.str + "\"";
            }
        } else {
            switch (row.rule) {
              case Rule::Timing:
              case Rule::Schedule:
              case Rule::Provenance:
                break;   // Recorded, never gated.
              case Rule::Identity: {
                if (b.num != c.num) {
                    row.status = DiffStatus::Regression;
                    row.detail = "identity value changed (was the "
                                 "candidate regenerated at the "
                                 "baseline scale?)";
                }
                break;
              }
              case Rule::Ratio: {
                // Directional, with slack shaped per sub-family:
                //
                //  - overheads jitter around zero (a lucky run
                //    measures negative), so the baseline clamps at 0
                //    and absolute slack rides on top;
                //  - bounded ratios (hit rates, agreement) live in
                //    [0, 1] and are tight — a 5-point drop is real;
                //  - unbounded speedups gate only when the baseline
                //    demonstrates a real effect (>= 2x).  A baseline
                //    inside the noise band around 1x — e.g. thread
                //    scaling on a host with fewer cores than the
                //    sweep — carries no signal to regress from, the
                //    same self-disarming logic as the benches' own
                //    gates.
                constexpr double kRelTol = 0.5;
                bool bad = false;
                const char *why = nullptr;
                if (contains(key, "overhead")) {
                    bad = c.num >
                          std::max(b.num, 0.0) * (1.0 + kRelTol) + 0.10;
                    why = "rose";
                } else if (contains(key, "hit_rate") ||
                           contains(key, "agree")) {
                    bad = c.num < b.num - 0.05;
                    why = "fell";
                } else {
                    bad = b.num >= 2.0 && c.num < b.num * (1.0 - kRelTol);
                    why = "fell";
                }
                if (bad) {
                    row.status = DiffStatus::Regression;
                    char buf[96];
                    std::snprintf(buf, sizeof buf,
                                  "%s %.3g -> %.3g (outside the "
                                  "ratio tolerance band)",
                                  why, b.num, c.num);
                    row.detail = buf;
                }
                break;
              }
              case Rule::Count: {
                // Deterministic for a fixed scale; drift either way
                // is a behaviour change worth a look.  1% absorbs
                // float->text round-tripping, nothing else.
                constexpr double kRelTol = 0.01;
                double mag = std::fabs(b.num);
                if (std::fabs(c.num - b.num) >
                    kRelTol * (mag > 1 ? mag : 1)) {
                    row.status = DiffStatus::Regression;
                    char buf[96];
                    std::snprintf(buf, sizeof buf,
                                  "deterministic count moved %.6g -> "
                                  "%.6g",
                                  b.num, c.num);
                    row.detail = buf;
                }
                break;
              }
            }
        }
        if (row.status == DiffStatus::Regression)
            ++res.regressions;
        res.rows.push_back(std::move(row));
    }

    for (const auto &[key, c] : cand) {
        if (base.count(key))
            continue;
        DiffRow row;
        row.key = key;
        row.rule = classify(key);
        row.status = DiffStatus::Added;
        row.cand = c.num;
        row.detail = "new metric (not in baseline)";
        res.rows.push_back(std::move(row));
    }
    return res;
}

std::string
DiffResult::render(const std::string &title, bool verbose) const
{
    std::string out = title + ": ";
    char buf[160];
    size_t added = 0, gated = 0;
    for (const DiffRow &r : rows) {
        if (r.status == DiffStatus::Added)
            ++added;
        if (r.rule == Rule::Ratio || r.rule == Rule::Count ||
            r.rule == Rule::Identity)
            ++gated;
    }
    std::snprintf(buf, sizeof buf,
                  "%zu metrics (%zu gated), %zu regression%s, %zu "
                  "added\n",
                  rows.size(), gated, regressions,
                  regressions == 1 ? "" : "s", added);
    out += buf;
    for (const DiffRow &r : rows) {
        bool interesting = r.status == DiffStatus::Regression ||
                           r.status == DiffStatus::Missing;
        if (!interesting && !verbose)
            continue;
        std::snprintf(buf, sizeof buf, "  %-10s %-10s %-44s %s\n",
                      statusName(r.status), ruleName(r.rule),
                      r.key.c_str(), r.detail.c_str());
        out += buf;
    }
    return out;
}

} // namespace bifsim::metrics::sweep
