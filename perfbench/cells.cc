/**
 * @file
 * Cell runner for the end-to-end benchmark; perfbench/run.py builds
 * and drives it and turns its output into metrics.
 *
 * A cell is one (mix, scheme, mode) design point, run from System
 * construction to collected statistics on this thread:
 *  - timing: MachineConfig::preset(4) with its in-run warm-up, then
 *    the event-driven run;
 *  - warm:   MachineConfig::fullScale(4); functional warm-up over the
 *    preset's warm-up budget, then, for checkpoint-capable orgs, the
 *    serializeWarmState / restoreWarmState round trip into a fresh
 *    System that a shared sweep warm-up group pays.
 *
 * The runner first runs every cell of the workload once at the
 * anchor seed with small budgets (digests recorded in digests.json,
 * so every run checks the simulator's output whatever its seed),
 * then repeats the cell list in passes until the wall-clock budget
 * is spent. It prints one JSON line per anchor, cell and pass.
 *
 * Host time is read only around calls into the simulator's public
 * API. With --trace-out those intervals are also kept as spans
 * (workload > pass > cell > phase, written as Chrome trace JSON),
 * even passes keep spans and odd ones do not (the tracing-overhead
 * A/B), and each cell kind's programs are replayed stage by stage --
 * TraceGenerator::next, the L1/LLSC SramCache::access chain, then
 * DramCacheOrg::access on the miss stream -- over the records the
 * cell consumed, to attribute host time to those layers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "build_stamp.hh"
#include "cache/sram_cache.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "common/wallclock.hh"
#include "sim/functional.hh"
#include "sim/system.hh"
#include "trace/workload.hh"

namespace
{

using namespace bmc;
using namespace bmc::sim;

struct CellSpec
{
    const char *mix;
    const char *scheme;
    bool warm; //!< warm-up/checkpoint cell rather than a timing run
};

struct WorkloadDef
{
    const char *name;
    std::vector<CellSpec> cells;
};

// Why these cells: see README.md, "Workloads".
const std::vector<WorkloadDef> kWorkloads = {
    {"timing_hit",
     {{"Q5", "bimodal", false}, {"Q5", "footprint", false}}},
    {"timing_miss",
     {{"Q3", "bimodal", false},
      {"Q3", "alloy", false},
      {"Q9", "bimodal", false},
      {"Q9", "alloy", false}}},
    {"warm_ckpt",
     {{"Q3", "bimodal", true},
      {"Q3", "alloy", true},
      {"Q5", "bimodal", true},
      {"Q5", "alloy", true}}},
};

/** Seed of the anchor cells whose digests digests.json records. */
constexpr std::uint64_t kAnchorSeed = 1;
/** Anchor budgets: instructions per core (timing: warm-up and
 *  measured each; warm: the functional warm-up). */
constexpr std::uint64_t kAnchorTimingInstrs = 1'000'000;
constexpr std::uint64_t kAnchorWarmInstrs = 500'000;
/** Records per core whose residency the warm-cell digest samples. */
constexpr unsigned kProbeRecords = 16384;
/** Records drawn per replay stage batch. */
constexpr std::size_t kReplayChunk = 1 << 16;
/** Every n-th replayed org access is timed on its own. */
constexpr std::size_t kSampleEvery = 16;

/** Incremental 64-bit FNV-1a. */
class Fnv
{
  public:
    void add(const std::string &bytes)
    {
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::string hex() const { return strfmt("%016" PRIx64, h_); }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    return out + "\"";
}

std::int64_t
nsSince(WallInstant origin, WallInstant t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                origin)
        .count();
}

/**
 * Host-time intervals around simulator calls. Every interval is
 * measured; it is also kept as a span only while keep() is set.
 */
class Spans
{
  public:
    explicit Spans(WallInstant origin) : origin_(origin) {}

    void setKeep(bool keep) { keep_ = keep; }

    /** Run @p fn, keep its span if tracing, return its seconds. */
    template <class F>
    double time(const char *name, const std::string &cell, F &&fn)
    {
        const WallInstant t0 = wallNow();
        fn();
        const WallInstant t1 = wallNow();
        add(name, cell, t0, t1);
        return std::chrono::duration<double>(t1 - t0).count();
    }

    void add(const char *name, const std::string &cell, WallInstant t0,
             WallInstant t1)
    {
        if (keep_) {
            spans_.push_back(
                {name, cell, nsSince(origin_, t0), nsSince(origin_, t1)});
        }
    }

    /** Write the kept spans as Chrome trace-event JSON. */
    void write(const std::string &path, const std::string &meta) const
    {
        std::ofstream out(path);
        if (!out)
            bmc_fatal("cannot write trace '%s'", path.c_str());
        out << "{\"otherData\":" << meta << ",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n")
                << strfmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"cell\":%s}}",
                          s.name, s.startNs / 1e3,
                          (s.endNs - s.startNs) / 1e3,
                          jsonStr(s.cell).c_str());
        }
        out << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        std::string cell;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    WallInstant origin_;
    bool keep_ = false;
    std::vector<Span> spans_;
};

/** What one cell produced. Times are host seconds. */
struct CellRun
{
    double setupS = 0, warmS = 0, saveS = 0, restoreS = 0, runS = 0,
           collectS = 0;
    std::uint64_t instrs = 0;
    std::uint64_t ckptBytes = 0;
    /** Trace records each core consumed (the replay's sizing). */
    std::vector<std::uint64_t> records;
    ProfileReport prof;
    std::string statsJson;
    std::string digest;
    std::string error;

    double cellS() const
    {
        return setupS + warmS + saveS + restoreS + runS + collectS;
    }
};

MachineConfig
cellConfig(const CellSpec &c, std::uint64_t seed, bool anchor,
           bool perturb)
{
    MachineConfig cfg = c.warm ? MachineConfig::fullScale(4)
                               : MachineConfig::preset(4);
    cfg.scheme = schemeFromName(c.scheme);
    cfg.seed = seed;
    if (anchor) {
        cfg.instrPerCore = kAnchorTimingInstrs;
        cfg.warmupInstrPerCore =
            c.warm ? kAnchorWarmInstrs : kAnchorTimingInstrs;
    }
    if (perturb)
        cfg.predictorThreshold += 1;
    return cfg;
}

void
runTimingCell(const CellSpec &c, const MachineConfig &cfg, Spans &spans,
              const std::string &id, CellRun &r)
{
    const auto &programs = trace::findWorkload(c.mix).programs;
    std::unique_ptr<System> sys;
    r.setupS = spans.time("setup", id, [&] {
        sys = std::make_unique<System>(cfg, programs);
    });
    RunStats rs;
    r.runS = spans.time("run", id, [&] { rs = sys->run(); });
    std::string summary;
    r.collectS = spans.time("collect", id, [&] {
        summary = statsToJson(rs);
        r.statsJson = sys->statsHierarchyJson();
        r.prof = sys->profile();
    });
    for (unsigned i = 0; i < cfg.cores; ++i) {
        r.instrs += sys->core(i).instrsRetired();
        r.records.push_back(sys->core(i).recordsFetched());
    }
    Fnv h;
    h.add(summary);
    h.add(r.statsJson);
    r.digest = h.hex();
}

void
runWarmCell(const CellSpec &c, MachineConfig cfg, Spans &spans,
            const std::string &id, CellRun &r)
{
    const auto &workload = trace::findWorkload(c.mix);
    const std::uint64_t budget = cfg.warmupInstrPerCore;
    cfg.warmupInstrPerCore = 0; // the functional warm-up replaces it
    std::unique_ptr<System> sys;
    r.setupS = spans.time("setup", id, [&] {
        sys = std::make_unique<System>(cfg, workload.programs);
    });
    r.warmS = spans.time("warm", id,
                         [&] { sys->warmupFunctional(budget); });
    Fnv h;
    if (sys->supportsCheckpoint()) {
        std::string blob;
        r.saveS = spans.time("ckpt_save", id,
                             [&] { blob = sys->serializeWarmState(); });
        sys.reset();
        r.setupS += spans.time("setup", id, [&] {
            sys = std::make_unique<System>(cfg, workload.programs);
        });
        r.restoreS = spans.time("ckpt_restore", id,
                                [&] { sys->restoreWarmState(blob); });
        if (sys->serializeWarmState() != blob)
            bmc_fatal("checkpoint round trip changed the warm state");
        r.ckptBytes = blob.size();
        h.add(blob);
    }
    r.collectS = spans.time("collect", id, [&] {
        r.statsJson = sys->statsHierarchyJson();
    });
    h.add(r.statsJson);

    // Warm-up resets every statistic, so the digest also samples the
    // org's contents: residency of each program's first records.
    auto gens = makeWorkloadPrograms(workload, cfg);
    std::string resident;
    for (auto &gen : gens) {
        for (unsigned k = 0; k < kProbeRecords; ++k)
            resident += sys->org().probe(gen->next().addr) ? '1' : '0';
    }
    h.add(resident);
    for (unsigned i = 0; i < cfg.cores; ++i) {
        r.records.push_back(sys->core(i).warmRecords());
        h.add(strfmt("%" PRIu64 ",", r.records.back()));
    }
    r.instrs = budget * cfg.cores;
    r.digest = h.hex();
}

CellRun
runCell(const CellSpec &c, const MachineConfig &cfg, Spans &spans,
        const std::string &id)
{
    CellRun r;
    try {
        if (c.warm)
            runWarmCell(c, cfg, spans, id, r);
        else
            runTimingCell(c, cfg, spans, id, r);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

/** Host-time attribution from one stage-by-stage replay. */
struct Replay
{
    double nextS = 0, sramS = 0, orgS = 0;
    std::uint64_t records = 0, sramCalls = 0, orgCalls = 0;
    /** Org calls timed on their own, and the misses among them. */
    std::uint64_t sampled = 0, sampledMisses = 0;
    double sampledMissNs = 0;
    std::string statsJson;
};

/** Cost of one steady_clock read, subtracted from sampled calls. */
double
clockReadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
        const WallInstant t0 = wallNow();
        const WallInstant t1 = wallNow();
        d.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::nth_element(d.begin(), d.begin() + 500, d.end());
    return d[500];
}

Replay
replayCell(const CellSpec &c, const MachineConfig &cfg,
           const std::vector<std::uint64_t> &records, Spans &spans,
           const std::string &id, double clock_ns)
{
    Replay r;
    stats::StatGroup root("replay");
    auto gens = makeWorkloadPrograms(trace::findWorkload(c.mix), cfg);

    // The L1s and LLSC exactly as System builds them.
    std::vector<std::unique_ptr<cache::SramCache>> l1;
    for (unsigned i = 0; i < cfg.cores; ++i) {
        cache::SramCache::Params p;
        p.name = "l1_" + std::to_string(i);
        p.sizeBytes = cfg.l1Bytes;
        p.assoc = cfg.l1Assoc;
        p.hitLatency = cfg.l1Latency;
        p.seed = cfg.seed + 101 + i;
        l1.push_back(std::make_unique<cache::SramCache>(p, root));
    }
    cache::SramCache::Params lp;
    lp.name = "llsc";
    lp.sizeBytes = cfg.llscBytes;
    lp.assoc = cfg.llscAssoc;
    lp.hitLatency = cfg.llscLatency;
    lp.seed = cfg.seed + 201;
    cache::SramCache llsc(lp, root);
    auto org = buildOrg(cfg, root);

    std::vector<std::uint64_t> left = records;
    std::vector<std::pair<unsigned, trace::TraceRecord>> chunk;
    std::vector<std::pair<Addr, bool>> reqs;
    bool more = true;
    while (more) {
        chunk.clear();
        r.nextS += spans.time("trace.next", id, [&] {
            while (more && chunk.size() < kReplayChunk) {
                more = false;
                for (unsigned i = 0; i < cfg.cores; ++i) {
                    if (left[i] == 0)
                        continue;
                    chunk.emplace_back(i, gens[i]->next());
                    more = --left[i] > 0 || more;
                }
            }
        });
        r.records += chunk.size();

        // The MemHierarchy::warmAccess / runFunctional chain.
        reqs.clear();
        r.sramS += spans.time("cache.sram_access", id, [&] {
            for (const auto &[core, rec] : chunk) {
                const auto o1 = l1[core]->access(rec.addr, rec.write);
                ++r.sramCalls;
                if (o1.writeback) {
                    const auto wb = llsc.access(o1.victimAddr, true);
                    ++r.sramCalls;
                    if (wb.writeback)
                        reqs.emplace_back(wb.victimAddr, true);
                }
                if (o1.hit)
                    continue;
                const auto o2 = llsc.access(rec.addr, rec.write);
                ++r.sramCalls;
                if (o2.writeback)
                    reqs.emplace_back(o2.victimAddr, true);
                if (!o2.hit)
                    reqs.emplace_back(rec.addr, rec.write);
            }
        });

        r.orgS += spans.time("dramcache.access", id, [&] {
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                if (i % kSampleEvery != 0) {
                    org->access(reqs[i].first, reqs[i].second);
                    continue;
                }
                const WallInstant t0 = wallNow();
                const bool hit =
                    org->access(reqs[i].first, reqs[i].second).hit;
                const WallInstant t1 = wallNow();
                ++r.sampled;
                if (!hit) {
                    ++r.sampledMisses;
                    r.sampledMissNs +=
                        std::chrono::duration<double, std::nano>(t1 - t0)
                            .count() -
                        clock_ns;
                }
            }
        });
        r.orgCalls += reqs.size();
    }
    // Remove the sampled calls' clock reads from the batched time.
    r.orgS -= r.sampled * clock_ns * 1e-9;
    r.statsJson = root.toJson();
    return r;
}

std::string
stampJson()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized = false;
#endif
    return strfmt("{\"compiler\":%s,\"compiler_version\":%s,"
                  "\"build_type\":%s,\"flags\":%s,\"sanitizer\":%s}",
                  jsonStr(BMC_STAMP_COMPILER).c_str(),
                  jsonStr(__VERSION__).c_str(),
                  jsonStr(BMC_STAMP_BUILD_TYPE).c_str(),
                  jsonStr(BMC_STAMP_FLAGS).c_str(),
                  sanitized ? "true" : "false");
}

std::string
cellId(const CellSpec &c)
{
    return strfmt("%s/%s/%s", c.mix, c.scheme,
                  c.warm ? "warm" : "timing");
}

void
printCell(const char *type, unsigned pass, bool traced,
          const std::string &id, const CellRun &r, bool with_stats)
{
    std::string line = strfmt(
        "{\"type\":\"%s\",\"pass\":%u,\"traced\":%s,\"cell\":%s",
        type, pass, traced ? "true" : "false", jsonStr(id).c_str());
    if (!r.error.empty()) {
        std::printf("%s,\"error\":%s}\n", line.c_str(),
                    jsonStr(r.error).c_str());
        return;
    }
    line += strfmt(
        ",\"digest\":\"%s\",\"instrs\":%" PRIu64
        ",\"setup_s\":%.9f,\"warm_s\":%.9f,\"ckpt_save_s\":%.9f,"
        "\"ckpt_restore_s\":%.9f,\"run_s\":%.9f,\"collect_s\":%.9f,"
        "\"cell_s\":%.9f,\"ckpt_bytes\":%" PRIu64 ",\"records\":[",
        r.digest.c_str(), r.instrs, r.setupS, r.warmS, r.saveS,
        r.restoreS, r.runS, r.collectS, r.cellS(), r.ckptBytes);
    for (std::size_t i = 0; i < r.records.size(); ++i)
        line += strfmt("%s%" PRIu64, i ? "," : "", r.records[i]);
    line += strfmt("],\"profile\":%s", r.prof.toJson().c_str());
    if (with_stats)
        line += ",\"stats\":" + r.statsJson;
    std::printf("%s}\n", line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("perfbench_cells: end-to-end benchmark cell runner");
    opts.addString("workload", "", "timing_hit, timing_miss or warm_ckpt")
        .addUint("seed", 1, "seed of every measured cell")
        .addDouble("seconds", 20.0, "wall-clock budget of the passes")
        .addUint("min-passes", 3, "passes to run whatever the budget")
        .addString("trace-out", "",
                   "traced run: keep spans, replay each cell kind, "
                   "write Chrome trace JSON here")
        .addFlag("perturb", false,
                 "raise predictorThreshold by one in every cell "
                 "(the correctness gate's self-test)");
    opts.parse(argc, argv);

    const std::string stamp = stampJson();
    std::printf("{\"type\":\"stamp\",\"stamp\":%s}\n", stamp.c_str());
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "perfbench_cells: refusing to measure a "
                         "sanitizer build\n");
    return 3;
#endif

    const WorkloadDef *wl = nullptr;
    for (const auto &w : kWorkloads) {
        if (opts.getString("workload") == w.name)
            wl = &w;
    }
    if (!wl) {
        std::fprintf(stderr, "perfbench_cells: unknown --workload '%s'\n",
                     opts.getString("workload").c_str());
        return 2;
    }
    const std::uint64_t seed = opts.getUint("seed");
    const double budget_s = opts.getDouble("seconds");
    const std::uint64_t min_passes = opts.getUint("min-passes");
    const std::string trace_out = opts.getString("trace-out");
    const bool tracing = !trace_out.empty();
    const bool perturb = opts.flag("perturb");

    ScopedThrowErrors throw_errors;
    const WallInstant origin = wallNow();
    Spans spans(origin);

    for (const auto &c : wl->cells) {
        const CellRun r = runCell(
            c, cellConfig(c, kAnchorSeed, true, perturb), spans, "");
        printCell("anchor", 0, false, cellId(c), r, false);
    }

    // The passes: the measured region. In a traced run even passes
    // keep spans and odd passes do not, for the overhead A/B.
    std::vector<CellRun> last(wl->cells.size());
    const WallInstant passes_start = wallNow();
    for (unsigned pass = 0;; ++pass) {
        const double elapsed = wallSecondsSince(passes_start);
        if (pass >= min_passes &&
            (pass == 0 || elapsed + elapsed / pass > budget_s))
            break;
        const bool traced = tracing && pass % 2 == 0;
        spans.setKeep(traced);
        const WallInstant p0 = wallNow();
        for (std::size_t i = 0; i < wl->cells.size(); ++i) {
            const CellSpec &c = wl->cells[i];
            const std::string id =
                strfmt("%s#%u", cellId(c).c_str(), pass);
            const WallInstant c0 = wallNow();
            CellRun r = runCell(c, cellConfig(c, seed, false, perturb),
                                spans, id);
            spans.add("cell", id, c0, wallNow());
            printCell("cell", pass, traced, cellId(c), r,
                      tracing && traced);
            if (traced)
                last[i] = std::move(r);
        }
        spans.add("pass", strfmt("pass#%u", pass), p0, wallNow());
        std::fflush(stdout);
    }

    if (tracing) {
        spans.setKeep(true);
        const double clock_ns = clockReadNs();
        for (std::size_t i = 0; i < wl->cells.size(); ++i) {
            const CellSpec &c = wl->cells[i];
            if (!last[i].error.empty())
                continue;
            const Replay r = replayCell(
                c, cellConfig(c, seed, false, perturb), last[i].records,
                spans, "replay:" + cellId(c), clock_ns);
            std::printf(
                "{\"type\":\"replay\",\"cell\":%s,\"records\":%" PRIu64
                ",\"next_s\":%.9f,\"sram_calls\":%" PRIu64
                ",\"sram_s\":%.9f,\"org_calls\":%" PRIu64
                ",\"org_s\":%.9f,\"sampled_misses\":%" PRIu64
                ",\"sampled_miss_ns\":%.3f,\"clock_ns\":%.3f,"
                "\"stats\":%s}\n",
                jsonStr(cellId(c)).c_str(), r.records, r.nextS,
                r.sramCalls, r.sramS, r.orgCalls, r.orgS,
                r.sampledMisses, r.sampledMissNs, clock_ns,
                r.statsJson.c_str());
        }
        spans.add("workload", wl->name, origin, wallNow());
        spans.write(trace_out,
                    strfmt("{\"workload\":%s,\"seed\":%" PRIu64
                           ",\"stamp\":%s}",
                           jsonStr(wl->name).c_str(), seed,
                           stamp.c_str()));
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"type\":\"end\",\"peak_rss_kib\":%ld}\n", ru.ru_maxrss);
    return 0;
}
