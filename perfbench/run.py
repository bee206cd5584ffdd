#!/usr/bin/env python3
"""End-to-end benchmark of the Bi-Modal DRAM cache simulator.

Builds perfbench/ (the simulator's libraries from ../src plus the
cell runner cells.cc) into .bench_build/perfbench, runs one workload's
cells for a wall-clock budget, checks every cell's simulated-output
digest, and prints a report followed by one JSON result line.

    python3 perfbench/run.py --workload timing_hit --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload
    python3 perfbench/run.py --self-test         # perturbed cell fails
    python3 perfbench/run.py --record-digests    # after a model change

--trace 0 reports the end-to-end metrics; --trace 1 makes a separate
traced run that reports the per-layer metrics and writes a Chrome
trace to .bench_build/perfbench/. Metric definitions: README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_cells"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("timing_hit", "timing_miss", "warm_ckpt")
# Seeds whose full-size cell digests digests.json records; the
# default seed 1 is among them. Any other seed is checked against the
# anchors and for repeatability across passes.
RECORDED_SEEDS = tuple(range(16))
SELF_TEST_SEED = 1000  # not recorded: the anchors alone must catch it
MIN_PASSES = 3
RUN_TIMEOUT_S = 170

# ROADMAP gprof flat profile, Q5 bimodal (share of host time).
GPROF_Q5_BIMODAL = (
    ("org access (dramcache.access)", 0.17),
    ("pickNext (in sim.engine_self_s_est)", 0.15),
    ("SramCache::access (cache.sram_access)", 0.11),
    ("EventQueue, all (in sim.engine_self_s_est)", 0.07),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "sim" / "system.hh").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_cells"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, timeout=700).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_cells(workload, seed, seconds, min_passes, trace_out=None,
              perturb=False):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--min-passes={min_passes}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    if proc.returncode or not lines or lines[-1]["type"] != "end":
        raise BenchError(f"{workload}: cell runner exited with "
                         f"{proc.returncode}")
    stamp = lines[0]["stamp"]
    if stamp["sanitizer"] or "-fsanitize" in stamp["flags"]:
        raise BenchError("refusing to report on a sanitizer build")
    return stamp, lines


def check(workload, seed, lines, recorded):
    """Count attempted and failed cells; return problems found."""
    anchors = recorded["anchors"][workload]
    full = recorded["seeds"].get(str(seed), {}).get(workload)
    first = {}
    attempted, problems = 0, []
    for l in lines:
        if l["type"] not in ("anchor", "cell"):
            continue
        attempted += 1
        where = f"{l['type']} {l['cell']} pass {l['pass']}"
        if "error" in l:
            problems.append(f"{where}: {l['error']}")
            continue
        if l["type"] == "anchor":
            want = anchors.get(l["cell"])
        else:
            want = first.setdefault(l["cell"], l["digest"])
            if want == l["digest"] and full:
                want = full.get(l["cell"])
        if l["digest"] != want:
            problems.append(f"{where}: digest {l['digest']} != "
                            f"expected {want}")
    return attempted, problems


def ok_cells(lines):
    cells = [l for l in lines if l["type"] == "cell" and "error" not in l]
    for c in cells:
        c["work_s"] = c["cell_s"] - c["setup_s"]
    return cells


def sim_mips(cells):
    """Simulated MIPS of one pass of median cells, set-up excluded."""
    work = kind_medians(cells, "work_s")
    instrs = {c["cell"]: c["instrs"] for c in cells}
    return sum(instrs.values()) / sum(work.values()) / 1e6


def kind_medians(cells, key):
    kinds = {}
    for c in cells:
        kinds.setdefault(c["cell"], []).append(c[key])
    return {k: statistics.median(v) for k, v in kinds.items()}


def e2e_metrics(lines, attempted, failed):
    cells = ok_cells(lines)
    if not cells:
        raise BenchError("no cell completed")
    per_kind = kind_medians(cells, "cell_s")
    samples = len(cells) // len(per_kind)
    return {
        "sim_mips": (sim_mips(cells), "Minstr/s"),
        "cell_s_p50": (math.exp(statistics.fmean(
            math.log(v) for v in per_kind.values())), "s"),
        "setup_s": (sum(kind_medians(cells, "setup_s").values()), "s"),
        "peak_rss_mib": (lines[-1]["peak_rss_kib"] / 1024, "MiB"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }, f"{len(per_kind)} cell kinds x {samples} samples"


def org_group(stats):
    """The organization's stat group (named after the org)."""
    for v in stats.values():
        if isinstance(v, dict) and "offchip_fetch_bytes" in v:
            return v
    raise BenchError("no organization stats in the hierarchy")


def channels(group):
    return [v for k, v in group.items() if k.startswith("channel")]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(lines):
    traced = [c for c in ok_cells(lines) if c["traced"]]
    untraced = [c for c in ok_cells(lines) if not c["traced"]]
    final = {c["cell"]: c for c in traced}  # last traced pass per kind
    replays = {r["cell"]: r for r in lines if r["type"] == "replay"}
    if not final or set(final) != set(replays):
        raise BenchError("traced run is missing cells or replays")
    med = {k: kind_medians(traced, k) for k in (
        "setup_s", "warm_s", "ckpt_save_s", "ckpt_restore_s", "run_s",
        "collect_s", "cell_s")}

    def total(key):
        return sum(med[key].values())

    rep = replays.values()
    rep_s = {k: r["next_s"] + r["sram_s"] + r["org_s"]
             for k, r in replays.items()}
    llsc_acc = llsc_hits = mshr_primary = mshr_merged = 0
    dc_acc = dc_hits = fetched = wasted = loc_lookups = loc_hits = 0
    stacked = offchip = row_hits = row_all = 0
    for kind, c in final.items():
        s = c["stats"]
        warm = kind.endswith("/warm")
        # Warm-up resets the System's statistics; the replay fed the
        # same records through the same caches and org, so the warm
        # cells' cache and dramcache counts come from it.
        src = replays[kind]["stats"] if warm else s
        llsc = src["llsc"] if warm else s["hier"]["llsc"]
        llsc_acc += llsc["accesses"]
        llsc_hits += llsc["hits"]
        if not warm:
            mshr_primary += s["hier"]["mshr"]["primary"]
            mshr_merged += s["hier"]["mshr"]["merged"]
        org = org_group(src)
        dc_acc += org["accesses"]
        dc_hits += org["hits"]
        fetched += org["offchip_fetch_bytes"]
        wasted += org["wasted_fetch_bytes"]
        if "way_locator" in org:
            loc_lookups += org["way_locator"]["lookups"]
            loc_hits += org["way_locator"]["hits"]
        for ch in channels(s["stacked"]):
            stacked += ch["reads"] + ch["writes"]
            row_hits += ch["data_row_hits"] + ch["meta_row_hits"]
            row_all += (ch["data_row_hits"] + ch["data_row_misses"]
                        + ch["meta_row_hits"] + ch["meta_row_misses"])
        for ch in channels(s["main_memory"]):
            offchip += ch["reads"] + ch["writes"]
    prof = [c["profile"] for c in final.values()]
    events = sum(p["events_executed"] for p in prof)
    run_s = total("run_s")
    engine = sum(med["run_s"][k] - rep_s[k] for k in final
                 if not k.endswith("/warm"))
    work = total("cell_s") - total("setup_s")
    mips_t, mips_u = sim_mips(traced), sim_mips(untraced)
    m = {
        "trace.next_ns": (ratio(sum(r["next_s"] for r in rep),
                                sum(r["records"] for r in rep)) * 1e9,
                          "ns"),
        "trace.records": (sum(sum(c["records"]) for c in final.values()),
                          "count"),
        "cache.sram_access_ns": (ratio(sum(r["sram_s"] for r in rep),
                                       sum(r["sram_calls"] for r in rep))
                                 * 1e9, "ns"),
        "cache.llsc_miss_rate": (1 - ratio(llsc_hits, llsc_acc), "ratio"),
        "cache.mshr_merge_frac": (ratio(mshr_merged,
                                        mshr_merged + mshr_primary),
                                  "ratio"),
        "cache.mshr_peak_live": (max(p["mshr_peak_live"] for p in prof),
                                 "count"),
        "dramcache.access_ns": (ratio(sum(r["org_s"] for r in rep),
                                      sum(r["org_calls"] for r in rep))
                                * 1e9, "ns"),
        "dramcache.miss_access_ns": (
            ratio(sum(r["sampled_miss_ns"] for r in rep),
                  sum(r["sampled_misses"] for r in rep)), "ns"),
        "dramcache.accesses": (dc_acc, "count"),
        "dramcache.hit_rate": (ratio(dc_hits, dc_acc), "ratio"),
        "dramcache.locator_hit_rate": (ratio(loc_hits, loc_lookups),
                                       "ratio"),
        "dramcache.fetch_useful_frac": (1 - ratio(wasted, fetched)
                                        if fetched else 0.0, "ratio"),
        "dram.stacked_accesses": (stacked, "count"),
        "dram.offchip_accesses": (offchip, "count"),
        "dram.stacked_row_hit_rate": (ratio(row_hits, row_all), "ratio"),
        "dram.peak_queue": (max(p["peak_channel_queue"] for p in prof),
                            "count"),
        "common.events": (events, "count"),
        "common.events_per_s": (ratio(events, run_s), "1/s"),
        "common.ns_per_event": (ratio(run_s, events) * 1e9, "ns"),
        "common.peak_pending": (max(p["peak_pending_events"]
                                    for p in prof), "count"),
        "sim.setup_s": (total("setup_s"), "s"),
        "sim.warm_s": (total("warm_s"), "s"),
        "sim.ckpt_save_s": (total("ckpt_save_s"), "s"),
        "sim.ckpt_restore_s": (total("ckpt_restore_s"), "s"),
        "sim.ckpt_bytes": (sum(c["ckpt_bytes"] for c in final.values()),
                           "B"),
        "sim.run_s": (run_s, "s"),
        "sim.collect_s": (total("collect_s"), "s"),
        "sim.engine_self_s_est": (engine, "s"),
        "sim.replay_cover_frac": (ratio(sum(rep_s.values()), work),
                                  "ratio"),
        "bench.trace_overhead_frac": (1 - mips_t / mips_u, "ratio"),
    }
    notes = [f"tracing overhead: sim_mips traced {mips_t:.3f} vs "
             f"untraced {mips_u:.3f} Minstr/s "
             f"({len({c['pass'] for c in traced})} vs "
             f"{len({c['pass'] for c in untraced})} passes)"]
    for kind in final:
        if kind.endswith("/timing"):
            notes += shares_table(kind, med["run_s"][kind],
                                  replays[kind])
    return m, notes


def shares_table(kind, run_s, r):
    """Per-layer shares of one timing cell's event-loop host time."""
    rows = [("trace.next", r["next_s"]),
            ("cache.sram_access", r["sram_s"]),
            ("dramcache.access", r["org_s"]),
            ("sim.engine_self_s_est",
             run_s - r["next_s"] - r["sram_s"] - r["org_s"])]
    out = [f"host-time shares of {kind} (run_s {run_s:.3f} s):"]
    out += [f"  {name:<24} {s / run_s:6.1%}" for name, s in rows]
    if kind == "Q5/bimodal/timing":
        out.append("  ROADMAP gprof flat profile, Q5 bimodal:")
        out += [f"    {name:<44} {share:5.0%}"
                for name, share in GPROF_Q5_BIMODAL]
    return out


def run_workload(workload, seed, seconds, trace, perturb=False,
                 min_passes=MIN_PASSES):
    """One workload: (result dict, report lines)."""
    recorded = json.loads(DIGESTS.read_text())
    trace_out = (BUILD / f"trace_{workload}_seed{seed}.json"
                 if trace else None)
    stamp, lines = run_cells(workload, seed, seconds, min_passes,
                             trace_out, perturb)
    attempted, problems = check(workload, seed, lines, recorded)
    failed = len(problems)
    host = host_stamp()
    report = [
        f"# workload={workload} seed={seed} seconds={seconds} "
        f"trace={int(trace)}",
        f"# host: nproc={host['nproc']} cpu=\"{host['cpu']}\" "
        f"compiler=\"{stamp['compiler']}\" "
        f"build_type={stamp['build_type']} flags=\"{stamp['flags']}\"",
        f"# cells attempted={attempted} failed={failed} "
        f"fail_frac={failed / attempted:.4f} digests "
        + ("recorded" if str(seed) in recorded["seeds"]
           else "repeat-checked") + " + anchors",
    ]
    report += [f"# FAILED {p}" for p in problems]
    if trace:
        metrics, notes = layer_metrics(lines)
        report += [f"# {n}" for n in notes]
        chrome = json.loads(trace_out.read_text())
        chrome["otherData"]["host"] = host
        trace_out.write_text(json.dumps(chrome))
        report.append(f"# chrome trace: {trace_out}")
    else:
        metrics, samples = e2e_metrics(lines, attempted, failed)
        report.append(f"# cell_s_p50 over {samples}")
    report += [f"{name:<30} {v:14.6f} {unit}"
               for name, (v, unit) in metrics.items()]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }, report


def self_test():
    """The digest gate must pass the real cells and fail perturbed ones."""
    clean, _ = run_workload("timing_hit", SELF_TEST_SEED, 0, False,
                            min_passes=1)
    bad, report = run_workload("timing_hit", SELF_TEST_SEED, 0, False,
                               perturb=True, min_passes=1)
    print("\n".join(report))
    if not clean["correct"] or bad["correct"] or bad["failed"] == 0:
        log("self-test FAILED: the gate did not separate the cells")
        return 1
    print(f"self-test ok: perturbed cells failed "
          f"{bad['failed']}/{bad['attempted']}")
    return 0


def record_digests():
    out = {"anchors": {}, "seeds": {str(s): {} for s in RECORDED_SEEDS}}
    for w in WORKLOADS:
        for s in RECORDED_SEEDS:
            _, lines = run_cells(w, s, 0, 1)
            if any("error" in l for l in lines):
                raise BenchError(f"{w} seed {s}: a cell failed")
            out["anchors"][w] = {l["cell"]: l["digest"] for l in lines
                                 if l["type"] == "anchor"}
            out["seeds"][str(s)][w] = {l["cell"]: l["digest"]
                                       for l in lines
                                       if l["type"] == "cell"}
    DIGESTS.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in names:
            results[w], report = run_workload(w, args.seed, args.seconds,
                                              bool(args.trace))
            print("\n".join(report), flush=True)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
