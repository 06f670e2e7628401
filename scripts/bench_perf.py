#!/usr/bin/env python3
"""Performance ledger: every wall-clock measurement of the repo in one place.

Each case runs two sides, A (the reference) and B (the subject), as
interleaved pairs that alternate which side runs first, so a slow spell of
the host lands on both sides. Per side it records n, the median and the IQR
of the wall time; per case the median B/A ratio and the number of pairs in
which B exceeded the bound B <= 1.02 * A + 0.05 s. Each case also checks its
outputs: byte identity, a lifetime band, a digest, or perfbench's recorded
results. Profiled sides
contribute deterministic work counters (profile counters, phase counts,
journal bytes), which --gate compares exactly with the committed ledger.

Usage (from the root of a checkout built into build/):

  scripts/bench_perf.py                  # record BENCH_perf.json, 10 pairs
  scripts/bench_perf.py --gate           # checks once, timed gates 10 pairs
  scripts/bench_perf.py --before OLD --after NEW --out cmp.json
                                         # each case's B command on two builds

Gates: outputs identical where promised; zipf/random lifetimes within 20% and
hotspot within 15% of the per-write path; the benchmark-shaped cases
reproduce perfbench's recorded results (fig8_bpa_maxwe's Max-WE column,
fleet_mix's digest); profile attribution >= 90%; the profiler's pairs fail
a one-sided sign test (B over the bound in at least 9 of 10 pairs,
p ~= 0.011) only when a fresh set of 10 pairs trips it again, since host
noise alone trips a single set now and then; fleet throughput at --jobs 1
>= 3 x 9157.5 devices/s; journal bytes written <= 2 x the final journal
size. With --before/--after, a case whose after side fails the confirmed
sign test is slower.
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOUND_FRAC, BOUND_SLACK_S = 1.02, 0.05
SIGN_ALPHA = 0.05
FLEET_FLOOR = 3 * 9157.5  # devices/s: 3x the pre-overhaul jobs-1 rate
FLEET_DEVICES = 10000
FLEET_MIX_DIGEST = 0x77A926329FBB4A3C  # FNV-1a of the 200k fleet_mix JSON
CORES = os.cpu_count() or 1
PAIRS = 10
LEDGER = os.path.join(ROOT, "BENCH_perf.json")

STOCH = ["--mode", "stochastic", "--lines", "4096", "--regions", "256",
         "--spare", "maxwe", "--seed", "11"]
FRACTIONS = ("0.10", "0.20", "0.30")
SWEEP = [["maxwe_sim", *STOCH, "--endurance-mean", "30000", "--attack", atk,
          "--spare-fraction", f] for atk in ("uaa", "bpa") for f in FRACTIONS]
COUNTS = ["maxwe_sim", *STOCH, "--endurance-mean", "300000", "--wl", "none",
          "--hotspot-set", "64"]
UAA_TLSR = [["maxwe_sim", *STOCH, "--endurance-mean", "30000", "--attack",
             "uaa", "--wl", "tlsr", "--spare-fraction", f] for f in FRACTIONS]
ZIPF = ["maxwe_sim", "--mode", "stochastic", "--lines", "65536", "--regions",
        "1024", "--endurance-mean", "300000", "--attack", "zipf", "--wl",
        "none", "--spare", "maxwe", "--seed", "11"]
FLEET = ["fleet_sim", "--devices", str(FLEET_DEVICES), "--lines", "256",
         "--regions", "16", "--endurance-mean", "200", "--spare", "maxwe",
         "--shard-size", "256"]
# perfbench's fleet_mix: 200k event-mode devices at jobs 2, journaled.
FLEET_MIX = ["fleet_sim", "--devices", "200000", "--lines", "256", "--regions",
             "16", "--endurance-mean", "200", "--spare", "maxwe", "--mode",
             "event", "--attack-mix", "uaa:1,zipf:1,hotspot:1",
             "--shard-size", "256", "--jobs", "2", "--checkpoint-out",
             "{work}/mix.jrnl"]
# perfbench's fig8_bpa_maxwe: the Fig. 8 Max-WE column (BPA on the scaled
# device at scaled_stochastic_config's cadences), one run per leveler and
# seed, and the (user writes, overhead writes, line deaths) it recorded.
FIG8 = [["maxwe_sim", "--mode", "stochastic", "--lines", "2048", "--regions",
         "128", "--endurance-mean", "5e4", "--swap-interval", "20",
         "--tlsr-subregion-lines", "32", "--bpa-burst", "200", "--attack",
         "bpa", "--spare", "maxwe", "--wl", wl, "--seed", str(seed)]
        for wl in ("tlsr", "pcms", "bwl", "wawl") for seed in (7, 8)]
FIG8_REF = [(36169684, 6336040, 194), (37743944, 6621476, 172),
            (40624268, 4060210, 208), (42475496, 4245098, 204),
            (65321044, 6528112, 209), (65372508, 6533240, 205),
            (79167124, 7842517, 170), (80687657, 8009118, 135)]
PROFILE = ["--profile-out", "{profile}"]


def plus(cmds, extra):
    return [cmd + extra for cmd in cmds]


def read(work):
    with open(os.path.join(work, "out"), "rb") as f:
        return f.read()


def identical(case, a, b, _bin):
    return [] if read(a) == read(b) else [f"{case}: A and B outputs differ"]


def band(tol):
    def check(case, a, b, _bin):
        def writes(work):
            line = next(l for l in read(work).decode().splitlines()
                        if l.startswith("user writes:"))
            return float(line.split()[2])
        ratio = writes(b) / writes(a)
        return [] if abs(ratio - 1) <= tol else [
            f"{case}: lifetime ratio {ratio:.3f} outside the {tol} band"]
    return check


def profiled(case, a, b, bin_path):
    """Every profile of the B side attributes >= 90% of its wall time."""
    failures = []
    for path in sorted(glob.glob(os.path.join(b, "*.profile.json"))):
        out = subprocess.run([bin_path("maxwe_profile"), "--profile", path],
                             capture_output=True, text=True, check=True).stdout
        line = next(l for l in out.splitlines() if l.startswith("attributed:"))
        if float(line.split()[1].rstrip("%")) < 90.0:
            failures.append(f"{case}: {line} (< 90%)")
    return failures


def journal(case, a, b, bin_path):
    work_done = counters(b)
    written = work_done["journal.bytes_written"]
    size = work_done["journal.file_bytes"]
    return identical(case, a, b, bin_path) + (
        [] if written <= 2 * size else
        [f"{case}: journal wrote {written} B for a {size} B journal (> 2x)"])


def digest(case, a, b, bin_path):
    h = 0xCBF29CE484222325
    for byte in read(b):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return identical(case, a, b, bin_path) + (
        [] if h == FLEET_MIX_DIGEST else [f"{case}: digest {h:016x}"])


def fig8_reference(case, a, b, _bin):
    """Both sides reproduce perfbench's recorded Max-WE column (user writes
    as maxwe_sim prints them, to 6 significant digits)."""
    want = [(f"{w:.6g}", str(o), str(d)) for w, o, d in FIG8_REF]
    failures = []
    for work in (a, b):
        fields = {"user writes:": [], "overhead writes:": [],
                  "line deaths:": []}
        for line in read(work).decode().splitlines():
            for key, values in fields.items():
                if line.startswith(key):
                    values.append(line[len(key):].strip())
        got = list(zip(*fields.values()))
        if got != want:
            failures.append(f"{case}: {os.path.basename(work)} ran {got}, "
                            f"perfbench recorded {want}")
    return failures


def fig6(jobs):
    return [["bench_fig6_spare_sweep", "--seeds", "3", "--jobs", str(jobs),
             "--csv"]]


# name: (A commands, B commands, check, gate-mode pairs, sign-test gated)
CASES = {
    "fig6_jobs": (fig6(1), fig6(max(2, CORES)), identical, 1, False),
    "fastpath_uaa_bpa_sweep": (plus(SWEEP, ["--no-fastpath"]), SWEEP,
                               identical, 1, False),
    **{f"fastpath_{attack}": (
        [COUNTS + ["--attack", attack, "--no-fastpath"]],
        [COUNTS + ["--attack", attack]], band(tol), 1, False)
       for attack, tol in (("zipf", 0.20), ("hotspot", 0.15),
                           ("random", 0.20))},
    "profile_uaa_tlsr_sweep": (UAA_TLSR, plus(UAA_TLSR, PROFILE), profiled,
                               PAIRS, True),
    "profile_zipf_counts": ([ZIPF], [ZIPF + PROFILE], profiled, PAIRS, True),
    **{f"fleet_jobs{jobs}": ([FLEET + ["--jobs", "1"]],
                             [FLEET + ["--jobs", str(jobs)]], identical, 1,
                             False) for jobs in (2, 4, 0)},
    "fleet_profile": ([FLEET + ["--jobs", "1"]],
                      [FLEET + ["--jobs", "1"] + PROFILE], profiled, PAIRS,
                      False),
    "fleet_journal": ([FLEET + ["--jobs", "1"]],
                      [FLEET + ["--jobs", "1", "--checkpoint-out",
                                "{work}/fleet.jrnl", "--heartbeat-out",
                                "{work}/hb.jsonl", "--heartbeat-interval",
                                "1024"]], journal, 1, False),
    "fig8_bpa_maxwe": (FIG8, plus(FIG8, PROFILE), fig8_reference, 1, False),
    "fleet_mix": ([FLEET_MIX], [FLEET_MIX], digest, 1, False),
}


def bin_resolver(build):
    def bin_path(name):
        sub = "bench" if name.startswith("bench_") else "tools"
        return os.path.join(os.path.abspath(build), sub, name)
    return bin_path


def run_side(cmds, bin_path, work):
    """Runs one side's commands in a fresh `work`; returns the wall time."""
    for old in os.listdir(work):
        os.remove(os.path.join(work, old))
    start = time.perf_counter()
    with open(os.path.join(work, "out"), "wb") as out:
        for i, cmd in enumerate(cmds):
            argv = [bin_path(cmd[0])] + [
                arg.format(work=work, profile=f"{work}/{i}.profile.json")
                for arg in cmd[1:]]
            subprocess.run(argv, stdout=out, stderr=subprocess.DEVNULL,
                           cwd=work, check=True)
    return time.perf_counter() - start


def counters(work):
    """Deterministic work done by one side: profile counters, phase counts
    and journal bytes, summed over the side's runs."""
    total = {}
    for path in glob.glob(os.path.join(work, "*.profile.json")):
        with open(path) as f:
            doc = json.load(f)
        items = list(doc["counters"].items()) + [
            (f"phase.{name}.count", row["count"])
            for name, row in doc["phases"].items()]
        for key, value in items:
            total[key] = total.get(key, 0) + value
    if os.path.exists(os.path.join(work, "fleet.jrnl")):
        with open(os.path.join(work, "hb.jsonl")) as f:
            total["journal.bytes_written"] = json.loads(
                f.readlines()[-1])["checkpoint_bytes_written"]
        total["journal.file_bytes"] = os.path.getsize(
            os.path.join(work, "fleet.jrnl"))
    return dict(sorted(total.items()))


def sign_limit(n):
    """Smallest k with P(X >= k) <= SIGN_ALPHA for X ~ Binomial(n, 1/2)."""
    return next(k for k in range(n + 2) if sum(
        math.comb(n, j) for j in range(k, n + 1)) / 2 ** n <= SIGN_ALPHA)


def summary(times):
    q = statistics.quantiles(times, n=4, method="inclusive") \
        if len(times) > 1 else [times[0]] * 3
    return {"n": len(times), "median_s": round(statistics.median(times), 4),
            "iqr_s": round(q[2] - q[0], 4)}


def run_case(name, sides, pairs, tmp, confirm):
    """Interleaved pairs of (commands, bin_path) sides; returns the record
    and the two work dirs holding the last pair's outputs. With `confirm`,
    a set of pairs that trips the sign test is followed by a fresh set, and
    B counts as slower only when both sets trip."""
    works = [os.path.join(tmp, f"{name}.{side}") for side in "ab"]
    times, over, limit = ([], []), [], sign_limit(pairs)
    for work in works:
        os.makedirs(work)
    while not over or (confirm and len(over) == 1 and over[0] >= limit):
        for i in range(pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(run_side(*sides[side], works[side]))
        over.append(sum(b > BOUND_FRAC * a + BOUND_SLACK_S
                        for a, b in list(zip(*times))[-pairs:]))
    record = {"pairs": len(times[0]),
              "ratio_median": round(statistics.median(
                  b / a for a, b in zip(*times)), 4),
              "b_over_bound": over, "b_faster": sum(
                  b < a for a, b in zip(*times)),
              "b_slower": all(n >= limit for n in over)}
    for label, side_times, work in zip("ab", times, works):
        record[label] = summary(side_times)
        if work_done := counters(work):
            record[label]["counters"] = work_done
    print(f"{name:24s} A {record['a']['median_s']:8.3f}s  "
          f"B {record['b']['median_s']:8.3f}s  B/A "
          f"{record['ratio_median']:.3f}  B over bound "
          f"{', '.join(f'{n}/{pairs}' for n in over)}", flush=True)
    return record, works


def header(builds):
    def cache(build, key):
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            return next((l.split("=", 1)[1].strip() for l in f
                         if l.startswith(key + ":")), "")
    compiler = cache(builds[-1], "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                             "--dirty"], capture_output=True,
                            text=True).stdout.strip()
    return {"cores": CORES, "compiler": version[0] if version else compiler,
            "build_type": cache(builds[-1], "CMAKE_BUILD_TYPE"),
            "cxx_flags": cache(builds[-1], "CMAKE_CXX_FLAGS"),
            "commit": commit, "builds": builds,
            "bound": f"B <= {BOUND_FRAC} * A + {BOUND_SLACK_S} s",
            "sign_test": f"one-sided, alpha {SIGN_ALPHA}: B over the bound "
                         f"in >= {sign_limit(PAIRS)} of {PAIRS} pairs, then "
                         "again in a fresh confirming set"}


def write_ledger(path, doc):
    """The header and each case on one line of their own."""
    lines = ["{", f' "header": {json.dumps(doc["header"])},', ' "cases": {']
    for name, case in doc["cases"].items():
        lines.append(f"  {json.dumps(name)}: {json.dumps(case)},")
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build")
    parser.add_argument("--gate", action="store_true",
                        help="CI mode: gates, and counters vs BENCH_perf.json")
    parser.add_argument("--before", help="reference build dir")
    parser.add_argument("--after", help="subject build dir")
    parser.add_argument("--cases", help="comma-separated subset")
    parser.add_argument("--out", help="record path (default: BENCH_perf.json "
                        "when recording every case, none otherwise)")
    args = parser.parse_args()
    compare = bool(args.before or args.after)
    if compare and not (args.before and args.after):
        parser.error("--before and --after go together")
    if compare and args.gate:
        parser.error("--gate runs on one build")
    builds = [args.before, args.after] if compare else [args.build]
    names = args.cases.split(",") if args.cases else list(CASES)
    # Only a full one-build recording replaces the committed ledger.
    out = args.out or (None if args.gate or compare or args.cases else LEDGER)

    committed = {}
    if args.gate:
        with open(LEDGER) as f:
            committed = json.load(f)["cases"]
    failures, cases = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            a_cmds, b_cmds, check, gate_pairs, gated = CASES[name]
            pairs = gate_pairs if args.gate else PAIRS
            if compare:
                sides = [(b_cmds, bin_resolver(build)) for build in builds]
            else:
                sides = [(cmds, bin_resolver(args.build))
                         for cmds in (a_cmds, b_cmds)]
            record, (a, b) = run_case(name, sides, pairs, tmp,
                                      gated or compare)
            cases[name] = record
            if compare:
                record["identical"] = read(a) == read(b)
                continue
            failures += check(name, a, b, sides[1][1])
            if gated and record["b_slower"]:
                failures.append(
                    f"{name}: B over the bound in "
                    f"{' and '.join(map(str, record['b_over_bound']))} of "
                    f"{pairs} pairs (a set and its confirming set)")
            if name == "fleet_profile":
                rate = FLEET_DEVICES / record["a"]["median_s"]
                record["a"]["devices_per_s"] = round(rate, 1)
                if rate < FLEET_FLOOR:
                    failures.append(f"{name}: {rate:.0f} devices/s at jobs 1"
                                    f" < floor {FLEET_FLOOR}")
            for side in "ab":
                want = committed.get(name, {}).get(side, {}).get("counters")
                got = record[side].get("counters")
                if args.gate and want != got:
                    failures.append(
                        f"{name}: {side.upper()} counters differ from "
                        f"{LEDGER}; fresh values:\n{json.dumps(got)}")
    doc = {"header": header(builds), "cases": cases}
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    slower = [name for name, case in cases.items() if case["b_slower"]]
    if compare and slower:
        print(f"after build slower (sign test): {', '.join(slower)}",
              file=sys.stderr)
    if out and not failures:
        write_ledger(out, doc)
        print(f"wrote {out}")
    return 1 if failures or (compare and slower) else 0


if __name__ == "__main__":
    sys.exit(main())
