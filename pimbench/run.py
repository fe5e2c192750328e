#!/usr/bin/env python3
"""pimbench: the repository's performance benchmark.

Run one workload (builds the pimbench binary first, from the repository
sources):

  python3 pimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced replay (--trace 1). The line before it records the host
fingerprint (nproc, SIMD tier, build type, source revision), the seed and
the sample counts; stderr gets a human-readable table of every metric.

Other modes:

  python3 pimbench/run.py --list-metrics
      every metric by name with its unit, and which end-to-end metric each
      per-layer metric should move on which workload
  python3 pimbench/run.py --steady N --workload NAME [--seed N] [--seconds S]
      runs NAME N times (seeds N, N+1, ...) and prints median, quartiles
      and spread of every end-to-end metric against its bound; exits 1 if
      a spread exceeds its bound

The build goes to $CARGO_TARGET_DIR, or .bench_build at the repository
root. Exit status 0 only when every op succeeded and every output check
(schedule verification, in-process recomputation, golden digest for the
default seed) passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
LAYERS = os.path.join(HERE, "layers.json")
GOLDEN = os.path.join(HERE, "golden.json")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the pimbench binary and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the repository sources (src/) are not next to pimbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "pimbench", "pimsched_served"],
                   check=True, stdout=sys.stderr)
    return out


def source_revision():
    """The git sha when the checkout is a repository, else a SHA-1 over
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "pimbench", os.path.join("examples",
                                                "pimsched_served.cpp")):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"source_sha1": h.hexdigest()}


def run_binary(args, out):
    """Runs the pimbench binary once; returns (its result dict, exit code)."""
    sock = os.path.join(out, "pimbench-%d.sock" % os.getpid())
    rel = os.path.relpath(sock)
    cmd = [os.path.join(out, "pimbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", os.path.join(out, "pimsched_served"),
           "--socket", rel if len(rel) < len(sock) else sock]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: pimbench timed out after %d s" % CHILD_TIMEOUT_S)
        return None, 1
    finally:
        if os.path.exists(sock):
            os.unlink(sock)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode or 1
    return json.loads(lines[-1]), proc.returncode


def golden_check(result, args):
    """None when no golden value applies, else (ok, detail)."""
    golden = load_json(GOLDEN).get(args.workload)
    if (golden is None or args.smoke or args.seed != golden["seed"] or
            args.seconds != golden["seconds"]):
        return None
    comm = result["end_to_end"]["comm_cost"]["value"]
    ok = (result["digest"] == golden["digest"] and
          comm == golden["comm_cost"])
    return ok, {"digest": result["digest"], "golden": golden["digest"],
                "comm_cost": comm, "golden_comm_cost": golden["comm_cost"]}


def run_once(args):
    bench = load_json(BENCHMARK)
    out = build()
    result, rc = run_binary(args, out)
    if result is None:
        log("error: pimbench printed no result (exit %d)" % rc)
        return 1
    golden = golden_check(result, args)
    correct = rc == 0 and result["failed"] == 0 and (golden is None or
                                                     golden[0])
    key = "per_layer" if args.trace else "end_to_end"
    measured = result[key]
    metrics, not_measured = {}, []
    for m in bench[key]:
        got = measured.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            log("error: %s reported in %s, BENCHMARK.json says %s" %
                (m["name"], got["unit"], m["unit"]))
            correct = False
        if got is None:
            not_measured.append(m["name"])
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    extra = sorted(set(measured) - set(metrics))
    if extra:
        log("error: metrics missing from BENCHMARK.json: %s" % extra)
        correct = False

    for name, m in metrics.items():
        log("  %-32s %16.6f %s" % (name, m["value"], m["unit"]))
    for f in result["failures"]:
        log("  failed op: %s" % f)
    if golden is not None and not golden[0]:
        log("  golden mismatch: %s" % json.dumps(golden[1]))
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": dict(result["host"], **source_revision()),
            "samples": result["samples"],
            "samples_beyond_p99": result["samples_beyond_p99"],
            "setup_repeats": result["setup_repeats"],
            "digest": result["digest"],
            "golden": None if golden is None else golden[1],
            "not_measured": not_measured, "notes": result["notes"]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def list_metrics():
    bench = load_json(BENCHMARK)
    layers = load_json(LAYERS)
    print("end-to-end metrics (bound = allowed worsening vs the parent):")
    for m in bench["end_to_end"]:
        print("  %-22s %-6s better %-6s bound %.2f" %
              (m["name"], m["unit"], m["better"], m["bound"]))
    print("per-layer metrics (traced run):")
    for m in bench["per_layer"]:
        info = layers["per_layer"][m["name"]]
        print("  %-30s %-12s %s" % (m["name"], m["unit"], info["measures"]))
        print("  %-30s %-12s moves %s; measured on %s" %
              ("", "", "; ".join(info["moves"]),
               ", ".join(info["workloads"])))
    print("workloads:")
    for w in bench["workloads"]:
        info = layers["workloads"][w["name"]]
        print("  %-14s %s" % (w["name"], w["why"]))
        print("  %-14s stresses: %s" % ("", ", ".join(info["stresses"])))
        print("  %-14s bypasses: %s" % ("", ", ".join(info["bypasses"])))
    return 0


def steady(args):
    """Runs one workload args.steady times and reports the spread of each
    end-to-end metric: (q3 - q1) / median, as the acceptance check takes
    it, and (max - min) / median."""
    bench = load_json(BENCHMARK)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("run %d (seed %d) failed with exit %d" %
                (i + 1, seed, proc.returncode))
            return 1
        metrics = json.loads(lines[-1])["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        log("run %d/%d seed %d: %s" % (i + 1, args.steady, seed, " ".join(
            "%s=%.6g" % (n, metrics[n]["value"]) for n in values)))
    worst = 0
    print("%-18s %14s %14s %14s %9s %9s %6s  %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "range/med", "bound",
           "verdict"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        span = (max(v) - min(v)) / med if med else 0.0
        if iqr > m["bound"] and m["name"] != "setup_s":
            verdict, worst = "OVER BOUND", 1
        elif iqr > m["bound"] / 3:
            verdict = "above bound/3"
        elif span > 0.1:
            verdict = "range over a tenth"
        else:
            verdict = "steady"
        print("%-18s %14.6g %14.6g %14.6g %9.4f %9.4f %6.2f  %s" %
              (m["name"], med, q1, q3, iqr, span, m["bound"], verdict))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (self-test)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one schedule or reply (self-test)")
    p.add_argument("--list-metrics", action="store_true")
    p.add_argument("--steady", type=int, default=0, metavar="N")
    args = p.parse_args()
    if args.list_metrics:
        return list_metrics()
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_json(BENCHMARK)["run_seconds"]
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
