#!/usr/bin/env python3
"""framebench: frame-level speed and accuracy of AdaScale serving.

Run from the root of a checkout:

    python3 framebench/run.py --workload adascale_single --seed 1 \
        --seconds 10 --trace 0
    python3 framebench/run.py --test      # the benchmark's own tests

Each call builds the benchmark (framebench/CMakeLists.txt, against the
repository's libadascale) under .bench_build/, trains or loads the detector
and regressor into .bench_build/framebench-weights/ (training is never
timed), then runs the workload.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
spans also go to .bench_build/framebench-traces/<workload>-seed<N>.json
(Chrome trace-event JSON; open it in Perfetto).  See framebench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "framebench")
WEIGHTS = os.path.join(OUT, "framebench-weights")
TRACES = os.path.join(OUT, "framebench-traces")
WORKLOADS = ("adascale_single", "dff_mixed_int8", "streams_16")


def log(msg):
    print("framebench: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; exits 1 on failure."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "framebench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed (full log: %s)" % log_path)
                sys.exit(1)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        sys.exit(subprocess.run([build("framebench_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in (0, 3600]")

    binary = build("framebench")
    prep = subprocess.run([binary, "--prepare", "--cache-dir", WEIGHTS],
                          stdout=subprocess.PIPE, universal_newlines=True)
    sys.stdout.write(prep.stdout)
    if prep.returncode != 0:
        log("weight preparation failed")
        sys.exit(1)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cache-dir", WEIGHTS]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
