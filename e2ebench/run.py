#!/usr/bin/env python3
"""Builds the RDF-TX end-to-end benchmark and runs one workload.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <wiki-history|govtrack-history>
                            --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds e2ebench/ (which compiles the library
from src/ with the project's default configuration) under .bench_build/;
later runs only re-check the build. The benchmark binary then generates
the workload's inputs from the seed, checks every answer, and prints one
JSON result object as the last line of standard output. Environment
variables of the RDFTX_ family are not passed on, so none of them can
change the inputs or the set-up. The binary runs with a fixed address
layout and a huge-page-backed malloc heap (see below), both set for that
one process only. Exits non-zero without a result when the
build or the run fails, and non-zero after the result when an operation
failed, an answer was wrong, or the result lacks a metric that
BENCHMARK.json lists.
"""
import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "rdftx_e2e")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>
# glibc's malloc asks for transparent huge pages (madvise) on its heap and
# mappings. With 4 KiB pages the physical placement of the heap changes
# from run to run, and so does query latency: five govtrack-history seeds
# read complex-query geometric means of 80-114 ms with 4 KiB pages and
# 79-87 ms with huge pages. It is set, not inherited, so a stray
# GLIBC_TUNABLES cannot change the allocator.
HUGE_PAGE_HEAP = "glibc.malloc.hugetlb=1"


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "rdftx_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def fixed_layout():
    """Turns off address-space randomization for the benchmark process.

    Run in the child before exec. Query latency depends on where the
    heap and mappings land: four runs of one seed and build with a
    randomized layout gave complex-query medians of 91-175 ms, three with
    a fixed layout 81-94 ms. The flag is per process (personality(2)
    ADDR_NO_RANDOMIZE) and is inherited only by the benchmark binary.
    Where it cannot be set, the run goes on with the default layout.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["wiki-history", "govtrack-history"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDFTX_")}
    env["GLIBC_TUNABLES"] = HUGE_PAGE_HEAP
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 and not out.strip():
        print("benchmark run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    missing = missing_metrics(out, args.trace == "1")
    if missing:
        print("result lacks metrics: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    return proc.returncode


def missing_metrics(out, trace):
    """Names BENCHMARK.json lists for this mode that the result lacks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    lines = out.strip().splitlines()
    try:
        got = json.loads(lines[-1])["metrics"] if lines else {}
    except ValueError:
        got = {}
    return [name for name in wanted if name not in got]


if __name__ == "__main__":
    sys.exit(main())
