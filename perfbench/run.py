#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train-incremental, serve-exact, serve-ivf-live.

The program is configured and built under .bench_build/ in the checkout
(the repository's own CMake build of the imsr library, pulled in by
perfbench/CMakeLists.txt, plus perfbench itself). Its output is passed
through; its last line is the result object
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, without a result, when the checkout cannot be built.
"""
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
PROGRAM_BUILD = os.path.join(BUILD_DIR, "perfbench")
PROGRAM = os.path.join(PROGRAM_BUILD, "perfbench")
RUN_LIMIT_S = 175.0  # a run must end within 180 s
BUILD_LIMIT_S = 840.0


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def source_digest():
    """sha256 over the sources perfbench is built from."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, name) for name in sorted(files))
    for path in paths:
        if "__pycache__" in path:
            continue
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_logged(command, log, timeout):
    with open(log, "ab") as out:
        out.write(("$ %s\n" % " ".join(command)).encode())
        out.flush()
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_LIMIT_S
        if not os.path.exists(os.path.join(PROGRAM_BUILD, "CMakeCache.txt")):
            code = run_logged(["cmake", "-S", "perfbench", "-B", PROGRAM_BUILD,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log,
                              BUILD_LIMIT_S)
            if code != 0:
                return False
        code = run_logged(["cmake", "--build", PROGRAM_BUILD, "--target",
                           "perfbench", "-j", jobs], log,
                          max(1.0, deadline - time.monotonic()))
        return code == 0


def main(argv):
    start = time.monotonic()
    for required in ("CMakeLists.txt", "src/CMakeLists.txt",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            fail("%s not found: run from the root of a full checkout" %
                 required, 2)
    try:
        if not build():
            tail = ""
            log = os.path.join(BUILD_DIR, "build.log")
            if os.path.exists(log):
                with open(log, errors="replace") as handle:
                    tail = "".join(handle.readlines()[-30:])
            fail("build failed; see %s\n%s" % (log, tail))
    except subprocess.TimeoutExpired:
        fail("build timed out")
    # The first run in a checkout may spend most of its budget building.
    limit = RUN_LIMIT_S if time.monotonic() - start < 60 else 900.0
    command = [PROGRAM] + argv + ["--git_sha", git_sha(), "--source_digest",
                                 source_digest()]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True)

    def stop_child(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (stop_child(), sys.exit(1)))
    try:
        out, _ = child.communicate(
            timeout=max(1.0, limit - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        stop_child()
        child.wait()
        fail("perfbench did not finish in time")
    except BaseException:
        stop_child()
        child.wait()
        raise
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
