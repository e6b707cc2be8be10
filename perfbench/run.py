#!/usr/bin/env python3
"""Build the hca tree and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile|certify \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the daemon (bin/hca_cli.exe) and the benchmark executable
(perfbench/hcabench.exe) with dune, then runs it.  The last line of
standard output is its JSON result; it is checked against the
metric names declared in BENCHMARK.json before it is passed on.  Build
output goes to standard error.  Exits non-zero, printing no result, when
the tree cannot be built or the benchmark fails.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "hcabench.exe")
DAEMON = os.path.join("_build", "default", "bin", "hca_cli.exe")
TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: %s" %
                         sorted(set(got.items()) ^ set(want.items())))


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        return fail("run me from the root of an hca checkout")
    # Keep every build product inside the checkout (no shared dune cache).
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + DAEMON[len("_build/default/"):],
         "./perfbench/hcabench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    if argv[:1] == ["--selftest"]:
        return subprocess.run([BENCH, "--selftest"], env=env).returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    # The benchmark and the daemon it starts share a fresh process group,
    # so nothing outlives this script, whatever way the benchmark ends.
    proc = subprocess.Popen([BENCH] + argv + ["--hca", DAEMON], env=env,
                            stdout=subprocess.PIPE, universal_newlines=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, 9)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if out is None:
        return fail("benchmark timed out")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        return fail("benchmark exited with %d" % proc.returncode)
    try:
        check_result(lines[-1], trace)
    except (ValueError, KeyError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("bad result line: %s" % e)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
