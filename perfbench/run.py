#!/usr/bin/env python3
"""Builds and runs the benchmark, then prints its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <query_mix|block_ingest|chain_sync> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --write-manifest

The first form builds the `perfbench` package (release, offline, into
`$CARGO_TARGET_DIR`, by default `.bench_build` at the repository root),
runs one workload for about S seconds and prints a metrics table (name,
value, unit, kind, layer) on standard error. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: every end-to-end
metric with `--trace 0`, every per-layer metric with `--trace 1`.
`peak_rss_mib` is the benchmark process's peak resident set, read from
the kernel's accounting of that child process.

The second form rewrites BENCHMARK.json from `perfbench/metrics.json`, the
catalogue that also records each metric's kind (modeled or host), its
layer, and for per-layer metrics the end-to-end metrics and workloads it
should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CATALOGUE = os.path.join(HERE, "metrics.json")
MANIFEST_KEYS = {
    "end_to_end": ("name", "unit", "better", "bound"),
    "per_layer": ("name", "unit", "better"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_catalogue():
    with open(CATALOGUE, encoding="utf-8") as f:
        return json.load(f)


def manifest_text(catalogue):
    """BENCHMARK.json: the catalogue with each metric cut to its manifest keys."""
    lines = ["{"]
    for key in ("command", "paths", "run_seconds"):
        lines.append(f"  {json.dumps(key)}: {json.dumps(catalogue[key])},")
    sections = [("workloads", ("name", "why"))] + list(MANIFEST_KEYS.items())
    for i, (section, keys) in enumerate(sections):
        lines.append(f"  {json.dumps(section)}: [")
        entries = catalogue[section]
        for j, entry in enumerate(entries):
            cut = {k: entry[k] for k in keys}
            lines.append("    " + json.dumps(cut) + ("," if j < len(entries) - 1 else ""))
        lines.append("  ]" + ("," if i < len(sections) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                               env=dict(os.environ, CARGO_TARGET_DIR=target))
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run(executable, args):
    """Runs the benchmark binary; returns its result and peak RSS in MiB."""
    command = [
        executable, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE)
    output = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"benchmark exited with code {child.returncode}")
    lines = output.decode("utf-8").strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def main():
    catalogue = load_catalogue()
    if sys.argv[1:] == ["--write-manifest"]:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            f.write(manifest_text(catalogue))
        return

    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in catalogue["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    result, peak_rss_mib = run(build(), args)
    values = dict(result["metrics"], peak_rss_mib=peak_rss_mib)
    section = catalogue["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if values.get(m["name"]) is None]
    if missing:
        fail(f"metrics missing from the result: {', '.join(missing)}")

    print(f"# {'metric':44} {'value':>16} {'unit':9} {'kind':8} layer", file=sys.stderr)
    for m in section:
        print(f"# {m['name']:44} {values[m['name']]:16.6g} {m['unit']:9} {m['kind']:8} {m['layer']}",
              file=sys.stderr)
    checks_passed = all(c["passed"] for c in result["checks"])
    print(json.dumps({
        "correct": checks_passed and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))


if __name__ == "__main__":
    main()
