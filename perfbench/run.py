#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <paper|mesh10k|meshjam> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench`
measuring binary from source (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then:

* with `--trace 0`, runs untraced operations on `--seed` back to back,
  one process each (a closed loop with one client), for about
  `--seconds` seconds, and reports the medians of `wall_s`, `cpu_s`,
  `setup_s` and `peak_rss_mb` over them; before each operation it also
  starts a few set-up-only processes, so `setup_s` rests on more
  samples than the operations give; `wall_s`, `cpu_s` and
  `peak_rss_mb` leave out the operations during which the hypervisor
  took the most CPU time (see `timed_samples`);
* with `--trace 1`, runs the traced binary once and reports every
  per-layer metric.

Every operation's fingerprint is printed; an operation fails when it
panics, breaks an invariant, fails a cross-check, or its fingerprint
differs between repetitions of the same seed. The last line of standard
output is the result object: `correct`, `attempted`, `failed` and
`metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
WORKLOADS = ("paper", "mesh10k", "meshjam")
# Operations in one untraced run of each workload: an operation is one
# experiment run.
OPS_PER_RUN = {"paper": 15, "mesh10k": 1, "meshjam": 1}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Environment variables that would resize a workload behind the
# benchmark's scenario overrides.
FORBIDDEN_ENV = ("PPR_DURATION", "PPR_THREADS")
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
# Set-up-only processes started before each operation. A `paper`
# operation takes seconds, so a run has only a handful; its set-up takes
# a fraction of a millisecond and varies by tens of percent from one
# cold process to the next.
SETUPS_PER_OP = 4
# Hypervisor steal, the share of this VM's CPU time the host gave to
# other guests, above which an operation's timing is left out of the
# medians. On a 2-vCPU VM a mesh run at 2 threads waits for a stolen
# CPU at every decode-flush barrier, so 1-2% steal makes it about 10%
# slower, and 12-20% steal about 75% slower. Slow periods last minutes,
# longer than a run, so no statistic over all of a run's operations
# holds steady through one.
STEAL_MAX = 0.01
# The fewest operations the medians rest on: when fewer ran below
# STEAL_MAX, the least disturbed ones make up the number.
MIN_TIMED = 5


def log(msg):
    print(msg, flush=True)


def build():
    """Builds the measuring binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PKG / "Cargo.toml")]
    # Cargo's own output goes to stderr so the last stdout line stays ours.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return target / "release" / "perfbench"


def cpu_ticks():
    """(steal, total) CPU ticks of the machine from /proc/stat, or None
    where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        # user nice system idle iowait irq softirq steal
        ticks = [int(v) for v in fields[1:9]]
    except (OSError, ValueError):
        return None
    if fields[0] != "cpu" or len(ticks) < 8:
        return None
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Share of the CPU time between two `cpu_ticks` readings that the
    hypervisor stole, or None."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_child(binary, mode, workload, seed):
    """Runs one measuring process; returns its parsed lines and usage.

    In `setup` mode the process exits after its ready line and the
    returned sample has no `result`.

    `setup_s` is the child's own host time from the start of its `main`
    to its `{"ready":true}` line; `spawn_s` is host time from just
    before the process is spawned to that line, which adds process
    start-up and pipe latency. `cpu_s` and `peak_rss_mb` come from the
    kernel's resource usage of the exited child. `steal` is the
    hypervisor's share of the machine's CPU time while the child ran.
    """
    ticks = cpu_ticks()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [str(binary), mode, "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        setup_s = spawn_s = None
        lines = []
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if doc.get("ready") is True and spawn_s is None:
                spawn_s = time.perf_counter() - t0
                setup_s = doc["setup_s"]
            else:
                lines.append(doc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except (json.JSONDecodeError, KeyError, OSError) as exc:
        proc.kill()
        proc.wait()
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        watchdog.cancel()
        # Still running when this script is being stopped: stop it too.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or (mode != "setup" and not lines):
        return {"seed": seed, "error": f"exit status {proc.returncode}"}
    if setup_s is None and mode != "trace":
        return {"seed": seed, "error": "no ready line"}
    sample = {
        "seed": seed,
        "setup_s": setup_s,
        "spawn_s": spawn_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "steal": steal_share(ticks, cpu_ticks()),
    }
    if lines:
        sample["result"] = lines[-1]
    return sample


def count_ops(samples, workload):
    """Counts attempted and failed operations over a run's samples.

    An operation fails when its process died, it reported an error, or
    its fingerprint differs from the first fingerprint seen for its id
    under the same scenario seed. Returns (attempted, failed, compared,
    messages), where `compared` counts the operations whose fingerprint
    was checked against an earlier repetition.
    """
    attempted = failed = compared = 0
    first_fp = {}
    messages = []
    for i, sample in enumerate(samples, 1):
        if "error" in sample:
            attempted += OPS_PER_RUN[workload]
            failed += OPS_PER_RUN[workload]
            messages.append(f"sample {i}: process failed: {sample['error']}")
            continue
        for op in sample["result"]["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                messages.append(f"sample {i}: {op['id']}: {op['error']}")
                continue
            key = (sample["seed"], op["id"])
            if key not in first_fp:
                first_fp[key] = op["fp"]
                continue
            compared += 1
            want = first_fp[key]
            if op["fp"] != want:
                failed += 1
                messages.append(
                    f"sample {i}: {op['id']}: fingerprint {op['fp']} != {want}")
    return attempted, failed, compared, messages


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_samples(samples):
    """The samples whose `wall_s`, `cpu_s` and `peak_rss_mb` enter the
    medians: those that ran while the hypervisor stole at most
    STEAL_MAX of the CPU time, or, when they are too few, the least
    disturbed ones, at least MIN_TIMED (or all) and at least a quarter
    of the run. All of them when steal could not be read."""
    if any(s.get("steal") is None for s in samples):
        return samples
    need = max(len(samples) // 4, min(MIN_TIMED, len(samples)))
    calm = [s for s in samples if s["steal"] <= STEAL_MAX]
    if len(calm) >= need:
        return calm
    return sorted(samples, key=lambda s: s["steal"])[:need]


def end_to_end_metrics(samples, setups):
    """Median of each end-to-end metric over the successful samples
    that `timed_samples` keeps; `setup_s` takes in every successful
    sample and set-up-only sample, since a set-up of a few milliseconds
    spans too few CPU ticks to tell its steal."""
    good = [s for s in samples if "error" not in s]
    good_setups = good + [s for s in setups if "error" not in s]
    timed = timed_samples(good)
    if len(timed) < len(good):
        log(f"timed samples: {len(timed)} of {len(good)}, leaving out those "
            f"during which the hypervisor stole more than {STEAL_MAX:.0%} "
            "of the CPU time")
    metrics = {}
    for name, unit in END_TO_END:
        if name == "wall_s":
            values = [s["result"]["wall_s"] for s in timed]
        elif name == "setup_s":
            values = [s["setup_s"] for s in good_setups]
        else:
            values = [s[name] for s in timed]
        if not values:
            continue
        lo, hi = quartiles(values)
        log(f"{name}: median {statistics.median(values):.6g} {unit} over "
            f"{len(values)} samples (quartiles {lo:.6g} .. {hi:.6g})")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def expected_names(section):
    """Metric names of a BENCHMARK.json section, when the file is there."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec, encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[section]]


def names_match(section, metrics):
    want = expected_names(section)
    if want is None or list(metrics) == want:
        return True
    log(f"metric names differ from BENCHMARK.json {section}: "
        f"missing {sorted(set(want) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(want))}")
    return False


def print_sample(i, sample, workload):
    if "error" in sample:
        log(f"sample {i}: FAILED ({sample['error']})")
        return
    res = sample["result"]
    line = (f"sample {i}: seed={sample['seed']} wall_s={res['wall_s']:.6f} "
            f"cpu_s={sample['cpu_s']:.6f} setup_s={sample['setup_s']:.6f} "
            f"spawn_s={sample['spawn_s']:.6f} peak_rss_mb={sample['peak_rss_mb']:.1f}")
    if sample.get("steal") is not None:
        line += f" steal={sample['steal']:.4f}"
    if workload != "paper":
        line += f" events={res['events']} events_per_s={res['events'] / res['wall_s']:.1f}"
    log(line)
    log(f"sample {i} fingerprints: "
        + " ".join(f"{op['id']}={op['fp']}" for op in res["ops"]))


def untraced_run(binary, workload, seed, seconds):
    start = time.perf_counter()
    samples = []
    setups = []
    durations = []
    while True:
        t = time.perf_counter()
        for _ in range(SETUPS_PER_OP):
            setups.append(run_child(binary, "setup", workload, seed))
        sample = run_child(binary, "op", workload, seed)
        durations.append(time.perf_counter() - t)
        samples.append(sample)
        if len(samples) == 1 and "error" not in sample:
            log(f"env: {json.dumps(sample['result']['env'], sort_keys=True)}")
        print_sample(len(samples), sample, workload)
        elapsed = time.perf_counter() - start
        # At least two operations, so every run repeats its seed and
        # checks the fingerprints against each other.
        if len(samples) >= 2 and elapsed + statistics.median(durations) > seconds:
            break
    attempted, failed, compared, messages = count_ops(samples, workload)
    # A set-up-only process that fails counts as one failed operation.
    for s in setups:
        if "error" in s:
            attempted += 1
            failed += 1
            messages.append(f"set-up process failed: {s['error']}")
    for msg in messages:
        log(f"FAILED {msg}")
    log(f"fingerprints compared with an earlier repetition: {compared}")
    metrics = end_to_end_metrics(samples, setups)
    good = [s for s in samples if "error" not in s]
    if good:
        spawn = [s["spawn_s"] for s in good + setups if "error" not in s]
        log(f"spawn_s (spawn to ready, not a metric): median "
            f"{statistics.median(spawn):.6g} s over {len(spawn)} samples")
    steals = [s["steal"] for s in good if s.get("steal") is not None]
    if steals:
        log(f"steal: median {statistics.median(steals):.4f}, max {max(steals):.4f} "
            f"over {len(steals)} samples")
    if workload != "paper" and good:
        rates = [s["result"]["events"] / s["result"]["wall_s"] for s in timed_samples(good)]
        log(f"events_per_s: median {statistics.median(rates):.6g} 1/s over {len(rates)} samples")
    log(f"fail_rate: {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    correct = failed == 0 and len(metrics) == len(END_TO_END) and names_match("end_to_end", metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(binary, workload, seed):
    sample = run_child(binary, "trace", workload, seed)
    if "error" in sample:
        log(f"FAILED traced run: {sample['error']}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    res = sample["result"]
    log(f"env: {json.dumps(res['env'], sort_keys=True)}")
    log("fingerprints: " + " ".join(f"{op['id']}={op['fp']}" for op in res["ops"]))
    failed = [op for op in res["ops"] if op["error"] is not None]
    for op in failed:
        log(f"FAILED {op['id']}: {op['error']}")
    metrics = res["metrics"]
    for name, m in metrics.items():
        log(f"{name} = {m['value']} {m['unit']}")
    log(f"fail_rate: {len(failed)}/{len(res['ops'])}")
    correct = not failed and names_match("per_layer", metrics)
    return {"correct": correct, "attempted": len(res["ops"]),
            "failed": len(failed), "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    # Stopped from outside: exit through the `finally` blocks, which
    # stop the running child and wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            sys.exit(f"perfbench: {var} is set; unset it, the benchmark pins "
                     "duration and threads itself")
    binary = build()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} "
        f"PPR_NO_SIMD={os.environ.get('PPR_NO_SIMD')}")
    if args.trace:
        result = traced_run(binary, args.workload, args.seed)
    else:
        result = untraced_run(binary, args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
