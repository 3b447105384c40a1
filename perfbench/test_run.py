"""Tests of the benchmark driver's bookkeeping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


# The 15 experiment ids of a `paper` operation.
PAPER_IDS = ("fig03", "table2", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
             "fig14", "fig15", "fig16", "jam", "mrd", "relay", "table1")


def sample(ops, wall_s=1.0, seed=1):
    return {
        "seed": seed,
        "result": {"wall_s": wall_s, "events": 10, "ops": ops, "env": {"nproc": 2}},
        "setup_s": 0.01,
        "spawn_s": 0.012,
        "cpu_s": 1.5,
        "peak_rss_mb": 20.0,
    }


def op(op_id, fp="00000000000000aa", error=None):
    return {"id": op_id, "fp": fp, "error": error}


class EndToEndNames(unittest.TestCase):
    def test_emitted_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
        declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = run.end_to_end_metrics([sample([op("mesh10k")])] * 3, [])
        emitted = [(name, m["unit"]) for name, m in metrics.items()]
        self.assertEqual(emitted, declared)
        self.assertTrue(run.names_match("end_to_end", metrics))
        self.assertEqual(spec["workloads"], [
            {"name": w, "why": spec["workloads"][i]["why"]}
            for i, w in enumerate(run.WORKLOADS)])


class FailRate(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        samples = [sample([op("fig03"), op("table2")])] * 3
        self.assertEqual(run.count_ops(samples, "paper")[:3], (6, 0, 4))

    def fake_paper_run(self, failing_setup=None):
        """A 12 s `paper` run of seed 7 with fake children; returns the
        children started, the `count_ops` results and the run's result.
        The set-up-only child numbered `failing_setup` dies."""
        calls = []

        def fake_child(binary, mode, workload, seed):
            calls.append((mode, seed))
            if mode == "op":
                return sample([op(i) for i in PAPER_IDS], seed=seed)
            if len(calls) - 1 == failing_setup:
                return {"seed": seed, "error": "exit status 101"}
            return {"seed": seed, "setup_s": 0.0001, "spawn_s": 0.002}

        counts = []

        def recording_count_ops(samples, workload):
            counts.append(real_count_ops(samples, workload))
            return counts[-1]

        # A clock that advances 1 s per reading; three readings per
        # sample make a 12 s run take exactly four samples.
        clock = SimpleNamespace(perf_counter=itertools.count().__next__)
        real_count_ops = run.count_ops
        with mock.patch.object(run, "run_child", fake_child), \
                mock.patch.object(run, "count_ops", recording_count_ops), \
                mock.patch.object(run, "time", clock), \
                contextlib.redirect_stdout(io.StringIO()):
            result = run.untraced_run(None, "paper", 7, 12)
        return calls, counts, result

    def test_a_four_sample_paper_run_compares_fingerprints(self):
        calls, counts, result = self.fake_paper_run()
        self.assertEqual(calls, ([("setup", 7)] * run.SETUPS_PER_OP + [("op", 7)]) * 4)
        self.assertEqual((result["attempted"], result["failed"]), (60, 0))
        # Every experiment of samples 2-4 is checked against sample 1.
        self.assertEqual(counts[0][2], 45)
        # The set-ups of the operations and of the set-up-only processes.
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.0001)

    def test_a_failed_setup_process_is_counted(self):
        _, _, result = self.fake_paper_run(failing_setup=1)
        self.assertEqual((result["attempted"], result["failed"]), (61, 1))
        self.assertFalse(result["correct"])

    def test_injected_failures_are_counted(self):
        samples = [
            sample([op("mesh10k")]),
            # A panicking or invariant-breaking operation.
            sample([op("mesh10k", error="panic: injected")]),
            # A fingerprint that moved between repetitions of one seed.
            sample([op("mesh10k", fp="00000000000000bb")]),
            # A process that died without a result.
            {"seed": 1, "error": "exit status 101"},
            # Another scenario seed may fingerprint differently.
            sample([op("mesh10k", fp="00000000000000cc")], seed=2),
        ]
        attempted, failed, compared, messages = run.count_ops(samples, "mesh10k")
        self.assertEqual((attempted, failed, compared), (5, 3, 1))
        self.assertEqual(len(messages), 3)

    def test_a_dead_paper_process_fails_all_its_experiments(self):
        samples = [sample([op(i) for i in PAPER_IDS]), {"seed": 1, "error": "exit status 101"}]
        self.assertEqual(run.count_ops(samples, "paper")[:3], (30, 15, 0))


class TimedSamples(unittest.TestCase):
    def with_steal(self, steal, wall_s):
        return dict(sample([op("meshjam")], wall_s=wall_s), steal=steal)

    def test_stolen_operations_leave_the_medians(self):
        calm = [self.with_steal(0.0, 1.0 + i / 100) for i in range(8)]
        stolen = [self.with_steal(0.12, 1.6)] * 4
        self.assertEqual(run.timed_samples(calm + stolen), calm)
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.end_to_end_metrics(stolen + calm, [])
        self.assertAlmostEqual(metrics["wall_s"]["value"], 1.035)

    def test_the_least_disturbed_make_up_too_few_calm_ones(self):
        samples = [self.with_steal(s / 100, 1.0 + s / 10) for s in (9, 0, 5, 3, 7, 1, 8, 2)]
        kept = run.timed_samples(samples)
        self.assertEqual([s["steal"] for s in kept], [0.0, 0.01, 0.02, 0.03, 0.05])

    def test_all_samples_count_when_steal_is_unknown(self):
        samples = [self.with_steal(0.2, 1.0), self.with_steal(None, 1.0)]
        self.assertEqual(run.timed_samples(samples), samples)
        self.assertEqual(run.timed_samples([sample([])] * 3), [sample([])] * 3)


# A stand-in for the measuring binary: prints what each mode prints.
FAKE_BINARY = """#!{python}
import json, sys
mode = sys.argv[1]
if mode in ("op", "setup"):
    print(json.dumps({{"ready": True, "setup_s": 0.002}}))
if mode != "setup":
    print(json.dumps({{"wall_s": 1.0, "ops": []}}))
"""


class RunChild(unittest.TestCase):
    def test_every_mode_parses(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = Path(tmp) / "perfbench"
            binary.write_text(FAKE_BINARY.format(python=sys.executable))
            binary.chmod(0o755)
            for mode in ("op", "setup", "trace"):
                got = run.run_child(binary, mode, "mesh10k", 3)
                self.assertNotIn("error", got, mode)
                self.assertEqual(got["seed"], 3)
                self.assertEqual("result" in got, mode != "setup", mode)
                if mode != "trace":
                    self.assertEqual(got["setup_s"], 0.002)
                    self.assertGreater(got["spawn_s"], 0)


class Environment(unittest.TestCase):
    def test_refuses_resizing_variables(self):
        for var in run.FORBIDDEN_ENV:
            env = dict(os.environ, **{var: "1"})
            done = subprocess.run(
                [sys.executable, str(run.PKG / "run.py"), "--workload", "paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                env=env, capture_output=True, text=True, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
            self.assertIn(var, done.stderr)


if __name__ == "__main__":
    unittest.main()
