"""Smoke tests: the example scripts must run end-to-end.

Each example self-asserts its claims internally (scores, budgets,
placements), so a clean exit is a meaningful check.  The heavyweight
genome example runs in its FAST mode.  Every example runs in a fresh
temporary directory, so the ``results/`` files examples write never
touch the checkout.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(ROOT, "examples")


def run_example(name, env_extra=None, timeout=240):
    env = dict(os.environ)
    # Absolute import path: the example's working directory is elsewhere.
    inherited = [os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), *inherited])
    env.update(env_extra or {})
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, name)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=workdir,
        )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "score=82" in out

    def test_protein_homology(self):
        out = run_example("protein_homology.py")
        assert "Best local alignment" in out

    def test_multiple_alignment(self):
        out = run_example("multiple_alignment.py")
        assert "Multiple alignment" in out
        assert "conserved columns" in out

    def test_parallel_speedup(self):
        out = run_example("parallel_speedup.py")
        assert "identical to sequential" in out
        assert "Theorem 4" in out

    def test_memory_tuning(self):
        out = run_example("memory_tuning.py")
        assert "Adaptive space/time trade-off" in out

    def test_read_mapping(self):
        out = run_example("read_mapping.py")
        assert "dovetail overlaps detected" in out

    def test_genome_alignment_fast(self):
        out = run_example("genome_alignment.py", env_extra={"FAST": "1"}, timeout=400)
        assert "within budget     : True" in out

    def test_service_throughput(self):
        out = run_example("service_throughput.py")
        assert "over-budget job rejected as expected" in out
        assert "requests in" in out
