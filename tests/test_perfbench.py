"""The benchmark's children run on the library as it stands.  The
benchmark only prints a failed probe child and goes on, and it judges a
pass's artifacts only at benchmark time, so a library change that breaks
the child or writes artifacts its checks reject would otherwise pass
unseen."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sikorski

REPO = Path(__file__).resolve().parents[1]
SPECS = Path(sikorski.__file__).parent / "specs"


def run_passrun(job: dict, tmp_path: Path) -> dict:
    """Run `perfbench/passrun.py` on a job and return its result."""
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    package_root = str(Path(sikorski.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "passrun.py"), str(job_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def test_probe_child_runs_every_probe(tmp_path):
    specs = sorted(str(path) for path in SPECS.glob("*.spec"))  # each has one parameter
    job = {
        "eval_specs": specs,
        "embed_spec": str(SPECS / "rationals_sqrt2.spec"),
        "compare": {"spec": str(SPECS / "real_line_atan.spec"), "g": ["g"], "h": ["f"], "eps": [0.1], "target": 1.0},
        "result": str(tmp_path / "result.json"),
    }
    result = run_passrun(job, tmp_path)
    assert {"eval", "embed", "compare"} <= set(result)
    assert result["eval"]["evals"] > 0
    assert result["ops"] == []


def test_grid_pass_meets_its_verdict_checks(tmp_path, monkeypatch):
    """One `grid` pass, seed 5: every operation exits 0 and its artifacts
    pass the benchmark's own checks, CSV readers included."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    wl = workloads.build("grid", 5, str(SPECS), str(tmp_path / "work"))
    out_dirs = [str(tmp_path / "pass" / op.name) for op in wl.ops]
    job = {
        "ops": [{"argv": op.argv, "out": out} for op, out in zip(wl.ops, out_dirs)],
        "result": str(tmp_path / "result.json"),
    }
    result = run_passrun(job, tmp_path)
    assert [(op.name, r["rc"]) for op, r in zip(wl.ops, result["ops"])] == [(op.name, 0) for op in wl.ops]
    for op, out in zip(wl.ops, out_dirs):
        assert op.verify(out) == [], op.name
