"""The benchmark's probe child, `perfbench/passrun.py`, runs on the library
as it stands.  The benchmark only prints a failed probe child and goes on,
so a library change that breaks the child would otherwise pass unseen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sikorski

REPO = Path(__file__).resolve().parents[1]
SPECS = Path(sikorski.__file__).parent / "specs"


def test_probe_child_runs_every_probe(tmp_path):
    specs = sorted(str(path) for path in SPECS.glob("*.spec"))  # each has one parameter
    job = {
        "eval_specs": specs,
        "embed_spec": str(SPECS / "rationals_sqrt2.spec"),
        "compare": {"spec": str(SPECS / "real_line_atan.spec"), "g": ["g"], "h": ["f"], "eps": [0.1], "target": 1.0},
        "result": str(tmp_path / "result.json"),
    }
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
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert {"eval", "embed", "compare"} <= set(result)
    assert result["eval"]["evals"] > 0
    assert result["ops"] == []
