"""Fast check of the benchmark harness on its tiny `smoke` workload.

Run with `python -m pytest perfbench`. Each call runs one episode
(`--seconds 0`) of a 96-node scenario in fresh processes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout.splitlines()


def test_every_end_to_end_metric_is_printed_with_its_unit():
    lines = _bench(0)
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for metric in SPEC["end_to_end"]:
        prefix = f"smoke {metric['name']} = "
        printed = [line for line in lines[:-1] if line.startswith(prefix)]
        assert len(printed) == 1 and f" {metric['unit']}  (n=" in printed[0]


def test_layer_counts_repeat_exactly_with_the_same_seed():
    first, second = (json.loads(_bench(1)[-1]) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # runner.export_bytes (unit B) is left out: timings.csv holds wall times.
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert "richards.states_stepped" in counts and "ekf.jacobian_columns" in counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name
