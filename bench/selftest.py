"""Self-test of the benchmark harness itself, not of the program.

Run from the repository root with either of

    python3 bench/selftest.py
    python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def test_fingerprint_csv_is_a_function_of_the_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    run.write_fingerprint_csv(a, 40, 7)
    run.write_fingerprint_csv(b, 40, 7)
    run.write_fingerprint_csv(c, 40, 8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

    header, *rows = a.read_text(encoding="utf-8").splitlines()
    header = header.split(",")
    waps = [i for i, h in enumerate(header) if h.startswith("WAP")]
    assert len(waps) == 520 and header[520:522] == ["LONGITUDE", "LATITUDE"]
    assert len(rows) == 40
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header)
        levels = [int(cells[i]) for i in waps]
        detected = [v for v in levels if v != 100]
        assert detected and all(-104 <= v <= 0 for v in detected)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert set(run.DERIVED) <= set(run.PER_LAYER)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("cli.outer"):
        with tracer.span("mdn.inner"):
            time.sleep(0.01)
    (inner, *_), (outer, *_) = tracer.spans
    selfs = tracer.self_ns()
    spans = {s[0]: s for s in tracer.spans}
    assert selfs[inner] == spans[inner][3] - spans[inner][2]
    assert selfs[outer] == (spans[outer][3] - spans[outer][2]) - selfs[inner]
    assert tracer.roots() == {inner: "cli.outer", outer: "cli.outer"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        test_fingerprint_csv_is_a_function_of_the_seed(Path(tmp))
    test_metric_names_match_benchmark_json()
    test_self_time_subtracts_children()
    print("selftest ok")
