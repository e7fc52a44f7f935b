"""Golden hashes: every file of the tiny pipeline, byte for byte.

The tiny pipeline is simulate (120 training and 6 test points), 20 epochs
for each network, then evaluate, predict and evaluate --from-dump at
M=50, N=10. The same networks then evaluate, predict and re-evaluate 41
other test points at M=100, N=20 with 2,000 bootstrap resamples, so that
a short last block of records (41 = 40 + 1) and of resamples
(2,000 = 1,598 + 402 at n = 41) are pinned too. Beside it, simulate runs
with --measurement-noise and with --augment over a small fingerprint CSV
the test writes, and the bundled scene is saved. It runs through ``cli.main`` in a subprocess with one BLAS
thread, and the sha256 of each file it writes is compared with
``tests/golden.json``:

- the simulated and augmented CSVs, the CSV the test writes, the scene
  file, the SVGs and every ``metrics.txt`` are the same on any platform
  (docs/numerics.md), so they are compared everywhere;
- every other file depends on the BLAS kernel, so it is compared under a
  key made of the numpy version, the BLAS configuration and the OpenBLAS
  core name. Where golden.json has no entry for the key, that test skips
  and its reason names the key.

After a change that is meant to change bytes, rewrite the portable hashes
and those of the current key with

    PYTHONPATH=src python tests/test_golden.py --write

and name each changed file in CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden.json")
SEED, M, N = 5, 50, 10
# the input of simulate --augment: UJIIndoorLoc columns, map coordinates
FINGERPRINTS = """\
WAP001,WAP002,WAP003,LONGITUDE,LATITUDE,FLOOR,BUILDINGID
-71,100,-88,-7541.2643,4864921.9036,2,1
-64,-97,100,-7536.6212,4864934.1500,2,1
100,-80,-77,-7519.1524,4864949.8036,0,1
-90,-55,-102,-7524.5704,4864934.2250,"3,4",0
-45,100,-60,-7632.1436,4864982.2171,1,1
-85,-83,100,-7533.8962,4864939.1015,2,1
100,-71,-81,-7565.0000,4864910.5000,3,2
-58,-66,-74,-7520.9999,4864976.0001,1,0
"""


def portable(name: str) -> bool:
    """Whether a file's bytes are the same under any BLAS kernel."""
    return (name.split("/")[-1] in ("train.csv", "test.csv", "fingerprints.csv", "scene.json")
            or name.endswith((".svg", "/metrics.txt")))


def blas_key() -> str:
    """The numpy version, BLAS configuration and OpenBLAS core of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    core = None
    maps = Path("/proc/self/maps")  # the libraries this process has loaded, on Linux
    for lib in sorted({ln.split()[-1] for ln in maps.read_text().splitlines()
                       if "openblas" in ln} if maps.exists() else ()):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"numpy {np.__version__}; {' '.join(config.split())}; core {core}"


def run_pipeline(out: Path) -> dict:
    """Run the tiny pipeline into ``out`` in this process: {"key", "files"},
    the files as relative path -> sha256."""
    from hmdn import cli, scenario

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        assert code == 0, argv

    live = ("--g1", out / "g1.model", "--g2", out / "g2.model", "--data", out / "test.csv",
            "--m", M, "--n", N, "--seed", SEED)
    run("simulate", "--out-dir", out, "--n-train", 120, "--n-test", 6, "--seed", SEED)
    for which in ("g1", "g2"):
        run("train", "--which", which, "--data", out / "train.csv",
            "--model-out", out / f"{which}.model", "--seed", SEED, "--epochs", 20)
    run("evaluate", *live, "--out-dir", out / "eval")
    run("predict", *live, "--out-dir", out / "pred")
    run("evaluate", "--from-dump", out / "pred" / "predictions.txt", "--out-dir", out / "reeval")
    blocks = out / "blocks"
    run("simulate", "--out-dir", blocks, "--n-train", 12, "--n-test", 41, "--seed", SEED)
    live = (*live[:4], "--data", blocks / "test.csv", "--m", 100, "--n", 20, "--seed", SEED)
    run("evaluate", *live, "--bootstrap", 2000, "--out-dir", blocks / "eval")
    run("predict", *live, "--records", "all", "--no-plots", "--out-dir", blocks / "pred")
    run("evaluate", "--from-dump", blocks / "pred" / "predictions.txt", "--bootstrap", 2000,
        "--out-dir", blocks / "reeval")
    run("simulate", "--out-dir", out / "noisy", "--n-train", 12, "--n-test", 3, "--seed", SEED,
        "--measurement-noise")
    (out / "fingerprints.csv").write_text(FINGERPRINTS)
    run("simulate", "--augment", out / "fingerprints.csv", "--out-dir", out / "augment",
        "--seed", SEED, "--measurement-noise")
    scenario.save_scene(scenario.paper_room_scene(), out / "scene.json")
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"key": blas_key(), "files": files}


def pipeline_hashes(out: Path) -> dict:
    """``run_pipeline`` in a fresh Python with one BLAS thread and this hmdn."""
    import hmdn

    src = str(Path(hmdn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, __file__, "--run", str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return pipeline_hashes(tmp_path_factory.mktemp("golden"))


def changed(got: dict, want: dict) -> list:
    """The names whose hashes differ, or that only one of the maps has."""
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def test_portable_files_match_golden(produced):
    got = {k: v for k, v in produced["files"].items() if portable(k)}
    bad = changed(got, json.loads(GOLDEN.read_text())["portable"])
    assert not bad, f"changed: {', '.join(bad)}"


def test_blas_dependent_files_match_golden(produced):
    by_key = json.loads(GOLDEN.read_text())["blas"]
    key = produced["key"]
    if key not in by_key:
        pytest.skip(f"tests/golden.json has no hashes for {key!r}")
    got = {k: v for k, v in produced["files"].items() if not portable(k)}
    bad = changed(got, by_key[key])
    assert not bad, f"changed under {key!r}: {', '.join(bad)}"


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        result = pipeline_hashes(Path(tmp))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"blas": {}}
    files = result["files"]
    golden["portable"] = {k: v for k, v in files.items() if portable(k)}
    golden["blas"][result["key"]] = {k: v for k, v in files.items() if not portable(k)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(files)} files under {result['key']!r}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        print(json.dumps(run_pipeline(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
