"""The public surface of the package: what ``hmdn`` exports, and that the
names retired in favour of the batched kernels stay gone."""

import ast
import builtins
import importlib
import importlib.util
import json
import math
import pkgutil
import re
import sys
import textwrap
from pathlib import Path

import pytest

import hmdn
from hmdn import cli

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = {
    "HmdnEstimate",
    "HmdnPipeline",
    "MdnConfig",
    "MdnModel",
    "MixtureParams",
    "Rng",
    "density",
    "gradients",
    "log_density",
    "mixture_at",
    "nll",
    "predict",
    "sample",
    "train",
}

# single-sample and single-record wrappers, options that only tests used,
# the fingerprint column schema that nothing set, the dump header's second
# reader, the recoding options predict and evaluate mirrored from train,
# and the hand-kept copies of MdnConfig's fields and allowed values
REMOVED = (
    "Activations",
    "GradWorkspace",
    "forward",
    "_activation_rows",
    "activations_to_params",
    "head_gradients",
    "gaussian_sample",
    "log_sum_exp",
    "score_candidates",
    "select_top",
    "predict_baseline",
    "ColumnSchema",
    "dump_metadata",
    "_NORMALIZE",
    "_LUX_TRANSFORM",
    "_lux_transform",
    "_CONFIG_INT_FIELDS",
    "_CONFIG_FLOAT_FIELDS",
    "_CONFIG_STR_FIELDS",
    "_ACTIVATIONS",
    "_OPTIMIZERS",
)

MODULES = [hmdn] + [
    importlib.import_module(f"hmdn.{info.name}") for info in pkgutil.iter_modules(hmdn.__path__)
]


def test_every_exported_name_resolves():
    for name in hmdn.__all__:
        assert getattr(hmdn, name) is not None, name


def test_exports_are_exactly_the_kept_api():
    assert len(hmdn.__all__) == len(set(hmdn.__all__))
    assert set(hmdn.__all__) == EXPORTED


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    present = [name for name in REMOVED if hasattr(module, name)]
    assert present == []


def test_removed_fields_are_gone():
    from hmdn.dataio import FingerprintTable, NormalizedRssi, SplitSpec
    from hmdn.pipeline import HmdnEstimate

    assert list(NormalizedRssi.__dataclass_fields__) == ["features"]
    assert list(FingerprintTable.__dataclass_fields__) == ["wap_names", "rssi", "coords",
                                                           "metadata"]
    assert "strategy" not in SplitSpec.__dataclass_fields__
    assert not hasattr(NormalizedRssi, "inverse_detected")
    assert not hasattr(HmdnEstimate, "selected_scores")
    assert "weighted" not in HmdnEstimate.__dataclass_fields__


def test_benchmark_wrap_points_resolve():
    """Every function the benchmark traces still exists, except the two
    prediction steps folded into the batched kernel. The benchmark script is
    read, not imported."""
    source = (ROOT / "bench" / "run.py").read_text()
    (points,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAP_POINTS"]
    ]
    missing = set()
    for module, attr, name in points:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(name)
    assert missing == {"pipeline.score_candidates", "pipeline.select_top"}


def bench_run(monkeypatch):
    """``bench/run.py`` loaded as a module, as the benchmark runs it."""
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling tracing.py
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    return run


def test_benchmark_stage_plans_parse(monkeypatch, capsys):
    """Every command line the benchmark runs, on each workload that
    BENCHMARK.json declares, parses under the CLI's parser."""
    run = bench_run(monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(run.WORKLOADS) == {w["name"] for w in declared}
    parser = cli.build_parser()
    for w in run.WORKLOADS.values():
        for stage, argv in run.stage_plan(w, Path("inputs"), Path("run"), 7):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{w.name} {stage}: {capsys.readouterr().err}")


def test_benchmark_gate_accepts_a_tiny_run(monkeypatch, tmp_path):
    """The benchmark's own stage list, on a workload small enough for a unit
    test, passes its correctness gate: the dump it counts and parses, the
    model round trips and live against from-dump metrics."""
    import hmdn.dataio
    import hmdn.pipeline

    run = bench_run(monkeypatch)
    w = run.Workload(name="tiny", simulate=("--n-train", "40", "--n-test", "6"), epochs_g1=2,
                     epochs_g2=2, plots=False)
    _, failures = run.run_repetition(cli, run.stage_plan(w, tmp_path, tmp_path / "run", 3))
    assert failures == []
    assert run.check_outputs(hmdn, w, tmp_path / "run") == []
    quality = run.quality(tmp_path / "run")
    assert all(math.isfinite(v) for v in quality.values()), quality


# a message that opens with where it arose, a value then ':' or ',' as in
# f"{path}: ...", or that spells out a line or row number itself
LOCATION_PREFIX = re.compile(r"^\{[^}]*\}[:,]|(^|, |: )(line|row) \{")


def location_prefixed_errors(src: Path) -> list:
    """``file:line: message`` of each exception in ``src`` built from an
    f-string that carries its own location, except in ``errors.py`` and in
    the builtin OSError family, whose text names the file as the OS does."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raised = {id(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.JoinedStr)):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if id(node) not in raised and not name.endswith("Error"):
                continue
            kind = getattr(builtins, name, None)
            if isinstance(kind, type) and issubclass(kind, OSError):
                continue
            message = ast.unparse(node.args[0])[2:-1]
            if LOCATION_PREFIX.search(message):
                found.append(f"{path.name}:{node.lineno}: {message}")
    return found


def test_no_error_message_carries_its_own_location():
    """A location is data: readers raise with ``path``/``line``/``column``/
    ``key`` and ``errors.LocatedError`` renders them, so no message outside
    ``errors.py`` starts with a path or spells out a line."""
    assert location_prefixed_errors(ROOT / "src" / "hmdn") == []


def test_location_scan_sees_every_spelling(tmp_path):
    """The scan flags each spelling of a location the readers once built by
    hand, and leaves OSError text and messages without one alone."""
    (tmp_path / "sample.py").write_text(textwrap.dedent('''
        def spellings(path, source, lineno, row_no, err):
            raise SchemaError(f"{path}, line {lineno}: no such key")
            raise ParseError(f"{path}: line {lineno}: not UTF-8 text")
            raise ParseError(f"{source}: line {lineno}, column 3: bad JSON")
            raise ParseError(f"{path}: row {row_no}, column 'WAP001': bad cell")
            raise type(err)(f"{path}: {err}")
            error = ParseError(f"line {lineno}: expected numbers")
            raise ValueError(f"row {row_no}, column 'NOTE' is not numeric")
            raise IsADirectoryError(f"{path}: output path is a directory")
            raise ParseError(f"data row {row_no}: 'x' is not a number", key="NOTE")
            print(f"{path}: written")
    '''))
    assert [hit.split(":")[1] for hit in location_prefixed_errors(tmp_path)] == [
        "3", "4", "5", "6", "7", "8", "9",
    ]


def _writes(call: ast.Call) -> bool:
    """Whether a call writes a file: ``open`` (also ``io.open``, ``os.fdopen``
    and a ``.open`` method) with a mode that is not a constant for reading,
    ``os.open``, ``json.dump`` and a ``Path``'s ``write_text``/``write_bytes``;
    not a call of ``dataio.write_text`` itself."""
    name = ast.unparse(call.func)
    if name in ("os.open", "json.dump") or name.endswith((".write_text", ".write_bytes")):
        return name != "dataio.write_text"
    if name not in ("open", "io.open", "os.fdopen") and not name.endswith(".open"):
        return False
    at = 1 if name in ("open", "io.open", "os.fdopen") else 0  # a method's mode comes first
    mode = ([k.value for k in call.keywords if k.arg == "mode"] + call.args[at : at + 1])[:1]
    return bool(mode) and not (isinstance(mode[0], ast.Constant)
                               and set(str(mode[0].value)).isdisjoint("wxa+"))


def file_writers(src: Path) -> list:
    """``file:line:function`` of each call in ``src`` that writes a file
    (see ``_writes``), with the innermost function around it."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # call -> function; ast.walk visits an inner function after its outer one
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(node): scope.name for node in ast.walk(scope)})
        found += [f"{path.name}:{node.lineno}:{owner.get(id(node), '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call) and _writes(node)]
    return sorted(found, key=lambda hit: (hit.split(":")[0], int(hit.split(":")[1])))


def test_one_function_writes_files():
    """Every artifact goes through ``dataio.write_text``, which makes a file
    complete or absent and writes line ends as they are; no other code in
    the package opens a file for writing."""
    hits = file_writers(ROOT / "src" / "hmdn")
    assert [(hit.split(":")[0], hit.split(":")[2]) for hit in hits] == [("dataio.py", "write_text")]


def test_writer_scan_sees_every_spelling(tmp_path):
    """The scan flags each way to write a file and leaves reads alone."""
    (tmp_path / "sample.py").write_text(textwrap.dedent('''
        def writers(path, mode, doc, fh):
            open(path, "w")
            open(path, mode="a", encoding="utf-8")
            io.open(path, "x")
            open(path, "r+b")
            open(path, mode)
            path.open("w")
            path.write_text("text")
            path.write_bytes(b"")
            json.dump(doc, fh)
            os.open(path, os.O_WRONLY)
            def inner():
                os.fdopen(3, "wb")
        def readers(path, doc):
            open(path)
            open(path, "r", encoding="utf-8")
            open(path, mode="rb")
            path.open()
            json.dumps(doc)
            path.read_text()
    '''))
    assert file_writers(tmp_path) == [f"sample.py:{line}:writers" for line in range(3, 13)] + [
        "sample.py:14:inner"]
    (tmp_path / "sample.py").write_text("dataio.write_text(path, chunks)\n")
    assert file_writers(tmp_path) == []


# what the writer and the readers of an artifact layout spell from one
# definition: the dump's section heads, the illuminance column prefixes,
# and the scene file's room and access-point number keys
DUMP_HEADS = ("baseline estimate", "baseline sample", "hmdn estimate", "hmdn candidate")
LUX_PREFIXES = ("LUX_", "LUXN_")
SCENE_KEYS = ("width", "depth", "phone_height", "ceiling_height", "tx_power",
              "path_loss_exponent", "shadow_sigma")


def string_constants(src: Path) -> list:
    """``(file, function, text)`` of each string constant in ``src``'s
    modules, the parts of f-strings included, with the innermost function
    around it. Docstrings and the text of a ``raise`` statement (the prose
    of error messages) are left out."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip, owner = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    skip.add(id(node.body[0].value))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(inner): node.name for inner in ast.walk(node)})
            if isinstance(node, ast.Raise):
                skip.update(id(inner) for inner in ast.walk(node))
        found += [(path.name, owner.get(id(node), "<module>"), node.value)
                  for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in skip]
    return found


def spelled(strings: list, word: str) -> list:
    """The entries of ``strings`` whose text holds ``word`` as a whole word,
    or, for a prefix ending in '_', at the start of one."""
    pattern = re.compile(rf"(?<!\w){re.escape(word)}" + ("" if word.endswith("_") else r"(?!\w)"))
    return [entry for entry in strings if pattern.search(entry[2])]


def test_each_layout_is_spelled_in_one_place():
    """The dump's section heads and the illuminance column prefixes are
    each spelled once, and the scene file's writer and reader spell no room
    or access-point key, so a layout changes in one place."""
    strings = string_constants(ROOT / "src" / "hmdn")
    for word in DUMP_HEADS + LUX_PREFIXES:
        assert len(spelled(strings, word)) == 1, (word, spelled(strings, word))
    in_scene = [text for _, function, text in strings
                if function in ("scene_to_dict", "scene_from_dict")]
    assert set(in_scene).isdisjoint(SCENE_KEYS), in_scene


def test_layout_scan_sees_every_spelling(tmp_path):
    """The scan reads f-string parts and keys, and skips docstrings and the
    text of raise statements; a word inside a longer word is not spelled."""
    (tmp_path / "sample.py").write_text(textwrap.dedent('''
        """A module naming the hmdn candidate lines and LUX_ columns."""
        def scene_to_dict(scene, name, line):
            """The room's width."""
            if not line:
                raise ValueError(f"no LUX_{name} column, no baseline sample")
            return {"width": scene.width, "col": f"LUX_{name}", "head": "hmdn estimates"}
    '''))
    strings = string_constants(tmp_path)
    assert [text for _, _, text in spelled(strings, "LUX_")] == ["LUX_"]
    assert spelled(strings, "hmdn estimate") == spelled(strings, "baseline sample") == []
    assert ("sample.py", "scene_to_dict", "width") in strings
