"""Property tests of the two JSON inputs: config-file values read against
the flags' own parsers for every option of every command, values outside
the range of each numeric option given as a flag or a config value, scene
files saved and loaded back, and mutated scene files fed to ``hmdn
simulate``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hmdn import cli, scenario
from hmdn.errors import LocatedError, ParseError
from hmdn.numcore import positive_float, positive_int, seed64, unit_fraction

OPTIONS = [
    (command, flag, parse_kwargs)
    for command, options in cli._OPTIONS.items()
    for flag, _, parse_kwargs in options
]


def quiet(func, *args):
    """(result or raised exception, stderr) of a call with output captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            result = func(*args)
        except (cli.UsageError, SystemExit) as exc:
            result = exc
    return result, err.getvalue()


def merged(command, argv, config=None):
    """The options a command runs with, or the exception that stops it:
    SystemExit for a flag argparse rejects, UsageError for a config value."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path), *argv]

        def parse_and_merge():
            return cli._merge_options(command, cli.build_parser().parse_args([command, *argv]))

        return quiet(parse_and_merge)[0]


# text in range for each type the flags read with
IN_RANGE = {
    positive_int: st.integers(1, 2**31 - 1).map(str),
    seed64: st.integers(0, 2**64 - 1).map(str),
    positive_float: st.one_of(st.floats(0, exclude_min=True, allow_infinity=False).map(repr),
                              st.floats(1e-6, 1e6).map("{:e}".format)),
    unit_fraction: st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
    cli.widths: st.lists(st.integers(1, 10**6).map(str), max_size=4).map(",".join),
    cli.text: st.one_of(st.text(st.characters(exclude_characters="\0")),
                        st.integers().map(str)),
}
# the text outside each numeric domain: not a number of its kind, or past a bound
OUT_OF_RANGE = {
    positive_int: ["0", "-1", "nan", "inf", str(2**31), str(2**62), str(2**64)],
    seed64: ["-1", "nan", "inf", str(2**64)],
    positive_float: ["0", "-1", "nan", "inf"],
    unit_fraction: ["0", "-1", "nan", "inf", str(2**64), "1"],
}


def flag_text(parse_kwargs):
    """Text the flag takes."""
    if "choices" in parse_kwargs:
        return st.sampled_from(parse_kwargs["choices"])
    return IN_RANGE[parse_kwargs["type"]]


@st.composite
def spelled_value(draw):
    """(command, flag, argv, config value) for one option, the value spelled
    as the text the flag takes, as a JSON string or as a JSON number."""
    command, flag, parse_kwargs = draw(st.sampled_from(OPTIONS))
    if parse_kwargs == cli._SWITCH:
        on = draw(st.booleans())
        return command, flag, [flag] if on else [], on
    text = draw(flag_text(parse_kwargs))
    value = text
    if parse_kwargs["type"] in OUT_OF_RANGE and draw(st.booleans()):
        value = json.loads(text)
    return command, flag, [f"{flag}={text}"], value


@settings(max_examples=300)
@given(spelled_value())
def test_config_value_spelled_as_flag_text_merges_as_the_flag(case):
    command, flag, argv, value = case
    from_flag = merged(command, argv)
    assert isinstance(from_flag, dict)
    assert repr(merged(command, [], {cli._dest(flag): value})) == repr(from_flag)


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["10.0", "1e3", " 7 ", "-3", "nan", "inf", "", "true", "g1", "powed",
                     "relu", "sgd", "log", "all", "0,1"]),
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)


@settings(max_examples=300)
@given(st.sampled_from(OPTIONS), json_value)
def test_random_config_value_is_read_as_its_flag_or_exits_2(option, value):
    command, flag, parse_kwargs = option
    key = cli._dest(flag)
    from_config = merged(command, [], {key: value})
    if parse_kwargs == cli._SWITCH:
        accepted = isinstance(value, bool)
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        # the flag reads the same text, and must agree
        text = value if isinstance(value, str) else repr(value)
        from_flag = merged(command, [f"{flag}={text}"])
        accepted = isinstance(from_flag, dict)
        if accepted:
            assert repr(from_config) == repr(from_flag)
    else:
        accepted = False
    assert isinstance(from_config, dict) == accepted, (from_config, value)
    if accepted:
        return
    assert isinstance(from_config, cli.UsageError)
    assert Path(from_config.path).name == "cfg.json" and from_config.key == key
    assert (from_config.line, from_config.column) == (None, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code, err = quiet(cli.main, [command, "--config", str(path)])
    assert code == 2
    assert err == f"error: {path}: {key}: {from_config.message}\n"


DOMAIN_OPTIONS = [(c, f, kw["type"]) for c, f, kw in OPTIONS if kw.get("type") in OUT_OF_RANGE]
OUTPUT = {"simulate": "--out-dir", "train": "--model-out", "predict": "--out-dir",
          "evaluate": "--out-dir"}


def test_every_numeric_flag_is_typed_with_a_domain():
    assert {flag for _, flag, _ in DOMAIN_OPTIONS} == {
        "--seed", "--n-train", "--n-test", "--train-fraction", "--components", "--learning-rate",
        "--epochs", "--batch-size", "--sigma-floor", "--m", "--n", "--bootstrap",
    }


@settings(max_examples=200)
@given(st.sampled_from(DOMAIN_OPTIONS), st.data())
def test_out_of_range_value_exits_2_naming_the_option_and_writes_nothing(option, data):
    command, flag, domain = option
    text = data.draw(st.sampled_from(OUT_OF_RANGE[domain]))
    as_config = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, OUTPUT[command], str(Path(tmp) / "new" / "out")]
        if as_config:
            path = Path(tmp) / "cfg.json"
            value = data.draw(st.sampled_from(
                [text, json.loads(text.replace("nan", "NaN").replace("inf", "Infinity"))]))
            path.write_text(json.dumps({cli._dest(flag): value}))
            argv += ["--config", str(path)]
        else:
            argv.append(f"{flag}={text}")
        code, err = quiet(cli.main, argv)
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert code == 2
    assert written == (["cfg.json"] if as_config else [])
    if as_config:
        reason = f"invalid {domain.__name__} value: {str(value)!r}"
        assert err == f"error: {path}: {cli._dest(flag)}: {reason}\n"
    else:
        *usage, last = err.splitlines()
        assert last.startswith(f"hmdn {command}: error: argument {flag}: "), err
        assert all("error" not in line for line in usage), err


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(0, allow_infinity=False)
positive = st.floats(0, exclude_min=True, allow_infinity=False)
position = st.tuples(finite, finite, finite)


@st.composite
def scenes(draw):
    """Valid scenes: positive room lengths with the phone below the ceiling,
    one to three of each condition, light and access point, any finite
    positions and powers."""
    phone, ceiling = draw(st.tuples(positive, positive).filter(lambda h: h[0] != h[1]))
    names = draw(st.lists(st.sampled_from(scenario.CONDITION_NAMES), min_size=1, max_size=3,
                          unique=True))
    return scenario.Scene(
        room_width=draw(positive),
        room_depth=draw(positive),
        phone_height=min(phone, ceiling),
        ceiling_height=max(phone, ceiling),
        conditions=[scenario.Condition(name=n, ambient=draw(non_negative)) for n in names],
        lights=draw(st.lists(st.builds(
            scenario.LightSource,
            position=position,
            intensity=st.dictionaries(st.sampled_from(names), non_negative),
            kind=st.sampled_from(scenario.LIGHT_KINDS),
        ), min_size=1, max_size=3)),
        access_points=draw(st.lists(st.builds(
            scenario.AccessPoint,
            position=position,
            tx_power=finite,
            path_loss_exponent=positive,
            shadow_sigma=non_negative,
        ), min_size=1, max_size=3)),
    )


def saved_and_loaded(scene):
    """(scene read back, the file's text, the text saved from the read-back scene)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "scene.json", Path(tmp) / "again.json"
        scenario.save_scene(scene, path)
        back = scenario.load_scene(path)
        scenario.save_scene(back, again)
        return back, path.read_text(), again.read_text()


@settings(max_examples=150)
@given(scenes())
def test_saved_scene_loads_back_equal(scene):
    back, text, again = saved_and_loaded(scene)
    assert back == scene
    assert again == text


def test_bundled_room_saves_and_loads_back_equal():
    scene = scenario.paper_room_scene()
    back, text, again = saved_and_loaded(scene)
    assert back == scene
    assert again == text


def _base_scene() -> dict:
    return scenario.scene_to_dict(scenario.paper_room_scene())


def _paths(node, prefix=()):
    """Every (key or index) path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


BASE_PATHS = list(_paths(_base_scene()))


@st.composite
def mutated_scene(draw):
    """The bundled scene's text after one edit: a value replaced by any JSON
    value (or a NaN/Infinity token), a key dropped, or the text cut short."""
    doc = _base_scene()
    kind = draw(st.sampled_from(["replace", "replace", "drop", "constant", "truncate"]))
    path = draw(st.sampled_from(BASE_PATHS[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = draw(json_value)
    elif kind == "constant":
        parent[path[-1]] = "@@constant@@"
    text = json.dumps(doc, indent=2)
    text = text.replace('"@@constant@@"', draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])))
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=150)
@given(mutated_scene())
def test_mutated_scene_exits_0_or_3_with_one_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(text)
        try:
            scenario.load_scene(str(path))
            rejected = None
        except LocatedError as exc:
            rejected = exc
        code, err = quiet(cli.main, ["simulate", "--scene", str(path), "--out-dir", tmp,
                                     "--n-train", "2", "--n-test", "1"])
    assert code in (0, 3), err
    assert "Traceback" not in err
    if rejected is not None:  # a line and column exactly for text that is not JSON
        assert rejected.path == str(path) and rejected.key is None
        located = (rejected.line is not None, rejected.column is not None)
        assert located == (isinstance(rejected, ParseError),) * 2
        assert code == 3 and err == f"error: {rejected}\n"
    elif code == 3:
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    else:
        assert err == ""
