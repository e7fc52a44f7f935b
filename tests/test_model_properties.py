"""Property tests of the model file reader: saved models of varied configs
load back byte-identically, mutants of them either load or are rejected
with a SchemaError or ParseError that names the file and the line of
every fault, and a weight is spelled as a dump coordinate is."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmdn.dataio import load_model, save_model
from hmdn.errors import ParseError, SchemaError
from hmdn.pipeline import parse_predictions

from test_dump_properties import BASE_DUMP, CHARACTERS, FIELDS
from util import make_random_model


def _bases() -> dict:
    """name -> a model, each with one config feature the others lack."""
    g1 = ("g1", "zero_one")
    return {
        "affine": dataclasses.replace(make_random_model(1, hidden=()), preprocessing=g1,
                                      training_log=(1.5, 1.25)),
        "relu": dataclasses.replace(make_random_model(2, hidden=(3, 2), activation="relu"),
                                    preprocessing=("g2", "log"), training_log=(0.5,)),
        "sgd": dataclasses.replace(
            make_random_model(3, random_standardize=True), preprocessing=("g1", "powed"),
            config=dataclasses.replace(make_random_model(3).config, optimizer="sgd"),
            training_log=(2.0, -1e-300)),
        "one-component": dataclasses.replace(make_random_model(4, n_components=1),
                                             preprocessing=("g2", "identity"),
                                             training_log=(3.0,)),
        "three-dims": dataclasses.replace(make_random_model(5, target_dim=3), preprocessing=g1,
                                          training_log=(0.25,)),
        "empty-log": dataclasses.replace(make_random_model(6), preprocessing=g1),
        "library": dataclasses.replace(make_random_model(7), training_log=(1.0,)),
    }


def _saved(model) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        return path.read_text()


BASES = {name: _saved(model) for name, model in _bases().items()}


def test_bases_cover_the_layout_variants():
    texts = BASES.values()
    assert any("hidden_layers = \n" in t for t in texts)
    assert any("hidden_activation = relu\n" in t for t in texts)
    assert any("optimizer = sgd\n" in t for t in texts)
    assert any("n_components = 1\n" in t for t in texts)
    assert any("target_dim = 3\n" in t for t in texts)
    assert any(t.endswith("[training_log]\nnll = \n") for t in texts)
    assert any("[preprocessing]" not in t for t in texts)


@pytest.mark.parametrize("name", list(BASES))
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_base_loads_back_and_resaves_byte_identically(tmp_path, name, newline):
    path, again = tmp_path / "model.txt", tmp_path / "again.txt"
    path.write_bytes(BASES[name].replace("\n", newline).encode())
    save_model(load_model(path), again)
    assert again.read_text() == BASES[name]


# edits that change which lines the file has or where they are
STRUCTURAL = ("drop", "duplicate", "swap", "blank", "matrix-header")
# texts put in place of one number: non-finite, huge, and past 2^63
NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "9223372036854775808"]


@st.composite
def mutants(draw):
    """(kind, the base's lines, the mutant's lines), lines without their ends."""
    base = BASES[draw(st.sampled_from(list(BASES)))].splitlines()
    lines = base.copy()
    kind = draw(st.sampled_from([*STRUCTURAL, "number"]))
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), "")
    elif kind == "matrix-header":
        k = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("matrix ")]))
        words = lines[k].split()
        words[draw(st.integers(1, 3))] = draw(st.sampled_from(["0", "1", "7", "x", "-1",
                                                               "4611686018427387904"]))
        lines[k] = " ".join(words)
    else:
        k = draw(st.sampled_from([i for i, ln in enumerate(lines)
                                  if any(w[-1:].isdigit() for w in ln.split(" "))]))
        words = lines[k].split(" ")
        at = draw(st.sampled_from([i for i, w in enumerate(words) if w[-1:].isdigit()]))
        words[at] = draw(st.sampled_from(NUMBERS))
        lines[k] = " ".join(words)
    return kind, base, lines


@settings(max_examples=400)
@given(mutants())
def test_mutant_loads_or_is_rejected_on_its_line(case):
    """A mutant either loads, or raises SchemaError or ParseError with
    ``path`` and ``line`` set, for a structural edit and a value edit alike
    (a non-finite weight or mean, a non-finite or non-positive std
    included). The reader never faults before the first line that differs
    from the saved file."""
    kind, base, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text("".join(ln + "\n" for ln in lines))
        try:
            load_model(path)
            return
        except (SchemaError, ParseError) as err:
            error = err
    assert error.path == path and error.column is None
    assert error.line is not None, (kind, error)
    first = next(i for i, (a, b) in enumerate(zip(base + [None], lines + [None]), 1) if a != b)
    assert first <= error.line <= len(lines) + 1, (kind, error)


@st.composite
def float_token(draw):
    """A field of ``FIELDS``, or a written float with one character
    replaced by one of ``CHARACTERS`` (or one appended)."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIELDS))
    text = draw(st.sampled_from(["0.5", "-1.25e-07", "3", "1e+300", "-0"]))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(CHARACTERS)) + text[at + 1 :]


def read_back(path, write: str, read):
    """The float ``read`` finds in the file ``write`` makes, as its bytes, or
    None when the reader rejects the file."""
    path.write_text(write)
    try:
        return np.float64(read(path)).tobytes()
    except (SchemaError, ParseError):
        return None


@settings(max_examples=400)
@given(float_token())
def test_weight_reads_as_a_dump_coordinate_reads(token):
    """A token in a weight cell loads, with the same value, exactly when
    the dump reader takes it as a coordinate: both files spell numbers
    through ``numcore.float_rows``."""
    lines = BASES["library"].splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("matrix 0 ")) + 1
    lines[row] = " ".join([token, *lines[row].split(" ")[1:]])
    dump = BASE_DUMP.copy()
    dump[6] = " ".join([*dump[6].split(" ")[:2], token, *dump[6].split(" ")[3:]])
    assert dump[6].startswith("baseline sample ")
    with tempfile.TemporaryDirectory() as tmp:
        weight = read_back(Path(tmp) / "model.txt", "".join(lines),
                           lambda path: load_model(path).weights[0][0, 0])
        coordinate = read_back(Path(tmp) / "dump.txt", "".join(dump),
                               lambda path: parse_predictions(path)[0].baseline_samples[0, 0])
    assert weight == coordinate, token
