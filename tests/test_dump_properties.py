"""Property and fuzz tests of the dump format: the writer's float template,
write -> parse -> write round trips, and corrupted dumps fed to the CLI."""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hmdn import cli
from hmdn.errors import LocatedError
from hmdn.evaluate import metrics_from_dump
from hmdn.numcore import fmt17
from hmdn.pipeline import (
    HmdnEstimate,
    PredictionRecord,
    _render_record,
    parse_predictions,
    write_predictions,
)

from util import make_dump_records, reference_select_top, reference_write_predictions


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan]

any_float = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


def one_candidate_record(x: float) -> PredictionRecord:
    est = HmdnEstimate(
        estimate=np.array([x]),
        candidates=np.array([[x]]),
        scores=np.array([x]),
        selected_indices=np.array([0]),
    )
    return PredictionRecord(
        record_id=0,
        condition="sunny",
        truth=np.array([x]),
        z=np.array([x]),
        baseline_samples=np.array([[x]]),
        baseline_estimate=np.array([x]),
        hmdn=est,
    )


@settings(max_examples=150)
@given(any_float)
def test_writer_template_renders_floats_as_fmt17(x):
    text = fmt17(x)
    assert text == format(x, ".17g")
    lines = _render_record(one_candidate_record(x)).splitlines()
    assert lines == [
        f"record 0 sunny truth {text} z {text}",
        f"baseline estimate {text}",
        f"baseline sample {text}",
        f"hmdn estimate {text} fallback=0",
        f"hmdn candidate {text} score={text} selected=1",
    ]


finite = st.floats(allow_nan=False, allow_infinity=False)
score = st.one_of(st.sampled_from([-math.inf, math.nan, 0.0, -1.5]), finite)


@st.composite
def dump_records(draw):
    """(records, m, n): 1-3 records of one dimension with the selection
    prediction makes, ties and all-non-finite (fallback) scores included."""
    dim, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n = draw(st.integers(1, m))
    records = []
    for rid in range(draw(st.integers(1, 3))):
        def coords(rows):
            return np.array(draw(st.lists(finite, min_size=rows * dim, max_size=rows * dim)))

        scores = np.array(draw(st.lists(score, min_size=m, max_size=m)))
        selected, fallback = reference_select_top(scores, n)
        samples = coords(m).reshape(m, dim)
        est = HmdnEstimate(
            estimate=coords(1),
            candidates=coords(m).reshape(m, dim),
            scores=scores,
            selected_indices=selected,
            underflow_fallback=fallback,
        )
        records.append(
            PredictionRecord(
                record_id=draw(st.integers(0, 10**6)),
                condition=draw(st.sampled_from(["sunny", "cloudy", "night_lights", "50%lit"])),
                truth=coords(1),
                z=np.array(draw(st.lists(finite, min_size=1, max_size=2))),
                baseline_samples=samples,
                baseline_estimate=coords(1),
                hmdn=est,
            )
        )
    return records, m, n


@settings(max_examples=150)
@given(dump_records(), st.integers(0, 2**64 - 1))
def test_write_parse_write_is_byte_identical(case, seed):
    records, m, n = case
    with tempfile.TemporaryDirectory() as tmp:
        first, ref, second = (Path(tmp) / name for name in ("first", "ref", "second"))
        write_predictions(first, records, seed, m, n)
        reference_write_predictions(ref, records, seed, m, n)
        parsed = parse_predictions(first)
        write_predictions(second, parsed, seed, m, n)
        assert first.read_bytes() == ref.read_bytes() == second.read_bytes()
    for want, got in zip(records, parsed, strict=True):
        assert (got.record_id, got.condition) == (want.record_id, want.condition)
        assert np.array_equal(got.hmdn.selected_indices, want.hmdn.selected_indices)
        assert got.hmdn.underflow_fallback == want.hmdn.underflow_fallback


def _base_dump() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.txt"
        write_predictions(path, make_dump_records(7, 2, m=4, n=2), 55, m=4, n=2)
        return path.read_text().splitlines(keepends=True)


BASE_DUMP = _base_dump()


@st.composite
def mutated_dump(draw):
    lines = BASE_DUMP.copy()
    k = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["truncate", "drop", "swap_field", "swap_lines"]))
    if kind == "truncate":
        return kind, lines[:k]
    if kind == "drop":
        return kind, lines[:k] + lines[k + 1 :]
    if kind == "swap_lines":
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
        return kind, lines
    fields = lines[k].split()
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(["x", "nan"]))
    lines[k] = " ".join(fields) + "\n"
    return kind, lines


@settings(max_examples=100)
@given(mutated_dump())
def test_corrupted_dump_exits_0_or_3_with_one_line(case):
    """Any edit exits 0 or 3; a cut or a dropped line, which the record
    count and the fixed block layout expose wherever they fall, exits 3.
    A rejected dump's error names the file, and a line it has, and is the
    one line the CLI prints."""
    kind, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.txt"
        path.write_text("".join(lines))
        try:
            metrics_from_dump(str(path), 20)
            rejected = None
        except LocatedError as exc:
            rejected = exc
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["evaluate", "--from-dump", str(path), "--out-dir", tmp,
                             "--bootstrap", "20"])
    err = err.getvalue()
    assert code in (0, 3), err
    assert "Traceback" not in err
    if rejected is not None:
        assert rejected.path == str(path) and rejected.column is None
        assert rejected.line is None or 1 <= rejected.line <= len(lines) + 1
        assert code == 3 and err == f"error: {rejected}\n"
    elif code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "" and kind not in ("truncate", "drop")
