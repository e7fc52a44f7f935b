"""Command-line front door: simulate datasets, train the two networks, run
predictions with plots, and evaluate baseline vs hierarchical estimates.

Every command is a pure function of its inputs on disk, its flags, and the
master seed: rerunning writes byte-identical outputs (none of the formats
carry timestamps). Per-stage random streams derive from the master seed
and the stage name, so stages can be rerun individually without disturbing
each other.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, evaluate, mdn, pipeline, plots, scenario
from .errors import (DomainError, LocatedError, NumericError, ParseError, SchemaError,
                     ShapeError, located)
from .numcore import (Rng, checked, decimal, fmt17, positive_float, positive_int, seed64,
                      unit_fraction)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(LocatedError):
    """Bad flag/argument combination or config file; maps to exit code 2."""


_SWITCH = {"action": "store_const", "const": True}


def text(value: str) -> str:
    """Option text the OS takes as a path: no NUL byte, nothing unencodable."""
    if b"\0" in os.fsencode(value):
        raise ValueError(value)
    return value


def _opt(flag: str, default=None, **parse_kwargs):
    """One option of one command: its flag, its built-in default, and how
    argparse reads it (as ``text`` unless it is a switch or says otherwise).
    The option's dest, which is also its config-file key, is the flag
    without the leading dashes and with '-' as '_'."""
    if parse_kwargs != _SWITCH:
        parse_kwargs.setdefault("type", text)
    return flag, default, parse_kwargs


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def widths(spelling: str) -> tuple:
    """Hidden-layer widths from comma-separated positive integers; empty
    text, and only that, gives an affine network. Errors print the
    function's name, as in ``invalid widths value: 'a,b'``."""
    return tuple(positive_int(w) for w in spelling.split(",")) if spelling else ()


_SEED = _opt("--seed", 0, type=seed64)
# what a live prediction reads: predict and evaluate default alike, so they
# draw the same predictions, and evaluate --from-dump takes none of these
_LIVE = (
    _opt("--g1"),
    _opt("--g2"),
    _opt("--data"),
    _opt("--conditions", "all", help="'all' or comma-separated condition names"),
    _opt("--m", pipeline.HmdnPipeline.n_candidates, type=positive_int),
    _opt("--n", pipeline.HmdnPipeline.n_selected, type=positive_int),
    _SEED,
)

# every option of every command, in --help order; --config is added to each
_OPTIONS = {
    "simulate": (
        _opt("--scene", help="scene JSON (default: bundled paper room)"),
        _opt("--out-dir"),
        _opt("--n-train", 100, type=positive_int),
        _opt("--n-test", 50, type=positive_int),
        _SEED,
        _opt("--measurement-noise", False, **_SWITCH),
        _opt("--augment", help="real fingerprint CSV to augment with simulated lux"),
        _opt("--train-fraction", 0.8, type=unit_fraction),
    ),
    "train": (
        _opt("--which", choices=tuple(dataio.RECODINGS)),
        _opt("--data"),
        _opt("--model-out"),
        _opt("--log-out"),
        _SEED,
        _opt("--normalize", "zero_one", choices=dataio.RECODINGS["g1"]),
        _opt("--components", type=positive_int),  # g1 -> 5, g2 -> 3 unless given
        _opt("--hidden", mdn.MdnConfig.hidden_layers, type=widths,
             help="comma-separated hidden widths, empty for affine"),
        _opt("--activation", mdn.MdnConfig.hidden_activation, choices=mdn.ACTIVATIONS),
        _opt("--optimizer", mdn.MdnConfig.optimizer, choices=mdn.OPTIMIZERS),
        _opt("--learning-rate", mdn.MdnConfig.learning_rate, type=positive_float),
        _opt("--epochs", mdn.MdnConfig.epochs, type=positive_int),
        _opt("--batch-size", mdn.MdnConfig.batch_size, type=positive_int),
        _opt("--sigma-floor", mdn.MdnConfig.sigma_floor, type=positive_float),
        _opt("--lux-columns"),
        _opt("--lux-transform", "log", choices=dataio.RECODINGS["g2"]),
    ),
    "predict": (
        *_LIVE,
        _opt("--out-dir"),
        _opt("--scene"),
        _opt("--records", "0,1,2", help="'all' or comma-separated record indices"),
        _opt("--weighted", False, **_SWITCH),
        _opt("--no-plots", False, **_SWITCH),
    ),
    "evaluate": (
        *_LIVE,
        _opt("--out-dir"),
        _opt("--bootstrap", evaluate.N_RESAMPLES, type=positive_int),
        _opt("--from-dump"),
    ),
}


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    parsers = {_dest(flag): parse_kwargs for flag, _, parse_kwargs in _OPTIONS[command]}
    opts = {_dest(flag): default for flag, default, _ in _OPTIONS[command]}
    config_path = getattr(args, "config", None)
    if config_path:
        with located(config_path), open(config_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise UsageError(f"not a JSON file: {err.msg}", line=err.lineno,
                                 column=err.colno) from None
            except ValueError as err:
                raise UsageError(f"not a JSON file: {err}") from None
            if not isinstance(doc, dict):
                raise UsageError("config file must hold a JSON object")
            for key, value in doc.items():
                with located(key=key):
                    if key not in parsers:
                        raise UsageError("unknown option")
                    opts[key] = _config_value(value, parsers[key])
    for key in opts:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
    return opts


def _config_value(value, parse_kwargs: dict):
    """A config-file value read as its flag reads the same text: a switch
    takes JSON true or false, any other option a string or number whose text
    passes the flag's type and choices. Anything else is a UsageError."""
    switch = parse_kwargs == _SWITCH
    if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
        wanted = "true or false" if switch else "a string or a number"
        raise UsageError(f"expected {wanted}, got {json.dumps(value)}")
    if switch:
        return value
    spelling = str(value)
    convert = parse_kwargs["type"]
    try:
        value = convert(spelling)
    except ValueError:
        raise UsageError(f"invalid {convert.__name__} value: {spelling!r}") from None
    choices = parse_kwargs.get("choices", (value,))
    if value not in choices:
        raise UsageError(f"invalid choice: {spelling!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _require(opts: dict, *keys) -> None:
    for key in keys:
        if opts[key] is None:
            raise UsageError(f"{_flag(key)} is required")


def _load_scene(opts) -> scenario.Scene:
    if opts.get("scene"):
        return scenario.load_scene(opts["scene"])
    return scenario.paper_room_scene()


def _out_dir(opts) -> Path:
    out = Path(opts["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model_file(path_str: str, which: str) -> mdn.MdnModel:
    """The model ``--<which>`` names, which must be one ``hmdn train --which
    <which>`` wrote: its recorded recoding is what prediction applies."""
    path = Path(path_str)
    train = f"`hmdn train --which {which} --data <train.csv> --model-out {path}`"
    if not path.exists():
        raise FileNotFoundError(f"model file {path} not found; train it first with {train}")
    model = dataio.load_model(path)
    if not model.preprocessing:
        raise SchemaError(f"--{which} takes a {which} model, this is a model built by the "
                          f"library with no recorded role; retrain it with {train}", path=path)
    role = model.preprocessing[0]
    if role != which:
        raise SchemaError(f"--{which} takes a {which} model, this is a {role} model", path=path)
    return model


def _name_list(opts: dict, key: str, noun: str) -> list:
    """The non-blank names of a comma-separated option value, at least one."""
    names = [t.strip() for t in opts[key].split(",") if t.strip()]
    if not names:
        raise UsageError(f"{_flag(key)} must name at least one {noun}")
    return names


def _lux_columns(table: dataio.FingerprintTable, transform: str, columns=None) -> dict:
    """key -> per-record observable of the CSV column ``columns[key]``; by
    default every ``LUX_<condition>`` column, keyed by its condition, in CSV
    order. The caller sets the CSV's path on an error."""
    if columns is None:
        columns = _conditions(table)
        if not columns:
            raise SchemaError("no LUX_<condition> columns")
    return {k: dataio.lux_transform(table.metadata_floats(c), transform)
            for k, c in columns.items()}


def _conditions(table: dataio.FingerprintTable) -> dict:
    """condition -> its ``LUX_<condition>`` column, for each such column in CSV order."""
    return {c.removeprefix(dataio.LUX_PREFIX): c for c in table.metadata
            if c.startswith(dataio.LUX_PREFIX)}


def _illuminance_columns(lux: dict, lux_noisy) -> dict:
    """The ``LUX_<condition>`` column of each noiseless reading, then the
    ``LUXN_<condition>`` column of each noisy one, if there are any."""
    readings = ((dataio.LUX_PREFIX, lux), (dataio.LUXN_PREFIX, lux_noisy or {}))
    return {prefix + name: values
            for prefix, by_name in readings for name, values in by_name.items()}


def cmd_simulate(args) -> int:
    opts = _merge_options("simulate", args)
    _require(opts, "out_dir")
    scene = _load_scene(opts)
    master = Rng(opts["seed"])
    noise = opts["measurement_noise"]

    if opts["augment"]:
        return _simulate_augment(opts, scene, master, noise)

    out = _out_dir(opts)
    for name, count, rng in (
        ("train", opts["n_train"], master.spawn("simulate", "train")),
        ("test", opts["n_test"], master.spawn("simulate", "test")),
    ):
        ds = scenario.generate_dataset(scene, count, rng, measurement_noise=noise)
        path = out / f"{name}.csv"
        extra = _illuminance_columns(ds.lux, ds.lux_noisy)
        dataio.write_dataset_csv(path, ds.wap_names, ds.rssi, ds.positions, extra=extra)
        print(f"{name}: {ds.n_records} records -> {path}")
    return EXIT_OK


def _simulate_augment(opts, scene, master: Rng, noise: bool) -> int:
    """Graft simulated illumination onto a real fingerprint CSV: coordinates
    are mapped into the room, lux columns appended, originals preserved under
    ORIG_ columns, and the result split into train/test files. The CSV is
    read and mapped before the output directory is created."""
    table = dataio.load_csv(opts["augment"])
    rng = master.spawn("simulate", "augment") if noise else None
    with located(opts["augment"]):
        mapped, lux, lux_noisy = scenario.augment_with_illuminance(table.coords, scene, rng)
    columns = {"ORIG_" + c: values for c, values in zip(dataio.COORD_COLUMNS, table.coords.T)}
    columns |= _illuminance_columns(lux, lux_noisy)
    metadata = {**table.metadata, **{c: tuple(map(fmt17, v)) for c, v in columns.items()}}
    augmented = dataio.FingerprintTable(
        wap_names=table.wap_names,
        rssi=table.rssi,
        coords=mapped,
        metadata=metadata,
    )
    spec = dataio.SplitSpec(train_fraction=opts["train_fraction"], seed=opts["seed"])
    train_part, test_part = dataio.split(augmented, spec)
    out = _out_dir(opts)
    for name, part in (("train", train_part), ("test", test_part)):
        path = out / f"{name}.csv"
        dataio.table_to_csv(part, path)
        print(f"{name}: {part.n_records} records (augmented) -> {path}")
    return EXIT_OK


def _training_pairs(table, which: str, recoding: str, opts):
    if which == "g1":
        X = dataio.normalize_rssi(table, recoding).features
        Y = table.coords
    else:
        named = None
        if opts["lux_columns"] is not None:
            # keyed by position, so a column named twice is pooled twice
            named = dict(enumerate(_name_list(opts, "lux_columns", "column")))
        with located(opts["data"]):
            columns = list(_lux_columns(table, recoding, named).values())
        # pool conditions: every record contributes one (position, lux) pair
        # per column, which is what makes position -> lux one-to-many
        X = np.vstack([table.coords] * len(columns))
        Y = np.concatenate(columns).reshape(-1, 1)
    return X, Y


def cmd_train(args) -> int:
    opts = _merge_options("train", args)
    _require(opts, "which", "data", "model_out")
    which = opts["which"]
    recoding = opts["normalize"] if which == "g1" else opts["lux_transform"]
    model_out = Path(opts["model_out"])
    log_out = Path(opts["log_out"] or f"{model_out}.log.csv")
    for path in (model_out, log_out):
        if path.is_dir():
            raise IsADirectoryError(f"{path}: output path is a directory")
    table = dataio.load_csv(opts["data"])
    X, Y = _training_pairs(table, which, recoding, opts)

    components = opts["components"]
    if components is None:
        components = 5 if which == "g1" else 3
    config = mdn.MdnConfig(
        input_dim=X.shape[1],
        target_dim=Y.shape[1],
        n_components=components,
        hidden_layers=opts["hidden"],
        hidden_activation=opts["activation"],
        learning_rate=opts["learning_rate"],
        optimizer=opts["optimizer"],
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        sigma_floor=opts["sigma_floor"],
        seed=Rng(opts["seed"]).spawn("train", which).seed,
    )
    for path in (model_out, log_out):
        path.parent.mkdir(parents=True, exist_ok=True)

    model = dataclasses.replace(mdn.train((X, Y), config), preprocessing=(which, recoding))
    dataio.save_model(model, model_out)
    epochs = np.arange(1, len(model.training_log) + 1)
    dataio._write_csv(log_out, ("epoch", "nll"), np.column_stack([epochs, model.training_log]))
    print(f"{which}: trained {len(model.training_log)} epochs -> {model_out}")
    print(f"final nll {format(model.training_log[-1], '.6g')}")
    return EXIT_OK


def _prediction_inputs(opts):
    if opts["n"] > opts["m"]:
        raise UsageError(f"--n {opts['n']} exceeds --m {opts['m']}: "
                         "the selection is taken from the candidates")
    table = dataio.load_csv(opts["data"])
    g1 = _load_model_file(opts["g1"], "g1")
    g2 = _load_model_file(opts["g2"], "g2")
    features = dataio.normalize_rssi(table, g1.preprocessing[1]).features
    if features.shape[1] != g1.config.input_dim:
        raise SchemaError(
            f"dataset has {features.shape[1]} WAP features, g1 expects {g1.config.input_dim}",
            path=opts["data"],
        )
    columns = _condition_columns(table, opts)
    with located(opts["data"]):
        lux = _lux_columns(table, g2.preprocessing[1], columns)
        for condition in lux:
            checked(dataio.LUX_PREFIX + condition, pipeline.condition_name, condition)
    pipe = pipeline.HmdnPipeline(g1=g1, g2=g2, n_candidates=opts["m"], n_selected=opts["n"])
    return table, pipe, features, lux


def _condition_columns(table: dataio.FingerprintTable, opts):
    """condition -> ``LUX_<condition>`` column for each condition that
    ``--conditions`` names, or None for all. A condition without a column is
    a usage error naming the CSV and listing the conditions it has."""
    if opts["conditions"] == "all":
        return None
    columns = {c: dataio.LUX_PREFIX + c for c in _name_list(opts, "conditions", "condition")}
    missing = [c for c, column in columns.items() if column not in table.metadata]
    if missing:
        has = sorted(_conditions(table))
        raise UsageError(f"no LUX_{missing[0]} column for condition {missing[0]!r} (has {has})",
                         path=opts["data"])
    return columns


def _parse_records(opts, n_records: int):
    if opts["records"] == "all":
        return list(range(n_records))
    ids = _name_list(opts, "records", "record")
    try:
        ids = [decimal(t) for t in ids]
    except ValueError:
        raise UsageError(
            f"--records must be 'all' or comma-separated indices, got {opts['records']!r}"
        ) from None
    bad = [i for i in ids if not 0 <= i < n_records]
    if bad:
        raise UsageError(f"record index {bad[0]} out of range (dataset has {n_records})")
    if len(set(ids)) != len(ids):
        repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise UsageError(f"record index {repeated} is given more than once")
    return ids


def cmd_predict(args) -> int:
    opts = _merge_options("predict", args)
    _require(opts, "g1", "g2", "data", "out_dir")
    table, pipe, features, lux = _prediction_inputs(opts)
    record_ids = _parse_records(opts, table.n_records)
    scene = None if opts["no_plots"] else _load_scene(opts)
    master_seed = opts["seed"]

    records = pipeline.run_predictions(
        pipe,
        features,
        table.coords,
        lux,
        record_ids,
        master_seed,
        weighted=opts["weighted"],
    )
    out = _out_dir(opts)
    dump_path = out / "predictions.txt"
    pipeline.write_predictions(
        dump_path, records, master_seed, pipe.n_candidates, pipe.n_selected
    )
    print(f"predictions: {len(records)} -> {dump_path}")

    if scene is not None:
        for r in records:
            plot_path = out / f"plot_r{r.record_id:03d}_{r.condition}.svg"
            plots.write_scatter_svg(plot_path, scene, r)
        print(f"plots: {len(records)} svg files -> {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    opts = _merge_options("evaluate", args)
    _require(opts, "out_dir")
    n_boot = opts["bootstrap"]
    live = [flag for flag, default, _ in _LIVE if opts[_dest(flag)] != default]
    if opts["from_dump"] and live:
        raise UsageError(f"{live[0]} does not apply to --from-dump, which reads "
                         "the predictions and master seed from the dump")

    if opts["from_dump"]:
        metrics = evaluate.metrics_from_dump(opts["from_dump"], n_boot)
    else:
        _require(opts, "g1", "g2", "data")
        table, pipe, features, lux = _prediction_inputs(opts)
        records = pipeline.run_predictions(
            pipe, features, table.coords, lux, range(table.n_records), opts["seed"]
        )
        metrics = evaluate.compute_metrics(records, opts["seed"], n_boot)
    out = _out_dir(opts)

    table_text = evaluate.format_metrics_table(metrics)
    dataio.write_text(out / "metrics.txt", [table_text + "\n"])
    evaluate.write_metrics_csv(metrics, out / "metrics.csv")
    print(table_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmdn",
        description="mixture density networks, hierarchically composed, on a synthetic room",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("simulate", cmd_simulate, "generate synthetic train/test fingerprint datasets"),
        ("train", cmd_train, "train one of the two networks"),
        ("predict", cmd_predict, "dump candidate clouds, selections, and plots"),
        ("evaluate", cmd_evaluate, "error metrics: baseline vs hierarchical"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=text, help="JSON file of options (flags override it)")
        p.set_defaults(func=func)
        for flag, _, parse_kwargs in _OPTIONS[name]:
            p.add_argument(flag, **parse_kwargs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, SchemaError, ParseError, ShapeError, DomainError, OSError,
            NumericError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, UsageError):
            return EXIT_USAGE
        return EXIT_NUMERIC if isinstance(err, NumericError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
