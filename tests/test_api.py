"""The public surface of the package: what ``hmdn`` exports, and that the
names retired in favour of the batched kernels stay gone."""

import importlib
import pkgutil

import pytest

import hmdn

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
# and the fingerprint column schema that nothing set
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
    assert not hasattr(importlib.import_module("hmdn.evaluate"), "dump_metadata")
