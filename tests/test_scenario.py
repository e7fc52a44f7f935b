import math

import numpy as np
import pytest

from hmdn import scenario
from hmdn.dataio import NOT_DETECTED
from hmdn.errors import DomainError, ParseError, SchemaError
from hmdn.numcore import Rng
from hmdn.scenario import (
    AccessPoint,
    Condition,
    LightSource,
    Scene,
    generate_dataset,
    illuminance_at,
    load_scene,
    map_coords_into_room,
    paper_room_scene,
    rssi_at,
    save_scene,
    scene_from_dict,
)

from util import raised, where


def simple_scene(lights, aps=None, ambient=0.0):
    return Scene(
        room_width=17.0,
        room_depth=10.0,
        phone_height=1.5,
        ceiling_height=4.0,
        conditions=(Condition(name="sunny", ambient=ambient),),
        lights=tuple(lights),
        access_points=tuple(
            aps or [AccessPoint(position=(8.5, 5.0, 3.0), tx_power=-30.0)]
        ),
    )


def one_light(intensity, position):
    return LightSource(position=position, intensity={"sunny": intensity}, kind="ceiling_point")


class TestIlluminance:
    def test_ambient_floor_with_dark_lights(self):
        scene = simple_scene([one_light(0.0, (8.0, 5.0, 3.0))], ambient=42.5)
        for pos in [(0.0, 0.0), (8.5, 5.0), (17.0, 10.0)]:
            assert illuminance_at(scene, pos, "sunny") == 42.5

    def test_overhead_inverse_square(self):
        # light 2 m above the phone plane, straight overhead: E = I / h^2
        scene = simple_scene([one_light(900.0, (6.0, 4.0, 3.5))])
        assert illuminance_at(scene, (6.0, 4.0), "sunny") == pytest.approx(900.0 / 4.0, rel=1e-12)

    def test_off_axis_matches_vector_geometry_oracle(self):
        scene = simple_scene([one_light(1234.0, (3.0, 7.0, 3.2))], ambient=11.0)
        rng = Rng(40)
        for _ in range(50):
            pos = rng.uniform(2) * [17.0, 10.0]
            # independent path: E = I * cos(theta) / r^2 with explicit vectors
            light = np.array([3.0, 7.0, 3.2])
            point = np.array([pos[0], pos[1], 1.5])
            delta = light - point
            r = float(np.linalg.norm(delta))
            cos_theta = float(np.dot(delta / r, np.array([0.0, 0.0, 1.0])))
            want = 11.0 + 1234.0 * cos_theta / r**2
            assert illuminance_at(scene, pos, "sunny") == pytest.approx(want, rel=1e-12)

    def test_outside_room_rejected(self):
        scene = simple_scene([one_light(100.0, (8.0, 5.0, 3.0))])
        for pos in [(-0.1, 5.0), (17.1, 5.0), (8.0, -1.0), (8.0, 10.5)]:
            with pytest.raises(DomainError):
                illuminance_at(scene, pos, "sunny")

    def test_strictly_decreasing_away_from_foot_point(self):
        scene = simple_scene([one_light(2000.0, (4.0, 5.0, 3.0))], ambient=7.0)
        ts = np.linspace(0.0, 12.0, 60)
        vals = [illuminance_at(scene, (4.0 + t, 5.0), "sunny") for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= 7.0 for v in vals)

    def test_light_below_plane_contributes_nothing(self):
        scene = simple_scene([one_light(5000.0, (8.0, 5.0, 1.0))], ambient=3.0)
        assert illuminance_at(scene, (8.0, 5.0), "sunny") == 3.0

    def test_condition_lookup_by_name_and_object(self):
        scene = paper_room_scene()
        cond = scene.condition("cloudy")
        a = illuminance_at(scene, (4.0, 5.0), "cloudy")
        b = illuminance_at(scene, (4.0, 5.0), cond)
        assert a == b


class TestRssi:
    def test_reference_distance_gives_tx_power(self):
        # AP at phone height, 1 m horizontal distance, no shadowing
        ap = AccessPoint(position=(5.0, 5.0, 1.5), tx_power=-30.0, path_loss_exponent=2.0, shadow_sigma=0.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        assert rssi_at(scene, (6.0, 5.0), Rng(1))[0] == -30.0

    def test_distance_doubling_drops_6dB(self):
        ap = AccessPoint(position=(5.0, 5.0, 1.5), tx_power=-30.0, path_loss_exponent=2.0, shadow_sigma=0.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        near = rssi_at(scene, (6.0, 5.0), Rng(1))[0]
        far = rssi_at(scene, (7.0, 5.0), Rng(1))[0]
        assert near - far == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)

    def test_shadowing_spread(self):
        ap = AccessPoint(position=(5.0, 5.0, 3.0), tx_power=-30.0, path_loss_exponent=2.0, shadow_sigma=4.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        rng = Rng(77)
        draws = np.array([rssi_at(scene, (7.0, 5.0), rng)[0] for _ in range(10_000)])
        assert 3.8 <= draws.std() <= 4.2

    def test_expected_monotone_in_distance(self):
        ap = AccessPoint(position=(0.0, 5.0, 1.5), tx_power=-30.0, path_loss_exponent=2.5, shadow_sigma=0.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        xs = np.linspace(0.5, 16.5, 33)
        levels = [rssi_at(scene, (x, 5.0), Rng(1))[0] for x in xs]
        assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_weak_signal_becomes_sentinel(self):
        ap = AccessPoint(position=(0.0, 0.0, 3.0), tx_power=-80.0, path_loss_exponent=3.5, shadow_sigma=0.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        assert rssi_at(scene, (17.0, 10.0), Rng(1))[0] == NOT_DETECTED

    def test_close_range_capped_at_zero_dbm(self):
        ap = AccessPoint(position=(5.0, 5.0, 1.5), tx_power=30.0, path_loss_exponent=2.0, shadow_sigma=0.0)
        scene = simple_scene([one_light(1.0, (8.0, 5.0, 3.0))], aps=[ap])
        assert rssi_at(scene, (5.05, 5.0), Rng(1))[0] == 0.0


class TestMapCoordsIntoRoom:
    def test_extremes_land_on_the_walls(self):
        coords = np.array([[-7690.0, 4864750.0], [-7310.0, 4865010.0], [-7500.0, 4864880.0]])
        out = map_coords_into_room(paper_room_scene(), coords)
        assert out[:2].tolist() == [[0.0, 0.0], [17.0, 10.0]]

    @pytest.mark.parametrize("axis, column", [(0, "LONGITUDE"), (1, "LATITUDE")])
    def test_span_beyond_the_float_range_names_the_column(self, axis, column):
        coords = np.zeros((3, 2))
        coords[:2, axis] = [1e308, -1e308]
        with np.errstate(all="raise"):
            err = raised(DomainError, map_coords_into_room, paper_room_scene(), coords)
        assert where(err) == (None, None, None, column)
        assert err.message == ("spans -1e+308 to 1e+308, a range no float can hold; "
                               "cannot map it into the room")


class TestGenerateDataset:
    def test_default_scene_hundred_points(self):
        ds = generate_dataset(paper_room_scene(), 100, Rng(3))
        assert ds.n_records == 100
        assert ds.rssi.shape == (100, 4)
        assert set(ds.lux) == {"sunny", "cloudy", "night_lights"}

    def test_positions_within_room(self):
        ds = generate_dataset(paper_room_scene(), 500, Rng(5))
        assert np.all(ds.positions[:, 0] >= 0) and np.all(ds.positions[:, 0] <= 17.0)
        assert np.all(ds.positions[:, 1] >= 0) and np.all(ds.positions[:, 1] <= 10.0)

    def test_deterministic(self):
        a = generate_dataset(paper_room_scene(), 50, Rng(9))
        b = generate_dataset(paper_room_scene(), 50, Rng(9))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.rssi, b.rssi)
        for name in a.lux:
            assert np.array_equal(a.lux[name], b.lux[name])

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(paper_room_scene(), 0, Rng(1))

    def test_position_histogram_uniformity(self):
        ds = generate_dataset(paper_room_scene(), 10_000, Rng(2024))
        counts, _, _ = np.histogram2d(
            ds.positions[:, 0], ds.positions[:, 1], bins=4, range=[[0, 17], [0, 10]]
        )
        expected = 10_000 / 16.0
        stat = float(np.sum((counts - expected) ** 2) / expected)
        # chi-square critical value, 15 dof, 1% significance
        assert stat <= 30.577914166892494

    def test_measurement_noise_variant(self):
        ds = generate_dataset(paper_room_scene(), 400, Rng(77), measurement_noise=True)
        clean = ds.lux["sunny"]
        noisy = ds.lux_noisy["sunny"]
        resid = noisy - clean
        scale = 0.02 * clean + 1.0
        z = resid / scale
        assert abs(z.mean()) < 0.2
        assert 0.85 < z.std() < 1.15
        # noiseless copy always present and unchanged
        plain = generate_dataset(paper_room_scene(), 400, Rng(77))
        assert np.array_equal(plain.lux["sunny"], clean)

    def test_mirror_symmetric_fingerprints(self):
        # access points sit on the x = 8.5 axis: mirrored positions have
        # identical expected RSSI, which is the designed ambiguity
        scene = paper_room_scene()
        silent = Scene(
            room_width=scene.room_width,
            room_depth=scene.room_depth,
            phone_height=scene.phone_height,
            ceiling_height=scene.ceiling_height,
            conditions=scene.conditions,
            lights=scene.lights,
            access_points=tuple(
                AccessPoint(
                    position=ap.position,
                    tx_power=ap.tx_power,
                    path_loss_exponent=ap.path_loss_exponent,
                    shadow_sigma=0.0,
                )
                for ap in scene.access_points
            ),
        )
        p = (3.0, 4.0)
        mirrored = (17.0 - 3.0, 4.0)
        assert np.allclose(
            rssi_at(silent, p, Rng(1)), rssi_at(silent, mirrored, Rng(1)), atol=1e-12
        )
        # but the lights are off-axis, so illumination separates the pair
        for cond in scene.condition_names:
            a = illuminance_at(scene, p, cond)
            b = illuminance_at(scene, mirrored, cond)
            assert abs(a - b) > 1.0


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        scene = paper_room_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert load_scene(path) == scene

    def scene_text(self, tmp_path, edit):
        path = tmp_path / "scene.json"
        save_scene(paper_room_scene(), path)
        path.write_text(edit(path.read_text()))
        return path

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_names_line_and_column(self, tmp_path, constant):
        # the same word inside a string earlier in the file is not the constant
        path = self.scene_text(tmp_path, lambda t: t.replace(
            '"tx_power": -30.0', f'"tx_power": "{constant}"', 1
        ).replace('"width": 17.0', f'"width": {constant}'))
        text = path.read_text()
        pos = text.index(f'"width": {constant}') + len('"width": ')
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        err = raised(ParseError, load_scene, path)
        assert where(err) == (path, line, column, None)
        assert str(err) == f"{path}:{line}:{column}: {constant} is not a JSON number"

    def test_non_utf8_names_line(self, tmp_path):
        path = self.scene_text(tmp_path, lambda t: t)
        text = path.read_text()
        line = text.count("\n", 0, text.index('"sunny"')) + 1
        path.write_bytes(path.read_bytes().replace(b'"sunny"', b'"sunn\xff"', 1))
        err = raised(ParseError, load_scene, path)
        assert where(err) == (path, line, None, None)
        assert err.message == "not UTF-8 text (invalid start byte)"

    def test_syntax_error_names_line_and_column(self, tmp_path):
        path = self.scene_text(tmp_path, lambda t: t.replace('"depth": 10.0,', '"depth": 10.0'))
        text = path.read_text()
        after = text.index('"depth": 10.0') + len('"depth": 10.0')
        pos = after + len(text[after:]) - len(text[after:].lstrip())  # the next key's quote
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        err = raised(ParseError, load_scene, path)
        assert where(err) == (path, line, column, None)
        assert err.message == "Expecting ',' delimiter"

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace('"room": {', '"room": "big", "x": {'),
         "'room' must be a JSON object, not 'str'"),
        (lambda t: "[" + t + "]", "a scene is a JSON object, got list"),
        (lambda t: t.replace('"width": 17.0', '"width": "nan"'), "'nan' is not a finite number"),
        (lambda t: t.replace('"width": 17.0', '"width": 1e999'), "inf is not a finite number"),
        (lambda t: t.replace('"width": 17.0', '"width": ' + "9" * 400), "too large"),
        (lambda t: t.replace('"kind": "window_point"', '"kind": 5'), "light kind"),
        (lambda t: t.replace('"room"', '"rooms"'), "missing key 'room'"),
    ], ids=["string-room", "top-level-list", "nan-string", "overflow", "huge-int", "light-kind",
            "missing-key"])
    def test_invalid_document_is_a_schema_error_naming_the_path(self, tmp_path, edit, message):
        path = self.scene_text(tmp_path, edit)
        err = raised(SchemaError, load_scene, path)
        assert where(err) == (path, None, None, None) and message in err.message

    def test_bad_format_rejected(self):
        with pytest.raises(Exception, match="format"):
            scene_from_dict({"format": "something-else"})

    def test_bundled_scene_read_by_the_strict_parser(self, tmp_path, monkeypatch):
        bundled = tmp_path / "scenes" / "scene_paper_room.json"
        bundled.parent.mkdir()
        save_scene(paper_room_scene(), bundled)
        bundled.write_text(bundled.read_text().replace('"width": 17.0', '"width": NaN'))
        monkeypatch.setattr(scenario.resources, "files", lambda package: tmp_path)
        text = bundled.read_text()
        pos = text.index('"width": NaN') + len('"width": ')
        err = raised(ParseError, paper_room_scene)
        assert where(err) == (bundled, text.count("\n", 0, pos) + 1,
                              pos - text.rfind("\n", 0, pos), None)
        assert err.message == "NaN is not a JSON number"

    def test_paper_room_dimensions(self):
        scene = paper_room_scene()
        assert (scene.room_width, scene.room_depth) == (17.0, 10.0)
        assert scene.phone_height == 1.5
        assert scene.ceiling_height == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Condition(name="dusk", ambient=1.0)
        with pytest.raises(ValueError):
            Condition(name="sunny", ambient=-1.0)
        with pytest.raises(ValueError):
            AccessPoint(position=(0, 0, 0), tx_power=-30.0, path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            LightSource(position=(0, 0), intensity={"sunny": 1.0})
