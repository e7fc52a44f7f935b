"""Synthetic room: point-source illuminance under named lighting conditions
and log-distance WLAN fingerprints, yielding paired datasets for the
positioning experiment.

Illuminance on the horizontal phone plane follows point-source photometry
with no reflections: E = ambient + sum_lights I * cos(theta) / r^2, where
r is the 3-D distance from the light to the measurement point and theta
the incidence angle against the plane normal. Lights below the plane
contribute nothing. RSSI per access point is
tx_power - 10 n log10(d / 1m) plus Gaussian shadowing, clamped to the
not-detected sentinel below the detection threshold. All numbers in the
shipped default scene are scenario parameters, editable in the scene file.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dataio import COORD_COLUMNS, NOT_DETECTED, _read_utf8
from .errors import DomainError, ParseError, SchemaError
from .numcore import Rng, checked, positive_int

CONDITION_NAMES = ("sunny", "cloudy", "night_lights")
LIGHT_KINDS = ("window_point", "ceiling_point")

# receivers report nothing below this signal level
DETECTION_THRESHOLD_DBM = -95.0

_SCENE_FORMAT = "hmdn-scene v1"


@dataclass(frozen=True)
class Condition:
    """One lighting condition: a name and its uniform ambient floor (lux)."""

    name: str
    ambient: float

    def __post_init__(self):
        if self.name not in CONDITION_NAMES:
            raise ValueError(f"condition name must be one of {CONDITION_NAMES}, got {self.name!r}")
        if self.ambient < 0:
            raise ValueError(f"ambient must be >= 0, got {self.ambient}")


@dataclass(frozen=True)
class LightSource:
    """Point light with a per-condition luminous intensity (candela)."""

    position: tuple  # (x, y, z) meters
    intensity: dict  # condition name -> candela
    kind: str = "ceiling_point"

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        if len(self.position) != 3:
            raise ValueError("light position must be 3-D")
        if self.kind not in LIGHT_KINDS:
            raise ValueError(f"light kind must be one of {LIGHT_KINDS}, got {self.kind!r}")
        if any(v < 0 for v in self.intensity.values()):
            raise ValueError("luminous intensity must be >= 0 for every condition")


@dataclass(frozen=True)
class AccessPoint:
    """Synthetic WLAN transmitter with a log-distance path-loss channel."""

    position: tuple  # (x, y, z) meters
    tx_power: float  # dBm at the 1 m reference distance
    path_loss_exponent: float = 2.2
    shadow_sigma: float = 2.0  # dB

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        if len(self.position) != 3:
            raise ValueError("access point position must be 3-D")
        if not self.path_loss_exponent > 0:
            raise ValueError(f"path_loss_exponent must be > 0, got {self.path_loss_exponent}")
        if self.shadow_sigma < 0:
            raise ValueError(f"shadow_sigma must be >= 0, got {self.shadow_sigma}")


@dataclass(frozen=True)
class Scene:
    """Room geometry plus the lights, access points, and conditions in it."""

    room_width: float = 17.0
    room_depth: float = 10.0
    phone_height: float = 1.5
    ceiling_height: float = 4.0
    lights: tuple = ()
    access_points: tuple = ()
    conditions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lights", tuple(self.lights))
        object.__setattr__(self, "access_points", tuple(self.access_points))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if min(self.room_width, self.room_depth, self.phone_height, self.ceiling_height) <= 0:
            raise ValueError("all scene lengths must be positive")
        if not self.phone_height < self.ceiling_height:
            raise ValueError("phone_height must be below ceiling_height")
        if not self.lights:
            raise ValueError("scene needs at least one light")
        if not self.access_points:
            raise ValueError("scene needs at least one access point")
        if not self.conditions:
            raise ValueError("scene needs at least one condition")
        names = [c.name for c in self.conditions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate condition names: {names}")

    @property
    def condition_names(self) -> tuple:
        return tuple(c.name for c in self.conditions)

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(f"scene has no condition {name!r}; available: {self.condition_names}")

    def contains(self, pos) -> bool:
        x, y = float(pos[0]), float(pos[1])
        return 0.0 <= x <= self.room_width and 0.0 <= y <= self.room_depth


def _check_inside(scene: Scene, pos) -> None:
    if not scene.contains(pos):
        raise DomainError(
            f"position {tuple(float(v) for v in pos)} outside the "
            f"{scene.room_width}x{scene.room_depth} m room"
        )


def illuminance_at(scene: Scene, pos, condition) -> float:
    """Illuminance (lux) on the phone plane at a 2-D position.

    ``condition`` may be a Condition or its name. Deterministic; the
    optional measurement noise lives in generate_dataset, not here.
    """
    if isinstance(condition, str):
        condition = scene.condition(condition)
    _check_inside(scene, pos)
    x, y = float(pos[0]), float(pos[1])
    total = condition.ambient
    for light in scene.lights:
        intensity = light.intensity.get(condition.name, 0.0)
        if intensity == 0.0:
            continue
        lx, ly, lz = light.position
        dz = lz - scene.phone_height
        if dz <= 0.0:
            continue  # source below the measurement plane: no downward flux
        r2 = (lx - x) ** 2 + (ly - y) ** 2 + dz**2
        r = max(np.sqrt(r2), 1e-9)
        total += intensity * dz / (r2 * r)  # I * cos(theta) / r^2 with cos = dz / r
    return float(total)


def rssi_at(scene: Scene, pos, rng: Rng) -> np.ndarray:
    """One fingerprint draw: received dBm per access point, sentinel-coded.

    Draws exactly len(access_points) normals from ``rng`` (in AP order)
    whether or not any shadow_sigma is zero, so streams do not depend on
    the noise settings.
    """
    _check_inside(scene, pos)
    x, y = float(pos[0]), float(pos[1])
    shadows = rng.normals(len(scene.access_points))
    out = np.empty(len(scene.access_points))
    for i, ap in enumerate(scene.access_points):
        ax, ay, az = ap.position
        d = np.sqrt((ax - x) ** 2 + (ay - y) ** 2 + (az - scene.phone_height) ** 2)
        level = ap.tx_power - 10.0 * ap.path_loss_exponent * np.log10(max(d, 0.1) / 1.0)
        level += ap.shadow_sigma * shadows[i]
        if level >= DETECTION_THRESHOLD_DBM:
            out[i] = min(level, 0.0)
        else:
            out[i] = NOT_DETECTED
    return out


@dataclass(frozen=True)
class SimulatedDataset:
    """Paired (fingerprint, position, per-condition illuminance) records."""

    wap_names: tuple
    positions: np.ndarray  # (n, 2)
    rssi: np.ndarray       # (n, n_aps)
    lux: dict              # condition name -> (n,) noiseless lux
    lux_noisy: dict | None = None

    @property
    def n_records(self) -> int:
        return self.positions.shape[0]


def generate_dataset(
    scene: Scene, n_points: int, rng: Rng, measurement_noise: bool = False
) -> SimulatedDataset:
    """Sample positions uniformly over the room and record what the phone sees.

    Substreams: ``rng.spawn("positions")`` for the uniform positions,
    ``rng.spawn("rssi")`` consumed record-by-record for shadowing, and
    ``rng.spawn("lux-noise")`` (condition-by-condition) only when the
    optional measurement noise (sigma = 2% of reading + 1 lx) is enabled.
    The noiseless illuminance is always included.
    """
    checked("n_points", positive_int, n_points)
    pos_rng = rng.spawn("positions")
    rssi_rng = rng.spawn("rssi")
    u = pos_rng.uniform(2 * n_points).reshape(n_points, 2)
    positions = u * np.array([scene.room_width, scene.room_depth])

    rssi = np.vstack([rssi_at(scene, p, rssi_rng) for p in positions])
    lux, lux_noisy = _lux_readings(scene, positions, rng if measurement_noise else None)
    names = tuple(f"WAP{i + 1:03d}" for i in range(len(scene.access_points)))
    return SimulatedDataset(
        wap_names=names, positions=positions, rssi=rssi, lux=lux, lux_noisy=lux_noisy
    )


def map_coords_into_room(scene: Scene, coords: np.ndarray) -> np.ndarray:
    """Affinely map arbitrary planar coordinates onto the room rectangle.

    Each axis's observed min..max range lands on [0, width] / [0, depth]
    (x column to width, y column to depth); a degenerate axis maps to the
    room center line. Used when grafting simulated illumination onto a
    real fingerprint table whose coordinates live in projected map units,
    so an axis whose span is not a finite float raises DomainError keyed by
    its column (``dataio.COORD_COLUMNS``).
    """
    coords = np.asarray(coords, dtype=np.float64)
    out = np.empty_like(coords)
    for axis, extent in ((0, scene.room_width), (1, scene.room_depth)):
        lo, hi = float(coords[:, axis].min()), float(coords[:, axis].max())
        span = hi - lo
        if not math.isfinite(span):
            raise DomainError(f"spans {lo!r} to {hi!r}, a range no float can hold; cannot "
                              "map it into the room", key=COORD_COLUMNS[axis])
        if span < 1e-12:
            out[:, axis] = extent / 2.0
        else:
            out[:, axis] = (coords[:, axis] - lo) / span * extent
    return out


def augment_with_illuminance(coords: np.ndarray, scene: Scene, rng: Rng | None = None):
    """Per-condition illuminance for externally supplied coordinates.

    Coordinates are first mapped into the room. Returns (mapped coords,
    noiseless lux per condition, noisy lux per condition or None); noise
    follows the generate_dataset model and is drawn only when rng is given.
    """
    mapped = map_coords_into_room(scene, coords)
    return (mapped, *_lux_readings(scene, mapped, rng))


def _lux_readings(scene: Scene, positions: np.ndarray, rng: Rng | None):
    """(noiseless lux per condition, noisy lux per condition or None) at
    the positions; the noise (sigma = 2% of reading + 1 lx) is drawn from
    ``rng.spawn("lux-noise")``, condition by condition, only when rng is given."""
    lux = {
        cond.name: np.array([illuminance_at(scene, p, cond) for p in positions])
        for cond in scene.conditions
    }
    if rng is None:
        return lux, None
    noise_rng = rng.spawn("lux-noise")
    return lux, {
        name: clean + (0.02 * clean + 1.0) * noise_rng.normals(clean.shape[0])
        for name, clean in lux.items()
    }


# --- scene files ---


def scene_to_dict(scene: Scene) -> dict:
    return {
        "format": _SCENE_FORMAT,
        "room": {
            "width": scene.room_width,
            "depth": scene.room_depth,
            "phone_height": scene.phone_height,
            "ceiling_height": scene.ceiling_height,
        },
        "conditions": [{"name": c.name, "ambient": c.ambient} for c in scene.conditions],
        "lights": [
            {"kind": li.kind, "position": list(li.position), "intensity": dict(li.intensity)}
            for li in scene.lights
        ],
        "access_points": [
            {
                "position": list(ap.position),
                "tx_power": ap.tx_power,
                "path_loss_exponent": ap.path_loss_exponent,
                "shadow_sigma": ap.shadow_sigma,
            }
            for ap in scene.access_points
        ],
    }


def _finite(value) -> float:
    """A scene number: what float() reads, if finite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"scene value {value!r} is not a finite number")
    return number


def _typed(value, kind: type, name: str):
    """``value`` if it is a JSON object (``dict``) or array (``list``), as
    ``kind`` asks; otherwise a SchemaError naming it."""
    if not isinstance(value, kind):
        wanted = "object" if kind is dict else "array"
        raise SchemaError(f"{name!r} must be a JSON {wanted}, not {type(value).__name__!r}")
    return value


def _objects(doc: dict, key: str) -> list:
    """``doc[key]`` as a JSON array of objects."""
    items = _typed(doc[key], list, key)
    return [_typed(item, dict, f"{key}[{i}]") for i, item in enumerate(items)]


def _position(item: dict, name: str) -> list:
    """The coordinates of ``item["position"]``, a JSON array of numbers."""
    return [_finite(v) for v in _typed(item["position"], list, f"{name}.position")]


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SchemaError(f"a scene is a JSON object, got {type(doc).__name__}")
    if doc.get("format") != _SCENE_FORMAT:
        raise SchemaError(f"expected scene format {_SCENE_FORMAT!r}, got {doc.get('format')!r}")
    try:
        room = _typed(doc["room"], dict, "room")
        return Scene(
            room_width=_finite(room["width"]),
            room_depth=_finite(room["depth"]),
            phone_height=_finite(room["phone_height"]),
            ceiling_height=_finite(room["ceiling_height"]),
            conditions=tuple(
                Condition(name=c["name"], ambient=_finite(c["ambient"]))
                for c in _objects(doc, "conditions")
            ),
            lights=tuple(
                LightSource(
                    position=_position(li, f"lights[{i}]"),
                    intensity={
                        k: _finite(v)
                        for k, v in _typed(li["intensity"], dict, f"lights[{i}].intensity").items()
                    },
                    kind=li.get("kind", "ceiling_point"),
                )
                for i, li in enumerate(_objects(doc, "lights"))
            ),
            access_points=tuple(
                AccessPoint(
                    position=_position(ap, f"access_points[{i}]"),
                    tx_power=_finite(ap["tx_power"]),
                    path_loss_exponent=_finite(ap["path_loss_exponent"]),
                    shadow_sigma=_finite(ap["shadow_sigma"]),
                )
                for i, ap in enumerate(_objects(doc, "access_points"))
            ),
        )
    except KeyError as missing:
        raise SchemaError(f"scene file missing key {missing}") from None


# a JSON string, or a constant Python's json reads but RFC 8259 does not
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def load_scene(path) -> Scene:
    """Read a scene file. Bytes that are not UTF-8 and text that is not
    strict JSON (``NaN`` and ``Infinity`` included) raise ParseError with
    the line (and column); a document that is not a valid scene raises
    SchemaError. Both have ``path`` set."""
    text = _read_utf8(path)

    def reject(constant):
        # json stops at the first constant, so it is the first one outside a string
        pos = next(m.start(1) for m in _STRING_OR_CONSTANT.finditer(text) if m.group(1))
        raise json.JSONDecodeError(f"{constant} is not a JSON number", text, pos)

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, path=path, line=err.lineno, column=err.colno) from None
    try:
        return scene_from_dict(doc)
    except (ValueError, TypeError, AttributeError, ArithmeticError) as err:
        raise SchemaError(str(err), path=path) from None


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2, sort_keys=True)
        fh.write("\n")


def paper_room_scene() -> Scene:
    """The bundled default room: 17 x 10 m, phone at 1.5 m, ceiling at 4 m.

    Access points sit on the room's long mirror axis, so positions mirrored
    across it produce near-identical fingerprints; the lights are placed
    off-axis, so illuminance tells the two half-rooms apart.
    """
    with resources.as_file(resources.files("hmdn") / "scenes/scene_paper_room.json") as bundled:
        return load_scene(bundled)
