"""Synthetic skeletal-motion generation with exact composite ground truth,
plus every file format: motion text files, JSON manifests, and checkpoints.

The generator replaces an external mocap corpus: parametric sinusoid-plus-
drift trajectories with a known closed form, so composite sequences built by
time-domain masking are exact ground truth for scoring synthesis. Everything
is a pure function of (manifest, seed).
"""

from __future__ import annotations

import base64
import json
import math
import os
import re
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .autodiff import freeze
from .errors import (CheckpointError, ConfigError, ManifestError, ParseError, ShapeError,
                     finite, require_at_least)
from .motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton
from .predictor import PredictorConfig
from .training import PredictorModel, init_predictor_model
from .vae import BodyMask, VaeParams, init_vae

MOTION_MAGIC = "champlite v1"
MANIFEST_FORMAT = "moticomp-manifest"
CHECKPOINT_FORMAT = "moticomp-checkpoint"
MANIFEST_VERSION = 1
CHECKPOINT_VERSION = 2

STILL = "still"
ACTION_PARTS = (UPPER, LOWER, STILL)
_PER_JOINT_FIELDS = ("amplitude", "frequency", "phase", "drift")  # of an ActionSpec


# ----------------------------------------------------------------------
# skeleton and trajectory generation

def default_skeleton() -> Skeleton:
    """8 joints: pelvis (root), two legs below; spine, chest, head, two arms above."""
    #                pelvis l_leg r_leg spine chest head l_arm r_arm
    parents = (0, 0, 0, 0, 3, 4, 4, 4)
    parts = (LOWER, LOWER, LOWER, UPPER, UPPER, UPPER, UPPER, UPPER)
    return Skeleton(parent=parents, part_of=parts)


def rest_pose(skeleton: Skeleton) -> np.ndarray:
    """Deterministic root-centered rest coordinates, one bone per joint.

    Child joints sit 200 mm from their parent, fanned out by a golden-angle
    rule so distinct joints land at distinct offsets; upper joints point up,
    lower joints down.
    """
    pos = np.zeros((skeleton.joint_count, 3))
    for j in range(1, skeleton.joint_count):
        angle = 2.399963229728653 * j
        dy = 120.0 if skeleton.part_of[j] == UPPER else -120.0
        offset = np.array([160.0 * math.cos(angle), dy, 160.0 * math.sin(angle)])
        pos[j] = pos[skeleton.parent[j]] + offset
    return pos.reshape(-1)


@dataclass(frozen=True)
class ActionSpec:
    """Per-joint sinusoid-plus-drift parameters for one atomic action.

    Joints of `part` oscillate; all other joints (and always the root) hold
    the rest pose. Still specs move nothing. The per-joint fields are stored
    as tuples, whatever sequence they are given as.
    """

    name: str
    part: str
    amplitude: tuple[float, ...]
    frequency: tuple[float, ...]
    phase: tuple[float, ...]
    drift: tuple[float, ...]
    noise_std: float = 0.0

    def __post_init__(self):
        if self.part not in ACTION_PARTS:
            raise ConfigError(f"action {self.name!r} key 'part' holds {self.part!r}, "
                              f"expected one of {ACTION_PARTS}")
        for key in _PER_JOINT_FIELDS:  # tuples, so that a spec is hashable as a cache key
            object.__setattr__(self, key, tuple(getattr(self, key)))
        sizes = {key: len(getattr(self, key)) for key in _PER_JOINT_FIELDS}
        if len(set(sizes.values())) != 1:
            raise ConfigError(f"per-joint parameter arrays of {self.name!r} differ in "
                              f"length: {sizes}")
        if any(a < 0 for a in self.amplitude) or any(f < 0 for f in self.frequency):
            raise ConfigError(f"amplitudes and frequencies of {self.name!r} must be >= 0")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std of {self.name!r} must be >= 0")
        if self.part == STILL and (any(a != 0 for a in self.amplitude)
                                   or any(d != 0 for d in self.drift)):
            raise ConfigError(f"still spec {self.name!r} must have zero amplitude and drift")

    @property
    def joint_count(self) -> int:
        return len(self.amplitude)


def _track(amplitude, frequency, phase, drift, frames: np.ndarray, fps: float) -> np.ndarray:
    """amplitude * sin(2*pi*frequency*(frame/fps) + phase) + drift*frame: one row
    per joint for per-joint parameter columns (k, 1), one column per frame."""
    return (amplitude * np.sin(2.0 * np.pi * frequency * (frames / fps) + phase)
            + drift * frames)


@lru_cache(maxsize=64)
def _noiseless_curve(spec: ActionSpec, skeleton: Skeleton, length: int,
                     fps: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (length, 3J) rest pose plus every moving joint's track, and
    the moving joints (those of spec's part but the root) in ascending order."""
    moving = np.array([j for j in range(1, skeleton.joint_count)
                       if skeleton.part_of[j] == spec.part], dtype=np.intp)
    params = (np.asarray(getattr(spec, key), dtype=np.float64)[moving, None]
              for key in _PER_JOINT_FIELDS)
    frames = np.arange(length, dtype=np.float64)
    curve = np.tile(rest_pose(skeleton), (length, 1))
    curve.reshape(length, -1, 3)[:, moving] += _track(*params, frames, fps).T[:, :, None]
    moving.flags.writeable = False
    return freeze(curve, "motion data"), moving


def generate_atomic(spec: ActionSpec, skeleton: Skeleton, length: int, fps: float,
                    seed: int) -> MotionSequence:
    """One atomic sequence; root-centered by construction, seeded determinism.

    Moving coordinate value at frame f:
        rest + amplitude * sin(2*pi*frequency*(f/fps) + phase) + drift*f + noise

    The noiseless part is one cached, read-only curve per distinct (spec,
    skeleton, length, fps). A sequence adds one draw of
    default_rng(seed).normal(0, noise_std, (k, length, 3)) over its k moving
    joints in joint order, so its bytes equal a loop drawing (length, 3) per joint.
    """
    if spec.joint_count != skeleton.joint_count:
        raise ConfigError(
            f"spec {spec.name!r} has {spec.joint_count} joints, skeleton "
            f"{skeleton.joint_count}"
        )
    if length < 2:
        raise ConfigError(f"sequence length must be >= 2, got {length}")
    if not (finite(fps) and fps > 0):
        raise ConfigError(f"fps must be finite and > 0, got {fps}")
    curve, moving = _noiseless_curve(spec, skeleton, length, fps)
    rng = np.random.default_rng(seed)
    data = curve
    if spec.noise_std > 0:
        data = curve.copy()
        noise = rng.normal(0.0, spec.noise_std, size=(moving.size, length, 3))
        data.reshape(length, -1, 3)[:, moving] += noise.swapaxes(0, 1)
    return MotionSequence(data=data, fps=fps, label=spec.name)


def compose_oracle(seq_upper_action: MotionSequence, seq_lower_action: MotionSequence,
                   mask: BodyMask) -> MotionSequence:
    """Exact time-domain composite: mask picks coordinates from the first input."""
    if seq_upper_action.data.shape != seq_lower_action.data.shape:
        raise ShapeError(
            f"sequence shapes differ: {seq_upper_action.data.shape} vs "
            f"{seq_lower_action.data.shape}"
        )
    if mask.m.size != seq_upper_action.data.shape[1]:
        raise ShapeError("mask width does not match the sequences")
    if seq_upper_action.fps != seq_lower_action.fps:
        raise ValueError("fps differ between the two sequences")
    data = mask.m * seq_upper_action.data + mask.complement * seq_lower_action.data
    label = f"{seq_upper_action.label}+{seq_lower_action.label}"
    return MotionSequence(data=data, fps=seq_upper_action.fps, label=label)


# ----------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class DatasetManifest:
    """Everything needed to regenerate the train/val/test splits bit-exactly.

    The training split holds atomic actions only. Validation and test hold
    held-out atomic sequences plus exact composites of every (upper, lower)
    action pair. Each split draws per-sequence seeds from a contiguous range
    starting at its base seed; ranges must not overlap.
    """

    skeleton: Skeleton
    actions: tuple[ActionSpec, ...]
    fps: float
    sequence_length: int
    train_per_action: int
    val_per_atomic: int
    test_per_atomic: int
    val_per_composite: int
    test_per_composite: int
    train_seed: int
    val_seed: int
    test_seed: int

    def __post_init__(self):
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise ManifestError("action names must be unique")
        if "+" in "".join(names):
            raise ManifestError("atomic action names must not contain '+'")
        for a in self.actions:
            # a name is part of a file name and of a one-line header
            if "/" in a.name or "".join(a.name.splitlines()) != a.name:
                raise ManifestError(f"action name {a.name!r} holds '/' or a line break")
            if a.joint_count != self.skeleton.joint_count:
                raise ManifestError(f"action {a.name!r} joint count mismatch")
        require_at_least(self, 2, "sequence_length", error=ManifestError)
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ManifestError(f"manifest fps must be positive and finite, got {self.fps}")
        require_at_least(self, 0, "train_per_action", "val_per_atomic", "test_per_atomic",
                         "val_per_composite", "test_per_composite", error=ManifestError)
        require_at_least(self, 0, "train_seed", "val_seed", "test_seed", error=ManifestError,
                         high=None)
        starts = {"train": self.train_seed, "val": self.val_seed, "test": self.test_seed}
        ranges = sorted((start, start + self._seeds_needed(split), split)
                        for split, start in starts.items())
        for (start, end, split), (next_start, _, next_split) in zip(ranges, ranges[1:]):
            if next_start < end:
                counts = {f.name: getattr(self, f.name) for f in fields(self)
                          if f.name.startswith(f"{split}_per_")}
                raise ManifestError(f"split seed ranges overlap: {split}_seed {start} and "
                                    f"{counts} take {end - start} seeds, past "
                                    f"{next_split}_seed {next_start}")

    @property
    def upper_actions(self) -> tuple[ActionSpec, ...]:
        return tuple(a for a in self.actions if a.part == UPPER)

    @property
    def lower_actions(self) -> tuple[ActionSpec, ...]:
        return tuple(a for a in self.actions if a.part == LOWER)

    @property
    def composite_pairs(self) -> tuple[tuple[ActionSpec, ActionSpec], ...]:
        return tuple((u, l) for u in self.upper_actions for l in self.lower_actions)

    def _seeds_needed(self, split: str) -> int:
        if split == "train":
            return self.train_per_action * len(self.actions)
        atomic = self.val_per_atomic if split == "val" else self.test_per_atomic
        comp = self.val_per_composite if split == "val" else self.test_per_composite
        # composites consume two seeds each: one per constituent atomic
        return atomic * len(self.actions) + 2 * comp * len(self.composite_pairs)


@dataclass
class DatasetSplits:
    train: list[MotionSequence]
    val: list[MotionSequence]
    test: list[MotionSequence]


def composite_sources(manifest: DatasetManifest, count: int,
                      seed: int) -> list[tuple[MotionSequence, MotionSequence]]:
    """count (upper, lower) atomic sequence pairs for each composite pair of the
    manifest, in pair order; each takes the next two seeds counting from seed."""
    m = manifest
    pairs = [pair for pair in m.composite_pairs for _ in range(count)]
    return [(generate_atomic(upper, m.skeleton, m.sequence_length, m.fps, seed + 2 * i),
             generate_atomic(lower, m.skeleton, m.sequence_length, m.fps, seed + 2 * i + 1))
            for i, (upper, lower) in enumerate(pairs)]


def build_dataset(manifest: DatasetManifest) -> DatasetSplits:
    """Generate all three splits; a pure function of the manifest."""
    m = manifest
    layout = PartLayout.from_skeleton(m.skeleton)
    mask = BodyMask.from_layout(layout)

    def atomics(base_seed: int, per_action: int) -> list[MotionSequence]:
        """per_action sequences of each action, on consecutive seeds."""
        return [generate_atomic(spec, m.skeleton, m.sequence_length, m.fps,
                                base_seed + i * per_action + k)
                for i, spec in enumerate(m.actions) for k in range(per_action)]

    def held_out(base_seed: int, per_atomic: int, per_composite: int) -> list[MotionSequence]:
        sources = composite_sources(m, per_composite, base_seed + per_atomic * len(m.actions))
        return atomics(base_seed, per_atomic) + [compose_oracle(u, l, mask)
                                                 for u, l in sources]

    train = atomics(m.train_seed, m.train_per_action)
    val = held_out(m.val_seed, m.val_per_atomic, m.val_per_composite)
    test = held_out(m.test_seed, m.test_per_atomic, m.test_per_composite)
    return DatasetSplits(train=train, val=val, test=test)


def _moving_spec(name: str, part: str, skeleton: Skeleton, amp: float, freq: float,
                 phase: float, drift: float = 0.0, noise_std: float = 0.75) -> ActionSpec:
    j = skeleton.joint_count
    amplitude = [0.0] * j
    frequency = [0.0] * j
    phases = [0.0] * j
    drifts = [0.0] * j
    for idx in range(1, j):
        if skeleton.part_of[idx] != part:
            continue
        amplitude[idx] = amp * (0.6 + 0.1 * (idx % 4))
        frequency[idx] = freq
        phases[idx] = phase + 0.8 * idx
        drifts[idx] = drift
    return ActionSpec(name=name, part=part, amplitude=tuple(amplitude),
                      frequency=tuple(frequency), phase=tuple(phases),
                      drift=tuple(drifts), noise_std=noise_std)


def default_manifest() -> DatasetManifest:
    """Desk-scale defaults: 9 moving atomic actions plus a still class, J=8.

    Train: 20 sequences per class (200 total, atomic only). Val and test mix
    held-out atomics with the 18 exact composites of the 6 upper x 3 lower
    moving actions.
    """
    sk = default_skeleton()
    zeros = (0.0,) * sk.joint_count
    actions = (
        _moving_spec("wave", UPPER, sk, amp=60.0, freq=0.50, phase=0.0),
        _moving_spec("nod", UPPER, sk, amp=25.0, freq=0.80, phase=1.1),
        _moving_spec("raise", UPPER, sk, amp=50.0, freq=0.30, phase=2.3),
        _moving_spec("swing", UPPER, sk, amp=40.0, freq=0.45, phase=3.0),
        _moving_spec("stretch", UPPER, sk, amp=35.0, freq=0.25, phase=0.7, drift=1.5),
        _moving_spec("circle", UPPER, sk, amp=45.0, freq=0.55, phase=1.9),
        _moving_spec("squat", LOWER, sk, amp=55.0, freq=0.35, phase=0.4),
        _moving_spec("step", LOWER, sk, amp=45.0, freq=0.50, phase=1.6),
        _moving_spec("sway", LOWER, sk, amp=30.0, freq=0.40, phase=2.8, drift=1.0),
        ActionSpec(name="still", part=STILL, amplitude=zeros, frequency=zeros,
                   phase=zeros, drift=zeros, noise_std=0.0),
    )
    return DatasetManifest(
        skeleton=sk, actions=actions, fps=10.0, sequence_length=30,
        train_per_action=20, val_per_atomic=1, test_per_atomic=2,
        val_per_composite=1, test_per_composite=2,
        train_seed=1000, val_seed=20000, test_seed=30000,
    )


# ----------------------------------------------------------------------
# manifest JSON

# JSON value types accepted for each dataclass field annotation
_JSON_TYPES = {"int": (int,), "int | None": (int, type(None)), "float": (int, float),
               "bool": (bool,), "str": (str,), "ActionSpec": (dict,)}


def _field_types(cls) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls)}


def _required(cls) -> set[str]:
    """The fields of a dataclass that have no default."""
    return {f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotation: an int passes as a float, a
    bool as nothing but a bool, a number in a float field only if finite as a
    float; tuple[X, ...] is a list."""
    if annotation.startswith("tuple["):
        item = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    return (isinstance(value, _JSON_TYPES[annotation])
            and isinstance(value, bool) == (annotation == "bool")
            and (annotation != "float" or finite(value)))


def _read_object(doc, types: dict[str, str], required, context: str,
                 error: type[Exception]) -> dict:
    """The values of a JSON object as constructor kwargs, JSON lists as tuples.

    Raise error, led by context, if doc is not an object, holds a key that
    types does not annotate, lacks a key of required, or holds a value that
    does not fit its annotation (the first such key is named).
    """
    if not isinstance(doc, dict):
        raise error(f"{context} must be a JSON object, got {type(doc).__name__}")
    for fault, keys in (("unknown", set(doc) - set(types)), ("missing", set(required) - set(doc))):
        if keys:
            raise error(f"{context}: {fault} key{'s' * (len(keys) > 1)} "
                        f"{', '.join(map(repr, sorted(keys)))}")
    for key, value in doc.items():
        if not _fits(value, types[key]):
            raise error(f"{context} key {key!r} holds {value!r}, expected {types[key]}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def manifest_to_json(manifest: DatasetManifest) -> str:
    doc = asdict(manifest)
    skeleton = doc.pop("skeleton")
    doc = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
           "joint_parents": skeleton["parent"], "joint_parts": skeleton["part_of"], **doc}
    return json.dumps(doc, indent=2) + "\n"


def manifest_from_json(text: str) -> DatasetManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    skeleton = _field_types(Skeleton)
    head = {"format": "str", "version": "int", "joint_parents": skeleton["parent"],
            "joint_parts": skeleton["part_of"]}
    types = {**head, **_field_types(DatasetManifest)}
    del types["skeleton"]
    values = _read_object(doc, types, {*head, *_required(DatasetManifest)} - {"skeleton"},
                          "manifest", ManifestError)
    for key, expected in (("format", MANIFEST_FORMAT), ("version", MANIFEST_VERSION)):
        if values.pop(key) != expected:
            raise ManifestError(f"manifest key {key!r} holds {doc[key]!r}, expected {expected!r}")
    try:
        values["skeleton"] = Skeleton(parent=values.pop("joint_parents"),
                                      part_of=values.pop("joint_parts"))
    except ValueError as exc:
        raise ManifestError(f"manifest keys 'joint_parents' and 'joint_parts': {exc}") from exc
    values["actions"] = tuple(
        ActionSpec(**_read_object(entry, _field_types(ActionSpec), _required(ActionSpec),
                                  f"action {entry.get('name')!r}", ManifestError))
        for entry in values["actions"])
    return DatasetManifest(**values)


# ----------------------------------------------------------------------
# motion text format

_HEADER_RE = re.compile(
    r"^champlite v1 J=(\d+) fps=(\S+) frames=(\d+) label=(.*)$"
)


def save_motion(path, seq: MotionSequence) -> None:
    """UTF-8 text: one header line, then one line of 3J values per frame.

    Values are written with 17 significant digits, which round-trips IEEE
    doubles exactly.
    """
    lines = [f"{MOTION_MAGIC} J={seq.joint_count} fps={float(seq.fps)!r} "
             f"frames={seq.frames} label={seq.label}"]
    row_format = " ".join(["%.17g"] * seq.data.shape[1])
    lines += [row_format % tuple(row) for row in seq.data.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_motion(path) -> MotionSequence:
    """The sequence save_motion wrote to path. Any fault in the file raises a
    ParseError naming path and, where it lies in one line, that line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty motion file")
    if not text.endswith("\n"):  # save_motion ends every line with one
        raise ParseError(f"{path}: line {len(lines)}: no newline at its end, "
                         "so the file may be cut short")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise ParseError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        joints, frames = int(match.group(1)), int(match.group(3))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{path}: line 1: bad joint or frame count: {exc}") from exc
    try:
        fps = float(match.group(2))
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: bad fps {match.group(2)!r}") from exc
    label = match.group(4)
    body = [(number, line) for number, line in enumerate(lines[1:], 2) if line.strip()]
    if len(body) != frames:
        raise ParseError(f"{path}: header promises {frames} frames, found {len(body)}")
    rows = []  # each row's count is checked before a (frames, 3J) array exists
    for number, line in body:
        fields = line.split()
        if len(fields) != 3 * joints:
            raise ParseError(
                f"{path}: line {number}: expected {3 * joints} values, got {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}: line {number}: non-numeric value") from exc
    try:
        return MotionSequence(data=np.array(rows).reshape(frames, 3 * joints), fps=fps,
                              label=label)
    except ValueError as exc:  # too few frames, non-finite values or fps
        raise ParseError(f"{path}: {exc}") from exc


def check_split_target(directory) -> None:
    """Raise FileExistsError if directory already holds motion files: load_split
    reads every one, so a split written beside them would mix in theirs."""
    found = sorted(Path(directory).glob("*.txt"))
    if found:
        raise FileExistsError(f"split directory {directory} already holds "
                              f"{len(found)} motion files, such as {found[0].name}")


def save_split(directory, sequences: list[MotionSequence]) -> list[Path]:
    """Write one numbered motion file per sequence into a directory that holds
    none yet (see check_split_target)."""
    directory = Path(directory)
    check_split_target(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, seq in enumerate(sequences):
        path = directory / f"{i:04d}_{seq.label}.txt"
        save_motion(path, seq)
        paths.append(path)
    return paths


def load_split(directory) -> list[MotionSequence]:
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such split directory: {directory}")
    return [load_motion(p) for p in sorted(directory.glob("*.txt"))]


# ----------------------------------------------------------------------
# checkpoints

def _tensor_entries(named: dict[str, np.ndarray]) -> list[dict]:
    """One entry per tensor: its name, its shape, and its values as base64 of
    their little-endian float64 bytes in C order."""
    return [{"name": name, "shape": list(arr.shape),
             "values": base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")}
            for name, arr in named.items()]


def _read_tensors(entries) -> dict[str, np.ndarray]:
    """The arrays of _tensor_entries' entries; ValueError names a repeated
    tensor, a shape that is not a list of non-negative integers, values that
    are not base64, or a byte count other than 8 x the shape's product."""
    out = {}
    for entry in entries:
        name, shape = entry["name"], entry["shape"]
        if name in out:
            raise ValueError(f"tensor {name} appears more than once")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"tensor {name} has shape {shape!r}, expected a list of "
                             f"non-negative integers")
        try:
            raw = base64.b64decode(entry["values"], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"tensor {name} values are not base64: {exc}") from exc
        count = math.prod(shape)
        if len(raw) != 8 * count:
            raise ValueError(f"tensor {name} holds {len(raw)} bytes, expected "
                             f"{8 * count} for shape {tuple(shape)}")
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return out


# the kind a checkpoint of each model type is written and loaded as
CHECKPOINT_KINDS = {PredictorModel: "predictor", VaeParams: "cag_vae"}
# a VAE checkpoint's config keys, in file order: init_vae's arguments less its rng
_VAE_CONFIG_KEYS = ("latent_dim", "hidden_dims", "coeff_rows", "coeff_cols", "original_length")


class _Unfilled:
    """Stands in for the Generator of a model's init, which then allocates each
    array by its name and shape, zero-filled, and draws nothing: a loaded
    checkpoint overwrites every array."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)

    @staticmethod
    def random(size):
        return np.zeros(size)


def _vae_params(path, config: dict, tensors: dict[str, np.ndarray]) -> VaeParams:
    """The VAE a checkpoint describes, built with its normalization so VaeParams checks it."""
    types = {k: init_vae.__annotations__[k] for k in _VAE_CONFIG_KEYS}
    model = init_vae(_Unfilled(), **_read_object(config, types, types, "config", ValueError))
    norm = {"norm.offset": model.input_offset.copy(), "norm.scale": model.input_scale.copy()}
    _fill_parameters(path, norm, {name: tensors.pop(name) for name in norm})
    return replace(model, input_offset=norm["norm.offset"], input_scale=norm["norm.scale"])


def save_checkpoint(path, model: VaeParams | PredictorModel) -> None:
    """Self-describing JSON container; round-trips float64 values bit-exactly.

    The file is written beside path under a temporary name and then renamed
    over path, so a save that fails leaves what path held before unchanged.
    """
    if type(model) not in CHECKPOINT_KINDS:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    if isinstance(model, VaeParams):
        config = {k: getattr(model, k) for k in _VAE_CONFIG_KEYS}
        tensors = {**model.named_parameters(), "norm.offset": model.input_offset,
                   "norm.scale": model.input_scale}
    else:
        layout = model.params.layout
        config = {**asdict(model.params.config), "upper_dims": list(layout.upper_dims),
                  "lower_dims": list(layout.lower_dims)}
        tensors = model.named_parameters()
    doc = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
           "kind": CHECKPOINT_KINDS[type(model)], "config": config,
           "tensors": _tensor_entries(tensors)}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> VaeParams | PredictorModel:
    """Rebuild a checkpointed model; CheckpointError names what is malformed."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable or truncated checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {doc.get('version')!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        kind = doc["kind"]
        config = doc["config"]
        tensors = _read_tensors(doc["tensors"])
        if kind == CHECKPOINT_KINDS[VaeParams]:
            model = _vae_params(path, config, tensors)
        elif kind == CHECKPOINT_KINDS[PredictorModel]:
            types = {**_field_types(PredictorConfig), **_field_types(PartLayout)}
            values = _read_object(config, types, types, "config", ValueError)
            layout = PartLayout(**{k: values.pop(k) for k in _field_types(PartLayout)})
            model = init_predictor_model(_Unfilled(), layout, PredictorConfig(**values))
        else:
            raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
        _fill_parameters(path, model.named_parameters(), tensors)
    except KeyError as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    return model


def _fill_parameters(path, named: dict[str, np.ndarray],
                     tensors: dict[str, np.ndarray]) -> None:
    """Fill each array of named from the tensor of its name, then freeze it:
    its one finiteness check (ValueError), after which inference shares it."""
    if set(named) != set(tensors):
        raise CheckpointError(
            f"{path}: tensor names do not match the model "
            f"(missing {sorted(set(named) - set(tensors))[:3]}, "
            f"unexpected {sorted(set(tensors) - set(named))[:3]})"
        )
    for name, arr in named.items():
        loaded = tensors[name]
        if loaded.shape != arr.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {loaded.shape}, expected {arr.shape}"
            )
        arr[...] = loaded
        freeze(arr, f"tensor {name}")
