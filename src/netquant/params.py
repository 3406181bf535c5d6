"""Flat parameter storage with a bit-exact on-disk format.

A model is a single flat float32 vector covering every trainable parameter,
plus named spans recording which slice belongs to which layer. Optional
companions share the same length: a per-parameter curvature vector and a
keep/prune mask. Everything round-trips through a small directory format
(raw little-endian float32 payloads plus a JSON manifest with sha256
checksums), so exporting from any training framework is a matter of writing
a flat array.

Storage is 32-bit; numerical work downstream should upcast to float64.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

# Curvature entries are floored to this value at construction so that
# curvature-weighted means are always well defined.
CURVATURE_FLOOR = 1e-12

PARAMS_FILE = "params.f32le"
CURVATURE_FILE = "curvature.f32le"
MASK_FILE = "mask.u8"
MANIFEST_FILE = "manifest.json"


class NetQuantError(Exception):
    """Base class for toolkit errors."""


class FormatError(NetQuantError):
    """Malformed, inconsistent, or truncated serialized data."""


class ChecksumError(FormatError):
    """Payload bytes do not match the checksum recorded in the manifest."""


class DivergenceError(NetQuantError):
    """Training or fine-tuning produced a non-finite loss."""


class CurvatureSource(str, Enum):
    EXACT_HESSIAN = "exact_hessian"
    GAUSS_NEWTON = "gauss_newton"
    ADAM_SQRT_MOMENT = "adam_sqrt_moment"
    IDENTITY = "identity"


@dataclass(frozen=True)
class Span:
    """A named contiguous slice of the flat parameter vector."""

    name: str
    offset: int
    length: int


def _validate_spans(spans: tuple[Span, ...], n: int) -> None:
    if not spans:
        raise ValueError("at least one span is required")
    expected = 0
    names = set()
    for s in spans:
        if s.name in names:
            raise ValueError(f"duplicate span name {s.name!r}")
        names.add(s.name)
        if s.offset != expected or s.length < 0:
            raise ValueError(
                f"span {s.name!r} at offset {s.offset} breaks contiguous coverage"
            )
        expected += s.length
    if expected != n:
        raise ValueError(f"spans cover {expected} entries, expected {n}")


def _frozen_f32(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError("expected a flat 1-d vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParamSet:
    """All trainable parameters of one model, flattened into one vector.

    ``values`` is float32 (the canonical storage precision, ``source_bits``
    per entry); spans partition ``[0, len(values))`` without gaps.
    """

    values: np.ndarray
    spans: tuple[Span, ...]
    source_bits: int = 32

    def __post_init__(self):
        arr = _frozen_f32(self.values)
        object.__setattr__(self, "values", arr)
        if arr.size < 1:
            raise ValueError("empty parameter set")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter values must be finite")
        if self.source_bits < 1:
            raise ValueError("source_bits must be positive")
        object.__setattr__(self, "spans", tuple(self.spans))
        _validate_spans(self.spans, arr.size)

    @classmethod
    def from_flat(cls, values, name: str = "params", source_bits: int = 32) -> "ParamSet":
        arr = np.ascontiguousarray(values, dtype=np.float32)
        return cls(arr, (Span(name, 0, arr.size),), source_bits)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def as_f64(self) -> np.ndarray:
        return self.values.astype(np.float64)


@dataclass(frozen=True)
class CurvatureDiag:
    """Per-parameter nonnegative sensitivity weights.

    Entries estimate how strongly the training loss reacts to perturbing
    each parameter. Floored to ``floor`` at construction so every entry is
    strictly positive.
    """

    values: np.ndarray
    source: CurvatureSource
    floor: float = CURVATURE_FLOOR

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("curvature floor must be positive")
        arr = np.ascontiguousarray(self.values, dtype=np.float32)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("expected a flat non-empty curvature vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("curvature values must be finite")
        if arr.min() < np.float32(self.floor):
            arr = np.maximum(arr, np.float32(self.floor))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "source", CurvatureSource(self.source))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def as_f64(self) -> np.ndarray:
        return self.values.astype(np.float64)


@dataclass(frozen=True)
class PruneMask:
    """Boolean keep-mask; True marks parameters that survive pruning."""

    kept: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.kept, dtype=bool)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("expected a flat non-empty mask")
        if not arr.any():
            raise ValueError("mask prunes every parameter")
        arr.setflags(write=False)
        object.__setattr__(self, "kept", arr)

    @property
    def n(self) -> int:
        return int(self.kept.size)

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.kept))


@dataclass(frozen=True)
class Manifest:
    """Summary of a saved model directory, including payload checksums."""

    model_name: str
    n_params: int
    bits_per_param: int
    spans: tuple[Span, ...]
    checksums: dict = field(default_factory=dict)
    curvature_source: str | None = None

    def to_json(self) -> str:
        doc = {
            "model_name": self.model_name,
            "n_params": self.n_params,
            "bits_per_param": self.bits_per_param,
            "spans": [
                {"name": s.name, "offset": s.offset, "length": s.length}
                for s in self.spans
            ],
            "checksums": dict(sorted(self.checksums.items())),
        }
        if self.curvature_source is not None:
            doc["curvature_source"] = self.curvature_source
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        try:
            spans = tuple(
                Span(str(s["name"]), int(s["offset"]), int(s["length"]))
                for s in doc["spans"]
            )
            return cls(
                model_name=str(doc["model_name"]),
                n_params=int(doc["n_params"]),
                bits_per_param=int(doc["bits_per_param"]),
                spans=spans,
                checksums=dict(doc["checksums"]),
                curvature_source=doc.get("curvature_source"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"manifest is missing or corrupt: {exc}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_files(directory, files: dict) -> None:
    """Write ``files`` (name -> bytes or str) into ``directory`` without
    ever leaving a partly written file under a real name.

    Every file goes to a temporary name beside its target first, then each
    is renamed into place in the order given. If a step fails, no
    temporary is left behind: files renamed before the failure keep their
    new contents and the rest their old ones.
    """
    directory = Path(directory)
    temps = [directory / f".{name}.{os.getpid()}.tmp" for name in files]
    try:
        for tmp, content in zip(temps, files.values()):
            tmp.write_bytes(content.encode() if isinstance(content, str) else content)
        for tmp, name in zip(temps, files):
            os.replace(tmp, directory / name)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def save_model(
    ps: ParamSet,
    path,
    curvature: CurvatureDiag | None = None,
    mask: PruneMask | None = None,
    model_name: str = "model",
) -> Manifest:
    """Write a model directory; the inverse of :func:`load_model`.

    Payloads are raw arrays (little-endian float32 for values and curvature,
    one 0/1 byte per parameter for the mask) so the round trip is bit exact.
    They are written with :func:`write_files` and the manifest is renamed
    into place last; if any step fails, the payloads the old manifest
    lists are restored, so the directory still loads as it was.
    """
    if curvature is not None and curvature.n != ps.n:
        raise ValueError(f"curvature length {curvature.n} != n_params {ps.n}")
    if mask is not None and mask.n != ps.n:
        raise ValueError(f"mask length {mask.n} != n_params {ps.n}")

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    # asarray copies only on a big-endian host; the payloads are little-endian.
    payloads: dict[str, bytes] = {PARAMS_FILE: np.asarray(ps.values, "<f4").tobytes()}
    if curvature is not None:
        payloads[CURVATURE_FILE] = np.asarray(curvature.values, "<f4").tobytes()
    if mask is not None:
        payloads[MASK_FILE] = mask.kept.view(np.uint8).tobytes()

    manifest = Manifest(
        model_name=model_name,
        n_params=ps.n,
        bits_per_param=ps.source_bits,
        spans=ps.spans,
        checksums={name: _sha256(data) for name, data in payloads.items()},
        curvature_source=curvature.source.value if curvature is not None else None,
    )
    # Hard links keep the old payloads until the new manifest is in place.
    backups = {
        name: path / f".{name}.{os.getpid()}.old"
        for name in payloads
        if (path / name).exists()
    }
    try:
        for name, backup in backups.items():
            backup.unlink(missing_ok=True)
            os.link(path / name, backup)
        write_files(path, {**payloads, MANIFEST_FILE: manifest.to_json()})
    except BaseException:
        for name in payloads:
            if name not in backups:
                (path / name).unlink(missing_ok=True)
            elif backups[name].exists():
                os.replace(backups[name], path / name)
        raise
    finally:
        for backup in backups.values():
            backup.unlink(missing_ok=True)
    return manifest


def read_manifest(path) -> Manifest:
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.is_file():
        raise FormatError(f"no manifest at {manifest_path}")
    return Manifest.from_json(manifest_path.read_text())


def _read_payload(path: Path, name: str, expected_sha: str) -> bytes:
    fpath = path / name
    if not fpath.is_file():
        raise FormatError(f"missing payload file {fpath}")
    data = fpath.read_bytes()
    actual = _sha256(data)
    if actual != expected_sha:
        raise ChecksumError(f"{name}: sha256 {actual} != manifest {expected_sha}")
    return data


def load_model(path) -> tuple[ParamSet, CurvatureDiag | None, PruneMask | None]:
    """Read a model directory written by :func:`save_model`."""
    path = Path(path)
    manifest = read_manifest(path)
    if PARAMS_FILE not in manifest.checksums:
        raise FormatError("manifest lists no parameter payload")

    raw = _read_payload(path, PARAMS_FILE, manifest.checksums[PARAMS_FILE])
    if len(raw) != 4 * manifest.n_params:
        raise FormatError(
            f"payload holds {len(raw) // 4} values, manifest says {manifest.n_params}"
        )
    values = np.frombuffer(raw, dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise FormatError("non-finite parameter value in payload")
    ps = ParamSet(values, manifest.spans, manifest.bits_per_param)

    curvature = None
    if CURVATURE_FILE in manifest.checksums:
        raw = _read_payload(path, CURVATURE_FILE, manifest.checksums[CURVATURE_FILE])
        if len(raw) != 4 * manifest.n_params:
            raise FormatError("curvature payload length disagrees with manifest")
        cvals = np.frombuffer(raw, dtype="<f4")
        if not np.all(np.isfinite(cvals)):
            raise FormatError("non-finite curvature value in payload")
        source = CurvatureSource(manifest.curvature_source or "identity")
        curvature = CurvatureDiag(cvals, source)

    mask = None
    if MASK_FILE in manifest.checksums:
        raw = _read_payload(path, MASK_FILE, manifest.checksums[MASK_FILE])
        if len(raw) != manifest.n_params:
            raise FormatError("mask payload length disagrees with manifest")
        mbytes = np.frombuffer(raw, dtype=np.uint8)
        if mbytes.max() > 1:
            raise FormatError("mask bytes must be 0 or 1")
        mask = PruneMask(mbytes.view(bool))

    return ps, curvature, mask

