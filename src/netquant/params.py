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

# Bits per original parameter: payloads and stored centers are float32, and
# compression ratios count every original parameter at this width.
SOURCE_BITS = 32

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
    """A loss or curvature became non-finite or overflowed its storage."""


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
    if n < 1:
        raise ValueError("empty parameter set")
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


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool raises
    ``ValueError`` rather than being truncated or converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer; got {value!r}")
    return value


def _read_only(value, dtype) -> np.ndarray:
    """``value`` as a flat non-empty read-only ``dtype`` array for a record;
    a copy only where the conversion returned the caller's writeable array."""
    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a flat non-empty vector")
    if arr is value and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParamSet:
    """All trainable parameters of one model, flattened into one vector.

    ``values`` is float32 (the canonical storage precision, ``SOURCE_BITS``
    per entry); spans partition ``[0, len(values))`` without gaps.
    """

    values: np.ndarray
    spans: tuple[Span, ...]

    def __post_init__(self):
        arr = _read_only(self.values, np.float32)
        object.__setattr__(self, "values", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter values must be finite")
        object.__setattr__(self, "spans", tuple(self.spans))
        _validate_spans(self.spans, arr.size)

    @classmethod
    def from_flat(cls, values, name: str = "params") -> "ParamSet":
        return cls(values, (Span(name, 0, np.size(values)),))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def as_f64(self) -> np.ndarray:
        return self.values.astype(np.float64)


@dataclass(frozen=True)
class CurvatureDiag:
    """Per-parameter nonnegative sensitivity weights.

    Entries estimate how strongly the training loss reacts to perturbing
    each parameter. Floored to ``CURVATURE_FLOOR`` at construction so every
    entry is strictly positive.
    """

    values: np.ndarray
    source: CurvatureSource

    def __post_init__(self):
        arr = _read_only(self.values, np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("curvature values must be finite")
        if arr.min() < np.float32(CURVATURE_FLOOR):
            arr = np.maximum(arr, np.float32(CURVATURE_FLOOR))
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
        arr = _read_only(self.kept, bool)
        if not arr.any():
            raise ValueError("mask prunes every parameter")
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
    spans: tuple[Span, ...]
    checksums: dict = field(default_factory=dict)
    curvature_source: str | None = None

    def to_json(self) -> str:
        doc = {
            "model_name": self.model_name,
            "n_params": self.n_params,
            "bits_per_param": SOURCE_BITS,
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
    def from_json(cls, text: str | bytes) -> "Manifest":
        """Parse and check a manifest; any inconsistency, including text that
        is not JSON, is a FormatError."""
        try:
            doc = json.loads(text)
            if json_int(doc["bits_per_param"], "bits_per_param") != SOURCE_BITS:
                raise ValueError(f"bits_per_param must be {SOURCE_BITS}")
            names = [doc["model_name"], *(s["name"] for s in doc["spans"])]
            if any(type(name) is not str for name in names):
                raise ValueError("model_name and span names must be JSON strings")
            manifest = cls(
                model_name=doc["model_name"],
                n_params=json_int(doc["n_params"], "n_params"),
                spans=tuple(
                    Span(
                        s["name"],
                        json_int(s["offset"], "span offset"),
                        json_int(s["length"], "span length"),
                    )
                    for s in doc["spans"]
                ),
                checksums=dict(doc["checksums"]),
                curvature_source=doc.get("curvature_source"),
            )
            _validate_spans(manifest.spans, manifest.n_params)
            if manifest.curvature_source is not None:
                CurvatureSource(manifest.curvature_source)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"manifest is missing or corrupt: {exc}") from exc
        return manifest


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def write_files(directory, files: dict) -> None:
    """Write ``files`` (name -> bytes-like or str) into ``directory`` without
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

    # Each payload is its array's own buffer; asarray copies only on a
    # big-endian host, since the payloads are little-endian.
    payloads = {PARAMS_FILE: memoryview(np.asarray(ps.values, "<f4"))}
    if curvature is not None:
        payloads[CURVATURE_FILE] = memoryview(np.asarray(curvature.values, "<f4"))
    if mask is not None:
        payloads[MASK_FILE] = memoryview(mask.kept.view(np.uint8))

    manifest = Manifest(
        model_name=model_name,
        n_params=ps.n,
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


@dataclass(frozen=True)
class ModelDir:
    """A model directory whose manifest is read and checked; each payload is
    read only when its method is called."""

    path: Path
    manifest: Manifest

    def _payload(self, name: str, dtype: str) -> np.ndarray | None:
        """The payload ``name`` as a flat ``dtype`` array, or None if the
        manifest lists none. Its size is checked before it is read, its
        checksum after."""
        expected = self.manifest.checksums.get(name)
        if expected is None:
            return None
        fpath = self.path / name
        if not fpath.is_file():
            raise FormatError(f"missing payload file {fpath}")
        size = np.dtype(dtype).itemsize * self.manifest.n_params
        if (found := fpath.stat().st_size) != size:
            raise FormatError(f"{name} holds {found} bytes, not the manifest's {size}")
        data = fpath.read_bytes()
        if (actual := _sha256(data)) != expected:
            raise ChecksumError(f"{name}: sha256 {actual} != manifest {expected}")
        return np.frombuffer(data, dtype=dtype)

    def params(self) -> ParamSet:
        values = self._payload(PARAMS_FILE, "<f4")
        return _checked(PARAMS_FILE, ParamSet, values, self.manifest.spans)

    def curvature(self) -> CurvatureDiag | None:
        values = self._payload(CURVATURE_FILE, "<f4")
        if values is None:
            return None
        source = self.manifest.curvature_source or "identity"
        return _checked(CURVATURE_FILE, CurvatureDiag, values, source)

    def mask(self) -> PruneMask | None:
        mbytes = self._payload(MASK_FILE, "u1")
        if mbytes is None:
            return None
        if mbytes.max() > 1:
            raise FormatError(f"{MASK_FILE}: mask bytes must be 0 or 1")
        return _checked(MASK_FILE, PruneMask, mbytes.view(bool))


def _checked(name: str, record, *args):
    """``record(*args)``; a ``ValueError`` it raises is damage in payload ``name``."""
    try:
        return record(*args)
    except ValueError as exc:
        raise FormatError(f"{name}: {exc}") from exc


def open_model(path) -> ModelDir:
    """Open a model directory written by :func:`save_model`, reading and
    checking only its manifest."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.is_file():
        raise FormatError(f"no manifest at {manifest_path}")
    manifest = Manifest.from_json(manifest_path.read_bytes())
    if PARAMS_FILE not in manifest.checksums:
        raise FormatError("manifest lists no parameter payload")
    return ModelDir(Path(path), manifest)


def load_model(path) -> tuple[ParamSet, CurvatureDiag | None, PruneMask | None]:
    """Read a model directory written by :func:`save_model`."""
    model = open_model(path)
    return model.params(), model.curvature(), model.mask()
