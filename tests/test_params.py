import json
import os
import tracemalloc

import numpy as np
import pytest

from netquant import (
    ChecksumError,
    CurvatureDiag,
    CurvatureSource,
    FormatError,
    ParamSet,
    PruneMask,
    Span,
    load_model,
    params,
    save_model,
)
from netquant.params import CURVATURE_FLOOR, MANIFEST_FILE, PARAMS_FILE


def test_roundtrip_tiny(tmp_path):
    ps = ParamSet.from_flat([0.5, -1.25])
    manifest = save_model(ps, tmp_path)
    assert manifest.n_params == 2
    assert json.loads((tmp_path / MANIFEST_FILE).read_text())["bits_per_param"] == 32
    loaded, cv, mask = load_model(tmp_path)
    assert np.array_equal(loaded.values, ps.values)
    assert loaded.spans == ps.spans
    assert cv is None and mask is None


def test_roundtrip_all_components_bitexact(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=257).astype(np.float32)
    spans = (Span("a", 0, 100), Span("b", 100, 157))
    ps = ParamSet(values, spans)
    cv = CurvatureDiag(rng.uniform(0, 2, 257), CurvatureSource.GAUSS_NEWTON)
    kept = rng.random(257) > 0.3
    kept[0] = True
    mask = PruneMask(kept)
    save_model(ps, tmp_path, curvature=cv, mask=mask, model_name="rt")
    ps2, cv2, mask2 = load_model(tmp_path)
    assert ps2.values.tobytes() == ps.values.tobytes()
    assert cv2.values.tobytes() == cv.values.tobytes()
    assert cv2.source == CurvatureSource.GAUSS_NEWTON
    assert np.array_equal(mask2.kept, mask.kept)


def test_roundtrip_random_property(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 500))
        ps = ParamSet.from_flat(rng.normal(size=n).astype(np.float32))
        d = tmp_path / f"m{trial}"
        save_model(ps, d)
        loaded, _, _ = load_model(d)
        assert loaded.values.tobytes() == ps.values.tobytes()


def _model(seed):
    rng = np.random.default_rng(seed)
    ps = ParamSet.from_flat(rng.normal(size=50).astype(np.float32))
    return ps, CurvatureDiag(rng.uniform(0.1, 2.0, 50), CurvatureSource.GAUSS_NEWTON)


def test_save_over_existing_model_leaves_only_its_files(tmp_path):
    save_model(_model(0)[0], tmp_path)
    ps, cv = _model(1)
    save_model(ps, tmp_path, curvature=cv, mask=PruneMask(np.arange(50) % 2 == 0))
    loaded, cv2, mask2 = load_model(tmp_path)
    assert loaded.values.tobytes() == ps.values.tobytes()
    assert cv2.values.tobytes() == cv.values.tobytes()
    assert mask2.n_kept == 25
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curvature.f32le", MANIFEST_FILE, "mask.u8", PARAMS_FILE,
    ]  # fmt: skip


def test_failed_manifest_replace_keeps_old_model_loadable(tmp_path, monkeypatch):
    old_ps, old_cv = _model(0)
    save_model(old_ps, tmp_path, curvature=old_cv)
    os_replace = params.os.replace

    def fail_on_manifest(src, dst):
        if str(dst).endswith(MANIFEST_FILE):
            raise OSError("disk full")
        return os_replace(src, dst)

    monkeypatch.setattr(params.os, "replace", fail_on_manifest)
    ps, cv = _model(1)
    with pytest.raises(OSError, match="disk full"):
        save_model(ps, tmp_path, curvature=cv, mask=PruneMask(np.arange(50) % 2 == 0))
    loaded, cv2, mask2 = load_model(tmp_path)
    assert loaded.values.tobytes() == old_ps.values.tobytes()
    assert cv2.values.tobytes() == old_cv.values.tobytes()
    assert mask2 is None
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curvature.f32le", MANIFEST_FILE, PARAMS_FILE,
    ]  # fmt: skip


def test_component_length_mismatch_rejected(tmp_path):
    ps = ParamSet.from_flat([1.0, 2.0])
    mask = PruneMask([True, False, True])
    with pytest.raises(ValueError, match="length"):
        save_model(ps, tmp_path, mask=mask)


def test_lenet_scale_payload_byte_accounting(tmp_path):
    n = 431080
    ps = ParamSet.from_flat(np.linspace(-1, 1, n, dtype=np.float32))
    save_model(ps, tmp_path)
    assert (tmp_path / PARAMS_FILE).stat().st_size == n * 4
    assert (tmp_path / MANIFEST_FILE).is_file()


def test_corrupted_payload_is_checksum_error(tmp_path):
    ps = ParamSet.from_flat(np.arange(16, dtype=np.float32))
    save_model(ps, tmp_path)
    payload = bytearray((tmp_path / PARAMS_FILE).read_bytes())
    payload[5] ^= 0xFF
    (tmp_path / PARAMS_FILE).write_bytes(bytes(payload))
    with pytest.raises(ChecksumError):
        load_model(tmp_path)


def test_manifest_count_mismatch_is_format_error(tmp_path):
    ps = ParamSet.from_flat(np.arange(16, dtype=np.float32))
    save_model(ps, tmp_path)
    text = (tmp_path / MANIFEST_FILE).read_text()
    (tmp_path / MANIFEST_FILE).write_text(text.replace('"n_params": 16', '"n_params": 15'))
    with pytest.raises(FormatError):
        load_model(tmp_path)


@pytest.mark.parametrize(
    "path, value",
    [
        (("spans", 1, "offset"), 5),
        (("spans", 1, "name"), "a"),
        (("curvature_source",), "bogus"),
        (("bits_per_param",), 0),
        (("bits_per_param",), 16),
        (("spans",), []),
    ],
    ids=["span-gap", "duplicate-span", "curvature-source", "bits-0", "bits-16", "no-spans"],
)
def test_damaged_manifest_is_format_error(tmp_path, path, value):
    ps = ParamSet(np.arange(8, dtype=np.float32), (Span("a", 0, 3), Span("b", 3, 5)))
    save_model(ps, tmp_path, curvature=CurvatureDiag(np.ones(8), CurvatureSource.IDENTITY))
    doc = json.loads((tmp_path / MANIFEST_FILE).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / MANIFEST_FILE).write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(tmp_path)


def test_oversized_payload_refused_before_it_is_read(tmp_path):
    """A sparse 64 MiB payload is refused by its size, without reading it."""
    save_model(ParamSet.from_flat(np.arange(16, dtype=np.float32)), tmp_path)
    os.truncate(tmp_path / PARAMS_FILE, 64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as raised:
            load_model(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(raised.value, ChecksumError)
    assert peak < 4 << 20


def test_missing_payload_is_format_error(tmp_path):
    ps = ParamSet.from_flat(np.arange(4, dtype=np.float32))
    save_model(ps, tmp_path)
    (tmp_path / PARAMS_FILE).unlink()
    with pytest.raises(FormatError, match="missing"):
        load_model(tmp_path)


class TestParamSetInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParamSet.from_flat([1.0, np.nan])
        with pytest.raises(ValueError):
            ParamSet.from_flat([np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamSet.from_flat([])

    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            ParamSet([1.0, 2.0], (Span("a", 0, 1),))
        with pytest.raises(ValueError):
            ParamSet([1.0, 2.0], (Span("a", 0, 1), Span("b", 0, 1)))
        with pytest.raises(ValueError):
            ParamSet([1.0, 2.0], (Span("a", 0, 1), Span("a", 1, 1)))

    def test_values_read_only(self):
        ps = ParamSet.from_flat([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.values[0] = 5.0


class TestCurvature:
    def test_floor_applied_at_construction(self):
        cv = CurvatureDiag([0.0, 1.0, -3.0], CurvatureSource.EXACT_HESSIAN)
        assert np.all(cv.values >= np.float32(CURVATURE_FLOOR))
        assert cv.values[1] == np.float32(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CurvatureDiag([np.nan], CurvatureSource.IDENTITY)


class TestPruneMask:
    def test_rejects_all_pruned(self):
        with pytest.raises(ValueError):
            PruneMask([False, False])


@pytest.mark.parametrize(
    "make, attr, dtype",
    [
        (ParamSet.from_flat, "values", np.float32),
        (lambda a: CurvatureDiag(a, CurvatureSource.ADAM_SQRT_MOMENT), "values", np.float32),
        (PruneMask, "kept", bool),
    ],
    ids=["ParamSet", "CurvatureDiag", "PruneMask"],
)
class TestRecordArrays:
    """A record holds its array read-only without freezing the caller's: it
    copies a writeable array it would otherwise share, and shares a
    read-only one, as a model directory's payloads are."""

    def test_callers_array_stays_writeable(self, make, attr, dtype):
        given = np.ones(3, dtype)
        held = getattr(make(given), attr)
        given[0] = 0
        assert held[0] == 1
        assert not held.flags.writeable

    def test_read_only_array_is_shared(self, make, attr, dtype):
        given = np.ones(3, dtype)
        given.setflags(write=False)
        assert getattr(make(given), attr) is given
