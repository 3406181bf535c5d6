"""Batch command-line pipeline over the library.

Subcommands mirror the compression workflow: ``train-ref`` produces a
reference model directory, ``prune`` adds a prune mask to it,
``quantize`` runs load -> compact -> curvature -> cluster -> code -> evaluate
-> encode (-> fine-tune) and writes the encoded model plus a JSON report,
``sweep`` repeats that over a list of cluster counts or rate penalties into
a CSV, and ``report`` re-derives every number from an encoded model file.

Configuration is a flat ``key=value`` file overridden by flags; the fully
resolved configuration is written next to the outputs for provenance. Runs
are deterministic per (config, seed).

Exit codes: 0 ok, 2 configuration error, 3 I/O or format error,
4 constraint infeasible, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coding, params, quantizers, refnet
from .params import DivergenceError, FormatError, NetQuantError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERIC = 5

SWEEP_CSV_VERSION = "netquant-sweep-csv v1"
SWEEP_COLUMNS = [
    "index",
    "quantizer",
    "coding",
    "knob",
    "k_effective",
    "entropy_bits",
    "avg_codeword_bits",
    "ratio_exact",
    "accuracy_pre_ft",
    "accuracy_post_ft",
    "seed",
    "status",
]

QUANTIZERS = ("kmeans", "hw-kmeans", "uniform", "ecsq")
KMEANS_QUANTIZERS = ("kmeans", "hw-kmeans")
REFNET_FILE = "refnet.json"


class ConfigError(NetQuantError):
    pass


class InfeasibleError(NetQuantError):
    pass


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Parser builders: each parser converts a value and raises ValueError when it
# falls outside its key's domain.


def _int_from(low: int, below: int | None = None):
    def parse(text) -> int:
        value = int(text)
        if value < low or (below is not None and value >= below):
            upper = "" if below is None else f" and below {below}"
            raise ValueError(f"must be at least {low}{upper}; got {value}")
        return value

    return parse


def _float_in(low: float, high: float = math.inf, *, closed_low: bool = False):
    """Floats in (low, high), or [low, high) with ``closed_low``; NaN never."""

    def parse(text) -> float:
        value = float(text)
        above = low <= value if closed_low else low < value
        if not (above and value < high):
            bracket = "[" if closed_low else "("
            raise ValueError(f"must be in {bracket}{low:g}, {high:g}); got {value}")
        return value

    return parse


def _one_of(allowed: tuple):
    def parse(text) -> str:
        if text not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {text!r}")
        return text

    return parse


def _list_of(item):
    """Comma list of ``item`` values; items are stripped, empty ones dropped."""

    def parse(text) -> list:
        return [item(x.strip()) for x in str(text).split(",") if x.strip()]

    return parse


_FINITE = _float_in(-math.inf)

# key -> (default, parser). Everything lands in one flat namespace shared
# by the config file and the flags.
OPTION_TABLE: dict[str, tuple[object, object]] = {
    "model_dir": (None, str),
    "dataset": (None, str),
    "out_dir": (None, str),
    "quantizer": ("kmeans", _one_of(QUANTIZERS)),
    "curvature": ("identity", _one_of(("exact", "gauss-newton", "adam", "identity"))),
    "coding": ("huffman", _one_of(("fixed", "huffman"))),
    "k": (None, _int_from(1, 2**63)),
    # the entropy budget SOURCE_BITS / target_ratio must be finite
    "target_ratio": (None, _float_in(params.SOURCE_BITS / sys.float_info.max)),
    "lam": (None, _float_in(0.0, closed_low=True)),
    "prune_fraction": (0.0, _float_in(0.0, 1.0, closed_low=True)),
    "fine_tune": (False, _parse_bool),
    "seed": (0, _int_from(0)),
    "center_rule": ("mean", _one_of(("mean", "hessian_weighted_mean"))),
    "hessian_samples": (0, _int_from(0)),
    "k_list": (None, _list_of(int)),
    "lambda_list": (None, _list_of(float)),
    "quantizers": (None, _list_of(_one_of(QUANTIZERS))),
    # train-ref
    "hidden": ([32], _list_of(int)),
    "activation": ("relu", _one_of(refnet.ACTIVATIONS)),
    "loss": ("softmax_cross_entropy", _one_of(refnet.LOSSES)),
    "steps": (500, _int_from(0)),
    "batch_size": (64, _int_from(1)),
    "lr": (0.01, _float_in(0.0)),
    "model_name": ("refnet", str),
    # fine-tune
    "ft_steps": (200, _int_from(0)),
    "ft_batch_size": (64, _int_from(1)),
    "ft_lr": (1e-5, _float_in(0.0)),
    # synthetic dataset
    "synth_samples": (2000, _int_from(1)),
    "synth_classes": (4, _int_from(1)),
    "synth_features": (10, _int_from(1)),
    "synth_noise": (1.0, _FINITE),
    "synth_spread": (3.0, _FINITE),
    "synth_scale": (1.0, _FINITE),
    "synth_seed": (0, _int_from(0)),
    "eval_frac": (0.3, _float_in(0.0, 1.0)),
    # report
    "model_nq": (None, str),
    "out": (None, str),
}


def _option(key: str, raw, where: str | None = None):
    """``raw`` parsed and checked as a value of ``key``."""
    _, parse = OPTION_TABLE[key]
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where or key}: {exc}") from exc


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTION_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, with parsing and checks."""
    cfg = {key: default for key, (default, _) in OPTION_TABLE.items()}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            cfg[key] = _option(key, raw, f"config key {key}")
    for key in OPTION_TABLE:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = _option(key, flag_value, f"flag --{key.replace('_', '-')}")
    return cfg


def _config_text(cfg: dict) -> str:
    lines = [f"# resolved configuration ({SWEEP_CSV_VERSION.split()[0]})"]
    for key in sorted(cfg):
        value = cfg[key]
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ",".join(str(x) for x in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _require(cfg: dict, key: str, why: str):
    if cfg.get(key) is None:
        raise ConfigError(f"{why} requires --{key.replace('_', '-')}")
    return cfg[key]


# ---------------------------------------------------------------------------
# Dataset and reference-net helpers
# ---------------------------------------------------------------------------


def _synth_dataset(cfg: dict) -> refnet.Dataset:
    try:
        return refnet.make_blobs(
            n_samples=cfg["synth_samples"],
            n_classes=cfg["synth_classes"],
            n_features=cfg["synth_features"],
            seed=cfg["synth_seed"],
            center_spread=cfg["synth_spread"],
            noise=cfg["synth_noise"],
            input_scale=cfg["synth_scale"],
            eval_frac=cfg["eval_frac"],
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"synthetic dataset: {exc}") from exc


def _load_dataset(
    cfg: dict, refnet_doc: dict | None = None, spec: refnet.MlpSpec | None = None
) -> refnet.Dataset | None:
    """The configured dataset, or None. ``--dataset synth`` takes the keys
    that ``refnet_doc`` stores; the dataset must fit the net ``spec``."""
    name = cfg["dataset"]
    if name is None:
        return None
    stored = name == "synth" and "dataset" in (refnet_doc or {})
    if stored:
        # The values train-ref stored must parse, as JSON text, like config values.
        block, stored_cfg = refnet_doc["dataset"], dict(cfg)
        if not isinstance(block, dict) or not block.keys() <= set(_DATASET_KEYS):
            raise FormatError(f"bad {REFNET_FILE}: dataset is not an object of dataset keys")
        try:
            for key, value in block.items():
                stored_cfg[key] = _option(key, json.dumps(value), f"dataset key {key}")
            dataset = _synth_dataset(stored_cfg)
        except ConfigError as exc:
            raise FormatError(f"bad {REFNET_FILE}: {exc}") from exc
    elif name == "synth":
        dataset = _synth_dataset(cfg)
    elif not Path(name).is_file():
        raise ConfigError(f"dataset file not found: {name}")
    else:
        try:
            dataset = refnet.load_csv(name, eval_frac=cfg["eval_frac"], seed=cfg["synth_seed"])
        except ValueError as exc:
            raise ConfigError(f"bad dataset {name}: {exc}") from exc
    # A dataset stored beside the net that does not fit it is damage.
    error = FormatError if stored else ConfigError
    if spec is not None and dataset.n_features != spec.layer_widths[0]:
        raise error("dataset feature width disagrees with the model spec")
    if spec is not None and dataset.n_classes > spec.layer_widths[-1]:
        raise error(
            f"dataset needs {dataset.n_classes} outputs, the model has "
            f"{spec.layer_widths[-1]}"
        )
    return dataset


def _open_model_dir(path) -> tuple[params.ModelDir, dict | None, refnet.MlpSpec | None]:
    """The model directory at ``path``, its ``refnet.json`` document and the
    net that describes, both None without the file: the one reader of it."""
    model = params.open_model(path)
    refnet_path = model.path / REFNET_FILE
    if not refnet_path.is_file():
        return model, None, None
    try:
        doc = json.loads(refnet_path.read_text())
        widths = tuple(params.json_int(w, "a layer width") for w in doc["layer_widths"])
        spec = refnet.MlpSpec(widths, doc["activation"], doc["loss"])
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad {refnet_path}: {exc}") from exc
    if spec.param_count() != model.manifest.n_params:
        raise FormatError(f"{REFNET_FILE} and the manifest disagree on the parameter count")
    return model, doc, spec


def _open_with_dataset(cfg: dict, path):
    """The model directory at ``path``, its net and dataset (None if absent)."""
    model, refnet_doc, spec = _open_model_dir(path)
    if cfg["dataset"] is not None and spec is None:
        raise ConfigError(f"--dataset needs {REFNET_FILE} in {path}")
    return model, spec, _load_dataset(cfg, refnet_doc, spec)


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _round_codebook_f32(codebook: quantizers.Codebook) -> quantizers.Codebook:
    # Stored centers are float32; round once so every downstream number
    # (accuracy, encoded artifact) describes the same model.
    return quantizers.Codebook(
        codebook.centers.astype(np.float32).astype(np.float64), codebook.counts
    )


def _solve_kmeans(values, curvature, quantizer: str, ks) -> dict:
    """k -> exact ``quantizer`` result for each k in ``ks``, from one DP."""
    weights = curvature if quantizer == "hw-kmeans" else None
    return dict(zip(ks, quantizers.kmeans_sweep(values, weights, ks)))


def _ecsq_count(cfg: dict, n_values: int) -> int:
    k = cfg["k"]
    if k > n_values:
        raise ConfigError(f"ecsq k={k} exceeds the {n_values} values to cluster")
    return k


def _quantize_values(values, curvature, cfg: dict, solved=None):
    """Run the configured quantizer; returns (assignment, codebook, extras).

    ``solved`` holds a k-means quantizer's results by k, or the error its
    solve raised, when the caller has solved for several k at once.
    """
    quantizer = cfg["quantizer"]
    extras: dict = {}
    if quantizer == "uniform":
        k = _require(cfg, "k", "uniform")
        res = quantizers.uniform_quantize(
            values, curvature, k=k, center_rule=cfg["center_rule"]
        )
    elif quantizer in KMEANS_QUANTIZERS:
        k = _require(cfg, "k", quantizer)
        if solved is None:
            solved = _solve_kmeans(values, curvature, quantizer, [k])
        if isinstance(solved, Exception):
            raise solved
        res = solved[k]
    else:  # ecsq, with exactly one of k (plus lam) and target_ratio set
        if cfg["target_ratio"] is not None:
            budget = params.SOURCE_BITS / cfg["target_ratio"]  # bits per parameter
            k = 2 ** min(6, math.ceil(budget) + 1)
            found = quantizers.solve_lambda(
                values, curvature, k=k, target_entropy=budget
            )
            if not found.met:
                raise InfeasibleError(
                    f"entropy budget {budget:.4f} bits not met "
                    f"(achieved {found.entropy:.4f})"
                )
            res = found.result
            extras["entropy_budget"] = budget
            extras["lambda"] = found.lam
        else:
            lam = cfg["lam"] or 0.0
            k = _ecsq_count(cfg, values.size)
            extras["lambda"] = lam
            res = quantizers.ecsq_iterate(values, curvature, k, lam)
    return res.assignment, _round_codebook_f32(res.codebook), extras


def _build_code(scheme: str, codebook: quantizers.Codebook) -> coding.PrefixCode:
    if scheme == "fixed":
        return coding.fixed_length_code(codebook.k)
    return coding.build_huffman(codebook)


@dataclass(frozen=True)
class Inputs:
    """What a quantize point needs of a loaded model directory besides the
    values its quantizer clusters; ``report`` builds one from a decoded
    model to score it with :func:`_evaluate`.

    ``positions`` maps the clustered (unpruned) values back into the full
    vector of ``total_params`` and is ``None`` when nothing is pruned.
    """

    total_params: int
    spec: refnet.MlpSpec | None
    dataset: refnet.Dataset | None
    positions: np.ndarray | None


@dataclass(frozen=True)
class Point:
    """The outcome of one quantize -> code -> (fine-tune) -> evaluate pass.

    ``encoded_preft`` is the model before fine-tuning, ``None`` without it;
    an accuracy is ``None`` when it was not measured.
    """

    encoded: coding.EncodedModel
    encoded_preft: coding.EncodedModel | None
    report: coding.CompressionReport
    accuracy_pre: float | None
    accuracy_post: float | None
    extras: dict


def _evaluate(inputs: Inputs, assignment, codebook: quantizers.Codebook) -> float:
    """Eval-split accuracy of the net with each kept parameter at its
    cluster center and pruned ones at zero."""
    w = quantizers.scatter_dequantize(
        inputs.total_params, assignment, codebook, inputs.positions
    )
    return refnet.eval_accuracy(inputs.spec, w, *inputs.dataset.split("eval"))


def _encode(inputs: Inputs, assignment, codebook, code) -> coding.EncodedModel:
    return coding.encode_assignments(
        assignment, codebook, code, inputs.positions, inputs.total_params
    )


def _fine_tune(cfg: dict, inputs: Inputs, assignment, codebook) -> quantizers.Codebook:
    """The shared centers fine-tuned on the training split, rounded to float32."""
    ft = refnet.FineTuneConfig(cfg["ft_steps"], cfg["ft_batch_size"], cfg["ft_lr"], cfg["seed"])
    tuned = refnet.fine_tune_centers(
        inputs.spec, assignment, codebook, inputs.dataset, ft, positions=inputs.positions
    )
    return _round_codebook_f32(tuned)


def _run_quantize_point(cfg: dict, inputs: Inputs, quantized) -> Point:
    """One code -> evaluate -> encode -> (fine-tune -> encode -> evaluate)
    pass, in memory, over what :func:`_quantize_values` returned."""
    assignment, codebook, extras = quantized
    code = _build_code(cfg["coding"], codebook)
    encoded_preft = accuracy_pre = accuracy_post = None
    # Evaluating first lets the encoder's temporaries reuse the heap space
    # that the full-length dequantized vector leaves behind.
    if inputs.dataset is not None:
        accuracy_pre = _evaluate(inputs, assignment, codebook)
    encoded = _encode(inputs, assignment, codebook, code)
    if cfg["fine_tune"]:  # _prepare_inputs checked for a dataset
        codebook = _fine_tune(cfg, inputs, assignment, codebook)
        encoded_preft, encoded = encoded, _encode(inputs, assignment, codebook, code)
        accuracy_post = _evaluate(inputs, assignment, codebook)
    report = coding.build_report(encoded, codebook.counts, code)
    return Point(encoded, encoded_preft, report, accuracy_pre, accuracy_post, extras)


def _compact(cfg: dict, model: params.ModelDir):
    """The kept values as float64, their positions and mask (``None`` if
    unpruned), and the full vector with pruned slots zeroed that a data
    curvature evaluates. The float32 parameters are dropped on return."""
    ps = model.params()
    fraction = cfg["prune_fraction"]
    mask = refnet.prune_magnitude(ps, fraction) if fraction else model.mask()
    if mask is None:
        values = ps.as_f64()
        return values, None, None, values
    values, positions = quantizers.gather_kept(ps.values, mask.kept)
    data = cfg["curvature"] in ("exact", "gauss-newton")
    full = np.multiply(ps.values, mask.kept, dtype=float) if data else None
    return values, positions, mask, full


def _curvature(cfg: dict, model, spec, dataset, full, mask) -> params.CurvatureDiag | None:
    """The run's curvature at the kept positions: ``None`` for ``identity``,
    the unit weights every solver takes without an array; ``adam`` is what
    ``train-ref`` stored; ``exact`` and ``gauss-newton`` evaluate ``full``."""
    source, curvature = cfg["curvature"], None  # identity
    if source == "adam":
        curvature = model.curvature()
        if curvature is None or curvature.source != params.CurvatureSource.ADAM_SQRT_MOMENT:
            raise ConfigError(
                "curvature=adam needs a model directory with stored "
                "adam_sqrt_moment curvature (run train-ref)"
            )
    elif source != "identity":
        if dataset is None:
            raise ConfigError(f"curvature={source} needs a dataset and {REFNET_FILE}")
        x, y = dataset.split("hessian")
        cap = cfg["hessian_samples"]
        if cap:
            x, y = x[:cap], y[:cap]
        backend = refnet.hessian_diag_exact if source == "exact" else refnet.hessian_diag_gn
        curvature = backend(spec, full, x, y)
    if curvature is None or mask is None:
        return curvature
    kept = curvature.values[mask.kept]
    kept.setflags(write=False)  # handed over: the record need not copy it
    return params.CurvatureDiag(kept, curvature.source)


def _prepare_inputs(cfg: dict) -> tuple[Inputs, np.ndarray, params.CurvatureDiag | None]:
    """Load -> prune+compact -> curvature: the model directory's
    :class:`Inputs`, and the kept values the quantizer clusters with their
    curvature, which a command drops once it has clustered."""
    model_dir = Path(_require(cfg, "model_dir", "this command"))
    model, spec, dataset = _open_with_dataset(cfg, model_dir)
    if cfg["fine_tune"] and dataset is None:
        raise ConfigError("fine_tune needs a dataset and a model with refnet.json")
    values, positions, mask, full = _compact(cfg, model)
    curvature = _curvature(cfg, model, spec, dataset, full, mask)
    return Inputs(model.manifest.n_params, spec, dataset, positions), values, curvature


def _write_outputs(out_dir: Path, files: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    params.write_files(out_dir, files)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _report_doc(cfg: dict, inputs: Inputs, point: Point) -> dict:
    doc = {
        "quantizer": cfg["quantizer"],
        "coding": cfg["coding"],
        "seed": cfg["seed"],
        "pruned": inputs.positions is not None,
        "prune_fraction": cfg["prune_fraction"],
        "accuracy_pre_finetune": point.accuracy_pre,
        "accuracy_post_finetune": point.accuracy_post,
    }
    doc.update(point.extras)
    doc.update(point.report.as_dict())
    return doc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train_ref(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(_require(cfg, "out_dir", "train-ref"))
    _require(cfg, "dataset", "train-ref")
    dataset = _load_dataset(cfg)
    widths = (dataset.n_features, *cfg["hidden"], dataset.n_classes)
    try:
        spec = refnet.MlpSpec(widths, cfg["activation"], cfg["loss"])
    except ValueError as exc:
        raise ConfigError(f"layer widths {list(widths)}: {exc}") from exc
    model = refnet.train_adam(
        spec,
        dataset,
        refnet.TrainConfig(
            steps=cfg["steps"],
            batch_size=cfg["batch_size"],
            lr=cfg["lr"],
            seed=cfg["seed"],
        ),
    )
    curvature = refnet.adam_curvature(model.adam)
    params.save_model(
        model.params, out_dir, curvature=curvature, model_name=cfg["model_name"]
    )
    doc = {
        "layer_widths": list(widths),
        "activation": cfg["activation"],
        "loss": cfg["loss"],
        "seed": cfg["seed"],
        "train": {
            "steps": cfg["steps"],
            "batch_size": cfg["batch_size"],
            "lr": cfg["lr"],
        },
    }
    if cfg["dataset"] == "synth":
        doc["dataset"] = {key: cfg[key] for key in _DATASET_KEYS}
    params.write_files(
        out_dir, {REFNET_FILE: _dumps(doc) + "\n", "config.txt": _config_text(cfg)}
    )
    summary = {
        "n_params": model.params.n,
        "final_loss": model.final_loss,
        "eval_accuracy": model.eval_accuracy,
        "out_dir": str(out_dir),
    }
    print(_dumps(summary))
    return EXIT_OK


def cmd_prune(args) -> int:
    cfg = _resolve_config(args)
    model_dir = Path(_require(cfg, "model_dir", "prune"))
    fraction = cfg["prune_fraction"]
    if fraction == 0.0:
        raise ConfigError("prune needs a --prune-fraction above 0")
    model, refnet_doc, _ = _open_model_dir(model_dir)
    ps, name = model.params(), model.manifest.model_name
    mask = refnet.prune_magnitude(ps, fraction)
    # Saved to --out-dir (default: in place) under the manifest's model
    # name; a different directory also gets a copy of refnet.json.
    out_dir = Path(cfg["out_dir"]) if cfg["out_dir"] else model_dir
    params.save_model(ps, out_dir, model.curvature(), mask, model_name=name)
    if refnet_doc is not None and out_dir != model_dir:
        params.write_files(out_dir, {REFNET_FILE: _dumps(refnet_doc) + "\n"})
    print(_dumps({"n_params": ps.n, "n_kept": mask.n_kept, "out_dir": str(out_dir)}))
    return EXIT_OK


def cmd_quantize(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(_require(cfg, "out_dir", "quantize"))
    if cfg["quantizer"] != "ecsq":
        for key in ("target_ratio", "lam"):
            if cfg[key] is not None:
                raise ConfigError(f"--{key.replace('_', '-')} needs --quantizer ecsq")
    elif (cfg["k"] is None) == (cfg["target_ratio"] is None):
        raise ConfigError("ecsq needs exactly one of --k or --target-ratio")
    elif cfg["lam"] is not None and cfg["target_ratio"] is not None:
        raise ConfigError("ecsq takes --lam with --k, not with --target-ratio")
    inputs, values, curvature = _prepare_inputs(cfg)
    quantized = _quantize_values(values, curvature, cfg)
    del values, curvature  # the rest of the run needs only the assignment
    point = _run_quantize_point(cfg, inputs, quantized)

    doc = _report_doc(cfg, inputs, point)
    files = {
        "model.nq": point.encoded.data,
        "report.json": _dumps(doc) + "\n",
        "config.txt": _config_text(cfg),
    }
    if point.encoded_preft is not None:
        files["model_preft.nq"] = point.encoded_preft.data
    _write_outputs(out_dir, files)
    print(_dumps(doc))
    return EXIT_OK


def _sweep_points(cfg: dict) -> list[tuple[str, object]]:
    if not cfg["quantizers"]:
        raise ConfigError("sweep needs --quantizers")
    points = []
    for quantizer in cfg["quantizers"]:
        key = "lambda_list" if quantizer == "ecsq" else "k_list"
        if not cfg[key]:
            raise ConfigError(f"sweeping {quantizer} needs --{key.replace('_', '-')}")
        points.extend((quantizer, knob) for knob in cfg[key])
    return points


def _csv_number(value) -> str:
    return "" if value is None else f"{value:.10g}"


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(_require(cfg, "out_dir", "sweep"))
    points = _sweep_points(cfg)
    inputs, values, curvature = _prepare_inputs(cfg)
    # An ecsq k too large for the values fails the whole sweep.
    if any(q == "ecsq" for q, _ in points) and cfg["k"] is not None:
        _ecsq_count(cfg, values.size)

    # One DP per k-means quantizer serves all of its rows; a k below 1
    # still fails only its own row.
    solved = {}
    for quantizer in KMEANS_QUANTIZERS:
        ks = [k for q, k in points if q == quantizer and k >= 1]
        if not ks:
            continue
        try:
            solved[quantizer] = _solve_kmeans(values, curvature, quantizer, ks)
        except (NetQuantError, ValueError) as exc:
            solved[quantizer] = exc

    buffer = io.StringIO()
    buffer.write(f"# {SWEEP_CSV_VERSION}\n")
    writer = csv.DictWriter(
        buffer, fieldnames=SWEEP_COLUMNS, restval="", lineterminator="\n"
    )
    writer.writeheader()
    for index, (quantizer, knob) in enumerate(points):
        point_cfg = dict(cfg, quantizer=quantizer)
        if quantizer == "ecsq":
            point_cfg["target_ratio"] = None
            if point_cfg["k"] is None:
                point_cfg["k"] = 8
        row = {
            "index": index,
            "quantizer": quantizer,
            "coding": cfg["coding"],
            "knob": _csv_number(knob),
            "seed": cfg["seed"],
        }
        try:
            key = "lam" if quantizer == "ecsq" else "k"
            point_cfg[key] = _option(key, knob)
            quantized = _quantize_values(values, curvature, point_cfg, solved.get(quantizer))
            point = _run_quantize_point(point_cfg, inputs, quantized)
        except (NetQuantError, ValueError) as exc:
            row["status"] = f"error:{type(exc).__name__}"
        else:
            report = point.report
            row.update(
                k_effective=report.k_effective,
                entropy_bits=_csv_number(report.entropy_bits),
                avg_codeword_bits=_csv_number(report.avg_codeword_bits),
                ratio_exact=_csv_number(report.ratio_exact),
                accuracy_pre_ft=_csv_number(point.accuracy_pre),
                accuracy_post_ft=_csv_number(point.accuracy_post),
                status="ok",
            )
        writer.writerow(row)

    _write_outputs(out_dir, {"sweep.csv": buffer.getvalue(), "config.txt": _config_text(cfg)})
    print(str(out_dir / "sweep.csv"))
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _resolve_config(args)
    nq_path = Path(_require(cfg, "model_nq", "report"))
    if (cfg["dataset"] is None) != (cfg["model_dir"] is None):
        raise ConfigError("report measures accuracy only with both --dataset and --model-dir")
    if not nq_path.is_file():
        raise FormatError(f"no encoded model at {nq_path}")
    data = nq_path.read_bytes()
    decoded = coding.decode_assignments(data)

    accuracy = None
    if cfg["dataset"] is not None:
        _, spec, dataset = _open_with_dataset(cfg, Path(cfg["model_dir"]))
        if decoded.total_params != spec.param_count():
            raise ConfigError(
                f"{nq_path} encodes {decoded.total_params} parameters, "
                f"the net in {cfg['model_dir']} has {spec.param_count()}"
            )
        inputs = Inputs(decoded.total_params, spec, dataset, decoded.positions)
        accuracy = _evaluate(inputs, decoded.assignment, decoded.codebook)

    em = coding.EncodedModel(data, decoded.breakdown)
    doc = coding.build_report(em, decoded.codebook.counts, decoded.code).as_dict()
    doc["accuracy"] = accuracy
    text = _dumps(doc)
    print(text)
    if cfg["out"]:
        out = Path(cfg["out"])
        _write_outputs(out.parent, {out.name: text + "\n"})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The keys of the dataset block that train-ref writes into refnet.json; a
# stored block overrides the run's values of all of them.
_DATASET_KEYS = (
    "synth_samples", "synth_classes", "synth_features", "synth_noise", "synth_spread",
    "synth_scale", "synth_seed", "eval_frac",
)  # fmt: skip
# What scores a model directory on a dataset: a CSV is split by eval_frac
# and synth_seed, a stored synthetic dataset by its own block.
_SCORED = ("model_dir", "dataset", "eval_frac", "synth_seed")
_QUANT = (
    "curvature", "coding", "k", "prune_fraction", "fine_tune", "center_rule",
    "hessian_samples", "ft_steps", "ft_batch_size", "ft_lr",
)  # fmt: skip

# command -> (help, the keys it reads): each key is a flag of that command
# alone, and a config file may set every key of OPTION_TABLE. Command
# ``a-b`` runs ``cmd_a_b``, looked up when the parser is built, so a wrapper
# put in its place (as perfbench's tracer does) is what runs.
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "train-ref": (
        "train the reference MLP and save a model dir",
        ("out_dir", "dataset", "seed", *_DATASET_KEYS, "hidden", "activation", "loss",
         "steps", "batch_size", "lr", "model_name"),
    ),  # fmt: skip
    "prune": (
        "add a magnitude prune mask to a model dir",
        ("model_dir", "out_dir", "prune_fraction"),
    ),
    "quantize": (
        "run the full compression pipeline",
        (*_SCORED, "out_dir", "seed", "quantizer", *_QUANT, "target_ratio", "lam"),
    ),
    "sweep": (
        "quantize over a list of k or lambda values",
        (*_SCORED, "out_dir", "seed", *_QUANT, "k_list", "lambda_list", "quantizers"),
    ),
    "report": (
        "recompute every number from an encoded model",
        ("model_nq", "out", *_SCORED),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netquant",
        description="Codebook quantization and entropy coding for network parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys) in COMMANDS.items():
        # No abbreviations: sweep's --lambda-list would take a --lam.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value configuration file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="V")
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DivergenceError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
