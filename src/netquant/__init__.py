"""Codebook quantization and entropy coding for neural-network parameters.

The toolkit clusters a model's flat parameter vector into a small shared
codebook (optionally weighting errors by per-parameter loss curvature),
encodes the result with optimal prefix codes, and accounts for the exact
compressed size. A built-in multilayer perceptron supplies realistic
parameters, curvature estimates, and end-to-end accuracy numbers at desk
scale.
"""

from .params import (
    CURVATURE_FLOOR,
    ChecksumError,
    CurvatureDiag,
    CurvatureSource,
    DivergenceError,
    FormatError,
    Manifest,
    NetQuantError,
    ParamSet,
    PruneMask,
    Span,
    load_model,
    save_model,
)
from .quantizers import (
    Codebook,
    LambdaResult,
    QuantizeResult,
    compact_codebook,
    dequantize,
    ecsq_iterate,
    entropy_bits,
    hw_distortion,
    kmeans_sweep,
    msqe,
    scatter_dequantize,
    solve_lambda,
    uniform_quantize,
)
from .coding import (
    DecodedModel,
    EncodedModel,
    IndexDiffCode,
    PrefixCode,
    build_huffman,
    compression_ratio_exact,
    decode_assignments,
    encode_assignments,
    fixed_length_code,
    huffman_lengths,
    index_diff_code,
)
from .refnet import (
    AdamState,
    Dataset,
    FineTuneConfig,
    MlpSpec,
    TrainConfig,
    TrainedModel,
    adam_curvature,
    eval_accuracy,
    fine_tune_centers,
    forward_loss,
    hessian_diag_exact,
    hessian_diag_gn,
    identity_curvature,
    init_params,
    load_csv,
    make_blobs,
    prune_magnitude,
    train_adam,
)

__version__ = "0.1.0"
