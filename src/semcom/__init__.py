"""Deterministic simulator for semantic-communication content delivery.

Pipeline: extract a semantic map from a source image, compress it by
downscaling, transmit it under a shared byte budget, reconstruct it, and
score the result with normalized quality metrics.  On top of that sit
the predictable extractor-metric pairing workflow and joint allocation
of per-service downscaling factors (exhaustive, greedy, random, DQN).
"""

from .allocator import (
    AllocationInstance,
    AllocationResult,
    DqnAgent,
    DqnConfig,
    decode_action,
    dqn_act,
    dqn_train,
    encode_action,
    evaluate_action,
    exhaustive_oracle,
    greedy_allocate,
    random_allocate,
)
from .channel import BudgetCheck, ChannelConfig, TransmitResult, budget_check, transmit
from .codec import (
    EncodedPayload,
    cost_bytes,
    decode,
    encode,
    encoded_cost,
    parse_payload,
    serialize_payload,
)
from .errors import (
    ConfigError,
    CorruptPayloadError,
    DomainError,
    IoError,
    MissingMapError,
    ParseError,
    SemcomError,
    ShapeError,
    TooLargeError,
    TooSmallError,
    TruncatedError,
    ValidationFailedError,
)
from .extractors import (
    Canny,
    ExternalMap,
    QuantizeSegmentation,
    SobelMagnitude,
    canny,
    extract,
    external_map,
    quantize_segmentation,
    sobel_magnitude,
)
from .generation import (
    ExternalPairs,
    QualityCore,
    ServiceSpec,
    Surrogate,
    ValidationResult,
    min_representation_search,
    reconstruct_and_score,
    validate_and_adjust,
)
from .image import (
    BINARY,
    LABELS,
    SOFT,
    Resolution,
    SemanticMap,
    bilinear_upscale,
    box_downscale,
    read_pgm,
    write_pgm,
)
from .metrics import (
    MseQuality,
    PsnrQuality,
    SsimQuality,
    ViQuality,
    mse_quality,
    psnr_quality,
    score,
    ssim_quality,
    vi_quality,
)
from .pairing import (
    PredictabilityReport,
    ResponseCurve,
    fit_predictability,
    select_pair,
    sweep_curve,
)

__version__ = "0.1.0"
