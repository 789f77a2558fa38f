"""casep: time-domain speech separation with a dual-path
convolution-attention mask network, built on a small numpy autodiff engine.
"""

from .tensor import (
    ConfigError,
    ContractError,
    NonFiniteError,
    ShapeError,
    Tensor,
    no_grad,
)
from .nn import Linear, LayerNorm, Module, MultiHeadAttention, Parameter, PReLU
from .optim import Adam
from .chunking import overlap_add, segment
from .codec import Decoder, Encoder, EncoderConfig, Waveform
from .blocks import AttentionRecorder, DualPathBlock, HybridLayer, channel_split
from .config import (
    EvalSettings,
    ModelConfig,
    PathConfig,
    SyntheticSpec,
    TrainSettings,
    default_model_config,
    model_config_from_flat,
    model_config_to_flat,
    parse_flat,
    serialize_flat,
)
from .model import Separator
from .metrics import PitResult, improvements, sdr, si_snr, upit_loss
from .analyzer import (
    REFERENCE_BUDGETS,
    ParamReport,
    count_table,
    layer_param_counts,
    model_param_report,
)
from .synth import gen_mixture
from .checkpoint import load_checkpoint, load_model_state, load_separator, \
    model_state, save_checkpoint
from .wavio import WavFormatError, read_wav, write_wav
from .training import (
    eval_model,
    eval_run,
    grad_check_run,
    separate_files,
    train_run,
)

__all__ = [
    "Adam",
    "AttentionRecorder",
    "ConfigError",
    "ContractError",
    "Decoder",
    "DualPathBlock",
    "Encoder",
    "EncoderConfig",
    "EvalSettings",
    "HybridLayer",
    "LayerNorm",
    "Linear",
    "ModelConfig",
    "Module",
    "MultiHeadAttention",
    "NonFiniteError",
    "ParamReport",
    "Parameter",
    "PathConfig",
    "PitResult",
    "PReLU",
    "REFERENCE_BUDGETS",
    "Separator",
    "ShapeError",
    "SyntheticSpec",
    "Tensor",
    "TrainSettings",
    "WavFormatError",
    "Waveform",
    "channel_split",
    "count_table",
    "default_model_config",
    "eval_model",
    "eval_run",
    "gen_mixture",
    "grad_check_run",
    "improvements",
    "layer_param_counts",
    "load_checkpoint",
    "load_model_state",
    "load_separator",
    "model_config_from_flat",
    "model_config_to_flat",
    "model_param_report",
    "model_state",
    "no_grad",
    "overlap_add",
    "parse_flat",
    "read_wav",
    "save_checkpoint",
    "segment",
    "separate_files",
    "serialize_flat",
    "si_snr",
    "sdr",
    "train_run",
    "upit_loss",
    "write_wav",
]
