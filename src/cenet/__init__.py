"""Context-aware low-light image enhancement.

An encoder-decoder enhancement network with a non-local global-context
block and dense residual local-context blocks, built on a self-contained
reverse-mode autodiff tensor core, with the full training recipe, PSNR
and SSIM metrics, lossless PNG/PPM codecs, and a CLI.
"""

from .blocks import EnhancementNetwork, NetworkConfig
from .config import RunConfig, desk_preset, load_config, parse_config
from .imageio import Image, decode_image, encode_image, load_image, save_image
from .metrics import MetricReport, psnr, ssim
from .optim import Adam, StepDecaySchedule
from .tensor import Parameter, Tape, Tensor, backward
from .verify import gradcheck

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "EnhancementNetwork",
    "Image",
    "MetricReport",
    "NetworkConfig",
    "Parameter",
    "RunConfig",
    "StepDecaySchedule",
    "Tape",
    "Tensor",
    "backward",
    "decode_image",
    "desk_preset",
    "encode_image",
    "gradcheck",
    "load_config",
    "load_image",
    "parse_config",
    "psnr",
    "save_image",
    "ssim",
    "__version__",
]
