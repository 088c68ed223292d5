"""mxt: image inpainting with a hybrid state-space / attention network,
built on a small numpy autodiff core."""

from .tensor import Tensor, Tape, no_grad

__all__ = ["Tensor", "Tape", "no_grad"]
__version__ = "0.1.0"
