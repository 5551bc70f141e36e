"""2D convolution layer."""

from __future__ import annotations

from repro.autograd import ops_matmul
from repro.autograd.im2col import check_groups
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Conv2d(Module):
    """2D convolution over NCHW input, computed as an im2col GEMM.

    ``groups=in_channels`` gives a depthwise convolution (used by
    MobileNetV2's inverted residual blocks).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        check_groups(in_channels, out_channels, groups)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops_matmul.conv2d(
            x, self.weight, self.bias, self.stride, self.padding, self.groups
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, g={self.groups})"
        )
