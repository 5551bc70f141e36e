"""Neural-network layers, containers and initialisation schemes."""

from repro.nn.activations import LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.container import Flatten, Identity, Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.pooling import AvgPool2d, GlobalAvgPool, MaxPool2d
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "AvgPool2d",
    "MaxPool2d",
    "GlobalAvgPool",
    "Sequential",
    "Identity",
    "Flatten",
    "init",
]
