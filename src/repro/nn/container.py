"""Container modules: Sequential, Identity, Flatten."""

from __future__ import annotations

from repro.autograd import ops_shape
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layer_order: list[str] = []
        for i, layer in enumerate(layers):
            name = f"layer{i}"
            setattr(self, name, layer)
            self._layer_order.append(name)

    def append(self, layer: Module) -> "Sequential":
        name = f"layer{len(self._layer_order)}"
        setattr(self, name, layer)
        self._layer_order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._layer_order)

    def __len__(self) -> int:
        return len(self._layer_order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._layer_order[index])

    def forward(self, x: Tensor) -> Tensor:
        for layer in self:
            x = layer(x)
        return x


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    def __init__(self, start_axis: int = 1):
        super().__init__()
        self.start_axis = start_axis

    def forward(self, x: Tensor) -> Tensor:
        return ops_shape.flatten(x, self.start_axis)
