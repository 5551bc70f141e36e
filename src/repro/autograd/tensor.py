"""The :class:`Tensor` class — a numpy array with reverse-mode autodiff.

A tensor remembers the :class:`~repro.autograd.function.Function` that
produced it (``creator``); calling :meth:`Tensor.backward` walks the implicit
graph in reverse topological order and accumulates gradients into every
tensor with ``requires_grad=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AutogradError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.autograd.function import Function

DEFAULT_DTYPE = np.float32


def _as_array(data, dtype=None) -> np.ndarray:
    if isinstance(data, (np.ndarray, np.generic)):
        data = np.asarray(data)
        if dtype is not None and data.dtype != dtype:
            return data.astype(dtype)
        if data.dtype.kind in "iub":  # integers become float tensors
            return data.astype(DEFAULT_DTYPE)
        return data
    return np.asarray(data, dtype=dtype or DEFAULT_DTYPE)


class Tensor:
    """N-dimensional array participating in automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; integer inputs are promoted to float32.
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` by
        :meth:`backward`.
    name:
        Optional label used in error messages and debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "creator", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.creator: Function | None = None
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self):
        raise AutogradError(f"item() requires a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient. May be omitted only for single-element
            tensors, in which case it defaults to 1.
        """
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise AutogradError(
                    f"upstream gradient shape {grad.shape} does not match "
                    f"tensor shape {self.shape}"
                )

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for tensor in order:
            tgrad = grads.pop(id(tensor), None)
            if tgrad is None:
                continue
            if tensor.requires_grad and tensor.creator is None:
                # Leaf: accumulate.
                tensor.grad = tgrad if tensor.grad is None else tensor.grad + tgrad
            fn = tensor.creator
            if fn is None:
                continue
            if tensor.requires_grad and tensor.grad is not None:
                # Intermediate tensor that the user also asked gradients for.
                tensor.grad = tensor.grad + tgrad
            elif tensor.requires_grad:
                tensor.grad = tgrad
            parent_grads = fn.backward(tgrad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(fn.parents):
                raise AutogradError(
                    f"{type(fn).__name__}.backward returned {len(parent_grads)} "
                    f"gradients for {len(fn.parents)} parents"
                )
            for parent, pgrad in zip(fn.parents, parent_grads):
                if parent is None or pgrad is None:
                    continue
                if pgrad.shape != parent.data.shape:
                    raise AutogradError(
                        f"{type(fn).__name__}.backward produced gradient of shape "
                        f"{pgrad.shape} for parent of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # operator overloads (implemented in ops modules, bound lazily below)
    # ------------------------------------------------------------------


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in reverse-topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    # Iterative DFS (training graphs for deep CNNs overflow Python recursion).
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node.creator is not None:
            for parent in node.creator.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` (Tensor, array-like or scalar) into a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
