"""Reverse-mode automatic differentiation over dense float64 arrays.

Everything the trajectory models need and nothing more: elementwise
arithmetic with numpy broadcasting, 2-D matrix products, the usual
activations, reductions, concatenation, basic slicing and softmax.
A ``Tensor`` wraps a numpy array and remembers the operation that
produced it; calling ``backward()`` on a scalar result accumulates
``d(result)/d(node)`` into every reachable node, visiting each node
exactly once in reverse topological order.  ``backward()`` consumes the
graph: each node lets go of its parents and its backward closure once it
has passed its gradient on, so the graph is freed by reference counting
as soon as the caller drops the result, not by Python's cyclic gc.  A
second ``backward()`` through a consumed node raises ``GraphError``.

The module-level helpers (``sigmoid``, ``tanh``, ``concat``, ...)
dispatch on input type, so the same model code can also run on plain
numpy arrays as a graph-free inference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, GraphError, NumericalError, ShapeError

__all__ = [
    "Tensor",
    "Parameter",
    "Adam",
    "sgd_step",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "softmax",
    "concat",
    "save_checkpoint",
    "load_checkpoint",
]


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcast when producing it."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph: value, lazy gradient, parents."""

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    # keep numpy from hijacking `ndarray <op> Tensor` into elementwise object ops
    __array_ufunc__ = None

    def __init__(self, data, _parents: tuple[Tensor, ...] = (), _backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    # -- plumbing ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        np.add(self.grad, g, out=self.grad)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _broadcast_check(self, other: "Tensor", op: str) -> None:
        try:
            np.broadcast_shapes(self.data.shape, other.data.shape)
        except ValueError:
            raise ShapeError(
                f"cannot {op} shapes {self.data.shape} and {other.data.shape}"
            ) from None

    # -- elementwise arithmetic ----------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        self._broadcast_check(other, "add")
        out = Tensor(self.data + other.data, (self, other))

        def _backward():
            self._accumulate(_unbroadcast(out.grad, self.data.shape))
            other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = _backward
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._wrap(other)
        self._broadcast_check(other, "subtract")
        out = Tensor(self.data - other.data, (self, other))

        def _backward():
            self._accumulate(_unbroadcast(out.grad, self.data.shape))
            other._accumulate(_unbroadcast(-out.grad, other.data.shape))

        out._backward = _backward
        return out

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) - self

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        self._broadcast_check(other, "multiply")
        out = Tensor(self.data * other.data, (self, other))

        def _backward():
            self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        self._broadcast_check(other, "divide")
        out = Tensor(self.data / other.data, (self, other))

        def _backward():
            self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-out.grad * self.data / other.data**2, other.data.shape)
            )

        out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("exponent must be a plain int or float")
        out = Tensor(self.data**exponent, (self,))

        def _backward():
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    # -- matrix product -------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot matmul shapes {a.shape} and {b.shape}")
        out = Tensor(a @ b, (self, other))

        def _backward():
            self._accumulate(out.grad @ b.T)
            other._accumulate(a.T @ out.grad)

        out._backward = _backward
        return out

    def __rmatmul__(self, other) -> "Tensor":
        # constant left operand: no gradient flows into it
        a = _as_array(other)
        b = self.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot matmul shapes {a.shape} and {b.shape}")
        out = Tensor(a @ b, (self,))

        def _backward():
            self._accumulate(a.T @ out.grad)

        out._backward = _backward
        return out

    # -- activations -----------------------------------------------------

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(y, (self,))

        def _backward():
            self._accumulate(out.grad * y * (1.0 - y))

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor(y, (self,))

        def _backward():
            self._accumulate(out.grad * (1.0 - y * y))

        out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        out = Tensor(y, (self,))

        def _backward():
            self._accumulate(out.grad * y)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise NumericalError("log of non-positive value")
        out = Tensor(np.log(self.data), (self,))

        def _backward():
            self._accumulate(out.grad / self.data)

        out._backward = _backward
        return out

    # -- reductions, reshaping -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = _backward
        return out

    def mean(self) -> "Tensor":
        n = self.data.size
        out = Tensor(self.data.mean(), (self,))

        def _backward():
            self._accumulate(np.full_like(self.data, float(out.grad) / n))

        out._backward = _backward
        return out

    def __getitem__(self, key) -> "Tensor":
        # basic indexing only (ints and slices): the gradient is written
        # back through the same view, which requires non-overlapping targets
        out = Tensor(self.data[key], (self,))

        def _backward():
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += out.grad

        out._backward = _backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(y, (self,))

        def _backward():
            g = out.grad
            self._accumulate((g - (g * y).sum(axis=axis, keepdims=True)) * y)

        out._backward = _backward
        return out

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Populate gradients of every node reachable from this scalar.

        Consumes the graph: every interior node drops its parents and its
        backward closure once it has propagated, so the gradients that stay
        are those of the leaves and of the nodes the caller still holds.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise GraphError("backward() through a graph that an earlier backward() consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            # popping lets each node die as soon as it has propagated
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward = _consumed
                node._parents = ()


def _consumed() -> None:
    """Stands in for the backward closure of a node that has propagated;
    `backward()` refuses to walk through it."""


def concat(parts: Sequence, axis: int = 0):
    """Concatenate Tensors (graph op) or numpy arrays along `axis`."""
    if not parts:
        raise ShapeError("concat of an empty sequence")
    if not isinstance(parts[0], Tensor):
        return np.concatenate(parts, axis=axis)
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]

    def _backward():
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * out.data.ndim
            index[axis] = slice(offset, offset + size)
            p._accumulate(out.grad[tuple(index)])
            offset += size

    out._backward = _backward
    return out


# -- dual-mode helpers: Tensor builds the graph, ndarray stays numpy ------


def sigmoid(x):
    if isinstance(x, Tensor):
        return x.sigmoid()
    return 1.0 / (1.0 + np.exp(-x))


def tanh(x):
    if isinstance(x, Tensor):
        return x.tanh()
    return np.tanh(x)


def exp(x):
    if isinstance(x, Tensor):
        return x.exp()
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def log(x):
    if isinstance(x, Tensor):
        return x.log()
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def softmax(x, axis: int = -1):
    if isinstance(x, Tensor):
        return x.softmax(axis=axis)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# -- parameters and optimizers ---------------------------------------------


@dataclass
class Parameter:
    """A named trainable tensor; names are unique within one model."""

    name: str
    node: Tensor


def _clipped_grad(param: Parameter, grad_clip: float | None) -> np.ndarray:
    g = param.node.grad
    if not np.all(np.isfinite(g)):
        raise NumericalError(f"non-finite gradient in parameter '{param.name}'")
    if grad_clip is not None:
        g = np.clip(g, -grad_clip, grad_clip)
    return g


def _check_finite(param: Parameter) -> None:
    if not np.all(np.isfinite(param.node.data)):
        raise NumericalError(f"optimizer step left parameter '{param.name}' non-finite")


def sgd_step(params: Iterable[Parameter], lr: float, grad_clip: float | None = None) -> None:
    """p <- p - lr * clip(g), then reset gradients to zero; a step that
    leaves a parameter non-finite raises NumericalError."""
    for p in params:
        if p.node.grad is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            p.node.data -= lr * _clipped_grad(p, grad_clip)
        _check_finite(p)
        p.node.zero_grad()


class Adam:
    """Adam with elementwise gradient clipping; resets gradients each step.
    A step that leaves a parameter non-finite raises NumericalError."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        grad_clip: float | None = None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.grad_clip = grad_clip
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = {p.name: np.zeros_like(p.node.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.node.data) for p in self.params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params:
            g = (
                _clipped_grad(p, self.grad_clip)
                if p.node.grad is not None
                else np.zeros_like(p.node.data)
            )
            m = self._m[p.name]
            v = self._v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
                p.node.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            _check_finite(p)
            p.node.zero_grad()


# -- checkpoint files --------------------------------------------------------

_MAGIC = "polytraj-checkpoint 1"


def save_checkpoint(path, params: Sequence[Parameter], meta: dict | None = None) -> None:
    """Write parameters as text; floats use repr so values round-trip exactly."""
    lines = [_MAGIC]
    for key in sorted(meta or {}):
        value = str((meta or {})[key])
        if any(ch.isspace() for ch in value):
            raise ValueError(f"meta value for '{key}' must not contain whitespace")
        lines.append(f"meta {key} {value}")
    for p in params:
        dims = " ".join(str(d) for d in p.node.data.shape)
        lines.append(f"param {p.name} {p.node.data.ndim} {dims}".rstrip())
        lines.append(" ".join(repr(v) for v in p.node.data.reshape(-1).tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a checkpoint written by save_checkpoint; returns (meta, name -> array).

    A malformed file raises DataError and a non-finite value NumericalError.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if not lines or lines[0] != _MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    i = 1
    try:
        while i < len(lines):
            tokens = lines[i].split(" ")
            if tokens[0] == "meta":
                meta[tokens[1]] = tokens[2]
                i += 1
            elif tokens[0] == "param":
                name = tokens[1]
                ndim = int(tokens[2])
                shape = tuple(int(d) for d in tokens[3 : 3 + ndim])
                values = np.array([float(v) for v in lines[i + 1].split()], dtype=np.float64)
                if len(shape) != ndim or values.size != math.prod(shape):
                    raise DataError(f"checkpoint value count mismatch for '{name}'")
                if not np.all(np.isfinite(values)):
                    raise NumericalError(f"non-finite value in checkpoint parameter '{name}'")
                arrays[name] = values.reshape(shape)
                i += 2
            else:
                raise DataError(f"unrecognized checkpoint line: {lines[i]!r}")
    except (IndexError, ValueError) as exc:
        raise DataError(f"malformed checkpoint line {i + 1} of {path}: {exc}") from None
    return meta, arrays
