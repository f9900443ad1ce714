"""Reverse-mode automatic differentiation over dense float64 arrays.

Everything the trajectory models need and nothing more: elementwise
arithmetic with numpy broadcasting, 2-D matrix products and transposes,
exp and log, reductions, reshapes, basic slicing and softmax.  The
GRU cell's gates are a hand-written graph node (`model.gru_cell`), so its
sigmoid and tanh are array functions only.
A ``Tensor`` wraps a numpy array and remembers the operation that
produced it.  An operand that is not a ``Tensor`` (an array or a number)
is a constant outside the graph: it is no node and gets no gradient.
Calling ``backward()`` on a scalar result accumulates
``d(result)/d(node)`` into every reachable node, visiting each node
exactly once in reverse topological order.  ``backward()`` consumes the
graph: each node lets go of its parents and its backward closure once it
has passed its gradient on, so the graph is freed by reference counting
as soon as the caller drops the result, not by Python's cyclic gc.  A
second ``backward()`` through a consumed node raises ``GraphError``.

The module-level helpers ``transpose``, ``exp``, ``log`` and ``softmax``
dispatch on input type, and ``Tensor``'s ``sum``, ``reshape`` and
indexing take numpy's signatures, so the same model code can also run on
plain numpy arrays as a graph-free inference path; ``sigmoid`` takes
arrays alone.

``save_checkpoint`` and ``load_checkpoint`` keep parameters in a
line-based ASCII file: readable meta and shape lines, and each
parameter's values as one line of base64 over their little-endian
float64 bytes, so values round-trip bit for bit with no float text to
format or parse.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .errors import DataError, GraphError, NumericalError, ShapeError
from .files import write_text

__all__ = [
    "Tensor",
    "Adam",
    "sgd_step",
    "sigmoid",
    "transpose",
    "exp",
    "log",
    "softmax",
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


# the gradient of each binary op's first and second operand from its output
# gradient g, one function per operand: a node calls one per parent, so the
# gradient of a constant operand is never computed
_ADD_GRADS = (lambda g, a, b: g, lambda g, a, b: g)
_SUB_GRADS = (lambda g, a, b: g, lambda g, a, b: -g)
_MUL_GRADS = (lambda g, a, b: g * b, lambda g, a, b: g * a)
_DIV_GRADS = (lambda g, a, b: g / b, lambda g, a, b: -g * a / b**2)
_MATMUL_GRADS = (lambda g, a, b: g @ b.T, lambda g, a, b: a.T @ g)


class Tensor:
    """A node in the computation graph: value, lazy gradient, parents."""

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    # keep numpy from hijacking `ndarray <op> Tensor` into elementwise object ops
    __array_ufunc__ = None

    def __init__(self, data, _parents: tuple[Tensor, ...] = ()):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = None

    # -- plumbing ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        np.add(self.grad, g, out=self.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def _operand(self, other) -> tuple[np.ndarray, tuple["Tensor", ...]]:
        """The array of `other` and the parents of a node on self and `other`:
        a non-Tensor `other` is a constant, not a parent."""
        if isinstance(other, Tensor):
            return other.data, (self, other)
        return _as_array(other), (self,)

    # -- elementwise arithmetic ----------------------------------------

    def _elementwise(self, other, verb: str, value, grads) -> "Tensor":
        """`value(a, b)` with numpy broadcasting, for a = self.data and b the
        array of `other`, as one node; `grads` is the op's pair of operand
        gradients (see `_ADD_GRADS`), each taken before `_unbroadcast`."""
        a = self.data
        b, parents = self._operand(other)
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeError(f"cannot {verb} shapes {a.shape} and {b.shape}") from None
        out = Tensor(value(a, b), parents)

        def _backward():
            for node, grad in zip(out._parents, grads):
                node._accumulate(_unbroadcast(grad(out.grad, a, b), node.data.shape))

        out._backward = _backward
        return out

    def __add__(self, other) -> "Tensor":
        return self._elementwise(other, "add", np.add, _ADD_GRADS)

    def __sub__(self, other) -> "Tensor":
        return self._elementwise(other, "subtract", np.subtract, _SUB_GRADS)

    def __mul__(self, other) -> "Tensor":
        return self._elementwise(other, "multiply", np.multiply, _MUL_GRADS)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self._elementwise(other, "divide", np.divide, _DIV_GRADS)

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
        a = self.data
        b, parents = self._operand(other)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot matmul shapes {a.shape} and {b.shape}")
        out = Tensor(a @ b, parents)

        def _backward():
            for node, grad in zip(out._parents, _MATMUL_GRADS):
                node._accumulate(grad(out.grad, a, b))

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        """The transpose, copied into C order (see `transpose`)."""
        out = Tensor(np.ascontiguousarray(self.data.T), (self,))

        def _backward():
            self._accumulate(out.grad.T)

        out._backward = _backward
        return out

    # -- exp and log -------------------------------------------------------

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

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), (self,))

        def _backward():
            self._accumulate(out.grad.reshape(self.data.shape))

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
        y = softmax(self.data, axis=axis)
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


# -- dual-mode helpers: Tensor builds the graph, ndarray stays numpy ------


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of an array, 1 / (1 + exp(-x)), for the GRU
    cell's gates; no graph op.  Written into `out` when given, which may be
    `x` itself."""
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the right limit, 0
        y = np.exp(np.negative(x, out=out), out=out)
        return np.divide(1.0, np.add(1.0, y, out=out), out=out)


def transpose(x):
    """The transpose of a 2-D Tensor or array, in C order: a product on a
    transposed view can round differently from one on the same values laid
    out row by row."""
    if isinstance(x, Tensor):
        return x.T
    return np.ascontiguousarray(x.T)


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


# -- optimizers: over a model's parameters, a dict of name -> Tensor ---------------


def _clipped_grad(name: str, node: Tensor, grad_clip: float | None) -> np.ndarray:
    g = node.grad
    if not np.all(np.isfinite(g)):
        raise NumericalError(f"non-finite gradient in parameter '{name}'")
    if grad_clip is not None:
        g = np.clip(g, -grad_clip, grad_clip)
    return g


def _check_finite(name: str, node: Tensor) -> None:
    if not np.all(np.isfinite(node.data)):
        raise NumericalError(f"optimizer step left parameter '{name}' non-finite")


def sgd_step(params: dict[str, Tensor], lr: float, grad_clip: float | None = None) -> None:
    """p <- p - lr * clip(g), then reset gradients to zero; a step that
    leaves a parameter non-finite raises NumericalError."""
    for name, node in params.items():
        if node.grad is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            node.data -= lr * _clipped_grad(name, node, grad_clip)
        _check_finite(name, node)
        node.zero_grad()


class Adam:
    """Adam with elementwise gradient clipping; resets gradients each step.
    A step that leaves a parameter non-finite raises NumericalError."""

    # the published defaults of Kingma & Ba (arXiv:1412.6980)
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, grad_clip: float | None = None):
        self.params = dict(params)
        self.lr = lr
        self.grad_clip = grad_clip
        self.t = 0
        self._m = {name: np.zeros_like(node.data) for name, node in self.params.items()}
        self._v = {name: np.zeros_like(node.data) for name, node in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, node in self.params.items():
            g = (
                _clipped_grad(name, node, self.grad_clip)
                if node.grad is not None
                else np.zeros_like(node.data)
            )
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
                node.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
            _check_finite(name, node)
            node.zero_grad()


# -- checkpoint files --------------------------------------------------------

_MAGIC = "polytraj-checkpoint 2"
_FORMAT_1 = "polytraj-checkpoint 1"  # values as float text; no longer read
_VALUE = np.dtype("<f8")


def save_checkpoint(path, params: dict[str, Tensor], meta: dict | None = None) -> None:
    """Write parameters to a line-based ASCII file; values round-trip exactly.

    The layout, which `load_checkpoint` enforces line by line: the magic
    line `polytraj-checkpoint 2`; one `meta KEY VALUE` line per meta key,
    keys in sorted order; then for each parameter a `param NAME NDIM DIM...`
    line (no DIM for a scalar) followed by one line of its values: the
    base64 of their little-endian float64 bytes in C order.
    """
    lines = [_MAGIC]
    for key in sorted(meta or {}):
        value = str((meta or {})[key])
        if any(ch.isspace() for ch in value):
            raise ValueError(f"meta value for '{key}' must not contain whitespace")
        lines.append(f"meta {key} {value}")
    for name, node in params.items():
        dims = " ".join(str(d) for d in node.data.shape)
        lines.append(f"param {name} {node.data.ndim} {dims}".rstrip())
        lines.append(base64.b64encode(np.ascontiguousarray(node.data, dtype=_VALUE).tobytes()).decode("ascii"))
    write_text(path, "\n".join(lines) + "\n", encoding="ascii")


def load_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a checkpoint written by save_checkpoint; returns (meta, name -> array).

    A file off the layout of `save_checkpoint` raises DataError naming the
    line, as does a format-1 file; a non-finite value raises NumericalError.
    The arrays are writable, C-contiguous float64 copies.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if lines and lines[0] == _FORMAT_1:
        raise DataError(
            f"{path} is a format 1 checkpoint (values as float text), which this version "
            "no longer reads; run `train` again to write a format 2 checkpoint"
        )
    if not lines or lines[0] != _MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    i = 1
    try:
        while i < len(lines) and lines[i].startswith("meta "):
            tokens = lines[i].split(" ")
            if len(tokens) != 3:
                raise ValueError(f"expected 'meta KEY VALUE', got {len(tokens)} tokens")
            if meta and tokens[1] <= next(reversed(meta)):
                raise ValueError(f"meta key '{tokens[1]}' repeated or out of sorted order")
            meta[tokens[1]] = tokens[2]
            i += 1
        while i < len(lines):
            tokens = lines[i].split(" ")
            if tokens[0] != "param":
                raise DataError(f"unrecognized checkpoint line: {lines[i]!r}")
            name = tokens[1]
            ndim = int(tokens[2])
            if len(tokens) != 3 + ndim:
                raise ValueError(f"'{name}' has {ndim} dims but {len(tokens) - 3} sizes")
            if name in arrays:
                raise ValueError(f"parameter '{name}' repeated")
            shape = tuple(int(d) for d in tokens[3:])
            raw = base64.b64decode(lines[i + 1], validate=True)  # binascii.Error is a ValueError
            if len(raw) != _VALUE.itemsize * math.prod(shape):
                raise DataError(
                    f"checkpoint value count mismatch for '{name}': {len(raw)} bytes for shape {shape}"
                )
            values = np.frombuffer(raw, dtype=_VALUE).astype(np.float64)  # a writable copy
            if not np.all(np.isfinite(values)):
                raise NumericalError(f"non-finite value in checkpoint parameter '{name}'")
            arrays[name] = values.reshape(shape)
            i += 2
    except (IndexError, ValueError) as exc:
        raise DataError(f"malformed checkpoint line {i + 1} of {path}: {exc}") from None
    return meta, arrays
