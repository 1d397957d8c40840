"""Module / Parameter container system.

A :class:`Module` owns :class:`Parameter` leaves and child modules; it knows
how to enumerate parameters (optionally with dotted names), switch between
training and evaluation mode, freeze/unfreeze subsets of parameters (needed
by the catastrophic-forgetting experiments), and serialise its state to a
flat ``dict`` of NumPy arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, requires_grad: bool = True, name: str = "") -> None:
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=requires_grad, name=name)
        # Parameters must track gradients even when constructed inside a
        # no_grad block (e.g. when a registry clones pre-trained weights).
        self.requires_grad = requires_grad


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._modules: OrderedDict[str, "Module"] = OrderedDict()
        self._buffers: OrderedDict[str, np.ndarray] = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # registration (automatic via attribute assignment)
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is saved with the state dict."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # parameter / module iteration
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size for p in self.parameters() if (p.requires_grad or not trainable_only)
        )

    # ------------------------------------------------------------------ #
    # training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def freeze(self, predicate: Callable[[str, Parameter], bool] | None = None) -> int:
        """Set ``requires_grad=False`` on matching parameters.

        Returns the number of parameters frozen.  With no predicate every
        parameter is frozen (the catastrophic-forgetting recipe then
        unfreezes the classification head explicitly).
        """
        frozen = 0
        for name, p in self.named_parameters():
            if predicate is None or predicate(name, p):
                if p.requires_grad:
                    frozen += 1
                p.requires_grad = False
        return frozen

    def unfreeze(self, predicate: Callable[[str, Parameter], bool] | None = None) -> int:
        """Set ``requires_grad=True`` on matching parameters."""
        unfrozen = 0
        for name, p in self.named_parameters():
            if predicate is None or predicate(name, p):
                if not p.requires_grad:
                    unfrozen += 1
                p.requires_grad = True
        return unfrozen

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name → array copy of all parameters and buffers."""
        state: dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for mod_name, module in self.named_modules():
            for buf_name, buf in module._buffers.items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters (and buffers) previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own and not self._is_buffer_key(k)]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={missing[:5]}... unexpected={unexpected[:5]}..."
                if len(missing) > 5 or len(unexpected) > 5
                else f"state dict mismatch: missing={missing} unexpected={unexpected}"
            )
        for name, p in own.items():
            if name in state:
                value = np.asarray(state[name], dtype=np.float32)
                if value.shape != p.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: expected {p.data.shape}, got {value.shape}"
                    )
                p.data = value.copy()
        for mod_name, module in self.named_modules():
            for buf_name in list(module._buffers):
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if key in state:
                    module._buffers[buf_name] = np.asarray(state[key]).copy()
                    object.__setattr__(module, buf_name, module._buffers[buf_name])

    def _is_buffer_key(self, key: str) -> bool:
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if full == key:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold an ordered list of sub-modules (registered by index)."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            index = len(self._items)
            self._items.append(module)
            self._modules[str(index)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x
