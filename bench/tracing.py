"""Spans recorded around calls into each mvmlc layer, from outside the program.

A :class:`Tracer` replaces public functions at the name each caller looks
up (``mvmlc.train.backward`` is what ``train()`` calls, ``mvmlc.cli.
load_dataset`` is what ``mvmlc eval`` calls) with wrappers that record a
span: name, start, end, parent span, the operation it belongs to and an
optional count.  Spans stay in memory until :meth:`Tracer.write`.  The
originals are restored when :meth:`Tracer.installed` exits, so untraced
operations run the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (module or class, attribute, span name, count taken from the call's
# positional arguments).  Several callees may share one span name.
_TARGETS = (
    ("mvmlc.train", "train", "train.train", None),
    ("mvmlc.train", "forward_all", "model.forward_train", None),
    ("mvmlc.train", "backward", "numerics.backward", lambda args: len(args[0])),
    ("mvmlc.train", "adam_step", "train.adam_step", None),
    ("mvmlc.losses", "instance_contrastive", "losses.instance_contrastive", None),
    ("mvmlc.losses", "label_contrastive", "losses.label_contrastive", None),
    ("mvmlc.losses", "reconstruction_loss", "losses.reconstruction", None),
    ("mvmlc.losses", "classification_loss", "losses.classification", None),
    ("mvmlc.model", "encode", "model.encode", None),
    ("mvmlc.model", "decode", "model.decode", None),
    ("mvmlc.model", "project_instances", "model.project", None),
    ("mvmlc.model", "project_labels", "model.project", None),
    ("mvmlc.model", "fuse", "model.head", None),
    ("mvmlc.model", "interact", "model.head", None),
    ("mvmlc.model", "classify", "model.head", None),
    ("mvmlc.model", "apply_input_mask", "data.input_mask", None),
    ("mvmlc.data:MaskBank", "generate", "data.mask_generate", None),
    ("mvmlc.data:MaskBank", "subset", "data.batch_subset", None),
    ("mvmlc.data:MultiViewDataset", "subset", "data.batch_subset", None),
    ("mvmlc.cli", "main", "cli.main", None),
    ("mvmlc.cli", "load_dataset", "data.load_dataset", None),
    ("mvmlc.cli", "load_checkpoint", "model.load_checkpoint", None),
    ("mvmlc.cli", "forward_all", "model.forward_infer", None),
    ("mvmlc.cli", "evaluate_all", "metrics.evaluate_all", None),
    ("mvmlc.metrics", "average_precision", "metrics.average_precision", None),
    ("mvmlc.metrics", "hamming", "metrics.hamming", None),
    ("mvmlc.metrics", "ranking_loss", "metrics.ranking_loss", None),
    ("mvmlc.metrics", "macro_auc", "metrics.macro_auc", None),
    ("mvmlc.metrics", "one_error", "metrics.one_error", None),
    ("mvmlc.metrics", "coverage", "metrics.coverage", None),
)

# Spans whose self time (duration minus direct children) is reported.
SELF_TIMED = ("train.train", "cli.main")

# Parts of the model's forward pass, counted only inside the training
# forward: the held-out and ``mvmlc eval`` forwards run them too, and
# ``model.forward_infer`` already covers those.
TRAIN_FORWARD = "model.forward_train"
TRAIN_FORWARD_PARTS = ("model.encode", "model.decode", "model.project", "model.head")


def resolve(target: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object itself.

    Modules come from ``importlib`` rather than attribute access, because
    ``mvmlc.train`` as an attribute is the re-exported ``train`` function.
    """
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def patched(replacements: list[tuple[object, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Apply ``wrap(original)`` to each ``owner.attr``; restore on exit.

    Classmethods are unwrapped to their function and rewrapped, so the
    replacement binds like the original.
    """
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for (owner, attr, wrap), (_, _, raw) in zip(replacements, saved):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrap(raw.__func__)))
            else:
                setattr(owner, attr, wrap(raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, operation, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, count: Callable | None) -> Callable[[Callable], Callable]:
        spans, stack = self.spans, self._stack

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                        count(args) if count else None]
                spans.append(span)
                stack.append(index)
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            return traced
        return wrap

    @contextmanager
    def installed(self, op: int) -> Iterator[None]:
        """Record spans of operation ``op`` while the block runs."""
        self._op = op
        with patched([(resolve(t), attr, self._wrap(name, count))
                      for t, attr, name, count in _TARGETS]):
            yield

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: summed ms per span name, self ms of
        :data:`SELF_TIMED` spans as ``<name>.self``, and summed counts as
        ``<name>#count`` with the number of calls as ``<name>#calls``.
        :data:`TRAIN_FORWARD_PARTS` count only inside :data:`TRAIN_FORWARD`."""
        children_ms = [0.0] * len(self.spans)
        in_train_forward = [False] * len(self.spans)
        # A parent is recorded before its children, so one pass suffices.
        for index, (name, start, end, parent, op, _) in enumerate(self.spans):
            if parent >= 0:
                children_ms[parent] += (end - start) * 1e3
                in_train_forward[index] = in_train_forward[parent]
            if name == TRAIN_FORWARD:
                in_train_forward[index] = True
        out: dict[int, dict[str, float]] = {}
        for index, (name, start, end, parent, op, count) in enumerate(self.spans):
            if name in TRAIN_FORWARD_PARTS and not in_train_forward[index]:
                continue
            totals = out.setdefault(op, {})
            ms = (end - start) * 1e3
            totals[name] = totals.get(name, 0.0) + ms
            totals[name + "#calls"] = totals.get(name + "#calls", 0) + 1
            if count is not None:
                totals[name + "#count"] = totals.get(name + "#count", 0) + count
            if name in SELF_TIMED:
                totals[name + ".self"] = totals.get(name + ".self", 0.0) + ms - children_ms[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": count}) + "\n")
