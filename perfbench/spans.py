"""In-memory span recording around the program's public functions.

A :class:`Tracer` replaces a function at the name its caller looks it
up (``seqskip.cli.load_sessions``, ``Tensor.backward``, ...) with a
wrapper that records a span: name, start, end, parent and the root
span it belongs to. Spans stay in memory until the run writes them
out. Wrappers are installed only for the duration of a traced pass,
so untraced passes run the program's own functions untouched.

Counts that belong to a span (episodes built, batches made, tape nodes,
checkpoint bytes) are stored as attributes on it by small hooks.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

# Attribute names the autodiff graph walk relies on. A later refactor of
# the tensor core may rename them; the traced run then lists the walk
# among its missing sites (see :func:`tape_hook`).
_PARENTS = "_parents"
_GRAD_FN = "_grad_fn"
TAPE_WALK = f"tensor graph walk ({_PARENTS}, {_GRAD_FN})"

MB = float(1 << 20)


class HookMissing(Exception):
    """Raised by a hook that cannot read what it measures; names the gap."""


class Span:
    __slots__ = ("sid", "name", "parent", "root", "start", "end", "attrs")

    def __init__(self, sid, name, parent, root, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "root": self.root,
            "start_ns": self.start,
            "end_ns": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._sites: list[tuple[object, str, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            len(self.spans),
            name,
            parent.sid if parent else None,
            parent.root if parent else len(self.spans),
            time.perf_counter_ns(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()

    # -- wrapping -------------------------------------------------------

    def site(self, owner, attr: str, name: str, hook=None) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.

        ``hook(span, args, kwargs, result)`` may attach counts. A missing
        attribute, or a hook that raises :class:`HookMissing`, is recorded
        in :attr:`missing` instead of raising.
        """
        if owner is None or not callable(vars(owner).get(attr)):
            self.missing.append(name)
            return
        self._sites.append((owner, attr, name, hook))

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(sp, args, kwargs, result)
                except HookMissing as exc:
                    if str(exc) not in tracer.missing:
                        tracer.missing.append(str(exc))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every registered site for the duration of the block."""
        installed = []
        try:
            for owner, attr, name, hook in self._sites:
                original = vars(owner)[attr]
                installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"missing": self.missing, "spans": [s.to_json() for s in self.spans]}


# -- hooks --------------------------------------------------------------


def count_len(key: str):
    def hook(sp, args, kwargs, result):
        sp.attrs[key] = len(result)

    return hook


def file_bytes(sp, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        sp.attrs["bytes"] = os.path.getsize(path)
    except (OSError, TypeError):
        pass


def tape_size(root) -> tuple[int, int] | None:
    """(recorded op nodes, bytes of their outputs) reachable from ``root``.

    Returns None when the tensor type no longer exposes its graph under
    the attribute names above.
    """
    if not hasattr(root, _PARENTS) or not hasattr(root, _GRAD_FN):
        return None
    seen = {id(root)}
    stack = [root]
    nodes = 0
    nbytes = 0
    while stack:
        node = stack.pop()
        if getattr(node, _GRAD_FN) is not None:
            nodes += 1
            nbytes += node.data.nbytes
        for parent in getattr(node, _PARENTS):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, nbytes


def tape_hook(sp, args, kwargs, result):
    size = tape_size(result)
    if size is None:
        raise HookMissing(TAPE_WALK)
    sp.attrs["tape_nodes"], sp.attrs["tape_bytes"] = size


# -- analysis -----------------------------------------------------------


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            out.setdefault(sp.parent, []).append(sp)
    return out


def self_seconds(sp: Span, children: dict[int, list[Span]]) -> float:
    """Span duration minus the time its direct children cover.

    The program is single-threaded, so direct children never overlap.
    """
    covered = sum(c.end - c.start for c in children.get(sp.sid, ()))
    return (sp.end - sp.start - covered) / 1e9


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return float(vals[0])
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return float(vals[lo] + (vals[hi] - vals[lo]) * (pos - lo))


def median(values) -> float:
    vals = list(values)
    return float(statistics.median(vals)) if vals else 0.0
