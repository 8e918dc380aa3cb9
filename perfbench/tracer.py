"""Span tracer that wraps brickwall's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
in every brickwall namespace that binds it, by a wrapper that records a
span (id, name, start, end, parent id, task id) in memory.  Self time is
the span's duration minus the time its child spans cover.  Counters ride
on the same wrappers: bricks, substitution steps, joints, SVG bytes,
trials, and SplitMix64 draws.  `uninstall()` restores the originals, so
untraced code runs the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("rules", "builtins", "generate", "joints", "spectral", "stats",
           "rng", "svg", "cli")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_iterate(c, args, kwargs, result):
    c["generate.steps"] += _arg(args, kwargs, 2, "n")
    c["generate.bricks"] += len(result)


def _count_substitute_once(c, args, kwargs, result):
    c["generate.steps"] += 1
    c["generate.bricks"] += len(result)


def _count_iterate_block(c, args, kwargs, result):
    c["generate.steps"] += _arg(args, kwargs, 2, "n")


def _count_render_grid(c, args, kwargs, result):
    c["generate.bricks"] += len(result)


def _count_vertical_joints(c, args, kwargs, result):
    c["joints.joints"] += len(result.joints)


def _count_to_svg(c, args, kwargs, result):
    c["svg.bytes"] += len(result.encode())


def _count_sample_vmax(c, args, kwargs, result):
    c["stats.trials"] += result.trials


# counters attached to particular spans, keyed by span name
COUNTERS = {
    "generate.iterate": _count_iterate,
    "generate.substitute_once": _count_substitute_once,
    "generate.iterate_block": _count_iterate_block,
    "generate.render_grid": _count_render_grid,
    "joints.vertical_joints": _count_vertical_joints,
    "svg.to_svg": _count_to_svg,
    "stats.sample_vmax": _count_sample_vmax,
}


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, task id)
        self.counts = Counter()
        self.task_id = None
        self._stack = []         # ids of the open spans
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.task_id))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of MODULES wherever brickwall binds them."""
        package = importlib.import_module("brickwall")
        modules = [importlib.import_module(f"brickwall.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])
        rng = importlib.import_module("brickwall.rng")
        draw = rng.SplitMix64.next_u64
        counts = self.counts

        def counted_draw(state):
            counts["rng.draws"] += 1
            return draw(state)

        self._patch(rng.SplitMix64, "next_u64", counted_draw)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self):
        """(name, task id, self time) per span: its duration minus the
        time covered by its direct children."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, task, end - start - covered[sid])
                for sid, name, start, end, _, task in self.spans]

    def calls(self, name):
        return sum(1 for span in self.spans if span[1] == name)

    def write(self, path):
        """Spans as JSON lines, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "task": task}) + "\n")
