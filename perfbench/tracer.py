"""Layer tracer: wraps gcsf's public functions from outside and keeps spans.

Every public function defined in a gcsf module is wrapped at every module
binding that refers to it, not only where it is defined.  ``gcsf.flow``
imports ``curvature_radius_samples`` by name, so the flow stepper's kernel
calls go through the ``gcsf.flow`` binding; the binding a call went
through therefore names the calling module.

A span is (function, binding, start, end, parent, value).  ``value`` holds
a count taken from the call: nodes or snapshots from a solver's returned
arrays, bytes from a writer's output file.  Spans live in flat arrays in
memory and are written out as ``.npz`` files by ``flush``.  Processes forked
by a traced process (the sweep's pool workers) start with empty arrays and
write their own file each time they return to top level.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("gcsf", "gcsf.geometry", "gcsf.flow", "gcsf.solitons", "gcsf.cli")


def _node_count(result) -> int:
    for name in ("r", "x", "t"):
        arr = getattr(result, name, None)
        if arr is not None:
            return len(arr)
    raise TypeError(f"no node array on {type(result).__name__}")


def _snapshot_count(result) -> int:
    times = result.times if hasattr(result, "times") else result[0]
    return len(times)


# Counts read from a call's result (key: defining module.function).
RESULT_COUNTS = {
    "flow.run_to_extinction": _snapshot_count,
    "flow.run_normalized": _snapshot_count,
    "solitons.radial_translator": _node_count,
    "solitons.translator_1d": _node_count,
    "solitons.comparison_ode": _node_count,
}

# Writers whose second argument is the file they write; the span value is
# the file's size in bytes.
WRITERS = (
    "flow.write_trace_csv",
    "solitons.write_profile_csv",
    "solitons.write_profile1d_csv",
    "solitons.write_ode_csv",
)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, out_dir: str | os.PathLike):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []  # "function@binding", indexed by span name id
        self._installed: list[tuple[object, str, object]] = []
        self._flushes = 0
        self.worker = False
        self._reset()
        os.register_at_fork(after_in_child=self._enter_worker)

    def _enter_worker(self) -> None:
        self.worker = True
        self._reset()

    def _reset(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack = [-1]

    def install(self) -> None:
        """Wrap every public gcsf function at every gcsf module binding."""
        import importlib

        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("gcsf"):
                    continue
                key = f"{_short(obj.__module__)}.{obj.__name__}"
                wrapped = self._wrap(obj, key, _short(module_name))
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, key: str, binding: str):
        fid = len(self.names)
        self.names.append(f"{key}@{binding}")
        count = RESULT_COUNTS.get(key)
        writer = key in WRITERS
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.fn.append(fid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.value.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            if count is not None:
                tracer.value[idx] = count(result)
            elif writer:
                tracer.value[idx] = os.path.getsize(args[1])
            if tracer.worker and len(tracer.stack) == 1:
                tracer.flush()
            return result

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr))
        return traced

    def flush(self) -> None:
        """Write the spans held in memory to a new file and drop them."""
        if len(self.start) == 0:
            return
        self._flushes += 1
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        np.savez(path, names=np.array(json.dumps(self.names)),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 value=np.frombuffer(self.value))
        self._reset()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.flush()
        return False


# -- analysis ---------------------------------------------------------------

class Spans:
    """All spans of one traced pass, merged over the files its processes wrote.

    ``self_s`` is a span's duration minus the durations of its direct
    children, so time spent in unwrapped (private) helpers counts toward the
    wrapped function that called them.
    """

    def __init__(self, directory: str | os.PathLike):
        self.names: list[tuple[str, str]] = []  # (function, binding) by global id
        ids: dict[str, int] = {}
        fns, durs, owns, values = [], [], [], []
        for path in sorted(Path(directory).glob("spans-*.npz")):
            with np.load(path) as data:
                local = json.loads(str(data["names"]))
                for name in local:
                    if name not in ids:
                        ids[name] = len(self.names)
                        self.names.append(tuple(name.split("@")))
                to_global = np.array([ids[name] for name in local], dtype=np.int64)
                parent = data["parent"]
                dur = data["end"] - data["start"]
                own = dur.copy()
                inner = parent >= 0
                np.subtract.at(own, parent[inner], dur[inner])
                fns.append(to_global[data["fn"]])
                durs.append(dur)
                owns.append(own)
                values.append(data["value"])
        if not fns:
            raise ValueError(f"no span files under {directory}")
        self.fn = np.concatenate(fns)
        self.dur = np.concatenate(durs)
        self.self_s = np.concatenate(owns)
        self.value = np.concatenate(values)

    def mask(self, keys, binding: str | None = None) -> np.ndarray:
        wanted = [i for i, (key, bound) in enumerate(self.names)
                  if key in keys and (binding is None or bound == binding)]
        return np.isin(self.fn, wanted)

    def calls(self, keys, binding: str | None = None) -> int:
        return int(np.count_nonzero(self.mask(keys, binding)))

    def total(self, keys, binding: str | None = None) -> float:
        return float(np.sum(self.dur[self.mask(keys, binding)]))

    def own(self, keys) -> float:
        return float(np.sum(self.self_s[self.mask(keys)]))

    def values(self, keys) -> float:
        return float(np.sum(self.value[self.mask(keys)]))
