"""The traced run: function self time summed per layer, from outside.

One ``cProfile.Profile`` per thread — the calling thread directly,
every thread started afterwards (server loop, client loop, container
workers) through a ``threading.setprofile`` bootstrap that swaps itself
for the C profiler on the thread's first event.  No repo function is
patched: wrapping e.g. ``ConcurrencyControl.install`` would flip the
``type(manager).install is _GENERIC_INSTALL`` fast path in
``concurrency/batch.py`` and measure a different program.

Attribution: a Python function's self time (``inlinetime``) goes to the
layer its source file belongs to — the package under ``src/repro/``,
with ``serving/protocol.py``, ``serving/server.py`` and
``runtime/threads.py`` split out, plus ``stdlib.asyncio``,
``stdlib.json`` and ``loadgen`` (this benchmark's own files).  A
builtin's time goes to its *caller's* layer through the callers table,
except blocking primitives (``epoll.poll``, ``lock.acquire``,
``time.sleep``), which are nobody's work: they are left out of every
layer, and ``wait`` is instead measured as wall time minus process CPU
time — the time no thread of the process was running.

Python 3.11 profiles per thread (``PyEval_SetProfile``); from 3.12 on
``cProfile`` sits on ``sys.monitoring``, where only one profiler may be
active per process, so this module must be revisited there.
"""

from __future__ import annotations

import cProfile
import threading
from collections import Counter
from pathlib import Path
from typing import Any

#: Layers reported as ``<layer>.self_us_per_txn`` / ``.calls_per_txn``.
LAYERS = (
    "client", "serving.protocol", "serving.server", "core", "runtime",
    "runtime.threads", "sim", "concurrency", "relational", "storage",
    "durability", "telemetry", "workloads", "stdlib.asyncio",
    "stdlib.json", "loadgen",
)

_SPLIT_OUT = {
    "serving/protocol.py": "serving.protocol",
    "serving/server.py": "serving.server",
    "runtime/threads.py": "runtime.threads",
}

_BLOCKING = ("select.epoll", "select.poll", "select.select",
             "of '_thread.lock'", "of '_thread.RLock'", "time.sleep",
             "of '_socket.socket'")

_HERE = str(Path(__file__).resolve().parent)


def _short(filename: str) -> str:
    return "/".join(filename.split("/")[-3:])


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` when none)."""
    __, sep, inside = filename.rpartition("/repro/")
    if sep:
        return _SPLIT_OUT.get(inside) or inside.split("/")[0]
    if "/asyncio/" in filename or \
            filename.endswith(("/selectors.py", "/socket.py")):
        return "stdlib.asyncio"
    if "/json/" in filename:
        return "stdlib.json"
    if filename.startswith(_HERE):
        return "loadgen"
    return "other"


class LayerProfiler:
    """Profiles the calling thread and every thread started while it
    is installed; reports self time and calls per layer."""

    def __init__(self) -> None:
        self._own = cProfile.Profile()
        self._others: list[cProfile.Profile] = []

    def install(self) -> None:
        """Profile every thread started from now on."""
        threading.setprofile(self._bootstrap)

    def _bootstrap(self, frame: Any, event: str, arg: Any) -> None:
        profile = cProfile.Profile()
        self._others.append(profile)
        profile.enable()  # replaces this hook on the new thread

    def enable(self) -> None:
        """Start profiling the calling thread."""
        self._own.enable()

    def disable(self) -> None:
        """Stop profiling the calling thread and stop instrumenting
        new ones.  Other threads' profiles end with their thread, so
        join them before :meth:`report`."""
        self._own.disable()
        threading.setprofile(None)

    def report(self, txns: int, top: int = 50) -> dict[str, Any]:
        """Per-layer self time and calls per transaction, the blocked
        time left out of them, and the ``top`` functions by self
        time."""
        own_s: dict[Any, float] = {}      # code object -> self seconds
        n_calls: dict[Any, int] = {}      # ... -> calls, builtins too
        entered: Counter = Counter()      # ... -> times it was called
        called_by: dict[Any, Counter] = {}
        blocked_s, blocked_calls = 0.0, 0
        for profile in [self._own, *self._others]:
            for entry in profile.getstats():
                code = entry.code
                if isinstance(code, str):
                    continue  # builtins are charged through callers
                own, n = entry.inlinetime, entry.callcount
                for sub in entry.calls or ():
                    if not isinstance(sub.code, str):
                        called_by.setdefault(sub.code, Counter())[
                            code] += sub.callcount
                    elif any(mark in sub.code for mark in _BLOCKING):
                        blocked_s += sub.inlinetime
                        blocked_calls += sub.callcount
                    else:
                        own += sub.inlinetime
                        n += sub.callcount
                own_s[code] = own_s.get(code, 0.0) + own
                n_calls[code] = n_calls.get(code, 0) + n
                entered[code] += entry.callcount

        layers: dict[Any, str] = {}

        def layer_for(code: Any) -> str:
            """A file's layer; a helper outside every layer (e.g.
            ``threading.py``) takes the layer that calls it most."""
            if code not in layers:
                layers[code] = layer = layer_of(code.co_filename)
                if layer == "other" and code in called_by:
                    caller = called_by[code].most_common(1)[0][0]
                    layers[code] = layer_for(caller)
            return layers[code]

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for code, own in own_s.items():
            layer = layer_for(code)
            self_s[layer] = self_s.get(layer, 0.0) + own
            calls[layer] = calls.get(layer, 0) + n_calls[code]
        per_txn = 1e6 / txns
        ranked = sorted(own_s, key=own_s.get, reverse=True)[:top]
        return {
            "txns": txns,
            "threads": 1 + len(self._others),
            "layers": {layer: {
                "self_us_per_txn": self_s[layer] * per_txn,
                "calls_per_txn": calls[layer] / txns}
                for layer in sorted(self_s)},
            "blocked_us_per_txn": blocked_s * per_txn,
            "blocking_calls_per_txn": blocked_calls / txns,
            "sim_run_calls_per_txn": sum(
                n for code, n in entered.items()
                if code.co_name == "run" and
                code.co_filename.endswith("sim/scheduler.py")) / txns,
            "top_functions": [{
                "function": code.co_name,
                "where": f"{_short(code.co_filename)}:"
                         f"{code.co_firstlineno}",
                "layer": layers[code],
                "self_us_per_txn": round(own_s[code] * per_txn, 3),
                "calls_per_txn": round(entered[code] / txns, 3)}
                for code in ranked],
        }
