"""In-memory span tracing of the scfto layers, from outside the package.

`Tracer.install()` replaces the public functions each layer exposes (and the
names `protocol` and `metrics` import from other modules) with wrappers that
time every call.  Each wrapper adds the call to its layer's row (calls, total
seconds, self seconds) as it returns; a layer's self time is its duration
minus the time of the wrapped calls made inside it.  The first `SPAN_CAP`
calls are also kept as spans (name, start, end, enclosing span) in flat
arrays, 21 bytes each: a traced pass makes millions of calls, so the full
list would take hundreds of megabytes.  Bookkeeping a wrapper does after the
call (counting values, comparing inputs) is timed as `trace.hook`, so it
lands in no layer's self time.
"""
from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

import scfto.fuzzy as fuzzy
import scfto.metrics as metrics
import scfto.network as network
import scfto.protocol as protocol
import scfto.rng as rng
import scfto.trust as trust

HOOK = "trace.hook"
SPAN_CAP = 2_000_000


class Tracer:
    def __init__(self):
        self.names: list = []
        self.rows: list = []  # per name: [calls, total seconds, self seconds]
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]  # span index of each open call, -1 when not kept
        self._child = [0.0]  # seconds of wrapped calls inside each open call
        self._patched: list = []
        # counters measured where the work happens
        self.inferences = 0
        self.bypasses = 0
        self.merges_applied = 0
        self.values_scanned = 0
        self.repeat_inputs = 0
        self._last_input: dict = {}  # table owner -> sorted Known values
        self._hook_row = self._row(HOOK)

    def _row(self, name: str) -> int:
        self.names.append(name)
        self.rows.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def span(self, name: str, fn, hook=None):
        """`fn` wrapped to time each call; `hook(args, result)` runs after
        the call and is timed as `trace.hook`."""
        nid = self._row(name)
        row, hook_row = self.rows[nid], self.rows[self._hook_row]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_, child = self._open, self._child

        def wrapper(*args, **kwargs):
            i = len(starts)
            if i < SPAN_CAP:
                names.append(nid)
                parents.append(open_[-1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                i = -1
            open_.append(i)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_.pop()
                inner = child.pop()
                duration = t1 - t0
                child[-1] += duration
                row[0] += 1
                row[1] += duration
                row[2] += duration - inner
                if i >= 0:
                    starts[i] = t0
                    ends[i] = t1
            if hook is not None:
                t0 = perf_counter()
                hook(args, result)
                duration = perf_counter() - t0
                child[-1] += duration
                hook_row[0] += 1
                hook_row[1] += duration
                hook_row[2] += duration
            return result
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrap = self._patch
        wrap(rng.StreamFactory, "stream",
             self.span("rng.stream", rng.StreamFactory.stream))
        wrap(network.SimState, "distance",
             self.span("network.distance", network.SimState.distance))
        wrap(network.SimState, "debit",
             self.span("network.debit", network.SimState.debit))
        wrap(metrics, "init_network", self.span("network.init", metrics.init_network))
        wrap(fuzzy.FuzzyTrustEngine, "__init__",
             self.span("fuzzy.engine_init", fuzzy.FuzzyTrustEngine.__init__))
        wrap(fuzzy.FuzzyTrustEngine, "evaluate",
             self.span("fuzzy.evaluate", fuzzy.FuzzyTrustEngine.evaluate,
                       self._count_bypass))
        endpoint_list = fuzzy.FuzzyTrustEngine.endpoint_list

        def counted_endpoint_list(engine, dfd, dfr):
            self.inferences += 1
            return endpoint_list(engine, dfd, dfr)
        wrap(fuzzy.FuzzyTrustEngine, "endpoint_list", counted_endpoint_list)
        wrap(fuzzy.FuzzyTrustEngine, "classify_trust",
             self.span("fuzzy.classify", fuzzy.FuzzyTrustEngine.classify_trust))
        for name in ("tx_energy", "rx_energy", "overhear_energy"):
            wrap(protocol, name, self.span(f"phy.{name}", getattr(protocol, name)))
        wrap(protocol, "merge_recommendation",
             self.span("trust.merge", protocol.merge_recommendation,
                       self._count_applied))
        wrap(protocol, "record_event",
             self.span("trust.record_event", protocol.record_event))
        wrap(protocol, "update_direct_trust",
             self.span("trust.update_direct", protocol.update_direct_trust))
        wrap(trust.TrustTable, "known_values",
             self.span("trust.known_values", trust.TrustTable.known_values,
                       self._count_repeat))
        wrap(protocol, "detect_threshold",
             self.span("outlier.detect", protocol.detect_threshold,
                       self._count_values))
        wrap(metrics, "run_round", self.span("protocol.run_round", metrics.run_round))
        for name in ("choose_head", "recommendation_items", "should_elect",
                     "election_probability"):
            wrap(protocol, name, self.span(f"protocol.{name}", getattr(protocol, name)))
        wrap(metrics, "run_to_files",
             self.span("metrics.run_to_files", metrics.run_to_files))
        wrap(metrics, "run_sweep", self.span("metrics.run_sweep", metrics.run_sweep))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # hooks: (call arguments, result) -> None
    def _count_bypass(self, args, result) -> None:
        engine, _, dfr = args
        if dfr < engine.flc.dfr_bypass:
            self.bypasses += 1

    def _count_applied(self, args, applied) -> None:
        self.merges_applied += bool(applied)

    def _count_values(self, args, result) -> None:
        self.values_scanned += len(args[0])

    def _count_repeat(self, args, values) -> None:
        owner = args[0].owner
        current = sorted(values)
        if self._last_input.get(owner) == current:
            self.repeat_inputs += 1
        self._last_input[owner] = current

    def layers(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        return dict(zip(self.names, self.rows))

    def write(self, directory: str) -> None:
        """The kept spans as raw arrays, plus a JSON index naming them."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "parent", "start", "end"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"kept": len(self.start),
                       "calls": sum(row[0] for name, row in zip(self.names, self.rows)
                                    if name != HOOK),
                       "names": self.names,
                       "fields": {"name": "u8 index into names",
                                  "parent": "i32 span index, -1 at the root "
                                            "or when the enclosing call is not kept",
                                  "start": "f64 perf_counter seconds",
                                  "end": "f64 perf_counter seconds"}},
                      fh, indent=1)
