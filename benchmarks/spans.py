"""Spans around calls into each qbounds layer, recorded from outside it.

``instrument`` replaces every public function of the layer modules with a
wrapper that records a span, at its home module and at every qbounds
module that imported it by name (``qbounds.bounds.spectrum_of``,
``qbounds.search.is_connected``, ...), so no call escapes through an
import site.  Registry checkers get a span per checker key, graph
construction a ``graphs.Graph`` span.

A span is opened only where a call crosses from one layer into another;
a call inside the same layer belongs to its caller's span.  Spans are
kept in flat arrays (name, parent, start, end) until the unit ends.  A
span's self time is its duration minus the durations of its child spans,
which nest because the traced unit runs on one thread.
"""

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("graphs", "linalg", "spectra", "partitions", "families", "bounds", "search", "cli")

# functools caches whose hit ratio is reported, by (layer, attribute)
CACHES = {
    "graphs.to_graph6": ("graphs", ("to_graph6",)),
    "spectra.spectrum_of": ("spectra", ("spectrum_of",)),
    "partitions": ("partitions", ("_tail_gram", "_edge_partition_quotient")),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, layer, name, fn):
        nid = self._intern("%s.%s" % (layer, name))
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            end.append(0.0)
            stack.append((idx, layer))
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def by_name(self):
        """{span name: (calls, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k])
                for k, name in enumerate(self.names) if calls[k]}


def _traceable(obj, module_name):
    if getattr(obj, "__module__", None) != module_name or inspect.isclass(obj):
        return False
    if inspect.isgeneratorfunction(obj):
        # a generator's body runs while its caller iterates
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class CertificateCounter:
    """Guard-band hits and exact escalations, counted as certificates are built."""

    def __init__(self, guard_band):
        self.guard_band = guard_band
        self.guard_band_hits = 0
        self.exact_escalations = 0
        self.decided = 0

    def observe(self, cert):
        if cert.verdict == "not-applicable":
            return
        if abs(cert.slack) <= self.guard_band:
            self.guard_band_hits += 1
        if "exact" in cert.notes:
            self.exact_escalations += 1
            if cert.verdict != "indeterminate-numeric":
                self.decided += 1


def instrument(tracer):
    """Wrap the layers in place; returns the cache objects and certificate counter.

    A cache that no longer exists is simply absent from the result.
    """
    caches = {}
    for label, (layer, attrs) in CACHES.items():
        module = importlib.import_module("qbounds." + layer)
        found = [getattr(module, attr, None) for attr in attrs]
        caches[label] = [obj for obj in found if hasattr(obj, "cache_info")]

    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module("qbounds." + layer)
        for name, obj in vars(module).items():
            if not name.startswith("_") and _traceable(obj, module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))
    for module_name, module in list(sys.modules.items()):
        if module_name != "qbounds" and not module_name.startswith("qbounds."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    graphs = sys.modules["qbounds.graphs"]
    graphs.Graph.__init__ = tracer.wrap("graphs", "Graph", graphs.Graph.__init__)

    bounds = sys.modules["qbounds.bounds"]
    for key, spec in list(bounds.REGISTRY.items()):
        bounds.REGISTRY[key] = dataclasses.replace(
            spec, run=tracer.wrap("bounds", "checker." + key, spec.run)
        )

    counter = CertificateCounter(sys.modules["qbounds.linalg"].GUARD_BAND)
    cert_class = bounds.BoundCertificate
    post_init = cert_class.__post_init__

    def counted_post_init(cert):
        post_init(cert)
        counter.observe(cert)

    cert_class.__post_init__ = counted_post_init

    return caches, counter


def cache_counts(objs):
    """Summed (hits, misses) of functools caches."""
    hits = misses = 0
    for obj in objs:
        info = obj.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses
