"""Spans around the package's public functions, recorded in memory.

`Tracer.install` replaces each traced function at the module attribute
its caller looks up (for example `fforacle.field`, which `count_series`
and the CLI both reach through the `fforacle` module) and `uninstall`
puts the originals back.  A span holds its name, start, end, parent
span, job id, self time (duration minus the time covered by its child
spans) and the counts its probe took.  No package file is changed.
"""

import functools
import json
import os
import statistics
import sys
from time import perf_counter

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


# A probe takes counts around one call, outside its timed interval:
# `before(fn, args, kwargs)` returns a state that
# `after(fn, state, args, kwargs, result)` turns into a dict of counts.


def _field_before(fn, args, kwargs):
    info = getattr(fn, "cache_info", None)
    return (info().misses if info else None), _rss_bytes()


def _field_after(fn, state, args, kwargs, result):
    """A field build is a miss of the factory's lru_cache."""
    misses, rss = state
    if misses is None or fn.cache_info().misses == misses:
        return {"built": 0}
    return {"built": 1, "elements": result.q,
            "rss_mb": (_rss_bytes() - rss) / 2**20}


def _stdout_tell():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def _stdout_before(fn, args, kwargs):
    return _stdout_tell()


def _stdout_after(fn, state, args, kwargs, result):
    return {"bytes_out": _stdout_tell() - state}


def _counts(count):
    """A probe whose counts follow from the arguments and the result."""
    return lambda fn, state, args, kwargs, result: count(args, result)


def _classify_name(args, kwargs):
    if kwargs.get("raw_pairs"):
        return "classify.classify_raw"
    return "classify.classify"


# (module, attribute, span name or namer, before, after)
TRACE_POINTS = (
    ("fforacle", "field", "fforacle.field", _field_before, _field_after),
    ("fforacle", "count_places", "fforacle.count_places", None,
     _counts(lambda a, r: {"elements": a[1].q})),
    ("fforacle", "zeta_genus", "fforacle.zeta_genus", None, None),
    ("fforacle", "affine_points", "fforacle.affine_points", None,
     _counts(lambda a, r: {"points": len(r)})),
    ("fforacle", "verify_automorphism", "fforacle.verify_automorphism", None,
     _counts(lambda a, r: {"points": r.point_count})),
    ("cli", "main", "cli.main", _stdout_before, _stdout_after),
    ("classify", "classify", _classify_name, None,
     _counts(lambda a, r: {"entries": len(r)})),
    ("classify", "verify_sasaki_bound", "classify.verify_sasaki_bound", None,
     _counts(lambda a, r: {"pairs_checked": r.pairs_checked})),
    ("classify", "enumerate_signatures", "classify.enumerate_signatures",
     None, _counts(lambda a, r: {"signatures": len(r)})),
    ("classify", "rh_genus_tame", "ramification.rh_genus", None, None),
    ("classify", "rh_genus_wild", "ramification.rh_genus", None, None),
    ("classify", "model_genus", "families.genus", None, None),
)

# layer -> the figures reported beside its call count
LAYER_FIGURES = {
    "fforacle.field": ("built", "build_s", "elements", "rss_mb"),
    "fforacle.count_places": ("self_s", "elements", "ns_per_element"),
    "fforacle.zeta_genus": ("self_s",),
    "fforacle.affine_points": ("self_s", "points"),
    "fforacle.verify_automorphism": ("self_s", "points", "ns_per_point"),
    "cli.main": ("self_s", "bytes_out"),
    "classify.classify": ("self_s", "entries"),
    "classify.classify_raw": ("self_s", "entries"),
    "classify.verify_sasaki_bound": ("self_s", "pairs_checked"),
    "classify.enumerate_signatures": ("self_s", "signatures"),
    "ramification.rh_genus": ("self_s",),
    "families.genus": ("self_s",),
}
# ratio -> (numerator, denominator, scale)
RATIOS = {"ns_per_element": ("self_s", "elements", 1e9),
          "ns_per_point": ("self_s", "points", 1e9)}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, parent, job, start, end, self_s, counts)
        self.job = -1
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._patched = []

    def install(self, modules):
        for key, attr, name, before, after in TRACE_POINTS:
            module = modules[key]
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # layer gone: it reads 0 calls
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, before, after))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            state = before(fn, args, kwargs) if before else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, span_name, parent, start, self.clock(),
                            None)
                raise
            end = self.clock()
            counts = after(fn, state, args, kwargs, result) if after else None
            self._close(frame, span_name, parent, start, end, counts)
            return result
        return traced

    def _close(self, frame, name, parent, start, end, counts):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((frame[0], name, parent, self.job, start, end,
                           end - start - frame[1], counts))

    def aggregate(self):
        """Per layer: calls, summed self time and summed counts."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYER_FIGURES}
        for _, name, _, _, start, end, self_s, counts in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            if name == "fforacle.field" and counts and counts["built"]:
                agg["build_s"] = agg.get("build_s", 0.0) + end - start
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path):
        """Write every span as one JSON line."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        os.replace(tmp, path)


def layer_metrics(agg):
    """The per-layer metrics of one traced pass, from `aggregate()`."""
    m = {}
    for layer, figures in LAYER_FIGURES.items():
        m[f"{layer}.calls"] = agg[layer]["calls"]
        for fig in figures:
            if fig in RATIOS:
                num, den, scale = RATIOS[fig]
                n = agg[layer].get(den, 0)
                m[f"{layer}.{fig}"] = agg[layer][num] / n * scale if n else 0.0
            else:
                m[f"{layer}.{fig}"] = agg[layer].get(fig, 0)
    return m


def median_metrics(passes):
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
