"""Out-of-program tracing for the noisylab benchmark.

`Tracer` replaces the functions of every noisylab layer module with
wrappers that record one span per call (name, start, end, parent) in flat
in-memory arrays, and puts every original back when it exits. Because the
modules import functions from each other by name, each module attribute
bound to a traced function is patched, so a call through
`noisylab.procedures.forward_batch` is traced like one through
`noisylab.model.forward_batch`. Counts are taken by observers at the same
call boundaries.

`SpanTable` turns the spans into self times (a span's duration minus what
its child spans cover) and inclusive times; `layer_metrics` maps those onto
the benchmark's per-layer metrics. Nothing here is imported by an untraced
benchmark run.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("data", "noise", "losses", "model", "reweight", "annotators",
          "procedures", "harness", "numerics")

# Private functions traced as well as the public ones: they split a public
# function's time into the phases the per-layer metrics name.
PRIVATE_SPANS = {"procedures": ("_train_epoch_against_store",)}

# Class methods traced, per layer: (class name, method names). The reweight
# hook classes are found through reweight._HOOKS.
METHOD_SPANS = {"procedures": (("SoftLabelStore",
                                ("relabel_hard", "relabel_soft")),)}
HOOK_METHODS = ("epoch_kept_set", "sample_weight")


def _count_rows(counters, args, result):
    counters["rows_parsed"] += result.n


def _count_inject(counters, args, result):
    counters["labels_drawn"] += result.n


def _count_annotator_labels(counters, args, result):
    counters["labels_drawn"] += result.annotator_labels.size


def _count_steps(counters, args, result):
    counters["sample_steps"] += np.shape(args[1])[0]


def _count_offered(counters, args, result):
    counters["reweight_offered"] += args[2].n


def _count_kept(counters, args, result):
    counters["reweight_kept"] += result != 0.0


def _count_staple(counters, args, result):
    counters["staple_iters"] += len(result[3]) - 1


def _count_selected(counters, args, result):
    counters["selection_offered"] += len(args[1])
    counters["selected"] += len(result)


def _count_bytes(counters, args, result):
    counters["report_bytes"] += len(args[1].encode("utf-8"))


OBSERVERS = {
    "data.load_csv": _count_rows,
    "noise.inject": _count_inject,
    "noise.feature_dependent_inject": _count_inject,
    "noise.simulate_annotators": _count_annotator_labels,
    "model.backward_batch": _count_steps,
    "annotators.staple": _count_staple,
    "procedures.small_loss_selection": _count_selected,
    "harness.atomic_write_text": _count_bytes,
}
HOOK_OBSERVERS = {"epoch_kept_set": _count_offered,
                  "sample_weight": _count_kept}
COUNTERS = ("rows_parsed", "labels_drawn", "sample_steps", "reweight_offered",
            "reweight_kept", "staple_iters", "selection_offered", "selected",
            "report_bytes")


def _targets():
    """(span name, owner, attribute, function, observer) for every traced
    callable, in a fixed order."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"noisylab.{layer}"]
        private = PRIVATE_SPANS.get(layer, ())
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in private)):
                name = f"{layer}.{attr}"
                out.append((name, mod, attr, fn, OBSERVERS.get(name)))
        classes = [(getattr(mod, c), methods)
                   for c, methods in METHOD_SPANS.get(layer, ())]
        if layer == "reweight":
            classes += [(cls, HOOK_METHODS) for cls in mod._HOOKS.values()]
        for cls, methods in classes:
            for meth in methods:
                name = f"{layer}.{cls.__name__}.{meth}"
                observer = (HOOK_OBSERVERS.get(meth) if layer == "reweight"
                            else None)
                out.append((name, cls, meth, cls.__dict__[meth], observer))
    return out


class Tracer:
    """Context manager that traces every noisylab layer function while
    active. Spans: `names[name_id[i]]`, `parent[i]` (-1 at top level),
    `start[i]`, `end[i]`, in call order, so a parent precedes its
    children."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patched = []

    def _wrap(self, fn, nid, observer):
        ids, parents, starts, ends = (self.name_id, self.parent, self.start,
                                      self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer is not None:
                observer(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def __enter__(self):
        wrappers = {}
        for name, owner, attr, fn, observer in _targets():
            self.names.append(name)
            wrapper = self._wrap(fn, len(self.names) - 1, observer)
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "noisylab" or key.startswith("noisylab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, value, entry[1])
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def table(self):
        return SpanTable(self.names, self.name_id, self.parent, self.start,
                         self.end)


class SpanTable:
    """Recorded spans as arrays, with self and inclusive time queries."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.duration = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested],
                              weights=self.duration[nested],
                              minlength=len(self.duration))
        self.self_time = self.duration - covered

    def save(self, path):
        """Write the spans as an uncompressed .npz archive."""
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)

    def select(self, names=(), layer=None):
        """Mask of spans named in `names` or belonging to `layer`."""
        wanted = [i for i, n in enumerate(self.names)
                  if n in names or (layer and n.split(".")[0] == layer)]
        return np.isin(self.name_id, wanted)

    def under(self, mask):
        """Mask of spans that have an ancestor in `mask`."""
        inside = mask.tolist()
        out = [False] * len(inside)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (inside[p] or out[p]):
                out[i] = True
        return np.array(out, dtype=bool)

    def self_s(self, mask):
        return float(self.self_time[mask].sum())

    def inclusive_s(self, mask):
        """Wall time covered by spans in `mask`, counting nested ones
        once."""
        return float(self.duration[mask & ~self.under(mask)].sum())

    def count(self, mask):
        return int(mask.sum())

    def entries(self, layer):
        """Calls into `layer` from outside it."""
        mask = self.select(layer=layer)
        parents = self.parent[mask]
        outer = np.ones(len(parents), dtype=bool)
        nested = parents >= 0
        outer[nested] = ~mask[parents[nested]]
        return int(outer.sum())


def _names(layer, *funcs):
    return {f"{layer}.{f}" for f in funcs}


PREDICT = _names("model", "predict", "predict_probs")
FORWARD = _names("model", "forward", "forward_batch")
NOISE_LAYER = _names("model", "noise_layer_grads", "attach_noise_layer",
                     "realized_transition", "noisy_forward")
FUSE = _names("annotators", "majority_vote", "staple")
RELABEL = _names("procedures", "dual_relabel_epoch", "iterative_clean",
                 "SoftLabelStore.relabel_hard", "SoftLabelStore.relabel_soft")
META = _names("procedures", "cleaning_meta_features")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, counters, passes):
    """Per-layer metrics, each per pass of the workload, from one traced
    run of `passes` passes. Returns {name: value} for every traced metric
    (`procedures.store_match_truth` and `trace.overhead_ratio` come from the
    caller)."""
    t, c = table, counters
    sel = t.select
    procedures = sel(layer="procedures")
    annotators = sel(layer="annotators")
    predict = sel(PREDICT)
    hooks = sel({n for n in t.names
                 if n.startswith("reweight.") and n.count(".") == 2})
    totals = {
        "data.generate_s": t.inclusive_s(sel(_names(
            "data", "gen_blobs", "gen_rings", "split"))),
        "data.load_csv_s": t.inclusive_s(sel({"data.load_csv"})),
        "data.rows_parsed": c["rows_parsed"],
        "noise.corrupt_s": t.inclusive_s(sel(_names(
            "noise", "inject", "feature_dependent_inject",
            "simulate_annotators"))),
        "noise.labels_drawn": c["labels_drawn"],
        "numerics.sample_categorical.calls": t.count(
            sel({"numerics.sample_categorical"})),
        "losses.calls": t.entries("losses"),
        "losses.self_s": t.self_s(sel(layer="losses")),
        "model.train_self_s": t.self_s(sel({"model.train"})),
        "model.forward_s": t.self_s(sel(FORWARD) & ~t.under(predict)),
        "model.backward_s": t.inclusive_s(sel(_names(
            "model", "backward", "backward_batch"))),
        "model.noise_layer_s": t.inclusive_s(sel(NOISE_LAYER)),
        "model.predict_s": t.inclusive_s(predict),
        "model.batches": t.count(sel({"model.backward_batch"})),
        "model.sample_steps": c["sample_steps"],
        "reweight.hook_s": t.inclusive_s(hooks),
        "reweight.hook_calls": t.count(hooks),
        "annotators.fuse_s": t.inclusive_s(sel(FUSE)),
        "annotators.train_self_s": t.self_s(annotators & ~sel(FUSE)),
        "annotators.staple_iters": c["staple_iters"],
        "annotators.majority_vote.calls": t.count(
            sel({"annotators.majority_vote"})),
        "procedures.train_self_s": t.self_s(
            procedures & ~sel(RELABEL) & ~sel(META)),
        "procedures.relabel_s": t.self_s(sel(RELABEL)),
        "procedures.meta_features_s": t.inclusive_s(sel(META)),
        "procedures.relabeled": t.count(sel(_names(
            "procedures", "SoftLabelStore.relabel_hard",
            "SoftLabelStore.relabel_soft"))),
        "harness.experiments": t.count(sel({"harness.run_experiment"})),
        "harness.self_s": t.self_s(sel(layer="harness")),
        "harness.evaluate_s": t.inclusive_s(sel({"harness.metrics"})),
        "harness.serialize_s": t.inclusive_s(sel(_names(
            "harness", "report_json", "sweep_summary_csv",
            "strip_wall_time"))),
        "harness.write_s": t.inclusive_s(sel({"harness.atomic_write_text"})),
        "harness.report_bytes": c["report_bytes"],
        "numerics.softmax.calls": t.count(sel({"numerics.softmax"})),
    }
    out = {k: v / passes for k, v in totals.items()}
    out["reweight.kept_fraction"] = _ratio(c["reweight_kept"],
                                           c["reweight_offered"])
    out["procedures.selected_fraction"] = _ratio(c["selected"],
                                                 c["selection_offered"])
    return out
