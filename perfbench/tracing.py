"""Spans and counts around modlat's public functions, for `--trace 1`.

`Tracer.install` replaces each traced function by a wrapper, in its home
module and in every modlat module that imported it by name, so that
internal calls (enumerate_ideals -> impose_line -> make_row) count as
well as calls from the CLI.  `Lattice.__init__` is wrapped on the class.
A span records (name, parent span, op, start, end) in five parallel
arrays, which stay in memory until `write_spans`.  A layer's self time
is its spans' duration minus the time covered by their child spans.
Nothing in modlat is edited.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from array import array
from collections import Counter
from time import perf_counter

import modlat.algebra
import modlat.analysis
import modlat.bol
import modlat.cli
import modlat.corpus
import modlat.lattice
import modlat.pls
import modlat.rebuild
import modlat.wildcard
from modlat.lattice import CapExceeded

MODULES = (
    modlat.lattice, modlat.algebra, modlat.wildcard, modlat.bol, modlat.pls,
    modlat.rebuild, modlat.analysis, modlat.corpus, modlat.cli,
)

# span name -> (home module, function); a span's self time is "<name>_s"
SPANNED = {
    "lattice.projectivity_classes": (modlat.lattice, "projectivity_classes"),
    "lattice.is_isomorphic": (modlat.lattice, "is_isomorphic"),
    "algebra.subgroup_lattice": (modlat.algebra, "subgroup_lattice"),
    "algebra.distributive_lattice": (modlat.algebra, "distributive_lattice"),
    "wildcard.enumerate": (modlat.wildcard, "enumerate_ideals"),
    "wildcard.seed": (modlat.wildcard, "seed_order_ideals"),
    "wildcard.expand": (modlat.wildcard, "expand"),
    "bol.line_intervals": (modlat.bol, "line_intervals"),
    "bol.localize": (modlat.bol, "localize"),
    "pls.find_cycle": (modlat.pls, "find_cycle"),
    "pls.components": (modlat.pls, "components"),
    "pls.validate_pls": (modlat.pls, "validate_pls"),
    "rebuild.closed_ideals_lattice": (modlat.rebuild, "closed_ideals_lattice"),
    "rebuild.roundtrip_check": (modlat.rebuild, "roundtrip_check"),
    "analysis.params": (modlat.analysis, "params"),
    "analysis.verdict_suite": (modlat.analysis, "verdict_suite"),
    "analysis.check_point_count": (modlat.analysis, "check_point_count"),
    "analysis.check_interval_bounds": (modlat.analysis, "check_interval_bounds"),
    "analysis.check_join_witness": (modlat.analysis, "check_join_witness"),
    "analysis.check_components_match_projectivity": (
        modlat.analysis, "check_components_match_projectivity"),
    "analysis.check_triangle_tops": (modlat.analysis, "check_triangle_tops"),
    "corpus.standard_corpus": (modlat.corpus, "standard_corpus"),
    "cli.main": (modlat.cli, "main"),
}
# metric -> (home module, function); calls counted, no span
COUNTED = {
    "algebra.join_subgroups_calls": (modlat.algebra, "join_subgroups"),
    "wildcard.make_row_calls": (modlat.wildcard, "make_row"),
    "wildcard.force_calls": (modlat.wildcard, "force"),
    "bol.canonical_bol_calls": (modlat.bol, "canonical_bol"),
    "analysis.is_locally_acyclic_calls": (modlat.analysis, "is_locally_acyclic"),
    "analysis.component_count_calls": (modlat.analysis, "component_count"),
}
# counts reported as they are
COPIED = (
    *COUNTED, "lattice.elements_built", "lattice.is_isomorphic_calls",
    "algebra.subgroups", "wildcard.impose_line_calls", "wildcard.rows_final",
    "wildcard.split_bound_violations", "bol.bases_yielded", "bol.bases_truncated",
    "bol.localize_calls", "pls.find_cycle_calls",
)
BUILD = "lattice.build"
ALL_BOLS = "bol.all_bols"
OP = "op"


class Tracer:
    """Records spans and counts while installed; one per traced pass."""

    def __init__(self):
        self.names = []
        # span k: name id, parent span (-1 for none), op index, start, end
        self.name, self.parent, self.op_of = array("b"), array("l"), array("l")
        self.start, self.end = array("d"), array("d")
        self.open = []
        self.op = -1
        self.counts = Counter()
        self.max_split = 0
        self.lattices = {"lattice.projectivity_classes": {}, "bol.line_intervals": {}}
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, nid):
        k = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open[-1] if self.open else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.open.append(k)
        self.start.append(perf_counter())
        return k

    def _exit(self, k):
        self.end[k] = perf_counter()
        # an op cut short by its time limit may leave inner spans open
        while self.open and self.open.pop() != k:
            pass

    def begin_op(self, k):
        self.op = k
        self.open = []
        # a time limit that struck inside _enter leaves the arrays uneven
        n = min(map(len, (self.name, self.parent, self.op_of, self.start, self.end)))
        for arr in (self.name, self.parent, self.op_of, self.start, self.end):
            del arr[n:]
        return self._enter(self._name_id(OP))

    def end_op(self, k):
        self._exit(k)

    def _spanned(self, name, fn, after=None):
        nid = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + "_calls"] += 1
            span = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _all_bols(self, fn):
        nid = self._name_id(ALL_BOLS)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span = self._enter(nid)
                try:
                    B = next(gen)
                except StopIteration:
                    return
                except CapExceeded:
                    counts["bol.bases_truncated"] += 1
                    raise
                finally:
                    self._exit(span)
                counts["bol.bases_yielded"] += 1
                yield B
        return wrapper

    def _impose_line(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(row, positions):
            out = fn(row, positions)
            counts["wildcard.impose_line_calls"] += 1
            if not (len(out) == 1 and out[0].same_content(row)):
                counts["wildcard.impose_useful"] += 1
            self.max_split = max(self.max_split, len(out))
            if len(out) > len(set(positions)) + 2:
                counts["wildcard.split_bound_violations"] += 1
            return out
        return wrapper

    # -- per-call extras ------------------------------------------------------

    def _per_lattice(self, name):
        seen = self.lattices[name]

        def after(args, result):
            seen[id(args[0])] = args[0]  # keep L alive so its id stays unique
        return after

    def _after_build(self, args, result):
        self.counts["lattice.elements_built"] += args[1]

    def _after_subgroup_lattice(self, args, result):
        self.counts["algebra.subgroups"] += result.n

    def _after_enumerate(self, args, result):
        self.counts["wildcard.rows_final"] += len(result.rows)

    # -- install --------------------------------------------------------------

    def _replace(self, home, attr, wrapper):
        orig = getattr(home, attr)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def install(self):
        after = {
            "lattice.projectivity_classes": self._per_lattice("lattice.projectivity_classes"),
            "bol.line_intervals": self._per_lattice("bol.line_intervals"),
            "algebra.subgroup_lattice": self._after_subgroup_lattice,
            "wildcard.enumerate": self._after_enumerate,
        }
        for name, (home, attr) in SPANNED.items():
            self._replace(home, attr, self._spanned(name, getattr(home, attr), after.get(name)))
        for name, (home, attr) in COUNTED.items():
            self._replace(home, attr, self._counted(name, getattr(home, attr)))
        self._replace(modlat.bol, "all_bols", self._all_bols(modlat.bol.all_bols))
        self._replace(modlat.wildcard, "impose_line", self._impose_line(modlat.wildcard.impose_line))
        init = modlat.lattice.Lattice.__init__
        self._undo.append((modlat.lattice.Lattice, "__init__", init))
        modlat.lattice.Lattice.__init__ = self._spanned(BUILD, init, self._after_build)

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo = []
        for seen in self.lattices.values():
            for key in seen:
                seen[key] = None  # drop the references, keep the count

    # -- results ------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.start)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent != -1:
                child[parent] += end - start
        out = Counter()
        for nid, start, end, inner in zip(self.name, self.start, self.end, child):
            out[self.names[nid]] += end - start - inner
        return out

    def metrics(self, bytes_written):
        """Per-layer metrics of one traced pass, keyed by metric name."""
        c = self.counts
        self_s = self.self_times()
        out = {f"{name}_s": self_s[name] for name in SPANNED if name != "cli.main"}
        out["cli.self_s"] = self_s["cli.main"]
        out[f"{BUILD}_s"] = self_s[BUILD]
        out[f"{ALL_BOLS}_s"] = self_s[ALL_BOLS]
        out.update({name: c[name] for name in COPIED})
        out["lattice.builds"] = c[f"{BUILD}_calls"]
        for name, seen in self.lattices.items():
            out[f"{name}_per_lattice"] = c[f"{name}_calls"] / len(seen) if seen else 0.0
        calls = c["wildcard.impose_line_calls"]
        out["wildcard.impose_useful_ratio"] = c["wildcard.impose_useful"] / calls if calls else 0.0
        out["wildcard.max_split"] = self.max_split
        out["cli.bytes_written"] = bytes_written
        return out

    def write_spans(self, path, op_labels, first=False):
        """Append this pass's spans to a gzipped TSV file; `op_labels`
        maps op index to a description.  Span indices and parents count
        from 0 within each pass; op indices run on across passes."""
        with gzip.open(path, "wt" if first else "at", compresslevel=1) as fh:
            if first:
                fh.write("# index\tname\tparent\top\tstart_s\tend_s\n")
            for k, label in op_labels.items():
                fh.write(f"# op {k}: {label}\n")
            rows = zip(self.name, self.parent, self.op_of, self.start, self.end)
            for k, (nid, parent, op, start, end) in enumerate(rows):
                fh.write(f"{k}\t{self.names[nid]}\t{parent}\t{op}\t{start:.9f}\t{end:.9f}\n")


def median_metrics(passes):
    """Median of each time over the traced passes; counts must repeat."""
    first = passes[0]
    out = {}
    differ = []
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = statistics.median(p[name] for p in passes)
        else:
            if any(p[name] != value for p in passes[1:]):
                differ.append(name)
            out[name] = value
    return out, differ

