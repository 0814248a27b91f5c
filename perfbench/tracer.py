"""Span tracing installed from outside the package.

``Tracer.install`` replaces public names in the namespaces of the ``irl``
modules that use them (for example ``irl.reduce.find_mono_subset`` or
``Colouring.__post_init__``) with wrappers that record one span per call;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent id, op id)``.  Self time is
computed online: when a span closes, its duration minus the time covered
by its direct children is added to its name's total.  Spans are kept in
memory up to ``MAX_SPANS`` and written out by the caller; the totals and
counters are exact however many spans are kept.
"""

from collections import Counter, defaultdict
from time import perf_counter

MAX_SPANS = 100_000  # spans kept for the span file; later ones are only counted

# (module, attribute, span name).  One name per layer entry point; a name
# may be installed in several importing modules.
PATCHES = [
    ("irl.cli", "main", "cli.main"),
    ("irl.cli", "colouring_from_json", "colouring.from_json"),
    ("irl.cli", "colouring_to_json", "colouring.to_json"),
    ("irl.cli", "from_differences", "colouring.from_differences"),
    ("irl.colouring", "from_differences", "colouring.from_differences"),
    ("irl.cli", "to_differences", "colouring.to_differences"),
    ("irl.cli", "invariance_witness", "colouring.invariance"),
    ("irl.colouring", "invariance_witness", "colouring.invariance"),
    ("irl.reduce", "invariance_witness", "colouring.invariance"),
    ("irl.cli", "verify_reduction", "reduce.verify"),
    ("irl.cli", "forward_transform", "reduce.forward"),
    ("irl.reduce", "forward_transform", "reduce.forward"),
    ("irl.cli", "backward_transform", "reduce.backward"),
    ("irl.reduce", "backward_transform", "reduce.backward"),
    ("irl.cli", "find_mono_subset", "search.subset"),
    ("irl.reduce", "find_mono_subset", "search.subset"),
    ("irl.search", "find_mono_subset", "search.subset"),
    ("irl.cli", "find_afs_mono", "search.afs"),
    ("irl.reduce", "find_afs_mono", "search.afs"),
    ("irl.search", "find_afs_mono", "search.afs"),
    ("irl.cli", "finite_number", "search.finite_number"),
    ("irl.search", "finite_number", "search.finite_number"),
    ("irl.cli", "adjacent_tuples", "sums"),
    ("irl.reduce", "adjacent_tuples", "sums"),
    ("irl.sums", "adjacent_tuples", "sums"),
    ("irl.reduce", "partial_sums", "sums"),
    ("irl.reduce", "differences", "sums"),
    ("irl.reduce", "gap_increasing", "sums"),
    ("irl.cli", "pair_colour", "oracle.pair_colour"),
    ("irl.oracle", "pair_colour", "oracle.pair_colour"),
    ("irl.cli", "decode", "oracle.decode"),
    ("irl.oracle", "decode", "oracle.decode"),
    ("irl.cli", "synthesize_solution", "oracle.synthesize"),
    ("irl.oracle", "synthesize_solution", "oracle.synthesize"),
    ("irl.oracle", "lower_bound_colouring", "oracle.lower_bound_colouring"),
    ("irl.search", "highest_bit", "bits"),
    ("irl.search", "lowest_bit", "bits"),
    ("irl.oracle", "highest_bit", "bits"),
    ("irl.oracle", "lowest_bit", "bits"),
    ("irl.reduce", "block", "bits"),
    ("irl.reduce", "is_apart", "bits"),
    ("irl.sums", "check_value", "bits"),
]

# Generators: one span per ``next`` call, so the work done to produce each
# item (and only that) is attributed to the generator.
GENERATOR_PATCHES = [
    ("irl.search", "enumerate_colourings", "colouring.enumerate"),
]

# Validating constructors: one span per ``__post_init__``.
CONSTRUCT_CLASSES = [("irl.colouring", "Colouring"), ("irl.colouring", "DifferenceColouring")]


def _found(counts, name):
    def hook(args, kwargs, result):
        if result is not None:
            counts[name + ".found"] += 1
    return hook


def _entries_out(counts, name):
    def hook(args, kwargs, result):
        counts[name + ".entries_out"] += len(result.table)
    return hook


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        self.self_time[name] += duration - frame[1]
        self.calls[name] += 1
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], name, frame[2], end, parent, self.op_id))
        else:
            self.dropped += 1

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for the harness root span)."""
        frame = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, name)

    def wrap(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._open()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, name)
                tracer.counts[name + ".yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_construct(self, fn):
        tracer = self
        name = "colouring.construct"

        def traced(obj):
            frame = tracer._open()
            try:
                fn(obj)
            finally:
                tracer._close(frame, name)
            tracer.counts[name + ".entries"] += len(obj.table)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules):
        """Install every wrapper into ``modules`` (a name -> module mapping)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in PATCHES:
            owner = modules[module]
            hook = None
            if name in ("search.subset", "search.afs"):
                hook = _found(self.counts, name)
            elif name == "reduce.forward":
                hook = _entries_out(self.counts, name)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), hook))
        for module, attr, name in GENERATOR_PATCHES:
            owner = modules[module]
            self._set(owner, attr, self.wrap_generator(name, getattr(owner, attr)))
        for module, cls_name in CONSTRUCT_CLASSES:
            cls = getattr(modules[module], cls_name)
            self._set(cls, "__post_init__", self.wrap_construct(cls.__post_init__))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self):
        """Copy of the running totals, for differencing around a region."""
        return dict(self.self_time), Counter(self.calls), Counter(self.counts)
