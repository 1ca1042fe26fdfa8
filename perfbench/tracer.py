"""Spans recorded from outside the library.

A Tracer keeps a stack of open spans and, in memory, per span name the
number of calls, the inclusive time and the self time (inclusive time
minus the time of the spans opened inside it), plus the same per
(parent, child) pair.  Wrappers are installed where the
library's callers look names up -- module globals (including names bound
by ``from ... import``), the methods of the classes each layer defines,
and the function objects held by ``registry.Algo`` -- and are removed
again by ``uninstall``.  What to wrap is found by listing each module,
so a function the library adds is traced without a change here.  Span
names are ``<layer>.<name>``; the layer is the exactla module the
wrapped name belongs to.
"""

import dataclasses
import time
import types


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # open frames: [name, seconds in child spans, start]
        self.spans = {}          # name -> [calls, inclusive_s, self_s]
        self.edges = {}          # (parent name, name) -> [calls, inclusive_s]
        self.top_s = 0.0         # inclusive time of spans opened with no parent
        self.leaf_open = [False]  # a leaf span is running
        self.leaf_violations = 0  # calls from a leaf span into another layer

    def enter(self, name):
        self.stack.append([name, 0.0, self.clock()])

    def exit(self):
        name, child_s, t0 = self.stack.pop()
        dt = self.clock() - t0
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child_s
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[(parent[0], name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += dt
        else:
            self.top_s += dt

    def wrap(self, name, fn, nest_in_layer=True):
        """fn with a span around every call.

        nest_in_layer=False opens no span when the innermost open span
        belongs to the same layer, so a function reached from inside its
        own layer adds its time to that caller.  Inside a leaf span no
        span opens: the time stays in the leaf, which is an error
        (counted in leaf_violations) unless fn belongs to the leaf's
        layer.
        """
        prefix = name.split(".", 1)[0] + "."
        enter, exit_, stack, leaf_open = self.enter, self.exit, self.stack, self.leaf_open

        def traced(*args, **kw):
            if leaf_open[0]:
                if prefix != LEAF_LAYER:
                    self.leaf_violations += 1
                return fn(*args, **kw)
            if not nest_in_layer and stack and stack[-1][0].startswith(prefix):
                return fn(*args, **kw)
            enter(name)
            try:
                return fn(*args, **kw)
            finally:
                exit_()
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        """Cheaper span for a scalar operation of Z, Q or Z/m: same
        accounting, no frame.  Whatever it calls runs inside it."""
        spans, stack, clock, leaf_open = self.spans, self.stack, self.clock, self.leaf_open
        rec = spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kw):
            if leaf_open[0]:
                return fn(*args, **kw)
            leaf_open[0] = True
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                leaf_open[0] = False
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
        traced.__wrapped__ = fn
        return traced

    def layer_self(self):
        """layer -> summed self time of its spans."""
        out = {}
        for name, (_, _, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, name):
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def inclusive(self, name):
        rec = self.spans.get(name)
        return rec[1] if rec else 0.0

    def edge_sum(self, parent_layer, child_layer):
        """(calls, inclusive seconds) of child-layer spans opened directly
        inside a parent-layer span."""
        calls, secs = 0, 0.0
        for (parent, child), (c, s) in self.edges.items():
            if (parent.startswith(parent_layer + ".")
                    and child.startswith(child_layer + ".")):
                calls += c
                secs += s
        return calls, secs

    def entries_into(self, layer):
        """Spans of `layer` opened from outside it: calls into the layer."""
        total = 0
        for name, (calls, _, _) in self.spans.items():
            if name.startswith(layer + "."):
                total += calls
        for (parent, child), (c, _) in self.edges.items():
            if child.startswith(layer + ".") and parent.startswith(layer + "."):
                total -= c
        return total


# ---------------------------------------------------------------------------
# installation

# the layers and the span-name prefix of each module's functions
LAYER_OF_MODULE = {
    "rings": "rings", "multipoly": "multipoly", "poly": "poly",
    "matrix": "matrix", "elimination": "elimination", "charpoly": "charpoly",
    "sequences": "sequences", "modular": "modular", "pinv": "pinv",
    "bench": "bench", "registry": "bench.registry", "cli": "cli",
}
LEAF_LAYER = "rings."


class Installation:
    """The wrappers one install() put in place; uninstall() restores."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old in reversed(self.undo):
            setattr(owner, attr, old)
        self.undo.clear()


def _rebind(inst, modules, original, wrapped):
    """Point every module global bound to `original` at `wrapped`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, attr, wrapped)


def _defined_in(mod, kind):
    return [(attr, value) for attr, value in vars(mod).items()
            if isinstance(value, kind) and value.__module__ == mod.__name__]


def install(tracer):
    """Wrap every function and method the exactla layers define; returns
    the Installation that undoes it.

    A private function (leading underscore) opens no span inside its own
    layer, nor does any charpoly function: so recursion costs one span,
    and each registry id keeps the time of its algorithm's body.
    """
    import importlib
    from exactla import registry, rings
    modules = {name: importlib.import_module("exactla." + name) for name in LAYER_OF_MODULE}
    everywhere = list(modules.values())
    leaf_classes = (rings.IntegerRing, rings.RationalField, rings.IntegersMod)
    inst = Installation()

    functions = []          # (span name, function, nest_in_layer)
    for name, mod in modules.items():
        prefix = LAYER_OF_MODULE[name]

        def nests(attr):
            return name != "charpoly" and not attr.startswith("_")
        for attr, fn in _defined_in(mod, types.FunctionType):
            short = attr.replace("charpoly_", "", 1) if name == "charpoly" else attr
            functions.append(("%s.%s" % (prefix, short), fn, nests(attr)))
        for cls_name, cls in _defined_in(mod, type):
            for attr, fn in list(vars(cls).items()):
                if not isinstance(fn, types.FunctionType) or attr.startswith("__"):
                    continue
                span = "%s.%s.%s" % (prefix, cls_name, attr)
                if cls in leaf_classes:
                    inst.set(cls, attr, tracer.wrap_leaf(span, fn))
                else:
                    inst.set(cls, attr, tracer.wrap(span, fn, nest_in_layer=nests(attr)))
    for span, fn, nest in functions:
        _rebind(inst, everywhere, fn, tracer.wrap(span, fn, nest_in_layer=nest))

    # registry: Algo objects hold the function objects; wrap per id
    wrapped_algos = {}
    for algo in registry.ALGORITHMS:
        wrapped_algos[algo.id] = dataclasses.replace(
            algo, run=tracer.wrap("charpoly.%s" % algo.id, algo.run))
    inst.set(registry, "ALGORITHMS", [wrapped_algos[a.id] for a in registry.ALGORITHMS])
    inst.set(registry, "_BY_ID",
             {k: wrapped_algos[v.id] for k, v in registry._BY_ID.items()})
    return inst
