"""Span tracing of the rnn_sysid package from outside its source.

Every module imports its callees by name (`from .gradients import
loss_gradients_bptt`), so wrapping a function in its defining module alone
would miss the calls that matter.  `Tracer.install` therefore replaces every
binding of each target function: module attributes in every loaded
`rnn_sysid` module, and values of module-level dicts such as
`verify.ALL_LEMMAS`.  `install` returns the targets that no longer exist, so
a rename shows up as a missing layer, not as a silent zero.

Spans (name, start, end, parent, failed) are kept in memory; `aggregate`
turns them into per-name calls, total time, self time and percentiles.
"""

import functools
import sys
import time

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>" and the layer is the module.
TARGETS = (
    ("teacher", "random_stable_system"),
    ("teacher", "generate_dataset"),
    ("student", "init_student"),
    ("student", "forward_rescaled"),
    ("student", "linearized_forward"),
    ("student", "save_checkpoint"),
    ("losses", "eval_loss"),
    ("gradients", "loss_gradients_bptt"),
    ("trainer", "sgd_train"),
    ("linalg", "matrix_power_opnorm"),
    ("linalg", "operator_norm_fast"),
    ("linalg", "operator_norm"),
    ("verify", "verify_spectral"),
    ("verify", "verify_truncation"),
    ("verify", "verify_linearization"),
    ("existence", "construct_comparator"),
    ("existence", "gram_inverses"),
    ("existence", "verify_existence"),
    ("existence", "save_comparator"),
    ("harness", "run_experiment"),
    ("harness", "generalization_gap"),
)

LAYERS = ("teacher", "student", "losses", "gradients", "trainer", "linalg",
          "verify", "existence", "harness")

PACKAGE = "rnn_sysid"
ROOT = "process"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def _rebind(original, replacement):
    """Point every package binding of `original` at `replacement`.

    Returns the undo list of (container, key, old value).
    """
    undo = []
    for mod in _package_modules():
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        undo.append((value, k, v))
                        value[k] = replacement
    return undo


def _restore(undo):
    for container, key, value in reversed(undo):
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)


class Tracer:
    """Records one span per call of each target function.

    A span is the list [name, start, end, parent_index, failed]; the root
    span (index 0) covers the whole process, from `start` (the spawn time
    taken by the parent, on the same monotonic clock) to `finish`.
    """

    def __init__(self, start, clock=time.monotonic):
        self.clock = clock
        self.spans = [[ROOT, start, None, -1, False]]
        self._stack = [0]
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1], False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; returns the names of targets not found."""
        modules = {mod.__name__: mod for mod in _package_modules()}
        missing = []
        for module, func in targets:
            mod = modules.get(f"{PACKAGE}.{module}")
            original = getattr(mod, func, None)
            if original is None or getattr(original, "__module__", None) != mod.__name__:
                missing.append(f"{module}.{func}")
                continue
            self._undo += _rebind(original, self.wrap(f"{module}.{func}", original))
        return missing

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def finish(self, end):
        self.spans[0][2] = end

    def dump(self, path):
        """Write spans as tab-separated lines: index, name, start, end, parent, failed."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, failed) in enumerate(self.spans):
                f.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                        % (i, name, start, end, parent, failed))


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def aggregate(spans):
    """Per span name: calls, s (total), self_s, ms_p50, ms_p99, errors.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans, root included, add up to the
    root's duration.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, failed) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "errors": 0, "_d": []})
        dur = end - start
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += dur - child_time[i]
        st["errors"] += int(failed)
        st["_d"].append(dur)
    for st in stats.values():
        d = sorted(st.pop("_d"))
        st["ms_p50"] = 1e3 * _percentile(d, 0.50)
        st["ms_p99"] = 1e3 * _percentile(d, 0.99)
    return stats


class Boundary:
    """Marks where a workload's main compute starts.

    Wraps the harness bindings of the main-compute functions; records the
    first entry time and the total time spent inside them.  With
    `stop_at_entry`, the first entry raises `SetupDone` instead, so a
    process can measure set-up alone.
    """

    class SetupDone(Exception):
        pass

    def __init__(self, clock=time.monotonic, stop_at_entry=False):
        self.clock = clock
        self.stop_at_entry = stop_at_entry
        self.first_entry = None
        self.inside_s = 0.0

    def install(self, module, names):
        for name in names:
            fn = getattr(module, name)
            setattr(module, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t0 = self.clock()
            if self.first_entry is None:
                self.first_entry = t0
                if self.stop_at_entry:
                    raise Boundary.SetupDone(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.inside_s += self.clock() - t0

        return marked
