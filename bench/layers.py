"""Per-layer tracing from outside the program.

install() wraps the public functions of every factoridiv module, and the
public methods of IntPoly, in a span recorder.  A wrapper replaces the
original in every module namespace that holds it, so calls through
``from .numtheory import factorize`` are traced too.  Per-value calls
(IntPoly.evaluate and friends, scan.record_json) stay unwrapped: their
cost is attributed to the caller's self time.

A span is (id, name, start, end, parent id); spans live in memory and are
written once, by dump(), to TRACE_DIR/trace.json.  Self time is a span's
duration minus the time its direct children cover; total time counts only
the outermost activation of a recursive function.  Pool workers forked by
``scan --jobs`` keep recording and append their spans to
TRACE_DIR/worker-<pid>.jsonl whenever they return to the inherited stack
depth; dump() merges those files.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
from time import perf_counter

PER_VALUE = frozenset({
    "intpoly.IntPoly.evaluate",
    "intpoly.IntPoly.evaluate_fraction",
    "intpoly.IntPoly.coefficient",
    "scan.record_json",
})

MODULES = ("cli", "construct", "intpoly", "numtheory", "pell", "scan",
           "specialpoly", "verify")

_DIGITS_PER_BIT = 0.30102999566398120


def digits_upper(x: int) -> int:
    """Decimal digits of |x|, estimated from its bit length (may be one
    over); str() would be quadratic on huge integers."""
    return int(abs(x).bit_length() * _DIGITS_PER_BIT) + 1


def merge_count(counts: dict, key: str, value) -> None:
    """Sum a count, or keep the maximum for keys whose last part starts
    with max_."""
    if key.rsplit(".", 1)[-1].startswith("max_"):
        counts[key] = max(counts.get(key, 0), value)
    else:
        counts[key] = counts.get(key, 0) + value


class Tracer:
    def __init__(self, op_id: str, trace_dir: str):
        self.op_id = op_id
        self.dir = trace_dir
        self.main_pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.active: dict[str, int] = {}
        self.layers: dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.next_id = 1
        self.base_depth = 0
        self.worker = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # a pool worker: the inherited stack stays as the causal context,
        # the records start afresh with ids that cannot collide
        self.spans, self.layers, self.counts = [], {}, {}
        self.next_id = (os.getpid() << 32) + 1
        self.base_depth = len(self.stack)
        self.worker = True

    def count(self, key: str, value=1) -> None:
        merge_count(self.counts, key, value)

    def _enter(self, name: str):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([sid, 0.0])
        self.active[name] = self.active.get(name, 0) + 1
        return sid, parent

    def _exit(self, name, sid, parent, start, end, calls=1) -> None:
        frame = self.stack.pop()
        dur = end - start
        depth = self.active[name] = self.active[name] - 1
        if self.stack:
            self.stack[-1][1] += dur
        acc = self.layers.get(name)
        if acc is None:
            acc = self.layers[name] = [0, 0.0, 0.0]
        acc[0] += calls
        if depth == 0:
            acc[1] += dur
        acc[2] += dur - frame[1]
        self.spans.append((sid, name, start, end, parent))
        if self.worker and len(self.stack) == self.base_depth:
            self._flush_worker()

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter(name)
            start = perf_counter()
            # the hook counts before _exit, which may flush a worker's records
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                if hook is not None:
                    hook(tracer, args, None, exc)
                tracer._exit(name, sid, parent, start, end)
                raise
            end = perf_counter()
            if hook is not None:
                hook(tracer, args, result, None)
            tracer._exit(name, sid, parent, start, end)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # one call per generator made; each resumption is a span
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                sid, parent = tracer._enter(name)
                start = perf_counter()
                try:
                    value = next(inner)
                except StopIteration:
                    tracer._exit(name, sid, parent, start, perf_counter(),
                                 calls=int(first))
                    return
                tracer._exit(name, sid, parent, start, perf_counter(),
                             calls=int(first))
                first = False
                yield value

        return traced

    def _flush_worker(self) -> None:
        path = os.path.join(self.dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "spans": self.spans,
                                 "layers": self.layers,
                                 "counts": self.counts}) + "\n")
        self.spans, self.layers, self.counts = [], {}, {}

    def dump(self) -> None:
        """Merge the worker files and write TRACE_DIR/trace.json."""
        layers = {k: list(v) for k, v in self.layers.items()}
        counts = dict(self.counts)
        worker_spans = []
        for path in sorted(glob.glob(os.path.join(self.dir, "worker-*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    worker_spans.extend(rec["spans"])
                    for k, (calls, total, self_s) in rec["layers"].items():
                        acc = layers.setdefault(k, [0, 0.0, 0.0])
                        acc[0] += calls
                        acc[1] += total
                        acc[2] += self_s
                    for k, v in rec["counts"].items():
                        merge_count(counts, k, v)
            os.remove(path)
        counts.update(_parallel_counts(self.spans, worker_spans))
        with open(os.path.join(self.dir, "trace.json"), "w") as fh:
            json.dump({"op": self.op_id, "pid": self.main_pid,
                       "span_fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "worker_spans": worker_spans,
                       "layers": layers, "counts": counts}, fh)


def _parallel_counts(spans, worker_spans) -> dict:
    """Chunk balance of scan_parallel, from the worker scan_range spans."""
    out = {}
    for sid, name, start, end, _ in spans:
        if name != "scan.scan_parallel":
            continue
        chunks = [s[3] - s[2] for s in worker_spans
                  if s[1] == "scan.scan_range" and s[4] == sid]
        if not chunks:
            continue
        mean = sum(chunks) / len(chunks)
        out["scan.chunk_imbalance"] = max(chunks) / mean
        out["scan.parallel_idle_s"] = len(chunks) * (end - start) - sum(chunks)
    return out


# -- counters taken from arguments and results ------------------------------


def _factorize(t, args, result, exc):
    t.count("numtheory.factorize.max_bits", abs(args[0]).bit_length())
    if type(exc).__name__ == "FactorizationBudgetError":
        t.count("numtheory.factorize.budget_errors")


def _fundamental(t, args, result, exc):
    if result is not None:
        t.count("pell.fundamental_solution.max_digits", digits_upper(result[0]))
    elif type(exc).__name__ == "PellBudgetError":
        t.count("pell.fundamental_solution.budget_errors")


def _log_ratio(t, args, result, exc):
    t.count("numtheory.decimal_log_ratio.max_digits",
            max(digits_upper(a) for a in args[:2]))


def _cyclotomic(t, args, result, exc):
    if result is not None:
        t.count("specialpoly.cyclotomic.max_degree", result.degree)


def _exact_divide(t, args, result, exc):
    if result is not None and type(result).__name__ == "IntPoly":
        t.count("intpoly.IntPoly.exact_divide.exact")


def _construct(t, args, result, exc):
    certs = result if result is not None else getattr(exc, "partial", [])
    t.count("construct.certs_emitted", len(certs))
    for c in certs:
        t.count("construct.max_n_digits", digits_upper(c.n))


def _scan_range(t, args, result, exc):
    if result is not None:
        t.count("scan.examined", result[1].examined)
        t.count("scan.hits", result[1].hits)


def _verify(t, args, result, exc):
    if result is not None:
        t.count(f"verify.outcome.{result.rule}.{result.reason or 'accept'}")


HOOKS = {
    "numtheory.factorize": _factorize,
    "pell.fundamental_solution": _fundamental,
    "numtheory.decimal_log_ratio": _log_ratio,
    "specialpoly.cyclotomic": _cyclotomic,
    "intpoly.IntPoly.exact_divide": _exact_divide,
    "scan.scan_range": _scan_range,
    "verify.verify": _verify,
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    for n in names:
        obj = getattr(module, n)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield n, obj


def install(op_id: str, trace_dir: str) -> Tracer:
    """Wrap the package's public functions; factoridiv must be imported."""
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(op_id, trace_dir)
    package = [m for k, m in sys.modules.items()
               if k == "factoridiv" or k.startswith("factoridiv.")]
    replaced = {}
    for short in MODULES:
        module = sys.modules[f"factoridiv.{short}"]
        for n, fn in _public_functions(module):
            name = f"{short}.{n}"
            if name in PER_VALUE:
                continue
            hook = HOOKS.get(name)
            if short == "construct" and n.startswith("construct_"):
                hook = _construct
            replaced[id(fn)] = tracer.wrap(name, fn, hook)
    for mod in package:
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, attr, replaced[id(val)])
    cls = sys.modules["factoridiv.intpoly"].IntPoly
    for n, attr in list(vars(cls).items()):
        name = f"intpoly.IntPoly.{n}"
        if n.startswith("_") or name in PER_VALUE:
            continue
        if isinstance(attr, classmethod):
            setattr(cls, n, classmethod(tracer.wrap(name, attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, n, tracer.wrap(name, attr, HOOKS.get(name)))
    return tracer
