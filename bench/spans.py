"""In-memory span tracer that wraps ilkit functions from outside the package.

Wrappers are installed only for a traced run, on every module attribute
(and class attribute) that holds the original function, so each caller
resolves the wrapper no matter how it imported the name. Nothing under
``src/`` changes. Calls too short to time without distortion (about a
microsecond) are counted, and one call in ``_SAMPLE_EVERY`` is timed to
estimate their total.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, OrderedDict, defaultdict
from time import perf_counter

_RECENT_PARSES = 256
_SAMPLE_EVERY = 16


class Tracer:
    """Spans, call counts and self times for one traced run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.stack: list[list] = []          # [name, child seconds, span index]
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()     # free-form counters
        self.self_s: defaultdict = defaultdict(float)
        self.max_s: defaultdict = defaultdict(float)
        self.sampled: defaultdict = defaultdict(lambda: [0, 0.0])  # name -> [n, seconds]
        self.keys: defaultdict = defaultdict(set)
        self._recent: OrderedDict = OrderedDict()  # id(molecule) -> (molecule, text)
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, key=None, on_call=None, on_result=None, merge_nested=False):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``key(args, kwargs, result)`` feeds the distinct-input count;
        ``merge_nested`` folds a call made directly inside a span of the
        same name into that span (no new span, no extra call).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if merge_nested and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if on_call is not None:
                on_call(args, kwargs)
            record = [name, 0.0, 0.0, parent[2] if parent else -1]
            frame = [name, 0.0, len(tracer.spans)]
            tracer.spans.append(record)
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                tracer.failed[name] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                record[1] = t0
                record[2] = t1
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if duration > tracer.max_s[name]:
                    tracer.max_s[name] = duration
                if parent is not None:
                    parent[1] += duration
                if key is not None:
                    tracer.keys[name].add(key(args, kwargs, result))
                if on_result is not None and result is not None:
                    on_result(args, kwargs, result)

        return wrapper

    def counted(self, name, fn, on_result=None):
        """Wrap ``fn`` to count calls; time one call in ``_SAMPLE_EVERY``."""
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if calls[name] % _SAMPLE_EVERY:
                result = fn(*args, **kwargs)
            else:
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                sample = tracer.sampled[name]
                sample[0] += 1
                sample[1] += perf_counter() - t0
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, original, wrapper) -> None:
        """Point every ilkit module attribute holding ``original`` at ``wrapper``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ilkit" or n.startswith("ilkit.")]
        found = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))
                    found = True
        if not found:
            raise RuntimeError(f"no module attribute holds {original!r}")

    def replace(self, owner, attr: str, wrapper) -> None:
        """Point one module or class attribute at ``wrapper``."""
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- molecule identity --------------------------------------------------

    def remember_parse(self, args, kwargs, mol) -> None:
        """Remember which text produced a molecule, for distinct-input counts."""
        text = args[0] if args else kwargs.get("text")
        self._recent[id(mol)] = (mol, text)
        if len(self._recent) > _RECENT_PARSES:
            self._recent.popitem(last=False)

    def text_of(self, mol):
        entry = self._recent.get(id(mol))
        if entry is not None and entry[0] is mol:
            return entry[1]
        return ("molecule", id(mol))

    # -- results ------------------------------------------------------------

    def sampled_seconds(self, name: str) -> float:
        n, seconds = self.sampled[name]
        return self.calls[name] * seconds / n if n else 0.0

    def unique_frac(self, name: str) -> float:
        return len(self.keys[name]) / self.calls[name] if self.calls[name] else 0.0

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write(self, path) -> None:
        """Spans as tab-separated rows: name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
