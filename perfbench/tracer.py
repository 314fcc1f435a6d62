"""Span tracing of gobsec's public functions, from outside the package.

`Tracer.install` replaces every public module-level function of the
gobsec layers with a wrapper that records a span (function, start, end,
parent span, and one observed integer), in the defining module and in
every gobsec module that imported the function by name. Function-local
`from .x import f` statements read the patched module attribute on their
own. `Tracer.uninstall` puts the originals back.

Two rules keep the span count bounded:

* `syntax.is_value` is not wrapped: it is a single `isinstance` test run
  about three times per contraction, and a span would cost ten times the
  call it measures.
* A call of a function whose own span is the innermost open span (direct
  recursion, as in `erase_surface`) opens no new span; the outer span
  covers it. Counts are therefore of outermost calls.

Spans live in flat arrays and are written out by `write` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("parser", "wellformed", "typecheck", "subtyping", "algebra", "syntax", "interp", "prni", "cli")
UNWRAPPED = {"syntax.is_value"}

_VALUE, _TIMEOUT, _STUCK = 0, 1, 2


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_evaluate(args, kwargs, result):
    cls = {"Value": _VALUE, "Timeout": _TIMEOUT}.get(type(result).__name__, _STUCK)
    return result.steps * 4 + cls


def _observe_check_related(args, kwargs, result):
    return _arg(args, kwargs, 4, "ctx").budget


def _observe_parse_program(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _observe_prni_test(args, kwargs, result):
    verdict = result.to_dict()
    if "trials" in verdict:
        return verdict["trials"]
    return verdict["trial"] + 1


#: "layer.function" -> extracts the integer stored with each span.
OBSERVERS = {
    "interp.evaluate": _observe_evaluate,
    "prni.check_related": _observe_check_related,
    "parser.parse_program": _observe_parse_program,
    "prni.prni_test": _observe_prni_test,
    "subtyping.sub_type": lambda args, kwargs, result: int(bool(result)),
}


class Tracer:
    def __init__(self, modules: dict, file_index: dict[str, int] | None = None):
        """`modules` maps layer names to the imported gobsec modules, plus
        "gobsec" for the package itself. `file_index` numbers corpus file
        names so each `cli.run_corpus_file` span records its file."""
        self.modules = modules
        self.names: list[str] = []
        self.fid = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info = array("q")
        self._stack = [-1]
        self._stack_fid = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.observers = dict(OBSERVERS)
        if file_index is not None:
            self.observers["cli.run_corpus_file"] = (
                lambda args, kwargs, result: file_index.get(_arg(args, kwargs, 0, "path").name, -1)
            )

    def _wrap(self, fn, fid: int, observe):
        fids, parents, starts, ends, infos = self.fid, self.parent, self.start, self.end, self.info
        stack, stack_fid = self._stack, self._stack_fid
        clock = time.perf_counter

        def span(*args, **kwargs):
            if stack_fid[-1] == fid:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            infos.append(0)
            ends.append(0.0)
            stack.append(idx)
            stack_fid.append(fid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_fid.pop()
            if observe is not None:
                infos[idx] = observe(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    self.names.append(name)
                    wrappers[id(value)] = self._wrap(value, len(self.names) - 1, self.observers.get(name))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def leftover_wrappers(self) -> list[str]:
        """Module attributes that still hold a wrapper; empty after
        `uninstall`."""
        return [
            f"{module.__name__}.{attr}"
            for module in self.modules.values()
            for attr, value in vars(module).items()
            if callable(value) and getattr(value, "__qualname__", "").endswith("_wrap.<locals>.span")
        ]

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as raw arrays plus a JSON header naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans"
        with open(data, "wb") as f:
            for arr in (self.fid, self.parent, self.start, self.end, self.info):
                arr.tofile(f)
        header = {
            "spans": len(self.fid),
            "functions": self.names,
            "arrays": [["fid", "H"], ["parent", "l"], ["start", "d"], ["end", "d"], ["info", "q"]],
            "info": "evaluate: steps*4 + (0 value, 1 timeout, 2 stuck); sub_type: result; "
            "check_related: ctx.budget after return; parse_program: source bytes; "
            "prni_test: trials the verdict reports; run_corpus_file: corpus file number",
        }
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1), encoding="utf-8")
        return data

    # ------------------------------------------------------------------
    # Per-layer metrics from the span tree
    # ------------------------------------------------------------------

    def metrics(self, file_names: list[str] | None = None) -> tuple[dict, dict]:
        """Per-layer metrics, and per corpus file the PRNI trial counts."""
        names = self.names
        fid, parent, info = self.fid, self.parent, self.info
        n = len(fid)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        self_t = [d - c for d, c in zip(dur, covered)]

        index = {name: k for k, name in enumerate(names)}
        evaluate, prni_test = index.get("interp.evaluate"), index.get("prni.prni_test")
        check_related, erase = index.get("prni.check_related"), index.get("interp.erase_surface")
        sub_type, parse_program = index.get("subtyping.sub_type"), index.get("parser.parse_program")
        run_file = index.get("cli.run_corpus_file")
        layer_of = [name.split(".")[0] for name in names]

        calls = {layer: 0 for layer in LAYERS}
        layer_self = {layer: 0.0 for layer in LAYERS}
        fn_calls = [0] * len(names)
        fn_self = [0.0] * len(names)
        under_cr = [False] * n
        file_of = [-1] * n
        per_file: dict[int, dict[str, int]] = {}

        def bump(i, key, amount=1):
            row = per_file.setdefault(file_of[i], dict.fromkeys(["trials_run", "trials_compared", "trials_reported"], 0))
            row[key] += amount

        c = dict.fromkeys(
            ["contractions", "timeouts", "trials_eval", "compared", "reported", "probe_evals",
             "probe_timeouts", "exhausted", "erase", "sub_true", "sub_calls", "bytes"], 0)
        prni_time = 0.0

        for i in range(n):
            f = fid[i]
            p = parent[i]
            calls[layer_of[f]] += 1
            layer_self[layer_of[f]] += self_t[i]
            fn_calls[f] += 1
            fn_self[f] += self_t[i]
            pf = fid[p] if p >= 0 else -1
            if p >= 0:
                under_cr[i] = under_cr[p] or pf == check_related
                file_of[i] = file_of[p]
            if f == run_file:
                file_of[i] = info[i]
            if f == evaluate:
                steps, cls = divmod(info[i], 4)
                c["contractions"] += steps
                c["timeouts"] += cls == _TIMEOUT
                if pf == prni_test:
                    c["trials_eval"] += 1
                    bump(i, "trials_run")
                if under_cr[i]:
                    c["probe_evals"] += 1
                    c["probe_timeouts"] += cls == _TIMEOUT
            elif f == check_related:
                if pf == prni_test:
                    c["compared"] += 1
                    bump(i, "trials_compared")
                if not under_cr[i] and info[i] <= 0:
                    c["exhausted"] += 1
            elif f == prni_test:
                c["reported"] += info[i]
                bump(i, "trials_reported", info[i])
                prni_time += dur[i]
            elif f == erase:
                c["erase"] += 1
            elif f == sub_type:
                c["sub_calls"] += 1
                c["sub_true"] += info[i]
            elif f == parse_program:
                c["bytes"] += info[i]

        def fn(name, what):
            k = index.get(name)
            if k is None:
                return 0
            return fn_calls[k] if what == "calls" else fn_self[k]

        def ratio(a, b):
            return a / b if b else 0.0

        trials_run = c["trials_eval"] // 2
        out = {
            "parser.calls": calls["parser"],
            "parser.self_s": layer_self["parser"],
            "parser.bytes_per_s": ratio(c["bytes"], layer_self["parser"]),
            "wellformed.calls": calls["wellformed"],
            "wellformed.self_s": layer_self["wellformed"],
            "typecheck.calls": calls["typecheck"],
            "typecheck.self_s": layer_self["typecheck"],
            "subtyping.calls": calls["subtyping"],
            "subtyping.self_s": layer_self["subtyping"],
            "subtyping.true_ratio": ratio(c["sub_true"], c["sub_calls"]),
            "algebra.self_s": layer_self["algebra"],
            "algebra.type_equiv_calls": fn("algebra.type_equiv", "calls"),
            "algebra.type_equiv_self_s": fn("algebra.type_equiv", "self"),
            "algebra.unfold_calls": fn("algebra.unfold", "calls"),
            "algebra.in_interval_calls": fn("algebra.in_interval", "calls"),
            "syntax.self_s": layer_self["syntax"],
            "syntax.canon_calls": fn("syntax.canon", "calls"),
            "syntax.canon_self_s": fn("syntax.canon", "self"),
            "syntax.free_self_vars_calls": fn("syntax.free_self_vars", "calls"),
            "syntax.free_self_vars_self_s": fn("syntax.free_self_vars", "self"),
            "syntax.subst_term_calls": fn("syntax.subst_term", "calls"),
            "syntax.subst_term_self_s": fn("syntax.subst_term", "self"),
            "interp.evaluate_calls": fn("interp.evaluate", "calls"),
            "interp.contractions": c["contractions"],
            "interp.timeouts": c["timeouts"],
            "interp.self_s": layer_self["interp"],
            "interp.erase_surface_calls": c["erase"],
            "interp.erase_surface_self_s": fn("interp.erase_surface", "self"),
            "prni.self_s": layer_self["prni"],
            "prni.trials_run": trials_run,
            "prni.trials_compared": c["compared"],
            "prni.trials_timed_out": trials_run - c["compared"],
            "prni.trials_reported": c["reported"],
            "prni.trials_per_s": ratio(trials_run, prni_time),
            "prni.inclusive_s": prni_time,
            "prni.probe_evals": c["probe_evals"],
            "prni.probe_timeouts": c["probe_timeouts"],
            "prni.probe_useful_ratio": ratio(c["probe_evals"] - c["probe_timeouts"], c["probe_evals"]),
            "prni.budget_exhausted": c["exhausted"],
            "prni.gen_pair_self_s": fn("prni.gen_related_pair", "self"),
            "prni.check_related_self_s": fn("prni.check_related", "self"),
            "cli.calls": calls["cli"],
            "cli.self_s": layer_self["cli"],
            "trace.spans": n,
        }
        files = {}
        if file_names is not None:
            for k, row in sorted(per_file.items()):
                if k >= 0:
                    files[file_names[k]] = dict(row, trials_run=row["trials_run"] // 2)
        return out, files
