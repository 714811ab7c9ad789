"""Span tracer that wraps the sburgers modules from outside the package.

Run as a script it installs the wrappers, runs the CLI with the remaining
arguments, restores every patched name, checks that nothing patched is
left behind, and writes the recorded spans as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json \\
        verify --config run.json --seed 1 --out out/

A span records name, start, end and parent.  Functions called once per
step (the Burgers term, the per-state Lyapunov checks) would flood the
span log, so they are folded into the enclosing span as a call count and a
total time ("hot" entries).  Pool workers are forked after the wrappers are
installed and inherit them; each worker appends its spans to a file next
to SPANS.json whenever its outermost span closes, and the parent collects
those files at the end.  Worker spans name the span that was open in the
parent when the worker forked as their parent.

layer_metrics() turns a span list into the per-module metrics of the
benchmark.  Importing this module imports nothing from sburgers.
"""

import json
import os
import sys
import time
from pathlib import Path

WRAPPED = "__perfbench_wrapped__"

# (module, function) pairs recorded as spans; every alias of the function
# in any loaded sburgers module is patched too, because harness, ergodics,
# lyapunov and cli call the names they imported directly.
SPANS = {
    "integrator": ("simulate", "ensemble"),
    "ergodics": ("occupation_measure", "invariant_estimate", "sigma_squared",
                 "ergodic_decay", "mdp_functional", "hitting_times",
                 "deviation_tail_probe"),
    "lyapunov": ("exp_integral_moment",),
    "harness": ("load_config", "run_simulate", "run_verify", "run_estimate"),
}
# hot name -> [(module, function, patch aliases too)].  The Burgers term
# is patched only where integrator calls it, so the generator evaluation
# inside the Lyapunov checks does not count towards it.
HOT = {
    "spectral.B": [("integrator", "_quadratic_term", False)],
    "noise.jump_sampling": [("noise", "sample_jump_times", True)],
    "lyapunov.check": [("lyapunov", "drift_condition_check", True),
                       ("lyapunov", "dissipation_term_gap", True),
                       ("lyapunov", "jump_taylor_gap", True)],
    "lyapunov.martingale": [("lyapunov", "exp_martingale_path", True)],
}


class Tracer:
    """Records spans in this process and in processes forked from it."""

    def __init__(self, spool: Path):
        self.spool = spool                # directory for worker span files
        self.root_pid = os.getpid()
        self.spans = []                   # closed spans
        self.stack = []                   # open spans, innermost last
        self.fork_parent = None
        self.counter = 0
        self.patches = []                 # (namespace, name, original)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ recording

    def _after_fork(self):
        self.fork_parent = self.stack[-1]["id"] if self.stack else None
        self.stack = []
        self.spans = []

    def _open(self, name: str) -> dict:
        self.counter += 1
        rec = {"id": f"{os.getpid()}.{self.counter}", "name": name,
               "parent": self.stack[-1]["id"] if self.stack
               else self.fork_parent,
               "pid": os.getpid(), "start": time.perf_counter(),
               "end": None, "hot": {}, "attrs": {}}
        self.stack.append(rec)
        return rec

    def _close(self, rec: dict, end: float) -> None:
        rec["end"] = end
        self.stack.pop()
        self.spans.append(rec)
        if not self.stack and os.getpid() != self.root_pid:
            path = self.spool / f"spans-{os.getpid()}.jsonl"
            with open(path, "a") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")
            self.spans = []

    def span(self, name: str, fn, annotate=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                if annotate is not None:
                    annotate(rec["attrs"], args, kwargs, result, error)
                self._close(rec, end)
        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def hot(self, name: str, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # cli.main is the root span and every worker call runs
                # inside simulate, so a call outside any span is not counted.
                if self.stack:
                    elapsed = clock() - t0
                    into = self.stack[-1]["hot"]
                    entry = into.get(name)
                    if entry is None:
                        into[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed
        setattr(wrapper, WRAPPED, fn)
        return wrapper

    # ------------------------------------------------------------- patching

    def patch(self, module, name: str, wrapper, aliases: bool) -> None:
        original = getattr(module, name)
        targets = [module]
        if aliases:
            targets = [m for key, m in list(sys.modules.items())
                       if key == "sburgers" or key.startswith("sburgers.")]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.patches.append((mod, attr, original))

    def install(self) -> None:
        import importlib
        mods = {name: importlib.import_module(f"sburgers.{name}")
                for name in ("cli", "harness", "integrator", "spectral",
                             "noise", "lyapunov", "ergodics")}
        notes = {"integrator.simulate": _note_simulate,
                 "integrator.ensemble": _note_ensemble}
        for mod_name, funcs in SPANS.items():
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                mod = mods[mod_name]
                self.patch(mod, fn_name,
                           self.span(name, getattr(mod, fn_name),
                                     notes.get(name)), aliases=True)
        for hot_name, targets in HOT.items():
            for mod_name, fn_name, aliases in targets:
                mod = mods[mod_name]
                self.patch(mod, fn_name,
                           self.hot(hot_name, getattr(mod, fn_name)),
                           aliases=aliases)

    def restore(self) -> list:
        """Undo every patch; return the names that are still wrapped."""
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        left = [f"{mod.__name__}.{attr}" for mod, attr, original
                in self.patches if getattr(mod, attr) is not original]
        for key, mod in list(sys.modules.items()):
            if key == "sburgers" or key.startswith("sburgers."):
                left += [f"{key}.{attr}" for attr, value in vars(mod).items()
                         if hasattr(value, WRAPPED)]
        return sorted(set(left))

    def collected(self) -> list:
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans += [json.loads(line) for line in fh if line.strip()]
        return spans


def _note_simulate(attrs, args, kwargs, result, err):
    cfg = args[0] if args else kwargs["cfg"]
    if err is None:
        attrs["steps"] = int(round(cfg.t_end / cfg.dt))
        attrs["jumps"] = len(result.jump_log)
    elif hasattr(err, "norm"):              # BlowUpError carries time, norm
        attrs["steps"] = int(round(err.time / cfg.dt))
        attrs["blowup"] = 1


def _note_ensemble(attrs, args, kwargs, result, err):
    attrs["workers"] = int(kwargs.get("n_workers",
                                      args[3] if len(args) > 3 else 1))


# ----------------------------------------------------------------- analysis

def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def _self_time(span: dict, children: list) -> float:
    """Span duration minus the part covered by same-process child spans
    and minus the hot calls folded into it."""
    covered, cursor = 0.0, span["start"]
    for c in sorted((c for c in children if c["pid"] == span["pid"]),
                    key=lambda c: c["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    hot = sum(t for _, t in span["hot"].values())
    return _duration(span) - covered - hot


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, bytes_written: int) -> dict:
    """Per-module metrics: {name: (value, unit)}."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def hot(name):
        calls = sum(s["hot"][name][0] for s in spans if name in s["hot"])
        secs = sum(s["hot"][name][1] for s in spans if name in s["hot"])
        return calls, secs

    def under(span, ancestor_name):
        parent = span["parent"]
        while parent in by_id:
            if by_id[parent]["name"] == ancestor_name:
                return True
            parent = by_id[parent]["parent"]
        return False

    def self_sum(prefix):
        return sum(_self_time(s, children.get(s["id"], []))
                   for s in spans if s["name"].startswith(prefix))

    sims = named("integrator.simulate")
    sim_total = sum(_duration(s) for s in sims)
    sim_hot = sum(t for s in sims for _, t in s["hot"].values())
    steps = sum(s["attrs"].get("steps", 0) for s in sims)
    ens = named("integrator.ensemble")
    ens_total = sum(_duration(s) for s in ens)
    ens_sims = [s for s in sims if under(s, "integrator.ensemble")]
    ens_steps = sum(s["attrs"].get("steps", 0) for s in ens_sims)
    workers = max((s["attrs"].get("workers", 1) for s in ens), default=0)
    b_calls, b_s = hot("spectral.B")
    j_calls, j_s = hot("noise.jump_sampling")
    c_calls, c_s = hot("lyapunov.check")
    _, m_s = hot("lyapunov.martingale")
    runners = [s for s in spans if s["name"].startswith("harness.run_")]
    return {
        "integrator.simulate_calls": (len(sims), "count"),
        "integrator.steps": (steps, "count"),
        "integrator.jump_events": (sum(s["attrs"].get("jumps", 0)
                                       for s in sims), "count"),
        "integrator.simulate_s": (sim_total - sim_hot, "s"),
        "integrator.us_per_step": (1e6 * _ratio(sim_total, steps), "us"),
        "integrator.blowups": (sum(s["attrs"].get("blowup", 0)
                                   for s in sims), "count"),
        "integrator.ensemble_s": (ens_total, "s"),
        "integrator.ensemble_us_per_traj_step":
            (1e6 * _ratio(ens_total, ens_steps), "us"),
        "integrator.workers": (workers, "count"),
        "integrator.fanout_efficiency":
            (_ratio(sum(_duration(s) for s in ens_sims), workers * ens_total),
             "ratio"),
        "spectral.B_calls": (b_calls, "count"),
        "spectral.B_s": (b_s, "s"),
        "spectral.us_per_B": (1e6 * _ratio(b_s, b_calls), "us"),
        "spectral.B_share": (_ratio(b_s, sim_total), "ratio"),
        "noise.jump_sampling_calls": (j_calls, "count"),
        "noise.jump_sampling_s": (j_s, "s"),
        "lyapunov.check_calls": (c_calls, "count"),
        "lyapunov.check_s": (c_s, "s"),
        "lyapunov.us_per_check": (1e6 * _ratio(c_s, c_calls), "us"),
        "lyapunov.martingale_s": (m_s, "s"),
        "ergodics.self_s": (self_sum("ergodics."), "s"),
        "harness.load_config_s": (sum(_duration(s) for s in
                                      named("harness.load_config")), "s"),
        "harness.self_s": (sum(_self_time(s, children.get(s["id"], []))
                               for s in runners), "s"),
        "harness.bytes_written": (bytes_written, "bytes"),
    }


def main(argv: list) -> int:
    out_path = Path(argv[0])
    spool = out_path.parent / (out_path.stem + ".spool")
    spool.mkdir(parents=True, exist_ok=True)
    for stale in spool.glob("spans-*.jsonl"):
        stale.unlink()
    tracer = Tracer(spool)
    tracer.install()
    from sburgers import cli
    root = tracer.span("cli.main", cli.main)
    try:
        code = root(argv[1:])
    finally:
        left = tracer.restore()
    out_path.write_text(json.dumps({"exit_code": code, "still_patched": left,
                                    "spans": tracer.collected()}))
    if left:
        print("tracing: names left patched: " + ", ".join(left),
              file=sys.stderr)
        return 70
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
