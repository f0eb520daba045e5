"""Span tracing of kinctrl's layers, installed from outside the package.

`install` replaces the module attributes through which the layers call one
another (for example `kinctrl.cli.run_scenario`, `kinctrl.kinetic.split_step`,
`kinctrl.fp.SpStepper.step`) with wrappers that record a span per call:
name, start, end and the index of the enclosing span.  Spans stay in memory
and are written out once, at the end of the traced run.  Cheap, very
frequent calls (`macro.rhs`, `fp.build_operator`) are counted, not spanned.
Nothing under `src/` is edited; `uninstall` restores every attribute.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Per-layer metrics reported by a traced run, with their units.  Counts and
# times are per round of the workload; latency percentiles pool all calls.
LAYER_METRICS = [
    ("fp.interface_log_ratios.calls", "count"),
    ("fp.interface_log_ratios.self_s", "s"),
    ("fp.SpStepper.init.calls", "count"),
    ("fp.SpStepper.init.self_s", "s"),
    ("fp.SpStepper.step.calls", "count"),
    ("fp.SpStepper.step.self_s", "s"),
    ("fp.SpStepper.step.bytes_computed", "bytes"),
    ("fp.build_operator.calls", "count"),
    ("fp.steady_state_solve.calls", "count"),
    ("fp.steady_state_solve.self_s", "s"),
    ("kinetic.split_step.calls", "count"),
    ("kinetic.split_step.ms_p50", "ms"),
    ("kinetic.split_step.ms_p99", "ms"),
    ("kinetic.split_step.self_s", "s"),
    ("kinetic.epidemic_substep.calls", "count"),
    ("kinetic.epidemic_substep.self_s", "s"),
    ("kinetic.run_scenario.self_s", "s"),
    ("kinetic.clipped_mass", "mass"),
    ("dsmc.dsmc_step.calls", "count"),
    ("dsmc.dsmc_step.ms_p50", "ms"),
    ("dsmc.dsmc_step.ms_p99", "ms"),
    ("dsmc.run_to_equilibrium.self_s", "s"),
    ("dsmc.accept_ratio", "fraction"),
    ("dsmc.ns_per_transition", "ns"),
    ("dsmc.clamped_frac", "fraction"),
    ("macro.rk4_integrate.calls", "count"),
    ("macro.rk4_integrate.self_s", "s"),
    ("macro.rk4_integrate.us_per_step", "us"),
    ("macro.rhs.calls", "count"),
    ("equilibria.EquilibriumDensity.calls", "count"),
    ("equilibria.EquilibriumDensity.self_s", "s"),
    ("equilibria.controlled_steady_state.calls", "count"),
    ("equilibria.controlled_steady_state.self_s", "s"),
    ("equilibria.tail_classify.calls", "count"),
    ("equilibria.tail_inconclusive_frac", "fraction"),
    ("io.write_csv.calls", "count"),
    ("io.write_csv.self_s", "s"),
    ("io.write_manifest.self_s", "s"),
    ("io.bytes_written", "bytes"),
    ("cli.execute.calls", "count"),
    ("cli.execute.self_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
]

# Bytes a tridiagonal solve must touch per cell: three bands and the
# right-hand side read, the solution written (8-byte floats).  Computed from
# array sizes, not measured; cache misses are not counted.
_SOLVE_BYTES_PER_CELL = 5 * 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from kinctrl import cli, dsmc, equilibria, errors, fp, io, kinetic, macro

        counts = self.counts
        span = self.wrap

        self.patch(fp, "interface_log_ratios", span("fp.interface_log_ratios", fp.interface_log_ratios))
        self.patch(fp.SpStepper, "__init__", span("fp.SpStepper.init", fp.SpStepper.__init__))
        step = fp.SpStepper.step

        def solve_step(stepper, values):
            if not stepper._degenerate:
                counts["fp.SpStepper.step.bytes_computed"] += _SOLVE_BYTES_PER_CELL * stepper.grid.n_cells
            return step(stepper, values)

        self.patch(fp.SpStepper, "step", span("fp.SpStepper.step", functools.wraps(step)(solve_step)))
        build = self.count("fp.build_operator.calls", fp.build_operator)
        for owner in (fp, kinetic, cli):
            self.patch(owner, "build_operator", build)
        self.patch(cli, "steady_state_solve", span("fp.steady_state_solve", cli.steady_state_solve))

        self.patch(kinetic, "split_step", span("kinetic.split_step", kinetic.split_step))
        self.patch(kinetic, "epidemic_substep", span("kinetic.epidemic_substep", kinetic.epidemic_substep))
        run_scenario = cli.run_scenario

        def scenario(*args, **kwargs):
            result = run_scenario(*args, **kwargs)
            counts["kinetic.clipped_mass"] += result.final_state.clipped_mass
            return result

        self.patch(cli, "run_scenario", span("kinetic.run_scenario", functools.wraps(run_scenario)(scenario)))

        dsmc_step = dsmc.dsmc_step

        def particle_step(ens, *args, **kwargs):
            n0, c0 = ens.n_transitions, ens.n_clamped
            out = dsmc_step(ens, *args, **kwargs)
            counts["dsmc.particle_steps"] += ens.size
            counts["dsmc.transitions"] += ens.n_transitions - n0
            counts["dsmc.clamped"] += ens.n_clamped - c0
            return out

        self.patch(dsmc, "dsmc_step", span("dsmc.dsmc_step", functools.wraps(dsmc_step)(particle_step)))
        self.patch(cli, "run_to_equilibrium", span("dsmc.run_to_equilibrium", cli.run_to_equilibrium))

        rk4 = cli.rk4_integrate

        def integrate(*args, **kwargs):
            times, states = rk4(*args, **kwargs)
            counts["macro.rk4_steps"] += len(times) - 1
            return times, states

        self.patch(cli, "rk4_integrate", span("macro.rk4_integrate", functools.wraps(rk4)(integrate)))
        self.patch(macro, "rhs", self.count("macro.rhs.calls", macro.rhs))

        self.patch(
            equilibria.EquilibriumDensity, "__init__",
            span("equilibria.EquilibriumDensity", equilibria.EquilibriumDensity.__init__),
        )
        steady = span("equilibria.controlled_steady_state", equilibria.controlled_steady_state)
        for owner in (equilibria, macro, cli):
            self.patch(owner, "controlled_steady_state", steady)
        classify = cli.tail_classify

        def tail(*args, **kwargs):
            try:
                return classify(*args, **kwargs)
            except (errors.TailInconclusiveError, ValueError):
                counts["equilibria.tail_inconclusive"] += 1
                raise

        self.patch(cli, "tail_classify", span("equilibria.tail_classify", functools.wraps(classify)(tail)))

        def written(name, fn):
            def write(path, *args, **kwargs):
                fn(path, *args, **kwargs)
                counts["io.bytes_written"] += Path(path).stat().st_size

            return span(name, functools.wraps(fn)(write))

        self.patch(io, "write_csv", written("io.write_csv", io.write_csv))
        self.patch(cli, "write_manifest", written("io.write_manifest", cli.write_manifest))
        self.patch(cli, "execute", span("cli.execute", cli.execute))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
            fh.write("\n")

    def summary(self, rounds: int, run_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics (per round) and each span name's self-time share of run_s.

        run_s is the traced run's total wall time of cli.execute calls; the
        coverage is the share of it spent inside the spans directly below
        cli.execute.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        durations: dict[str, list[int]] = defaultdict(list)
        self_ns: dict[str, int] = defaultdict(int)
        top_ns = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            durations[name].append(end - start)
            self_ns[name] += end - start - child_ns[i]
            if parent >= 0 and self.spans[parent][0] == "cli.execute":
                top_ns += end - start
        run_ns = run_s * 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out = {}
        for name, _unit in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = (c[name] if name in c else len(durations[layer])) / rounds
            elif stat == "self_s":
                out[name] = self_ns[layer] / 1e9 / rounds
            elif stat in ("ms_p50", "ms_p99"):
                d = durations[layer]
                out[name] = float(np.percentile(d, int(stat[-2:]))) / 1e6 if d else 0.0
        out["fp.SpStepper.step.bytes_computed"] = c["fp.SpStepper.step.bytes_computed"] / rounds
        out["kinetic.clipped_mass"] = c["kinetic.clipped_mass"] / rounds
        out["dsmc.accept_ratio"] = ratio(c["dsmc.transitions"], c["dsmc.particle_steps"])
        out["dsmc.ns_per_transition"] = ratio(sum(durations["dsmc.dsmc_step"]), c["dsmc.transitions"])
        out["dsmc.clamped_frac"] = ratio(c["dsmc.clamped"], c["dsmc.transitions"])
        out["macro.rk4_integrate.us_per_step"] = ratio(sum(durations["macro.rk4_integrate"]) / 1e3, c["macro.rk4_steps"])
        out["equilibria.tail_inconclusive_frac"] = ratio(
            c["equilibria.tail_inconclusive"], len(durations["equilibria.tail_classify"])
        )
        out["io.bytes_written"] = c["io.bytes_written"] / rounds
        out["trace.coverage"] = top_ns / run_ns
        shares = {name: ns / run_ns for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])}
        return out, shares
