"""Seeded inputs, operations and output checks of the workloads and CLI calls.

Each workload is a closed loop with one caller: operation ``i`` runs only
after operation ``i - 1`` has returned.  ``run(i)`` is the timed part of an
operation and ``check(i, result)`` returns ``None`` or a failure message.
Operations cycle through a fixed pattern of ``period`` kinds, so any run
that ends on a whole period has the same mix whatever the seed.

Inputs are drawn from the admitted domain of the test suite's model
parameters (omega in [0.5, 2], b/omega in [0.05, 0.95], a in [0, 1]),
stratified so that a new seed changes the values but not each workload's
share of each regime: positive maps (a >= b), non-positive maps without
entanglement creation, and maps that create entanglement
(a^2 < b^4 / 4 omega^2), a quarter of the latter at a = 0.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import qslip
from qslip import bipartite, cli, oracle, qmat, semigroup, slippage

REGIMES = ("positive", "no_creation", "creation")
_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def regime_of(a, b, omega):
    """Index into REGIMES of each point; works elementwise on arrays."""
    return np.where(a >= b, 0, np.where(a * a < b ** 4 / (4.0 * omega * omega), 2, 1))


def stratified_params(rng, n, pattern=(0, 1, 2)):
    """n parameter points whose regimes repeat ``pattern`` (indices into REGIMES).

    Candidates are drawn in bulk and sorted into regimes in draw order, so
    within a regime the points follow the admitted domain's distribution.
    Every fourth creation point has a = 0.
    """
    regimes = [pattern[k % len(pattern)] for k in range(n)]
    need = [regimes.count(r) for r in range(len(REGIMES))]
    pools = [np.empty((0, 3)) for _ in REGIMES]
    while any(len(pool) < m for pool, m in zip(pools, need)):
        omega = rng.uniform(0.5, 2.0, 4 * n)
        b = rng.uniform(0.05, 0.95, 4 * n) * omega
        a = rng.uniform(0.0, 1.0, 4 * n)
        tag = regime_of(a, b, omega)
        draws = np.stack([a, b, omega], axis=1)
        pools = [np.concatenate([pool, draws[tag == r]]) for r, pool in enumerate(pools)]
    taken = [0] * len(REGIMES)
    points = []
    for r in regimes:
        a, b, omega = pools[r][taken[r]]
        if REGIMES[r] == "creation" and taken[r] % 4 == 0:
            a = 0.0
        taken[r] += 1
        points.append(qslip.ModelParams(a, b, omega))
    return points


def spread(n, lo, hi):
    """n sizes covering [lo, hi] evenly, starting at the middle (golden-ratio sequence).

    Any run of consecutive sizes has nearly the mean of the whole range, so
    every run does about the same work, and the warm-up op 0 has the middle
    size whatever the seed.
    """
    u = (0.5 + _GOLDEN_FRACTION * np.arange(n)) % 1.0
    return np.rint(lo + u * (hi - lo)).astype(int)


def _in_ball(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)


def _bloch_of(states):
    return np.stack(
        [2.0 * states[:, 0, 1].real, -2.0 * states[:, 0, 1].imag, 2.0 * states[:, 0, 0].real - 1.0],
        axis=-1,
    )


class Sweep:
    """Phase-diagram scan: one operation analyses one parameter point.

    A point without windows costs about 6 ms.  A creation point costs more,
    in steps by its number of windows: 1, 2 or 3 in shares of about 46%,
    21% and 33%, where the 1-window points sit in a narrow band near 16 ms
    and the 2-window points spread from 16 to 28 ms.  Creation points are
    2 of every 15, so op_ms_p90 falls in the middle of the 1-window band
    rather than on a step, and op_ms_p50 among the points without windows.
    """

    pattern = (0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 1, 0, 1, 0, 2)
    period = len(pattern)
    trace_ops = 300
    # The command line mostly serves this scan (eigs, windows, evolve,
    # bounds, classify), so the traced run measures the cli layer here.
    traces_cli = True
    _times = np.linspace(0.0, 5.0, 201)
    _grid = np.linspace(0.0, 10.0, 4001)

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        # 600 creation points, so that every run averages over hundreds.
        self.points = stratified_params(rng, 4500, self.pattern)
        self.mu_fraction = rng.uniform(0.0, 1.0, len(self.points))

    def run(self, i):
        k = i % len(self.points)
        p = self.points[k]
        tag = semigroup.classify(p)
        radius, _ = semigroup.norm_bound_max(p)
        mu_max = bipartite.positivity_bound(p)
        peak_g, _ = bipartite.rate_factor_max(p)
        creates = bipartite.can_create_entanglement(p)
        report = bipartite.detect_windows(p)
        mu = self.mu_fraction[k] * mu_max
        sums, conc = [], []
        for t in self._times:
            sums.append(sum(bipartite.eigenvalues_closed_form(p, mu, t)))
            conc.append(bipartite.concurrence_closed_form(p, mu, t))
        r1 = bipartite.r1_curve(p, self._grid)
        r4 = bipartite.r4_curve(p, self._grid)
        norms = semigroup.norm_bound_curve(p, self._grid)
        windows = bipartite.window_functions(p, self._grid * (math.pi / (10.0 * p.Omega)))
        curves_ok = bool(np.all(r1 >= r4) and all(np.isfinite(c).all() for c in (norms, *windows)))
        return p, tag, radius, peak_g, creates, report, sums, conc, curves_ok

    def check(self, i, result):
        p, tag, radius, peak_g, creates, report, sums, conc, curves_ok = result
        regime = REGIMES[regime_of(p.a, p.b, p.omega)]
        if max(abs(s - 1.0) for s in sums) > 1e-12:
            return "spectrum does not sum to 1"
        if not report.mu_upper_corrected <= report.mu_upper_physical:
            return "corrected mu bound exceeds the physical one"
        if (radius > 1.0) != (p.a < p.b):
            return f"R = {radius!r} disagrees with a < b"
        if (tag is qslip.Classification.NON_POSITIVE) != (p.a < p.b):
            return f"classify gave {tag}"
        if creates != (regime == "creation"):
            return "can_create_entanglement disagrees with a^2 < b^4/4omega^2"
        if abs(peak_g) > 1e-10 and creates != (peak_g > 0.0):
            return f"max G = {peak_g!r} disagrees with can_create_entanglement"
        if not all(0.0 <= c <= 1.0 for c in conc):
            return "concurrence outside [0, 1]"
        if report.kills_all_entanglement != (report.mu_upper_corrected <= 1.0 / 3.0 + 1e-12):
            return "kills_all_entanglement disagrees with the corrected bound"
        if not curves_ok:
            return "vectorized curves not finite or R1 < R4"
        return None


class Crosscheck:
    """Oracle-against-closed-form checks in a fixed round-robin of six kinds.

    Sizes (RK4 steps, batch lengths, Choi grid points) vary within each
    kind so that the kinds' costs overlap and the latency percentiles do not
    sit on a gap between two kinds.
    """

    period = 6
    trace_ops = 120
    traces_cli = False
    step = 1e-3
    tolerances = (1e-8, 1e-8, 1e-10, 1e-10, 1e-6, None)

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        n = 128
        self.points = stratified_params(rng, n)
        self.sizes = (
            spread(n, 100, 600),   # RK4 2x2 steps
            spread(n, 100, 600),   # RK4 4x4 steps
            spread(n, 80, 600),    # Jacobi batch
            spread(n, 30, 240),    # Wootters batch
            None,
            spread(n, 20, 150),    # Choi grid points
        )
        self.r0 = [_in_ball(rng) for _ in range(n)]
        self.mu = rng.uniform(0.0, 1.0, n)
        self.batches = [(rng.uniform(0.0, 1.0, 600), rng.uniform(0.0, 5.0, 600)) for _ in range(n)]
        self.kinds = (self._rk4_2x2, self._rk4_4x4, self._jacobi, self._wootters,
                      self._maxima, self._choi)

    def run(self, i):
        k = (i // self.period) % len(self.points)
        return self.kinds[i % self.period](k)

    def check(self, i, result):
        tol = self.tolerances[i % self.period]
        if tol is None:
            return None if result.is_cp else f"slipped map at mu = 1/R4 not CP: {result}"
        return None if result <= tol else f"{self.kinds[i % self.period].__name__} deviation {result:.3e} > {tol:.0e}"

    def _config(self, k, kind):
        return qslip.IntegratorConfig(step=self.step, t_max=self.sizes[kind][k] * self.step)

    def _rk4_2x2(self, k):
        p, r = self.points[k], qslip.BlochVector(*self.r0[k])
        traj = oracle.integrate_master_2x2(p, r.to_density_matrix(), self._config(k, 0))
        analytic = semigroup.bloch_trajectory(p, r, traj.times)
        return float(np.abs(_bloch_of(traj.states) - analytic).max())

    def _rk4_4x4(self, k):
        p, mu = self.points[k], self.mu[k]
        traj = oracle.integrate_master_4x4(p, bipartite.isotropic(mu), self._config(k, 1))
        closed = np.array([bipartite.evolve_isotropic(p, mu, t) for t in traj.times])
        return float(np.abs(traj.states - closed).max())

    def _jacobi(self, k):
        p, (mus, ts) = self.points[k], self.batches[k]
        dev = 0.0
        for mu, t in zip(mus[: self.sizes[2][k]], ts):
            closed = np.sort(bipartite.eigenvalues_closed_form(p, mu, t))
            numeric = np.sort(qmat.hermitian_eigenvalues(bipartite.evolve_isotropic(p, mu, t)))
            dev = max(dev, float(np.abs(closed - numeric).max()))
        return dev

    def _wootters(self, k):
        p, (fractions, ts) = self.points[k], self.batches[k]
        bound = bipartite.positivity_bound(p)
        dev = 0.0
        for frac, t in zip(fractions[: self.sizes[3][k]], ts):
            closed = bipartite.concurrence_closed_form(p, frac * bound, t)
            woot = bipartite.concurrence_wootters(bipartite.evolve_isotropic(p, frac * bound, t))
            dev = max(dev, abs(closed - woot))
        return dev

    def _maxima(self, k):
        p = self.points[k]
        bracket = math.pi / (2.0 * p.Omega)
        radius, t_prime = semigroup.norm_bound_max(p)
        t_num, v_num = oracle.maximize_scalar(
            lambda t: math.sqrt(semigroup.norm_bound_curve(p, t)), 0.0, bracket)
        # Positive maps peak at t = 0 with R = 1; only the radius is defined there.
        dev = abs(radius - v_num) if p.a >= p.b else max(abs(radius - v_num), abs(t_prime - t_num))
        peak4, t_star = bipartite.r4_max(p)
        t_num, v_num = oracle.maximize_scalar(lambda t: bipartite.r4_curve(p, t), 0.0, bracket)
        dev = max(dev, abs(peak4 - v_num), abs(t_star - t_num))
        peak_g, t_bar = bipartite.rate_factor_max(p)
        t_num, v_num = oracle.maximize_scalar(
            lambda t: bipartite.concurrence_rate_factor(p, t), 0.0, bracket)
        return max(dev, abs(peak_g - v_num), abs(t_bar - t_num))

    def _choi(self, k):
        p = self.points[k]
        gamma = slippage.semigroup_action(p)
        slip = slippage.slippage_action(slippage.SlippageChannel(bipartite.positivity_bound(p)))
        grid = np.linspace(0.0, 5.0, self.sizes[5][k])
        return slippage.is_completely_positive(
            lambda t: slippage.compose_actions(gamma(t), slip), grid)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


class CliCalls:
    """The command line's 28-call pattern, run once in the sweep workload's traced run.

    Calls cycle through all 7 subcommands; ``eigs``, ``windows`` and
    ``evolve`` take 1000 or 20000 steps on alternate cycles and switch
    between CSV and JSON every two cycles, so 4 cycles cover every variant.
    Call ``i`` runs as a ``python -m qslip`` subprocess (``run``) and as
    ``qslip.cli.main`` in this process (``main_inprocess``).
    """

    subcommands = ("classify", "derive-params", "eigs", "windows", "bounds", "verify", "evolve")
    calls = 28

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        n = self.calls // len(self.subcommands)
        self.points = stratified_params(rng, n)
        self.mu = rng.uniform(0.0, 1.0, n)
        self.r0 = [_in_ball(rng) for _ in range(n)]
        g2 = rng.uniform(0.1, 2.0, n)
        self.field = np.stack([g2 + rng.uniform(0.1, 2.0, n), g2, rng.uniform(0.1, 2.0, n),
                               rng.uniform(1.0, 20.0, n), rng.uniform(0.5, 5.0, n),
                               rng.uniform(0.5, 2.0, n)], axis=1)
        self.output = os.path.join(scratch, "cli-output")

    def argv(self, i):
        k, j = divmod(i, len(self.subcommands))
        name = self.subcommands[j]
        p = self.points[k]
        model = ["--a", repr(p.a), "--b", repr(p.b), "--omega", repr(p.omega)]
        grid = ["--steps", ("1000", "20000")[k % 2], "--format", ("csv", "json")[k // 2 % 2]]
        if name == "derive-params":
            keys = ("--g1", "--g2", "--g3", "--lambda", "--lambda3", "--omega-tilde")
            return [name] + [x for key, v in zip(keys, self.field[k]) for x in (key, repr(float(v)))]
        if name == "eigs":
            return [name, *model, "--mu", repr(float(self.mu[k])), *grid]
        if name == "windows":
            return [name, *model, *grid]
        if name == "verify":
            return [name, *model, "--mu", repr(float(self.mu[k])), "--t-max", "0.5", "--step", "1e-3"]
        if name == "evolve":
            r1, r2, r3 = (repr(float(x)) for x in self.r0[k])
            return [name, *model, "--r1", r1, "--r2", r2, "--r3", r3, *grid]
        return [name, *model]

    def run(self, i):
        return subprocess.run([sys.executable, "-m", "qslip", *self.argv(i)],
                              capture_output=True, timeout=120)

    def check(self, i, proc):
        argv = self.argv(i)
        name, text = argv[0], proc.stdout.decode()
        if proc.returncode != 0:
            return f"{name} exited {proc.returncode}: {proc.stderr.decode()[-200:]}"
        if name == "verify":
            return None if text.endswith("all checks passed\n") else f"verify failed: {text[-300:]}"
        if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            rows = [line for line in text.splitlines()[1:] if not line.startswith("#")]
        else:
            doc = _strict_json(text)
            if name == "classify":
                p = self.points[i // len(self.subcommands)]
                expected = semigroup.classify(p).value
                return None if doc["tag"] == expected else f"classify tag {doc['tag']} != {expected}"
            if "rows" not in doc:
                return None
            rows = doc["rows"]
        steps = int(argv[argv.index("--steps") + 1])
        return None if len(rows) == steps + 1 else f"{name}: {len(rows)} rows for {steps} steps"

    def main_inprocess(self, i):
        """Run ``qslip.cli.main`` in this process; return (seconds, exit code, output bytes)."""
        if os.path.exists(self.output):
            os.remove(self.output)
        captured = io.StringIO()
        start = perf_counter()
        with redirect_stdout(captured):
            code = cli.main(self.argv(i) + ["--output", self.output])
        elapsed = perf_counter() - start
        if os.path.exists(self.output):
            with open(self.output, "rb") as fh:
                out = fh.read()
        else:
            out = captured.getvalue().encode()
        return elapsed, code, out


WORKLOADS = {"sweep": Sweep, "crosscheck": Crosscheck}
