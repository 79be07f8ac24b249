"""The benchmark's workloads: seeded inputs, one op, and the op's oracle.

Every workload is a single closed-loop client: the next op starts only after
the previous one returned.  ``op(i)`` does the work that is timed;
``check(i, out)`` runs outside the timed region and returns a list of
problems (empty when the output is right).  ``cycle`` is the number of ops
after which the op mix repeats; runs end on a whole cycle so every run sees
the same mix.  Inputs come from the seed only.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from p3poly import cli, geometry, manifold, quantum, stats, strategies
from p3poly.strategies import FULL_26, FULL_SHAPE, REDUCED_8, REDUCED_SHAPE

import oracles

FULL_CLASSIFICATION = {"coincident": 1, "visible": 27, "hidden": 36}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _structure_problems(n, rows, edges, diameter, members, complete, cliques, histogram):
    """Facts every report on the n-vertex table must reproduce."""
    table = oracles.FULL_TABLE if n == 64 else oracles.REDUCED_TABLE
    adj = oracles.adjacency(n)
    problems = []
    if rows is not None and not np.array_equal(np.asarray(rows), table):
        problems.append("vertex table differs from the strategy bits")
    if edges != int(adj.sum()) // 2:
        problems.append(f"edge count {edges}, expected {int(adj.sum()) // 2}")
    if diameter != 2:
        problems.append(f"diameter {diameter}, expected 2")
    if len(members) != 4 or not complete or not oracles.dominates(members, adj):
        problems.append(f"generator set {members} is not a size-4 dominating set")
    if [tuple(c) for c in cliques] != oracles.wing_cliques(n):
        problems.append("maximal cliques are not the eight wing classes")
    if histogram != oracles.hamming(table):
        problems.append("Hamming histogram differs")
    return problems


class Workload:
    cycle: int  # ops after which the op mix repeats

    def malformed(self, i: int) -> bool:
        """Whether op ``i`` feeds deliberately malformed input."""
        return False


# --- polytope-scan ----------------------------------------------------------------


class PolytopeScan(Workload):
    """One op is one structural report; a cycle is one full-26 and two reduced-8 reports.

    The polytope is fixed; the seed sets the order in which strategies and
    reduced vertices are handed to the classification and histogram layers.
    """

    name = "polytope-scan"
    cycle = 3

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.order64 = [int(k) for k in rng.permutation(64)]
        self.order16 = [int(k) for k in rng.permutation(16)]

    def fingerprint(self) -> str:
        return _digest(self.order64, self.order16)

    def op(self, i: int) -> dict:
        rep = FULL_26 if i % self.cycle == 0 else REDUCED_8
        graph = geometry.build_visibility_graph(rep)
        out = {
            "rep": rep,
            "rows": strategies.vertex_rows(rep),
            "csv": strategies.vertices_csv(rep),
            "json": strategies.vertices_json(rep),
            "adjacency": graph.adjacency,
            "apsp": geometry.all_pairs_shortest_paths(graph),
            "generators": geometry.minimum_generators(graph),
            "dominated_by_3": geometry.has_dominating_set(graph, 3),
            "cliques": geometry.maximal_convex_clusters(graph),
        }
        if rep == FULL_26:
            listed = strategies.enumerate_strategies()
            ordered = [listed[k] for k in self.order64]
            out["classification"] = [geometry.classify_from(s, ordered) for s in ordered]
            vertices = [strategies.vertex_from_strategy(s) for s in ordered]
        else:
            reduced = strategies.enumerate_reduced()
            vertices = [reduced[k] for k in self.order16]
        out["histogram"] = strategies.hamming_histogram(vertices)
        return out

    def check(self, i: int, out: dict) -> list[str]:
        n = 64 if out["rep"] == FULL_26 else 16
        table = oracles.FULL_TABLE if n == 64 else oracles.REDUCED_TABLE
        generators = out["generators"]
        dist, diameter = out["apsp"]
        problems = _structure_problems(
            n, out["rows"], int(out["adjacency"].sum()) // 2, diameter,
            generators.members, generators.complete, out["cliques"], out["histogram"],
        )
        adj = oracles.adjacency(n)
        if not np.array_equal(out["adjacency"], adj):
            problems.append("visibility adjacency differs")
        expected_dist = np.where(adj, 1, 2)
        np.fill_diagonal(expected_dist, 0)
        if not np.array_equal(dist, expected_dist):
            problems.append("shortest-path matrix differs")
        if out["dominated_by_3"]:
            problems.append("a 3-vertex dominating set was reported")
        lines = out["csv"].splitlines()
        if lines[0].split(",") != oracles.column_names(3 if n == 64 else 2) or not np.array_equal(
            [[int(x) for x in line.split(",")] for line in lines[1:]], table
        ):
            problems.append("CSV export differs")
        payload = oracles.strict_json(out["json"])
        if payload["representation"] != out["rep"] or not np.array_equal(payload["vertices"], table):
            problems.append("JSON export differs")
        if n == 64:
            for counts in out["classification"]:
                if {status.value: c for status, c in counts.items()} != FULL_CLASSIFICATION:
                    problems.append(f"visibility classification {counts}")
                    break
        return problems


# --- state-audit ------------------------------------------------------------------


class StateAudit(Workload):
    """One op audits a seeded pair of random 2-qubit states.

    Every ``cycle``-th op also builds a 3-qubit Born-rule table and collapses
    the 64 deterministic hidden-variable models.
    """

    name = "state-audit"
    cycle = 16
    shots = 10_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.measurements = quantum.zx_qubit_measurements(2)
        self.measurements3 = quantum.zx_qubit_measurements(3)

    def _rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def fingerprint(self) -> str:
        states = []
        for i in range(self.cycle):
            rng = self._rng(i)
            states += [quantum.random_density_matrix(4, rng).matrix.tobytes() for _ in range(2)]
        return _digest(*states)

    def op(self, i: int) -> dict:
        rng = self._rng(i)
        rho = quantum.random_density_matrix(4, rng)
        sigma = quantum.random_density_matrix(4, rng)
        distribution = quantum.behaviour_from_state(rho, self.measurements, REDUCED_SHAPE)
        out = {
            "rho": rho.matrix,
            "sigma": sigma.matrix,
            "bound": quantum.behaviour_bound_check(rho, sigma),
            "fidelity_ok": quantum.fidelity_bounds_check(rho, sigma),
            "signalling": quantum.no_signalling_check(distribution),
            "sampled": quantum.sample_behaviour(
                rho, self.measurements, REDUCED_SHAPE, self.shots, int(rng.integers(2**31))
            ),
        }
        if i % self.cycle == 0:
            rho3 = quantum.random_density_matrix(8, rng)
            table3 = quantum.behaviour_from_state(rho3, self.measurements3, FULL_SHAPE)
            out["rho3"] = rho3.matrix
            out["point3"] = quantum.collapse(table3)
            out["signalling3"] = quantum.no_signalling_check(table3)
            out["lhv"] = [
                quantum.collapse(quantum.lhv_evaluate(quantum.model_from_strategy(s)))
                for s in strategies.enumerate_strategies()
            ]
        return out

    def check(self, i: int, out: dict) -> list[str]:
        rho, sigma, bound = out["rho"], out["sigma"], out["bound"]
        problems = []
        if not bound.holds:
            problems.append("norm chain l2 <= l1 <= 2(dA + dB + dAB) does not hold")
        p, q = oracles.state_point(rho), oracles.state_point(sigma)
        deltas = (
            oracles.trace_distance(oracles.reduced_state(rho, "A"), oracles.reduced_state(sigma, "A")),
            oracles.trace_distance(oracles.reduced_state(rho, "B"), oracles.reduced_state(sigma, "B")),
            oracles.trace_distance(rho, sigma),
        )
        reported = (bound.delta_a, bound.delta_b, bound.delta_ab)
        if max(abs(x - y) for x, y in zip(deltas, reported)) > oracles.STATE_TOL:
            problems.append("trace distances differ from the oracle")
        if abs(bound.l1 - float(np.abs(p - q).sum())) > oracles.STATE_TOL:
            problems.append("behaviour l1 norm differs from the oracle")
        if not out["fidelity_ok"]:
            problems.append("fidelity bounds 1 - sqrt(F) <= D <= sqrt(1 - F) fail")
        if not out["signalling"]:
            problems.append("Born-rule table signals")
        point, errors = out["sampled"]
        problems += oracles.check_sampled(point.coords, p, self.shots, errors)
        if "lhv" in out:
            if not np.array_equal([v.coords for v in out["lhv"]], oracles.FULL_TABLE):
                problems.append("hidden-variable collapses differ from the vertex table")
            expected3 = oracles.state_point(out["rho3"])
            if np.abs(np.asarray(out["point3"].coords) - expected3).max() > oracles.STATE_TOL:
                problems.append("3-qubit behaviour point differs from the oracle")
            if not out["signalling3"]:
                problems.append("3-qubit Born-rule table signals")
        return problems


# --- verdict-stream ---------------------------------------------------------------


class VerdictStream(Workload):
    """One op is one protocol verdict on a seeded observation of the line.

    Kinds alternate between honest and intercepted; depolarising noise is
    drawn from [0, 0.3].  The verdict is "honest" when the observed point is
    at least half as far from the uncorrelated manifold as the noiseless
    honest reference.
    """

    name = "verdict-stream"
    cycle = 2
    shots = 10_000
    batches = 16
    batch_shots = 1_000
    max_noise = 0.3
    noise_sigma = 0.05
    score_threshold = 0.5
    alpha = 0.01

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rho, measurements, shape = quantum.qkd_scenario("honest")
        self.reference = quantum.collapse(quantum.behaviour_from_state(rho, measurements, shape))
        self.reference_distance = manifold.project(self.reference).distance
        self.sigma_d = stats.distance_sigma(self.reference, self.noise_sigma)
        rng = np.random.default_rng([seed, 2**32 - 1])
        self.reference_batch = self._batch(rho, measurements, shape, rng)

    def _batch(self, rho, measurements, shape, rng) -> np.ndarray:
        return np.array(
            [
                quantum.sample_behaviour(
                    rho, measurements, shape, self.batch_shots, int(rng.integers(2**31))
                )[0].coords
                for _ in range(self.batches)
            ]
        )

    def _observation(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        kind = "honest" if i % 2 == 0 else "intercepted"
        return kind, float(rng.uniform(0.0, self.max_noise)), rng

    def fingerprint(self) -> str:
        return _digest(
            self.reference_batch.tobytes(),
            *[self._observation(i)[:2] for i in range(64)],
        )

    def op(self, i: int) -> dict:
        kind, noise, rng = self._observation(i)
        rho, measurements, shape = quantum.qkd_scenario(kind, noise)
        observed, _ = quantum.sample_behaviour(
            rho, measurements, shape, self.shots, int(rng.integers(2**31))
        )
        noisy = stats.perturb(observed, stats.NoiseSpec(self.noise_sigma, int(rng.integers(2**31))))
        report = stats.gaussian_separability(self.reference, noisy, self.sigma_d, self.alpha)
        projection = manifold.project(observed)
        score = projection.distance / self.reference_distance
        batch = self._batch(rho, measurements, shape, rng)
        tests = [
            (
                stats.two_sample_t(self.reference_batch[:, k], batch[:, k]),
                stats.two_sample_ks(self.reference_batch[:, k], batch[:, k]),
            )
            for k in range(batch.shape[1])
        ]
        verdict = "honest" if score >= self.score_threshold else "intercepted"
        return {
            "kind": kind, "noise": noise, "observed": observed, "noisy": noisy,
            "report": report, "projection": projection, "tests": tests, "verdict": verdict,
        }

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        if out["verdict"] != out["kind"]:
            problems.append(f"verdict {out['verdict']} on a {out['kind']} line")
        p = out["projection"]
        problems += oracles.check_projection(
            out["observed"].coords, p.params.as_array(), p.point.coords,
            p.squared_distance, p.distance,
        )
        exact = oracles.state_point(oracles.scenario_state(out["kind"], out["noise"]))
        problems += oracles.check_sampled(out["observed"].coords, exact, self.shots)
        distance = float(np.linalg.norm(self.reference.as_array() - out["noisy"].as_array()))
        if abs(out["report"].distance - distance) > oracles.EXACT_TOL:
            problems.append("separability distance differs from the oracle")
        if not all(0.0 <= v <= 1.0 for pair in out["tests"] for v in pair):
            problems.append("a two-sample p-value lies outside [0, 1]")
        return problems


# --- cli-session ------------------------------------------------------------------


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Entry:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]] | None  # None for a malformed entry
    malformed_output: str | None = None


class CliSession(Workload):
    """One op is one ``python -m p3poly.cli`` subprocess from a fixed deck.

    The deck mirrors the README command lines plus five malformed inputs,
    each of which must exit 1 with one ``error:`` line and no output file.
    Runs cover whole decks.  The seed sets the simulate noise and shot seed,
    the 2000x8 sample files and the random state compared with a Bell pair.
    """

    name = "cli-session"
    samples_shape = (2000, 8)
    sample_shots = 100_000
    alpha = 0.01

    def __init__(self, seed: int, workdir: Path, python: str, env: dict) -> None:
        self.workdir = workdir
        self.python = python
        self.env = env
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.noise = [round(float(x), 4) for x in rng.uniform(0.0, 0.3, size=2)]
        self.shot_seed = int(rng.integers(2**31))
        files = {}
        for name in ("expected.csv", "observed.csv"):
            values = rng.normal(0.5, 0.1, size=self.samples_shape)
            lines = [",".join(f"x{k}" for k in range(values.shape[1]))]
            lines += [",".join(f"{v:.17g}" for v in row) for row in values]
            files[name] = "\n".join(lines) + "\n"
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        state = g @ g.conj().T / np.trace(g @ g.conj().T).real
        self.random_state = (state + state.conj().T) / 2.0  # Hermitian to the last bit
        for name, matrix in (("bell.json", oracles.bell_state()), ("random.json", self.random_state)):
            files[name] = json.dumps(
                {"dim": 4, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
            )
        nan = float("nan")
        files["nan_point.json"] = json.dumps({"representation": REDUCED_8, "coords": [nan] * 8})
        # With the representation tag present the loader reaches the coords parser.
        files["coords5.json"] = json.dumps({"representation": REDUCED_8, "coords": 5})
        files["truncated.json"] = '{"representation": "reduced-8", "coords": [0.5, 0.5'
        files["nan_rho.json"] = json.dumps(
            {"dim": 4, "re": [[nan] * 4 for _ in range(4)], "im": [[0.0] * 4 for _ in range(4)]}
        )
        for name, text in files.items():
            (workdir / name).write_text(text)
        self.files = files
        self.samples = {
            name: np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
            for name, text in files.items() if name.endswith(".csv")
        }
        self.honest = oracles.state_point(oracles.scenario_state("honest", 0.0))
        self.intercepted = oracles.state_point(oracles.scenario_state("intercepted", 0.0))
        self.deck = self._deck()
        self.cycle = len(self.deck)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def prepare(self) -> list[str]:
        """Write the simulate outputs that ``project`` and ``test`` read."""
        problems = []
        for kind in ("honest", "intercepted"):
            outcome = self._subprocess(("simulate", "--kind", kind, "--output", self.path(f"{kind}.json")))
            if outcome.code != 0:
                problems.append(f"simulate --kind {kind} exited {outcome.code}: {outcome.stderr}")
        return problems

    def fingerprint(self) -> str:
        return _digest(*[self.files[k].encode() for k in sorted(self.files)], [e.argv for e in self.deck])

    def _deck(self) -> list[Entry]:
        p = self.path
        (n0, n1), seed = self.noise, str(self.shot_seed)

        def malformed(k, *argv):
            out = p(f"malformed-{k}.json")
            return Entry(tuple(argv) + ("--output", out), None, out)

        # Heavy entries (solver-bound) are spread through the deck so that a
        # run always holds the same mix.
        return [
            Entry(("vertices", "--rep", "full", "--format", "csv"), lambda t: self._vertices_csv(t, 3)),
            Entry(("vertices", "--rep", "full", "--format", "json"), lambda t: self._vertices_json(t, 3)),
            Entry(("vertices", "--rep", "reduced", "--format", "csv"), lambda t: self._vertices_csv(t, 2)),
            Entry(("vertices", "--rep", "reduced", "--format", "json"), lambda t: self._vertices_json(t, 2)),
            Entry(("project", "--input", p("honest.json")), lambda t: self._project(t, self.honest)),
            Entry(("graph", "--rep", "full", "--format", "dot"), self._graph_dot),
            Entry(("graph", "--rep", "reduced", "--layout", "svd", "--format", "csv"), self._graph_svd),
            Entry(("analyze", "--rep", "full"), lambda t: self._analyze(t, 64)),
            Entry(("analyze", "--rep", "reduced"), lambda t: self._analyze(t, 16)),
            Entry(("test", "--expected", p("honest.json"), "--observed", p("intercepted.json")), self._test_point),
            Entry(("simulate", "--kind", "honest", "--noise", str(n0)), lambda t: self._simulate(t, "honest", n0, 0)),
            Entry(
                ("simulate", "--kind", "honest", "--noise", str(n1), "--shots", str(self.sample_shots), "--seed", seed),
                lambda t: self._simulate(t, "honest", n1, self.sample_shots),
            ),
            Entry(("simulate", "--kind", "intercepted", "--noise", str(n0)), lambda t: self._simulate(t, "intercepted", n0, 0)),
            Entry(
                ("simulate", "--kind", "intercepted", "--noise", str(n1), "--shots", str(self.sample_shots), "--seed", seed),
                lambda t: self._simulate(t, "intercepted", n1, self.sample_shots),
            ),
            Entry(("project", "--input", p("intercepted.json")), lambda t: self._project(t, self.intercepted)),
            Entry(
                ("test", "--mode", "samples", "--expected", p("expected.csv"), "--observed", p("observed.csv"),
                 "--alpha", str(self.alpha)),
                self._test_samples,
            ),
            Entry(("bound", "--rho", p("bell.json"), "--sigma", p("random.json")), self._bound),
            malformed(1, "project", "--input", p("nan_point.json")),
            malformed(2, "test", "--expected", p("honest.json"), "--observed", p("nan_point.json")),
            malformed(3, "project", "--input", p("coords5.json")),
            malformed(4, "project", "--input", p("truncated.json")),
            malformed(5, "bound", "--rho", p("nan_rho.json"), "--sigma", p("bell.json")),
        ]

    # Running one entry, as a subprocess (timed ops) or in-process (traced run).

    def _subprocess(self, argv) -> Outcome:
        try:
            done = subprocess.run(
                [self.python, "-m", "p3poly.cli", *argv], capture_output=True, text=True,
                env=self.env, cwd=self.workdir, timeout=120,
            )
        except subprocess.TimeoutExpired as exc:
            return Outcome(None, "", f"timed out after {exc.timeout} s")
        return Outcome(done.returncode, done.stdout, done.stderr)

    def malformed(self, i: int) -> bool:
        return self.deck[i % self.cycle].malformed_output is not None

    def op(self, i: int) -> Outcome:
        return self._subprocess(self.deck[i % self.cycle].argv)

    def op_inprocess(self, i: int, tracer=None) -> Outcome:
        argv = list(self.deck[i % self.cycle].argv)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.span(f"cli.main.{argv[0]}", cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is what a user would see as a traceback
                traceback.print_exc(file=err)
                code = 1
        return Outcome(code, out.getvalue(), err.getvalue())

    def check(self, i: int, outcome: Outcome) -> list[str]:
        entry = self.deck[i % self.cycle]
        if entry.malformed_output is not None:
            left = [f for f in (entry.malformed_output, entry.malformed_output + ".tmp") if os.path.exists(f)]
            for f in left:
                os.remove(f)  # so the next deck starts clean
            lines = [line for line in outcome.stderr.splitlines() if line.strip()]
            problems = []
            if outcome.code != 1:
                problems.append(f"malformed input exited {outcome.code}, expected 1")
            if len(lines) != 1 or not lines[0].startswith("error:"):
                problems.append(f"malformed input gave {len(lines)} stderr lines, not one 'error:' line")
            if left:
                problems.append("malformed input left an output file")
            return problems
        if outcome.code != 0:
            return [f"exited {outcome.code}: {outcome.stderr.strip()[-300:]}"]
        try:
            return entry.check(outcome.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    # Output checks on key values; fields added later do not matter.

    def _vertices_csv(self, text, n):
        lines = text.splitlines()
        table = oracles.vertex_table(n)
        rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
        if lines[0].split(",") != oracles.column_names(n) or not np.array_equal(rows, table):
            return ["vertex CSV differs"]
        return []

    def _vertices_json(self, text, n):
        payload = oracles.strict_json(text)
        if not np.array_equal(payload["vertices"], oracles.vertex_table(n)):
            return ["vertex JSON differs"]
        return []

    def _graph_dot(self, text):
        edges = set()
        for line in text.splitlines():
            if "--" in line:
                i, j = line.strip().rstrip(";").split("--")
                edges.add((int(i), int(j)))
        adj = oracles.adjacency(64)
        expected = {(int(i), int(j)) for i, j in zip(*np.nonzero(adj)) if i < j}
        return [] if edges == expected else ["DOT edges differ from the visibility relation"]

    def _graph_svd(self, text):
        lines = text.splitlines()
        coords = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if lines[0] != "x,y,z" or coords.shape != (16, 3) or not np.all(np.isfinite(coords)):
            return ["SVD layout is not 16 finite x,y,z rows"]
        if np.abs(coords.mean(axis=0)).max() > 1e-9:
            return ["SVD layout is not centred"]
        return []

    def _analyze(self, text, n):
        payload = oracles.strict_json(text)
        table = oracles.FULL_TABLE if n == 64 else oracles.REDUCED_TABLE
        gens = payload["min_generators"]
        histogram = {int(k): v for k, v in payload["hamming_histogram"].items()}
        problems = _structure_problems(
            n, None, payload["edge_count"], payload["apsp_max"], gens["members"],
            gens["complete"] and gens["covered_count"] == n, payload["cliques"]["members"], histogram,
        )
        if payload["node_count"] != len(table):
            problems.append("node count differs")
        if n == 64:
            classification = payload["classification"]
            if not classification["uniform"] or any(
                c != FULL_CLASSIFICATION for c in classification["per_vertex"]
            ):
                problems.append("visibility classification differs")
        return problems

    def _simulate(self, text, kind, noise, shots):
        payload = oracles.strict_json(text)
        exact = oracles.state_point(oracles.scenario_state(kind, noise))
        problems = []
        if np.abs(np.asarray(payload["exact_point"]["coords"]) - exact).max() > oracles.STATE_TOL:
            problems.append("exact point differs from the oracle")
        if payload["no_signalling_ok"] is not True:
            problems.append("simulated distribution signals")
        if shots:
            problems += oracles.check_sampled(
                payload["sampled_point"]["coords"], exact, shots, payload["standard_errors"]
            )
        return problems

    def _project(self, text, target):
        payload = oracles.strict_json(text)
        return oracles.check_projection(
            target, payload["params"], payload["point"]["coords"],
            payload["squared_distance"], payload["distance"],
        )

    def _test_point(self, text):
        payload = oracles.strict_json(text)
        problems = []
        distance = float(np.linalg.norm(self.honest - self.intercepted))
        if abs(payload["report"]["distance"] - distance) > oracles.STATE_TOL:
            problems.append("separability distance differs from the oracle")
        observed = payload["projection_distance_observed"]
        expected = payload["projection_distance_expected"]
        for value, target in ((observed, self.intercepted), (expected, self.honest)):
            if value > math.sqrt(oracles.grid_projection(target)) + oracles.STATE_TOL:
                problems.append("a projection distance is worse than the grid oracle")
        if abs(payload["normalized_score"] - observed / expected) > oracles.STATE_TOL:
            problems.append("normalized score is not the ratio of the projection distances")
        return problems

    def _test_samples(self, text):
        payload = oracles.strict_json(text)
        expected, observed = self.samples["expected.csv"], self.samples["observed.csv"]
        blocks = payload["per_coordinate"]
        problems = []
        if payload["columns"] != expected.shape[1] or len(blocks) != expected.shape[1]:
            return ["samples test does not report every column"]
        p_values = [v for b in blocks for v in (b["t_p_value"], b["ks_p_value"])]
        p_values += list((payload["distance_statistic"] or {}).values())
        if not all(0.0 <= v <= 1.0 for v in p_values) or payload["min_p_value"] != min(p_values):
            problems.append("p-values outside [0, 1] or min_p_value wrong")
        if payload["reject_any"] != (min(p_values) < self.alpha):
            problems.append("reject_any disagrees with min_p_value")
        for k, block in enumerate(blocks):
            # With ~4000 degrees of freedom Welch's t is normal to well within 0.005.
            x, y = expected[:, k], observed[:, k]
            t = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
            if abs(block["t_p_value"] - math.erfc(abs(t) / math.sqrt(2.0))) > 5e-3:
                problems.append(f"t-test p-value of column {k} is off")
                break
        return problems

    def _bound(self, text):
        payload = oracles.strict_json(text)
        bell, sigma = oracles.bell_state(), self.random_state
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        problems = []
        if payload["behaviour"]["holds"] is not True or payload["fidelity_bounds_hold"] is not True:
            problems.append("norm chain or fidelity bounds do not hold")
        if abs(payload["trace_distance"] - oracles.trace_distance(bell, sigma)) > oracles.STATE_TOL:
            problems.append("trace distance differs from the oracle")
        # The square root of a rank-1 state turns eigenvalue round-off into
        # errors of order sqrt(machine epsilon), so fidelity gets a wider tolerance.
        if abs(payload["fidelity"] - float(np.real(phi @ sigma @ phi))) > oracles.ROOT_TOL:
            problems.append("fidelity differs from <phi|sigma|phi>")
        return problems


LIBRARY = {w.name: w for w in (PolytopeScan, StateAudit, VerdictStream)}
