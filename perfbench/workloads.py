"""The benchmark's four workloads.

Each workload makes its inputs from the seed, lays out a fixed plan of
units, and checks every output. A unit is one call into qbc (a
`qbc.cli.main` call, a protocol run or a regression demo); it yields
one op, or one op per trial for `qbc run`. A raised exception or a
failed check marks an op as failed and the run carries on.

Each unit makes its call inside `with window():`, where `window` is
supplied by the worker: it times the call (the duration is then
`window.last`) and, in the traced run, switches span recording on. The
checks run outside it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import qbc
import qbc.cli
import qbc.experiment

LAW_TV = 1e-10  # exact law vs phase_estimation_distribution
DEFAULT_SEED = 0  # the seed whose CLI outputs have recorded digests
DIGESTS = Path(__file__).with_name("digests.json")

RUNNERS = {
    "baseline": "run_qbc_baseline",
    "blind-server": "run_blind_server",
    "blind-client": "run_blind_client",
}


@dataclass
class OpResult:
    seconds: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def tv(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def bitstring(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def scrub_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "elapsed_s" not in line)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks shared by the workloads ------------------------------------------


def check_ledger(run, num_clients: int = 1, sampled: bool = True):
    """The run's ledger equals the closed form exactly. An exact-law
    run measures nothing, so it sends no readout bits."""
    want = qbc.expected_ledger(run.variant, run.index_width, run.t, num_clients=num_clients)
    if not sampled and run.variant in ("baseline", "blind-server"):
        want.classical_bits_sent -= run.t
    require(run.ledger.as_dict() == want.as_dict(),
            f"{run.variant} ledger {run.ledger.as_dict()} != closed form {want.as_dict()}")


def reported_estimate(j: int, t: int, index_width: int, num_values: int) -> float:
    return math.sin(math.pi * j / (1 << t)) ** 2 * ((1 << index_width) / num_values)


def check_estimate(run):
    want = reported_estimate(run.result.j, run.t, run.index_width, run.num_values)
    require(math.isclose(run.estimate, want, rel_tol=1e-12, abs_tol=1e-15),
            f"estimate {run.estimate!r} != sin^2(pi j/2^t) * scale = {want!r}")


def marked_count(run, x, y) -> int:
    """Marked values the server's readout counts: the padded count for
    blind-server, the product count otherwise."""
    count = int(np.sum(np.asarray(x) & np.asarray(y)))
    if run.variant == "blind-server":
        count += int(np.sum(run.pads["g"]))
    return count


def check_law(run, x, y):
    law = run.distribution
    require(law is not None and law.shape == (1 << run.t,), "missing readout law")
    ref = qbc.phase_estimation_distribution(marked_count(run, x, y), 1 << run.index_width, run.t)
    gap = tv(law, ref)
    require(gap <= LAW_TV, f"{run.variant} law is {gap:.3e} TV from the exact law")


class CliCall:
    """One `qbc.cli.main` call with stdout captured."""

    def __init__(self, argv):
        self.argv = argv
        self.code = None
        self.out = ""

    def run(self, window):
        buf = io.StringIO()
        try:
            with window(), contextlib.redirect_stdout(buf):
                self.code = qbc.cli.main(self.argv)
        finally:
            self.out = buf.getvalue()


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    stream = 0
    nominal_cycle_s = 1.0  # one plan cycle on the reference machine

    def __init__(self, seed: int, workdir: Path, cycles: int):
        self.seed = seed
        self.workdir = Path(workdir)
        self.cycles = cycles
        self.rng = seeded_rng(seed, self.stream)

    def check_digests(self, parts: dict[str, str]):
        """At the default seed, each output part (key -> text) must
        match its digest in digests.json; a missing digest fails too."""
        if self.seed != DEFAULT_SEED:
            return
        recorded = json.loads(DIGESTS.read_text())
        for key, text in parts.items():
            key = f"{self.name}:{key}"
            require(key in recorded, f"no recorded digest for {key}")
            require(sha256(text) == recorded[key], f"{key} differs from its recorded digest")

    def setup(self):
        """Make the inputs and write the input files."""

    def units(self):
        """The plan: a list of callables unit(window) -> list[OpResult]."""
        raise NotImplementedError

    def write_rows(self, name: str, rows) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text("".join(bitstring(r) + "\n" for r in rows))
        return path.as_posix()


class TrialsN64(Workload):
    """Rounds of four `qbc run` calls, one per variant, on fixed input
    files, each call with TRIALS_PER_CALL trials; an op is one trial,
    timed by wrapping qbc.experiment.run_protocol. Repeating short
    rounds, rather than making one long call per variant, spreads the
    slow variants over the whole run, so a slow spell of the machine
    does not fall on one variant alone.

    Trial i of `qbc run` draws from its own stream, so its record does
    not depend on --trials. The output is digested per part: the config
    without `trials`, and each record without `elapsed_s`. Together with
    the check that the output is the canonical JSON layout of its
    content, this pins the output bytes for any trial count."""

    name = "trials-n64"
    stream = 1
    num_values, t = 64, 6
    nominal_cycle_s = 3.4  # one trial of each variant
    TRIALS_PER_CALL = 2  # repeated trials on unchanged inputs, as a law cache would see them

    def setup(self):
        x, y, y2 = (qbc.random_bits(self.num_values, self.rng) for _ in range(3))
        self.files = {
            "x": self.write_rows("x.txt", [x]),
            "y": self.write_rows("y.txt", [y]),
            "ys": self.write_rows("ys.txt", [y, y2]),
        }

    def units(self):
        units = []
        for done in range(0, self.cycles, self.TRIALS_PER_CALL):
            count = min(self.TRIALS_PER_CALL, self.cycles - done)
            units += [self._unit(variant, count) for variant in qbc.VARIANTS]
        return units

    def _unit(self, variant, count):
        argv = ["run", "--protocol", variant, "--n", str(self.num_values), "--t", str(self.t),
                "--x-file", self.files["x"],
                "--y-file", self.files["ys" if variant == "multiparty" else "y"],
                "--trials", str(count), "--seed", str(self.seed)]
        if variant == "multiparty":
            argv += ["--m", "2"]
        call = CliCall(argv)

        def unit(window):
            trials = []
            original = qbc.experiment.run_protocol

            def timed(cfg, x, ys, rng):
                start = perf_counter()
                run = original(cfg, x, ys, rng)
                trials.append((perf_counter() - start, cfg, run))
                return run

            qbc.experiment.run_protocol = timed
            try:
                call.run(window)
            except Exception as exc:  # noqa: BLE001 - failed ops, reported
                return self._failed(trials, count, repr(exc))
            finally:
                qbc.experiment.run_protocol = original
            return self._check(call, trials, count)

        return unit

    @staticmethod
    def digest_parts(argv, payload) -> dict[str, str]:
        i = argv.index("--trials")
        base = " ".join(argv[:i] + argv[i + 2:])
        config = {k: v for k, v in payload["config"].items() if k != "trials"}
        parts = {f"{base} config": json.dumps(config, sort_keys=True)}
        for n, rec in enumerate(payload["records"]):
            rec = {k: v for k, v in rec.items() if k != "elapsed_s"}
            parts[f"{base} trial {n}"] = json.dumps(rec, sort_keys=True)
        return parts

    @staticmethod
    def _failed(trials, count, error):
        """Every trial of a call fails; trials that never ran have no time."""
        missing = count - len(trials)
        return [OpResult(s, error) for s, _, _ in trials] + [OpResult(math.nan, error)] * missing

    def _check(self, call, trials, count):
        try:
            require(call.code == 0, f"qbc run exited {call.code}")
            payload = json.loads(call.out)
            records = payload["records"]
            require(len(records) == len(trials) == count,
                    f"{len(records)} records for {count} trials")
            require(call.out == json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    "qbc run output is not the canonical JSON layout")
            self.check_digests(self.digest_parts(call.argv, payload))
        except Exception as exc:  # noqa: BLE001 - failed ops, reported
            return self._failed(trials, count, repr(exc))
        results = []
        for (seconds, cfg, run), rec in zip(trials, records):
            try:
                check_ledger(run, cfg.num_clients)
                check_estimate(run)
                require(rec["ledger"] == run.ledger.as_dict(), "record ledger differs from the run")
                require(rec["outcome_j"] == run.result.j and rec["estimate"] == run.estimate,
                        "record differs from the run")
                results.append(OpResult(seconds))
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                results.append(OpResult(seconds, repr(exc)))
        return results


class ExactLaws(Workload):
    """Exact readout laws at N=32, t=7; every op has fresh inputs."""

    name = "exact-laws"
    stream = 2
    num_values, t = 32, 7
    variants = ("baseline", "blind-server", "blind-client")
    nominal_cycle_s = 5.0

    def setup(self):
        self.instances = []
        for i in range(self.cycles * len(self.variants)):
            x = qbc.random_bits(self.num_values, self.rng)
            y = qbc.random_bits(self.num_values, self.rng)
            variant = self.variants[i % len(self.variants)]
            self.instances.append((variant, x, y, seeded_rng(self.seed, self.stream, i)))

    def units(self):
        return [self._unit(*inst) for inst in self.instances]

    def _unit(self, variant, x, y, rng):
        def unit(window):
            run_fn = getattr(qbc, RUNNERS[variant])
            try:
                with window():
                    run = run_fn(x, y, self.t, rng=rng, return_distribution=True)
                check_ledger(run, sampled=False)
                check_law(run, x, y)
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                return [OpResult(window.last, repr(exc))]
            return [OpResult(window.last)]

        return unit


class RegressionSmall(Workload):
    """bitplane.regression_demo seeds at criterion 14's shape (N=8,
    K=6 planes, t=7), alternating baseline and blind-client."""

    name = "regression-small"
    stream = 3
    num_values, planes, t = 8, 6, 7
    variants = ("baseline", "blind-client")
    nominal_cycle_s = 4.5

    def setup(self):
        scale = 1 << self.planes
        self.instances = []
        for i in range(self.cycles * len(self.variants)):
            column = self.rng.integers(0, scale, size=self.num_values) / scale
            y = qbc.random_bits(self.num_values, self.rng)
            variant = self.variants[i % len(self.variants)]
            self.instances.append((variant, column, y, seeded_rng(self.seed, self.stream, i)))

    def units(self):
        return [self._unit(*inst) for inst in self.instances]

    def _unit(self, variant, column, y, rng):
        def unit(window):
            runs = []
            names = ("run_qbc_baseline", "run_blind_client")
            originals = {n: getattr(qbc.bitplane, n) for n in names}
            for n, fn in originals.items():
                setattr(qbc.bitplane, n, _capturing(fn, runs))
            try:
                with window():
                    res = qbc.regression_demo(column, y, self.t, self.planes, variant, rng)
                self._check(res, runs, column, y)
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                return [OpResult(window.last, repr(exc))]
            finally:
                for n, fn in originals.items():
                    setattr(qbc.bitplane, n, fn)
            return [OpResult(window.last)]

        return unit

    def _check(self, res, runs, column, y):
        planes = [qbc.decompose_bitplanes(v, res.u, self.planes).planes for v in column]
        nonzero = [k for k in range(self.planes) if any(p[k] for p in planes)]
        require(res.num_executions == len(runs) == len(nonzero),
                f"{res.num_executions} executions for {len(nonzero)} nonzero planes")
        value = 0.0
        for k, run in zip(nonzero, runs):
            check_ledger(run)
            check_estimate(run)
            require(res.plane_estimates[k] == run.estimate, "plane estimate differs from its run")
            value += 2.0 ** (res.u - k) * self.num_values * run.estimate
        require(math.isclose(res.value, value, rel_tol=1e-12, abs_tol=1e-12),
                f"regression value {res.value!r} != plane sum {value!r}")
        require(res.truth == float(np.dot(column, y)), "regression truth is not x . y")


def _capturing(fn, runs):
    def wrapper(*args, **kwargs):
        run = fn(*args, **kwargs)
        runs.append(run)
        return run

    return wrapper


class PrivacyMC(Workload):
    """Adversary Monte Carlo through the CLI: plus-probe and
    blind-server-worst attacks at N=128, t=7, and the overlap table."""

    name = "privacy-mc"
    stream = 4
    num_values, t, trials = 128, 7, 100_000
    nominal_cycle_s = 0.8

    def setup(self):
        self.y = qbc.random_bits(self.num_values, self.rng)
        self.y_file = self.write_rows("y.txt", [self.y])

    def units(self):
        return [self._unit(i) for i in range(3 * self.cycles)]

    def _unit(self, i):
        seed = str(self.seed)
        kind = i % 3
        if kind == 2:
            argv = ["privacy", "--kind", "overlap", "--seed", seed]
        else:
            strategy = ("plus-probe", "blind-server-worst")[kind]
            argv = ["attack", "--strategy", strategy, "--n", str(self.num_values),
                    "--t", str(self.t), "--trials", str(self.trials), "--seed", seed,
                    "--y-file", self.y_file]
        call = CliCall(argv)

        def unit(window):
            try:
                call.run(window)
                require(call.code == 0, f"qbc {argv[0]} exited {call.code}")
                if kind == 2:
                    self._check_overlap_table(call.out)
                else:
                    self._check_attack(json.loads(call.out), argv[2])
                self.check_digests({" ".join(argv): scrub_timing(call.out)})
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                return [OpResult(window.last, repr(exc))]
            return [OpResult(window.last)]

        return unit

    def _check_attack(self, report, strategy):
        truth = bitstring(self.y)
        require(report["truth"] == truth, "attack report names the wrong truth")
        require(report["strategy"] == strategy, "attack report names the wrong strategy")
        guessed = report["guessed"]
        require(len(guessed) == len(truth), "guess has the wrong length")
        known = [i for i, c in enumerate(guessed) if c != "?"]
        require(report["known_positions"] == len(known), "known_positions miscounted")
        # plus-probe reads exact bits; blind-server-worst only certifies zeros
        allowed = "01" if strategy == "plus-probe" else "0"
        require(all(guessed[i] in allowed and guessed[i] == truth[i] for i in known),
                "attack claims a bit it cannot know")
        require(report["hamming_to_truth"] == 0, "attack reports a wrong known bit")
        for key in ("distance_pmf", "mc_pmf"):
            total = math.fsum(report[key].values())
            require(abs(total - 1.0) <= 1e-9, f"{key} sums to {total!r}")
        require(report["trials"] == self.trials, "attack ran the wrong number of trials")

    def _check_overlap_table(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        want = sum(d + 1 for _, d, _ in qbc.cli.OVERLAP_GRID)
        require(len(rows) == want, f"overlap table has {len(rows)} rows, expected {want}")
        for num, d_y, t in qbc.cli.OVERLAP_GRID:
            pmf = qbc.overlap_pmf(num, d_y, t)
            group = [r for r in rows if (int(r["N"]), int(r["d"]), int(r["t"])) == (num, d_y, t)]
            require(len(group) == d_y + 1, f"row group {num},{d_y},{t} is incomplete")
            require(abs(math.fsum(float(r["mc"]) for r in group) - 1.0) <= 1e-8,
                    f"Monte Carlo column of {num},{d_y},{t} does not sum to 1")
            for r in group:
                require(abs(float(r["formula"]) - pmf[int(r["d0"])]) <= 1e-10,
                        "formula column differs from overlap_pmf")
                require(abs(float(r["z_score"])) <= 6.0, f"z-score {r['z_score']} beyond 6")


WORKLOADS = {w.name: w for w in (TrialsN64, ExactLaws, RegressionSmall, PrivacyMC)}
