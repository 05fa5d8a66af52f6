"""The benchmark's three workloads, as lists of checked operations.

A workload round is a fixed list of operations whose inputs come from the
seed.  Each operation runs the program, and its output is compared with a
computation from ``reference`` (or with the published tables and values).
An operation fails when it raises, exits non-zero or prints a wrong
answer.  Two cli-session operations are known to fail (the disk cache
trusts what it loads); any other failure makes the run incorrect.

Every operation is timed against the calibration kernel (``speedometer``),
so that its time can be reported in units of the kernel's duration.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference
from speedometer import Speedometer
from tracer import merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# -- operations -------------------------------------------------------------


@dataclass
class Op:
    """One timed call of the program and the check of its output.

    ``check`` returns None when the output is right, else a message.  A
    ``self_timed`` op runs the program in another interpreter and returns
    ((busy seconds, ref), output), timed there.  ``known_fault`` names the
    program fault that makes this op fail today.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: str | None = None
    self_timed: bool = False


@dataclass
class RoundResult:
    op_names: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    op_ref: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def run_ops(ops: list[Op]) -> RoundResult:
    """Run every op once, each timed in calibration-kernel units."""
    result = RoundResult()
    meter = Speedometer()
    if not all(op.self_timed for op in ops):
        meter.start()
    try:
        for op in ops:
            error = None
            if not op.self_timed:
                meter.sample()
            before = len(meter.durations)
            start = perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an operation that raises has failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            if op.self_timed:
                (busy, ref), output = output if error is None else ((end - start, 0.0), None)
            else:
                meter.sample()
                busy, ref = meter.measure(start, end, before)
            if error is None:
                try:
                    error = op.check(output)
                except Exception as exc:  # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            result.op_names.append(op.name)
            result.op_seconds.append(busy)
            result.op_ref.append(ref)
            if error is not None:
                result.failures.append(
                    {"op": op.name, "error": error[:500], "known_fault": op.known_fault}
                )
    finally:
        meter.stop()
    return result


def expect_equal(expected, what="value"):
    """Check for equality with ``expected``, or with ``expected()`` if callable.

    Reference values are computed when the check runs, not while the
    inputs are generated, so that they stay out of the set-up time.
    """

    def check(actual):
        value = expected() if callable(expected) else expected
        if actual != value:
            return f"{what} {_short(actual)} != expected {_short(value)}"
        return None

    return check


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


# -- matroid-enum -----------------------------------------------------------

RESTRICTIONS = {"full": (12, 14, 3), "tiny": (10, 8, 1)}  # base weight, size, count
ENUM_WEIGHTS = {"full": (8, 10, 12), "tiny": (8, 10)}
NAMED_WEIGHTS = {"full": (14, 16), "tiny": (14,)}
TUTTE_WEIGHTS = (10,)


class DependentSets:
    """Dependent r-subsets of each weight's matroid, as bitmasks over its labels."""

    def __init__(self):
        self._sets: dict[int, frozenset[int]] = {}

    def get(self, k: int, matroid) -> frozenset[int]:
        if k not in self._sets:
            if k == 12:
                self._sets[k] = reference.load_w12_dependent()
            else:
                r = reference.qm_dimension(k)
                self._sets[k] = frozenset(reference.dependent_subsets(matroid.columns, r))
        return self._sets[k]


def matroid_enum_ops(seed: int, size: str) -> list[Op]:
    from descmat import descendent_matrix, named_restriction

    rng = random.Random(seed)
    built: dict = {}
    dependent = DependentSets()
    ops: list[Op] = []

    def check_listing(k, keep_mask, count_fn):
        r = reference.qm_dimension(k)
        index = {lab: i for i, lab in enumerate(reference.ground_labels(k))}

        def check(bases):
            dep = dependent.get(k, built[k])
            seen = set()
            for basis in bases:
                mask = sum(1 << index[label] for label in basis)
                if len(basis) != r or bin(mask).count("1") != r:
                    return f"a listed basis is not a {r}-subset"
                if mask in seen:
                    return "a basis is listed twice"
                if mask & keep_mask != mask:
                    return "a listed basis leaves the ground set"
                if mask in dep:
                    return "a listed basis is dependent"
                seen.add(mask)
            expected = count_fn()
            if len(seen) != expected:
                return f"{len(seen)} bases listed, expected {expected}"
            return None

        return check

    for k in ENUM_WEIGHTS[size]:
        full_mask = (1 << len(reference.ground_labels(k))) - 1
        labels = tuple(reference.ground_labels(k))
        dim = reference.qm_dimension(k)

        def build(k=k):
            built[k] = descendent_matrix(k)
            return built[k]

        def check_build(m, labels=labels, dim=dim):
            if m.labels != labels or m.nrows != dim:
                return "matrix has the wrong ground set or row count"
            return None

        def check_count(count, k=k):
            published = reference.PUBLISHED_BASES[k]
            r = reference.qm_dimension(k)
            independent = comb(len(reference.ground_labels(k)), r) - len(dependent.get(k, built[k]))
            if count != published or independent != published:
                return f"{count} bases (reference {independent}), published {published}"
            return None

        ops += [
            Op(f"w{k}.build", build, check_build),
            Op(f"w{k}.count", lambda k=k: built[k].bases_count(), check_count),
            Op(
                f"w{k}.bases",
                lambda k=k: list(built[k].bases()),
                check_listing(k, full_mask, lambda k=k: reference.PUBLISHED_BASES[k]),
            ),
        ]
        if k in TUTTE_WEIGHTS:
            n = len(labels)

            def check_tutte(t, k=k, n=n):
                at = lambda x, y: sum(c * x**i * y**j for (i, j), c in t.coeffs.items())  # noqa: E731
                if at(1, 1) != reference.PUBLISHED_BASES[k] or at(2, 2) != 2**n:
                    return f"T(1,1) = {at(1, 1)}, T(2,2) = {at(2, 2)}"
                return None

            ops.append(Op(f"w{k}.tutte", lambda k=k: built[k].tutte(), check_tutte))

    base_k, n_keep, n_restrictions = RESTRICTIONS[size]
    base_labels = reference.ground_labels(base_k)
    r = reference.qm_dimension(base_k)
    for i in range(n_restrictions):
        keep = sorted(rng.sample(range(len(base_labels)), n_keep))
        keep_mask = sum(1 << j for j in keep)
        keep_labels = tuple(base_labels[j] for j in keep)
        name = f"r{i}"

        def expected_count(keep_mask=keep_mask):
            return reference.restricted_bases_count(dependent.get(base_k, built[base_k]), keep_mask, r)

        def restrict(keep_labels=keep_labels, name=name):
            built[name] = built[base_k].restrict(keep_labels)
            return built[name]

        def check_restrict(m, keep_labels=keep_labels):
            return None if m.labels == keep_labels else "restriction has the wrong ground set"

        def check_uniform(value, expected_count=expected_count):
            expected = (r, n_keep) if expected_count() == comb(n_keep, r) else None
            return None if value == expected else f"is_uniform {value}, expected {expected}"

        ops += [
            Op(f"{name}.restrict", restrict, check_restrict),
            Op(
                f"{name}.count",
                lambda name=name: built[name].bases_count(),
                expect_equal(expected_count, "count"),
            ),
            Op(f"{name}.uniform", lambda name=name: built[name].is_uniform(), check_uniform),
            Op(
                f"{name}.bases",
                lambda name=name: list(built[name].bases()),
                check_listing(base_k, keep_mask, expected_count),
            ),
        ]

    for k in NAMED_WEIGHTS[size]:
        dim, n = reference.qm_dimension(k), reference.NAMED_RESTRICTION_SIZES[k]
        name = f"w{k}.named"

        def named(k=k, name=name):
            built[name] = named_restriction(k)
            return built[name]

        def check_named(m, dim=dim, n=n):
            return None if (m.nrows, len(m.labels)) == (dim, n) else "wrong restriction shape"

        ops += [
            Op(name, named, check_named),
            Op(f"w{k}.uniform", lambda name=name: built[name].is_uniform(), expect_equal((dim, n), "is_uniform")),
            Op(
                f"w{k}.tutte",
                lambda name=name: built[name].tutte(),
                lambda t, dim=dim, n=n: expect_equal(reference.uniform_tutte(dim, n), "Tutte")(t.coeffs),
            ),
        ]
    return ops


# -- tau-deep ---------------------------------------------------------------

TAU_WINDOW = {"full": tuple(range(25, 33)), "tiny": (25,)}


def load_golden():
    """The paper's tables from tests/golden_delta_tables.py, loaded by path."""
    path = ROOT / "tests" / "golden_delta_tables.py"
    spec = importlib.util.spec_from_file_location("golden_delta_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positive_keys() -> list[tuple[str, tuple[int, ...]]]:
    ground = reference.ground_labels(12, positive=True)
    return [
        ("(" + "".join(str(i) for i in idxs) + ")", idxs)
        for idxs in combinations(range(1, len(ground) + 1), reference.qm_dimension(12))
    ]


def check_linear_row(golden, key, scale, coefficients) -> str | None:
    """Compare one decomposition with the published row, skipping misprints."""
    printed_scale, printed = golden.LINEAR_ROWS[key]
    if scale != printed_scale:
        return f"{key}: scale {scale} != published {printed_scale}"
    indices = [int(ch) for ch in key.strip("()")]
    for index, coeff in zip(indices, coefficients):
        if (key, index) in golden.KNOWN_MISPRINTS:
            continue
        if Fraction(coeff) * scale != printed.get(index, 0):
            return f"{key}: coefficient {index} is {coeff}, published {printed.get(index, 0)}/{scale}"
    return None


def tau_deep_ops(seed: int, size: str, golden) -> list[Op]:
    from descmat import all_positive_decompositions, tau_pentagonal

    order = list(range(36))
    random.Random(seed).shuffle(order)
    state: dict = {}

    def solve():
        state["rows"] = all_positive_decompositions(12)
        return state["rows"]

    def check_solve(rows):
        if [key for key, _ in rows] != [key for key, _ in positive_keys()]:
            return "decomposition keys differ from the 36 positive bases"
        for key, dec in rows:
            error = check_linear_row(golden, key, dec.scale, dec.coefficients)
            if error:
                return error
        return None

    def tau_values(d):
        rows = state["rows"]
        return [tau_pentagonal(d, rows[i][1]) for i in order]

    def check_tau(values, d):
        expected = reference.tau(d)
        bad = [v for v in values if v != expected]
        return f"tau({d}) gave {bad[:3]}, expected {expected}" if bad else None

    ops = [Op("solve", solve, check_solve)]
    for d in TAU_WINDOW[size]:
        ops.append(Op(f"tau.d{d}", lambda d=d: tau_values(d), lambda v, d=d: check_tau(v, d)))
    return ops


# -- cli-session ------------------------------------------------------------


@dataclass
class CliOutput:
    rc: int
    stdout: bytes
    stderr: bytes
    new_files: list[str]


class CliSession:
    """Runs descmat commands one at a time, each in a fresh interpreter."""

    def __init__(self, out_dir: Path, trace: bool):
        self.out_dir = out_dir
        self.cache_dir = out_dir / "cache"
        self.trace = trace
        self.outputs: dict[str, bytes] = {}
        self.entries: dict[str, list[str]] = {}
        self.max_rss_kb = 0
        self.layers: dict[str, float] = {}
        self.count = 0

    def _snapshot(self) -> dict[str, tuple]:
        if not self.cache_dir.exists():
            return {}
        out = {}
        for entry in os.scandir(self.cache_dir):
            st = entry.stat()
            out[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
        return out

    def run(self, argv: list[str]) -> tuple[tuple[float, float], CliOutput]:
        self.count += 1
        result_path = self.out_dir / f"cmd{self.count:02d}.json"
        before = self._snapshot()
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "cli_command.py"),
                str(result_path),
                "1" if self.trace else "0",
                str(self.cache_dir),
                "--",
                *argv,
            ],
            capture_output=True,
            timeout=170,
            cwd=ROOT,
        )
        after = self._snapshot()
        new_files = sorted(name for name, st in after.items() if before.get(name) != st)
        info = json.loads(result_path.read_text())
        result_path.unlink()
        if Path(info["descmat_file"]).resolve().parent.parent != (ROOT / "src").resolve():
            raise RuntimeError(f"command imported descmat from {info['descmat_file']}")
        self.max_rss_kb = max(self.max_rss_kb, info["maxrss_kb"])
        if self.trace:
            merge(self.layers, info["layers"])
            merge(self.layers, {
                "cli.cache_writes": len(new_files),
                "cli.cache_write_bytes": sum(after[name][2] for name in new_files),
            })
        out = CliOutput(info["rc"], proc.stdout, proc.stderr, new_files)
        return (info["busy_s"], info["ref"]), out

    def op(self, name, argv, check, *, cached=False, remember=None, before=None, known_fault=None):
        """An op running ``descmat ARGV`` (with the session cache if ``cached``)."""
        args = list(argv) + (["--cache-dir", str(self.cache_dir)] if cached else [])

        def run():
            if before is not None:
                before()
            elapsed, out = self.run(args)
            if remember is not None:
                self.outputs[remember] = out.stdout
                self.entries[remember] = out.new_files
            return elapsed, out

        def checked(out: CliOutput):
            if out.rc != 0:
                err = out.stderr.decode(errors="replace").strip().splitlines()
                return f"exit {out.rc}: {err[-1] if err else ''}"
            return check(out.stdout)

        return Op(name, run, checked, known_fault=known_fault, self_timed=True)

    def same_as(self, key):
        """Check: the same bytes as the earlier command remembered under ``key``."""

        def check(stdout):
            if key not in self.outputs:
                return f"no earlier output for {key}"
            return None if stdout == self.outputs[key] else f"output differs from the uncached {key}"

        return check

    def alter_entry(self, key):
        """Change one stored coefficient of the cache entry ``key`` wrote."""

        def damage():
            for name in self.entries.get(key, []):
                path = self.cache_dir / name
                text = path.read_text()
                try:
                    payload = json.loads(text)
                    payload["columns"][0][0] = "999"
                    path.write_text(json.dumps(payload))
                except (ValueError, KeyError, IndexError, TypeError):
                    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
                    path.write_text(text[:digit] + ("8" if text[digit] == "9" else "9") + text[digit + 1 :])

        return damage

    def truncate_entry(self, key):
        """Cut the cache entry ``key`` wrote to half its length."""

        def damage():
            for name in self.entries.get(key, []):
                path = self.cache_dir / name
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])

        return damage


PUBLISHED_EVALUATE = b"166577809/11059200\n"
PUBLISHED_TUTTE_8 = b"x^4 + 3*x^3 + y^3 + 6*x^2 + x*y + 4*y^2 + 9*x + 9*y\n"
PUBLISHED_GROUND_8 = b"[[6], [4, 0], [3, 1], [2, 2], [2, 0, 0], [1, 1, 0], [0, 0, 0, 0]]\n"
CLI_SIZES = {
    # max weight of conjecture-check, the weight whose cache entry is truncated
    "full": {"max_weight": 18, "truncated": 16, "delta": True},
    "tiny": {"max_weight": 10, "truncated": 10, "delta": False},
}


def _label_arg(label) -> str:
    return ",".join(str(k) for k in label)


def _label_list(labels) -> bytes:
    return ("[" + ", ".join("[" + ", ".join(str(k) for k in lab) + "]" for lab in labels) + "]\n").encode()


def _text(value) -> bytes:
    return f"{value}\n".encode()


def cli_session_ops(seed: int, size: str, golden, out_dir: Path, trace: bool) -> tuple[CliSession, list[Op]]:
    conf = CLI_SIZES[size]
    rng = random.Random(seed)
    session = CliSession(out_dir, trace)
    op = session.op

    k_label = rng.choice((4, 6, 8, 10))
    label = rng.choice(reference.ground_labels(k_label))
    degree = rng.randint(4, 9)
    series_order = reference.qm_dimension(k_label) + 5
    ground_weight = rng.choice(range(6, 17, 2))
    keys = positive_keys()
    delta_key, delta_idxs = rng.choice(keys)
    triple = rng.randint(1, 8)
    d_pentagonal = rng.randint(1, 24)
    d_niebur = rng.randint(100, 200)
    d_direct = rng.randint(100, 110)
    max_d = rng.randint(70, 80)
    max_w = conf["max_weight"]
    rank_weight = rng.choice(range(4, max_w + 1, 2))
    tw = conf["truncated"]

    def check_evaluate(stdout):
        return expect_equal(_text(_frac(reference.gw_invariant(label, degree))), "evaluate")(stdout)

    def check_expand(stdout):
        payload = json.loads(stdout)
        coeffs = [Fraction(c) for c in payload["coeffs"]]
        expected = reference.bracket_series(label, series_order)
        return None if coeffs == expected else "expand differs from the reference series"

    def check_eisenstein(stdout):
        total = [Fraction(0)] * (series_order + 1)
        for term in json.loads(stdout):
            mono = reference.monomial_series(tuple(term["monomial"]), series_order)
            c = Fraction(term["coeff"])
            total = [t + c * m for t, m in zip(total, mono)]
        expected = reference.bracket_series(label, series_order)
        return None if total == expected else "Eisenstein coordinates do not rebuild the series"

    def check_matrix_8(stdout):
        rows = [
            [Fraction(cell) for cell in line.strip()[1:-1].split()]
            for line in stdout.decode().splitlines()
        ]
        exps = reference.monomials(8)
        order = reference.qm_dimension(8) + 5
        monos = [reference.monomial_series(e, order) for e in exps]
        for j, lab in enumerate(reference.ground_labels(8)):
            column = [rows[i][j] for i in range(len(exps))]
            rebuilt = [sum(c * m[n] for c, m in zip(column, monos)) for n in range(order + 1)]
            if rebuilt != reference.bracket_series(lab, order):
                return f"column {j} ({lab}) does not rebuild its series"
        return None

    def check_delta(stdout):
        lines = stdout.decode().splitlines()
        key, _, scale = lines[0].split()
        coefficients = [Fraction(line.rsplit(": ", 1)[1]) for line in lines[1:]]
        if key != delta_key or len(coefficients) != 7:
            return f"delta printed {lines[0]!r} for {delta_key}"
        return check_linear_row(golden, key, int(scale), coefficients)

    def check_delta_all(stdout):
        lines = stdout.decode().splitlines()
        if [line.split()[0] for line in lines] != [key for key, _ in keys]:
            return "delta-all keys differ from the 36 positive bases"
        for line in lines:
            key, scale, coeffs = line.split()
            s = int(scale.removeprefix("scale="))
            values = [Fraction(int(c), s) for c in coeffs.removeprefix("coeffs=").split(",")]
            error = check_linear_row(golden, key, s, values)
            if error:
                return error
        return None

    def check_delta_poly(stdout):
        payload = json.loads(stdout)
        terms = {tuple(t["exponents"]): Fraction(t["coeff"]) for t in payload["terms"]}
        expected = {e: Fraction(c) for e, c in golden.POLY_ROWS[triple].items()}
        return None if terms == expected else f"delta-poly type {triple} differs from the table"

    def check_tau_check(stdout):
        lines = stdout.decode().splitlines()
        if lines[-1] != f"all checks passed for d <= {max_d}" or not all(": OK (" in x for x in lines[:-1]):
            return f"tau-check reported {lines[-1]!r}"
        return None

    def check_conjecture(stdout):
        expected = [
            f"weight {k}: rank {reference.qm_dimension(k)} == dim {reference.qm_dimension(k)}"
            for k in range(4, max_w + 1, 2)
        ]
        expected += [
            f"weight {k} restriction: uniform U({reference.qm_dimension(k)}, {n})"
            for k, n in reference.NAMED_RESTRICTION_SIZES.items()
            if k <= max_w
        ]
        expected.append("all conjecture checks passed")
        return expect_equal(expected, "conjecture-check")(stdout.decode().splitlines())

    ops = [
        op("evaluate.published", ["evaluate", "--insertions", "2,2", "--degree", "3"], expect_equal(PUBLISHED_EVALUATE)),
        op("evaluate", ["evaluate", "--insertions", _label_arg(label), "--degree", str(degree)], check_evaluate),
        op("expand", ["expand", "--insertions", _label_arg(label), "--format", "json"], check_expand),
        op("eisenstein", ["eisenstein", "--insertions", _label_arg(label), "--format", "json"], check_eisenstein),
        op(
            "groundset",
            ["matroid", "groundset", "--weight", str(ground_weight)],
            expect_equal(lambda: _label_list(reference.ground_labels(ground_weight))),
        ),
        op("groundset.published", ["matroid", "groundset", "--weight", "8"], expect_equal(PUBLISHED_GROUND_8)),
        op("matrix8", ["matroid", "matrix", "--weight", "8"], check_matrix_8, cached=True, remember="matrix8"),
        op("tutte8.cached", ["matroid", "tutte", "--weight", "8"], expect_equal(PUBLISHED_TUTTE_8), cached=True),
        op("count8.cached", ["matroid", "count", "--weight", "8"], expect_equal(b"34\n"), cached=True),
        op(
            "count12.positive",
            ["matroid", "count", "--weight", "12", "--positive"],
            expect_equal(_text(comb(9, 7))),
        ),
        op(
            f"rank{tw}",
            ["matroid", "rank", "--weight", str(tw)],
            expect_equal(lambda: _text(reference.qm_dimension(tw))),
            cached=True,
            remember=f"rank{tw}",
        ),
    ]
    if conf["delta"]:
        ops += [
            op(
                "delta",
                ["delta", "--weight", "12", "--basis", ",".join(map(str, delta_idxs)), "--positive"],
                check_delta,
            ),
            op("delta-all", ["delta-all"], check_delta_all),
            op("tau.pentagonal", ["tau", "--d", str(d_pentagonal)], expect_equal(lambda: _text(reference.tau(d_pentagonal)))),
        ]
    ops += [
        op("delta-poly", ["delta-poly", "--type", str(triple), "--format", "json"], check_delta_poly),
        op(
            "tau.niebur",
            ["tau", "--d", str(d_niebur), "--method", "niebur"],
            expect_equal(lambda: _text(reference.tau(d_niebur))),
        ),
        op(
            "tau.direct",
            ["tau", "--d", str(d_direct), "--method", "direct"],
            expect_equal(lambda: _text(reference.tau(d_direct))),
        ),
        op("tau-check", ["tau-check", "--max-d", str(max_d)], check_tau_check),
        op(
            "conjecture-check",
            ["conjecture-check", "--max-weight", str(max_w)],
            check_conjecture,
            cached=True,
            remember="conjecture",
        ),
        op(
            "conjecture-check.cached",
            ["conjecture-check", "--max-weight", str(max_w)],
            session.same_as("conjecture"),
            cached=True,
        ),
        op(
            "rank.cached",
            ["matroid", "rank", "--weight", str(rank_weight)],
            expect_equal(lambda: _text(reference.qm_dimension(rank_weight))),
            cached=True,
        ),
        op("matrix8.cached", ["matroid", "matrix", "--weight", "8"], session.same_as("matrix8"), cached=True),
        op(f"rank{tw}.cached", ["matroid", "rank", "--weight", str(tw)], session.same_as(f"rank{tw}"), cached=True),
        op(
            "matrix8.altered-cache",
            ["matroid", "matrix", "--weight", "8"],
            session.same_as("matrix8"),
            cached=True,
            before=session.alter_entry("matrix8"),
            known_fault="cache-altered",
        ),
        op(
            f"rank{tw}.truncated-cache",
            ["matroid", "rank", "--weight", str(tw)],
            session.same_as(f"rank{tw}"),
            cached=True,
            before=session.truncate_entry(f"rank{tw}"),
            known_fault="cache-truncated",
        ),
    ]
    return session, ops


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


WORKLOADS = ("matroid-enum", "tau-deep", "cli-session")
