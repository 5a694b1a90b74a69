"""Seeded inputs, jobs and output checks for the three benchmark workloads.

A workload is a fixed list of jobs built from a seed.  Each job calls the
library the way a user would and returns its output; the job's check compares
that output with a law of the paper (contact order, stabilized ecodim, model
size, edim, dimension bounds, cotangent and tangent ranks) or, for the fixed
CLI corpus, with a golden report stored byte for byte in ``golden/``.

The library sees only the generated schemes, arcs and documents.  Every
library function is looked up on its module at call time, so the wrappers that
``spans.Tracer`` installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import arcspace.cli
import arcspace.drinfeld
import arcspace.localgeom
import arcspace.polyalg.linalg
from arcspace import AffineScheme, Arc, VarSet, parse_poly

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

AMBIENT = ("x0", "x1", "x2", "x3")
QUADRIC = ("x0*x3 + x1*x2",)
SUM_OF_SQUARES = ("x0*x3 + x1^2 + x2^2",)
CI_FIXTURE = ("x0*x1 + x2*x3 + x2^2", "x0*x2 + x1^2 - x3^2")
NODE_VARS = ("x", "y")
NODE = ("x*y",)

# levels of the jet-cotangent check in the model-build workload
MAX_COTANGENT_LEVEL = 6


@dataclass
class Job:
    """One library call with its output check.

    ``check`` returns None when the output obeys its law, else a message.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# -- arc generators ---------------------------------------------------------------


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def _small(rng: random.Random) -> Fraction:
    # never 0: a zero drops a term, and an e = 2 verify-dgk job on such an
    # arc costs about 40 % less, so the cost of a pass would depend on the seed
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2)))


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def t_poly(coeffs: list[Fraction]) -> str:
    """Coefficient list as text in the library's grammar ("0" when empty)."""
    terms = [f"({c})*t^{k}" for k, c in enumerate(coeffs) if c]
    return " + ".join(terms) if terms else "0"


def quadric_arc(rng: random.Random, e: int, e1: int) -> list[str]:
    """Arc on x0*x3 + x1*x2 = 0 with Jacobian contact order exactly e.

    (x0, x1, x2, x3) = (a*c, a*d, b*c, -b*d) lies on the cone, and the
    Jacobian (x3, x2, x1, x0) has order min(ord a, ord b) + min(ord c, ord d),
    which is e1 + e2 = e.  All four factors have two nonzero coefficients.
    The split e1 sets the arc's shape, and a verify-dgk job on a split-0 arc
    costs about half of one on a split-1 arc, so callers pass ``i % (e + 1)``
    for job index i: every seed then has the same mix of shapes, and seeds
    vary only the coefficients.
    """
    e2 = e - e1
    a = [Fraction(0)] * e1 + [_nonzero(rng), _small(rng)]
    b = [Fraction(0)] * e1 + [_nonzero(rng), _small(rng)]
    c = [Fraction(0)] * e2 + [_nonzero(rng), _small(rng)]
    d = [Fraction(0)] * e2 + [_nonzero(rng), _small(rng)]
    comps = [_mul(a, c), _mul(a, d), _mul(b, c), [-x for x in _mul(b, d)]]
    return [t_poly(x) for x in comps]


def sum_of_squares_arc(rng: random.Random, e: int) -> list[str]:
    """Arc on x0*x3 + x1^2 + x2^2 = 0 with Jacobian contact order exactly e.

    x0 = alpha*t^e and x1, x2 of order >= e; then x3 = -(x1^2 + x2^2)/x0 is a
    polynomial of order >= e, and the Jacobian (x3, 2x1, 2x2, x0) has order e.
    b and g have two nonzero coefficients, as the factors in ``quadric_arc``.
    """
    alpha = _nonzero(rng)
    b = [_nonzero(rng), _small(rng)]
    g = [_nonzero(rng), _small(rng)]
    x3 = [-x / alpha for x in _add(_mul(b, b), _mul(g, g))]
    shift = [Fraction(0)] * e
    comps = [shift + [alpha], shift + b, shift + g, shift + x3]
    return [t_poly(x) for x in comps]


def ci_arc(rng: random.Random) -> list[str]:
    """Arc a*t + b*t^2 (integers, a != 0) along the CI fixture's line; contact order 2."""
    a = rng.choice((-3, -2, -1, 1, 2, 3))
    b = rng.randint(-3, 3)
    return [t_poly([Fraction(0), Fraction(a), Fraction(b)]), "0", "0", "0"]


# -- schemes and laws ---------------------------------------------------------------


def scheme(generators: tuple[str, ...], names: tuple[str, ...] = AMBIENT,
           dim: int | None = None) -> AffineScheme:
    vs = VarSet(list(names))
    return AffineScheme(vs, tuple(parse_poly(g, vs) for g in generators), dim)


def arc_of(X: AffineScheme, entries: list[str]) -> Arc:
    return Arc.from_strings(X.ambient, entries)


def _problems(pairs) -> str | None:
    bad = [f"{name}: got {got!r}, law says {want!r}" for name, got, want in pairs
           if got != want]
    return "; ".join(bad) or None


def model_laws(e: int, d: int, c: int, report: dict) -> str | None:
    """Model size, edim, dimension bounds, cotangent and tangent ranks."""
    pairs = [("e", report.get("e"), e),
             ("m", report.get("m"), e * (1 + 2 * d + c)),
             ("edim", report.get("edim"), 2 * d * e)]
    if "dim" in report:
        lo, hi = (2 * d - 1) * e, 2 * d * e
        pairs.append(("dim in bounds", lo <= report["dim"] <= hi, True))
    for n, rank in report.get("jet_cotangent_ranks", {}).items():
        pairs.append((f"cotangent rank at level {n}", rank, d * (int(n) + 1)))
    if "tangent_rank" in report:
        pairs.append(("tangent rank", report["tangent_rank"], 2 * d * e))
    return _problems(pairs)


# -- jet-ecodim -----------------------------------------------------------------------


def _window_job(name: str, X: AffineScheme, entries: list[str], e: int) -> Job:
    arc = arc_of(X, entries)

    def run():
        return arcspace.localgeom.ecodim_window(X, arc, 2 * e, 2 * e + 2)

    def check(w):
        return _problems([("stabilized", w.stabilized, True), ("ecodim", w.ecodim, e)])

    return Job(name, run, check)


def _node_job() -> Job:
    X = scheme(NODE, NODE_VARS)
    arc = arc_of(X, ["0", "0"])

    def run():
        return [arcspace.localgeom.ecodim_jet(X, arc, n).ecodim for n in range(5)]

    def check(values):
        if all(a < b for a, b in zip(values, values[1:])):
            return None
        return f"node ecodim must strictly increase over levels 0-4, got {values}"

    return Job("node-const-levels-0-4", run, check)


def jet_ecodim_jobs(seed: int, docs: Path) -> list[Job]:
    rng = random.Random(f"jet-ecodim/{seed}")
    Q, S = scheme(QUADRIC), scheme(SUM_OF_SQUARES)
    jobs = []
    # e = 2 outnumbers e = 1 so the median job is always an e = 2 window
    for i, e in enumerate((1, 1, 1, 2, 2, 2, 2, 2)):
        jobs.append(_window_job(f"quadric-e{e}-{i}", Q, quadric_arc(rng, e, i % (e + 1)), e))
    for i, e in enumerate((1, 2, 2, 2)):
        jobs.append(_window_job(f"sos-e{e}-{i}", S, sum_of_squares_arc(rng, e), e))
    jobs.append(_window_job("quadric-axis-t3", Q, ["t^3", "0", "0", "0"], 3))
    jobs.append(_node_job())
    return jobs


# -- model-build ------------------------------------------------------------------------


def _model_job(name: str, X: AffineScheme, entries: list[str], e: int,
               projection_seed: int) -> Job:
    arc = arc_of(X, entries)
    drinfeld = arcspace.drinfeld
    linalg = arcspace.polyalg.linalg

    def run():
        result = drinfeld.drinfeld_pipeline(X, arc, seed=projection_seed, with_dims=False)
        report = {"e": result.e, "m": result.model.m, "edim": result.edim}
        levels = sorted({n for n in (result.e, 2 * result.e - 1, 2 * result.e + 1)
                         if 0 <= n <= MAX_COTANGENT_LEVEL})
        report["jet_cotangent_ranks"] = {
            str(n): linalg.exact_rank(
                drinfeld.jet_cotangent_map(X, result.model.projection, arc, n))
            for n in levels}
        report["tangent_rank"] = drinfeld.drinfeld_tangent_check(result.model, arc).rank
        return report

    def check(report):
        return model_laws(e, X.dim, X.ambient_dim - X.dim, report)

    return Job(name, run, check)


def model_build_jobs(seed: int, docs: Path) -> list[Job]:
    rng = random.Random(f"model-build/{seed}")
    C = scheme(CI_FIXTURE, dim=2)
    Q, S = scheme(QUADRIC), scheme(SUM_OF_SQUARES)
    jobs = []
    for i in range(4):
        jobs.append(_model_job(f"ci-e2-{i}", C, ci_arc(rng), 2, rng.randrange(10**6)))
    # cone arcs with e = 2 are half the list, so the median job is always one
    for i, e in enumerate((1, 2, 2, 2, 2, 3)):
        jobs.append(_model_job(f"quadric-e{e}-{i}", Q, quadric_arc(rng, e, i % (e + 1)), e,
                               rng.randrange(10**6)))
        jobs.append(_model_job(f"sos-e{e}-{i}", S, sum_of_squares_arc(rng, e), e,
                               rng.randrange(10**6)))
    return jobs


# -- verify-dgk ---------------------------------------------------------------------------


def document(generators: tuple[str, ...], arc: list[str],
             names: tuple[str, ...] = AMBIENT) -> dict:
    return {"schema": 1, "vars": list(names), "generators": list(generators), "arc": arc}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``arcspace`` command: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = arcspace.cli.main(argv)
    return code, out.getvalue()


def _cli_job(name: str, argv: list[str], check: Callable[[dict], str | None]) -> Job:
    def checked(output):
        code, text = output
        if code != 0:
            return f"exit code {code}: {text.strip()}"
        return check(json.loads(text))

    return Job(name, lambda: run_cli(argv), checked)


# The fixed corpus: command lines whose reports must match golden/<name>.json
# byte for byte.  Documents are written under the docs directory.
GOLDEN_CORPUS = (
    ("verify-quadric-t1", document(QUADRIC, ["t", "0", "0", "0"]),
     ["verify-dgk", "{doc}", "--seed", "0"]),
    ("verify-quadric-nonaxis", document(QUADRIC, ["t", "t", "t^2", "-t^2"]),
     ["verify-dgk", "{doc}", "--seed", "0"]),
    ("verify-sos-t1", document(SUM_OF_SQUARES, ["t", "0", "0", "0"]),
     ["verify-dgk", "{doc}", "--seed", "0"]),
    ("drinfeld-quadric-t2", document(QUADRIC, ["t^2", "0", "0", "0"]),
     ["drinfeld", "{doc}", "--seed", "0"]),
    ("ord-quadric-t3", document(QUADRIC, ["t^3", "0", "0", "0"]), ["ord", "{doc}"]),
    ("jet-ideal-ci-level2", document(CI_FIXTURE, ["t", "0", "0", "0"]),
     ["jet-ideal", "{doc}", "--level", "2"]),
    ("ecodim-node-window", document(NODE, ["0", "0"], NODE_VARS),
     ["ecodim", "{doc}", "--window", "0:3"]),
)


def write_document(docs: Path, name: str, data: dict) -> str:
    path = docs / f"{name}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def golden_argv(docs: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) for the fixed corpus, with its documents written."""
    out = []
    for name, data, argv in GOLDEN_CORPUS:
        path = write_document(docs, name, data)
        out.append((name, [path if a == "{doc}" else a for a in argv]))
    return out


def _golden_job(name: str, argv: list[str]) -> Job:
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")

    def check(output):
        code, text = output
        if code != 0 or text != golden:
            return f"report differs from golden/{name}.json (exit code {code})"
        return None

    return Job(f"golden-{name}", lambda: run_cli(argv), check)


def verify_dgk_jobs(seed: int, docs: Path) -> list[Job]:
    rng = random.Random(f"verify-dgk/{seed}")
    d, c = 3, 1
    jobs = []
    for i, e in enumerate((1, 1, 1, 1, 2, 2, 2, 2)):
        arc = quadric_arc(rng, e, i % (e + 1))
        path = write_document(docs, f"quadric-e{e}-{i}", document(QUADRIC, arc))
        cli_seed = str(rng.randrange(10**6))

        def check(report, e=e):
            window = report.get("jet_window", {})
            return model_laws(e, d, c, report) or _problems([
                ("cross_validated", report.get("cross_validated"), True),
                ("jet window stabilized", window.get("stabilized"), True),
                ("stabilized jet ecodim", window.get("ecodim"), e),
                ("model ecodim", report.get("ecodim"), e)])

        jobs.append(_cli_job(f"verify-quadric-e{e}-{i}",
                             ["verify-dgk", path, "--seed", cli_seed], check))
        if i % 4 == 0:
            jobs.append(_cli_job(f"ord-quadric-e{e}-{i}", ["ord", path],
                                 lambda r, e=e: _problems([("ord", r.get("ord"), str(e)),
                                                           ("exact", r.get("exact"), True)])))
            level = 2 * e + 1
            jobs.append(_cli_job(f"jet-ideal-quadric-level{level}",
                                 ["jet-ideal", path, "--level", str(level)],
                                 lambda r, n=level: _problems([
                                     ("generator count", len(r.get("generators", [])), n + 1)])))
    jobs.extend(_golden_job(name, argv) for name, argv in golden_argv(docs))
    return jobs


BUILDERS = {
    "jet-ecodim": jet_ecodim_jobs,
    "model-build": model_build_jobs,
    "verify-dgk": verify_dgk_jobs,
}


def build_jobs(workload: str, seed: int, docs: Path) -> list[Job]:
    """Generate and parse the workload's inputs; documents go under ``docs``."""
    docs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, docs)
