"""cli: sequential cold `python -m triadeform.cli ... --output json` calls.

Every round holds one call of each of the 20 subcommand kinds below with
seeded arguments; input documents are written to a temporary directory under
`perfbench/out/`.  A call is correct when it exits with the expected code,
prints one report that satisfies the restated report schema, and carries the
expected data (computed by the benchmark's own arithmetic).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import oracles as O
from run import ROOT, Outcome, child_env

NAME = "cli"
TRACE_ROUNDS = 2
PASSES = 1  # a cold call costs 0.6 s; a hundred of them fill the run already
RSS_OF_CHILDREN = True
DOC = "@doc:"  # argv prefix naming a generated document
LAM = (1, 1)
KINDS = (
    "ring-info",
    "ring-units",
    "ring-divides",
    "ext",
    "cocycle-verify",
    "cocycle-is-coboundary",
    "cocycle-is-cot",
    "cocycle-transport",
    "group-build",
    "group-mul",
    "group-check-presentation",
    "group-fn-identity",
    "group-split-iso",
    "structure-center",
    "structure-derived",
    "structure-fitting",
    "structure-width",
    "structure-theta",
    "fo-parse",
    "fo-eval",
)


# ---------------------------------------------------------------------------
# own arithmetic for expected answers


def _phi(m: int) -> int:
    return sum(1 for u in range(1, m) if math.gcd(u, m) == 1) if m > 1 else 1


@functools.lru_cache(maxsize=None)
def _pell(d: int) -> tuple[int, int]:
    y = 1
    while True:
        for sign in (-1, 1):
            x2 = d * y * y + sign
            x = math.isqrt(x2)
            if x > 0 and x * x == x2:
                return (x, y)
        y += 1


def _t2(p: int):
    """T_2(Z/p) as triples (a, b, d) for [[a, b], [0, d]]."""
    units = [u for u in range(1, p) if math.gcd(u, p) == 1]
    elems = [(a, b, d) for a in units for b in range(p) for d in units]

    def mul(x, y):
        return (x[0] * y[0] % p, (x[0] * y[1] + x[1] * y[2]) % p, x[2] * y[2] % p)

    return elems, mul


@functools.lru_cache(maxsize=None)
def _t2_facts(p: int) -> dict:
    elems, mul = _t2(p)
    inv = {x: next(y for y in elems if mul(x, y) == (1, 0, 1)) for x in elems}
    center = [x for x in elems if all(mul(x, g) == mul(g, x) for g in elems)]
    comms = {mul(mul(inv[a], inv[b]), mul(a, b)) for a in elems for b in elems}
    derived = set(comms)
    while True:
        grown = derived | {mul(a, b) for a in derived for b in derived}
        if grown == derived:
            break
        derived = grown
    return {
        "center": len(center),
        "derived": len(derived),
        "abelian": len(center) == len(elems),
        "width1": derived <= comms,
        "fitting": len({x for x in elems if x[0] == x[2]}),
    }


def _carry_splits_fg(b, a, targets) -> bool:
    return O.splits_by_section_search(lambda x, y: O.carry_value(b, a, targets, x, y), b, a)


def _carry_splits_zp(p: int, target: int) -> bool:
    """Carry target c on (Z/p)^x (cyclic of order p-1) splits iff c^-1 is a (p-1)-th power."""
    goal = pow(target, -1, p)
    return any(pow(y, p - 1, p) == goal for y in range(1, p))


def _fg_doc(shape):
    return {"type": "fg", "invariant_factors": list(shape), "free_rank": 0}


def _zsqrt2_json(x):
    return {"a": str(x[0]), "b": str(x[1]), "d": 2}


# ---------------------------------------------------------------------------
# input generation


def _job(kind, argv, code, expect=(), docs=None):
    return (kind, tuple(argv), code, tuple(expect), tuple(sorted((docs or {}).items())))


def _doc_name(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:16] + ".json"


def _with_doc(content):
    name = _doc_name(content)
    return DOC + name, {name: json.dumps(content, sort_keys=True)}


def _make(kind: str, rng: random.Random):
    if kind == "ring-info":
        m = rng.randint(2, 60)
        return _job(kind, ["ring", "info", f"Z/{m}"], 0, [("order", m), ("unit_count", _phi(m))])
    if kind == "ring-units":
        d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        x, y = _pell(d)
        return _job(kind, ["ring", "units", f"Z[sqrt({d})]"], 0, [("fundamental_units", [f"{x}+{y}*sqrt({d})"])])
    if kind == "ring-divides":
        m = rng.randint(2, 60)
        # a divisibility query against zero is a usage error by design
        # (DivisionByZeroDivisor, exit 2), so the divisor is nonzero
        a, b = rng.randrange(1, m), rng.randrange(m)
        if rng.random() < 0.5:
            b = a * rng.randrange(m) % m
        verdict = b % math.gcd(a, m) == 0
        return _job(kind, ["ring", "divides", f"Z/{m}", str(a), str(b)], 0 if verdict else 1, [("divides", verdict)])
    if kind == "ext":
        b = [rng.choice((0, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(1, 3))]
        a = [rng.choice((0, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(1, 3))]
        order = math.prod(math.gcd(m, n) for m in b if m for n in a if n)
        order *= math.prod(m ** sum(1 for n in a if n == 0) for m in b if m)
        return _job(
            kind,
            ["ext", ",".join(map(str, b)), ",".join(map(str, a))],
            0,
            [("ext_order", order), ("trivial", order == 1)],
        )
    if kind in ("cocycle-verify", "cocycle-is-coboundary"):
        b, a = rng.choice(((2,), (3,), (4,), (2, 2), (6,), (8,))), rng.choice(((2,), (3,), (4,), (2, 2), (6,)))
        targets = {i: tuple(rng.randrange(d) for d in a) for i in range(len(b))}
        doc = {"domain": _fg_doc(b), "codomain": _fg_doc(a), "backend": {"type": "carry", "targets": {str(i): list(c) for i, c in targets.items()}}}
        ref, docs = _with_doc(doc)
        if kind == "cocycle-verify":
            return _job(kind, ["cocycle", "verify", "--file", ref], 0, [("exhaustive", True)], docs)
        splits = _carry_splits_fg(b, a, targets)
        return _job(kind, ["cocycle", "is-coboundary", "--file", ref], 0 if splits else 1, [("coboundary", splits)], docs)
    if kind == "cocycle-is-cot":
        k = rng.randint(-40, 40)
        negative = rng.random() < 0.5
        u = O.ring_power(O.ZSqrt(2), LAM, k)
        u = (-u[0], -u[1]) if negative else u
        units = {"type": "units", "ring": "Z[sqrt(2)]"}
        doc = {"domain": units, "codomain": units, "backend": {"type": "carry", "targets": {"0": _zsqrt2_json(u)}}}
        ref, docs = _with_doc(doc)
        cot = not negative and k % 2 == 0
        return _job(kind, ["cocycle", "is-cot", "--file", ref], 0 if cot else 1, [("cot", cot)], docs)
    if kind == "cocycle-transport":
        n = rng.choice((3, 4, 5, 7, 8))
        b, a = (n,), (n,)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        doc = {"domain": _fg_doc(b), "codomain": _fg_doc(a), "backend": {"type": "carry", "targets": {"0": [rng.randrange(n)]}}}
        hom = lambda: {"domain": {"invariants": [n]}, "codomain": {"invariants": [n]}, "matrix": [[rng.choice(units)]]}  # noqa: E731
        ref, docs = _with_doc(doc)
        psi, d2 = _with_doc(hom())
        eta, d3 = _with_doc(hom())
        return _job(kind, ["cocycle", "transport", "--file", ref, "--psi", psi, "--eta", eta], 0, [], {**docs, **d2, **d3})
    if kind == "group-build":
        m = rng.choice((3, 5, 7))
        n = rng.choice((3, 4))
        target = rng.randrange(1, m)
        doc = {"ring": f"Z/{m}", "n": n, "cocycles": [{"type": "carry", "targets": {"0": str(target)}}] + [None] * (n - 2)}
        ref, docs = _with_doc(doc)
        order = _phi(m) ** n * m ** (n * (n - 1) // 2)
        return _job(kind, ["group", "build", "--group", ref], 0, [("order", order), ("twisted", target != 1)], docs)
    if kind == "group-mul":
        p, n = 5, 3
        ring = O.ZMod(p)
        x = ([rng.randrange(1, p) for _ in range(n - 1)], rng.randrange(1, p), {(i, j): rng.randrange(p) for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        y = ([rng.randrange(1, p) for _ in range(n - 1)], rng.randrange(1, p), {(i, j): rng.randrange(p) for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        rows = O.mat_mul(ring, O.normal_form_matrix(ring, n, x[0], x[1], x[2].items()), O.normal_form_matrix(ring, n, y[0], y[1], y[2].items()))
        z = rows[n - 1][n - 1]
        product = {
            "xbar": [str(rows[i][i] * pow(z, -1, p) % p) for i in range(n - 1)],
            "z": str(z),
            "upper": {f"{i + 1},{j + 1}": str(rows[i][j] * pow(rows[i][i], -1, p) % p) for i in range(n) for j in range(i + 1, n) if rows[i][j]},
        }
        ref, docs = _with_doc({"ring": f"Z/{p}", "n": n})
        as_json = lambda e: json.dumps({"xbar": [str(v) for v in e[0]], "z": str(e[1]), "upper": {f"{i},{j}": str(v) for (i, j), v in e[2].items()}})  # noqa: E731
        return _job(kind, ["group", "mul", "--group", ref, "--x", as_json(x), "--y", as_json(y)], 0, [("product", product)], docs)
    if kind == "group-check-presentation":
        m = rng.choice((2, 3))
        ref, docs = _with_doc({"ring": f"Z/{m}", "n": 3})
        return _job(kind, ["group", "check-presentation", "--group", ref, "--trials", "16", "--seed", str(rng.randrange(1000))], 0, [], docs)
    if kind in ("group-fn-identity", "group-split-iso", "structure-theta"):
        target = rng.randrange(1, 5)
        ref, docs = _with_doc({"ring": "Z/5", "n": 3, "cocycles": [{"type": "carry", "targets": {"0": str(target)}}, None]})
        splits = _carry_splits_zp(5, target)
        if kind == "group-fn-identity":
            return _job(kind, ["group", "fn-identity", "--group", ref], 0, [("pairs_checked", 16), ("failures", 0)], docs)
        if kind == "group-split-iso":
            return _job(kind, ["group", "split-iso", "--group", ref, "--trials", "16"], 0 if splits else 1, [("split", splits)], docs)
        return _job(kind, ["structure", "theta", "--group", ref, "--index", "1"], 0 if splits else 1, [("splits", splits)], docs)
    if kind.startswith("structure-") or kind == "fo-eval":
        p = rng.choice((3, 5))
        facts = _t2_facts(p)
        ref, docs = _with_doc({"ring": f"Z/{p}", "n": 2, "kind": "matrix"})
        if kind == "structure-center":
            return _job(kind, ["structure", "center", "--group", ref], 0, [("order", facts["center"]), ("agrees_with_description", True)], docs)
        if kind == "structure-derived":
            return _job(kind, ["structure", "derived", "--group", ref], 0, [("order", facts["derived"]), ("agrees_with_description", True)], docs)
        if kind == "structure-fitting":
            argv = ["structure", "fitting", "--group", ref, "--brute-force", "--class-bound", "2"]
            return _job(kind, argv, 0, [("order", facts["fitting"]), ("agrees_with_description", True)], docs)
        if kind == "structure-width":
            return _job(kind, ["structure", "width", "--group", ref, "--bound", "2"], 0, [("derived_order", facts["derived"]), ("width_needed", 1 if facts["width1"] else 2)], docs)
        sentence, value = rng.choice(
            (
                ("A x. A y. x*y = y*x", facts["abelian"]),
                ("E x. E y. !(x*y = y*x)", not facts["abelian"]),
                ("A x. E y. x*y = 1", True),
            )
        )
        return _job(kind, ["fo", "eval", "--group", ref, sentence], 0 if value else 1, [("value", value), ("path", "naive")], docs)
    if kind == "fo-parse":
        c = rng.randint(1, 3)
        ys = [f"y{k}" for k in range(1, c + 2)]
        text = " ".join(f"A {y}." for y in ys) + " [" + ", ".join(f"x^{y}" for y in ys) + "] = 1"
        return _job(kind, ["fo", "parse", text], 0, [("round_trip", True), ("free_variables", ["x"])])
    raise ValueError(f"unknown job kind {kind!r}")


def generate(seed: int, rounds: int) -> list[list[tuple]]:
    out = []
    for r in range(rounds):
        rng = random.Random(f"{NAME}:{seed}:{r}")
        jobs = [_make(kind, rng) for kind in KINDS]
        rng.shuffle(jobs)
        out.append(jobs)
    return out


# ---------------------------------------------------------------------------
# set-up: the documents, written once per run


class Context:
    def __init__(self, rounds):
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-docs-", dir=out))
        for rnd in rounds:
            for job in rnd:
                for name, text in job[4]:
                    (self.dir / name).write_text(text, encoding="utf-8")

    def argv(self, job) -> list[str]:
        return [str(self.dir / a[len(DOC):]) if a.startswith(DOC) else a for a in job[1]] + ["--output", "json"]


def setup(T, rounds) -> Context:
    return Context(rounds)


def teardown(ctx: Context) -> None:
    shutil.rmtree(ctx.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# jobs and oracle


def run(ctx: Context, job):
    proc = subprocess.run(
        [sys.executable, "-m", "triadeform.cli", *ctx.argv(job)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def traced_layers(rounds, jobs, import_s, trace_file, info) -> dict:
    """Per-layer run: a child calls cli.main in-process, untraced then traced."""
    ctx = Context(rounds)
    try:
        spec = ctx.dir / "jobs.json"
        spec.write_text(
            json.dumps({"argvs": [ctx.argv(j) for j in jobs], "trace_file": str(trace_file), "import_s": import_s}),
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "cli_trace.py"), str(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=150,
        )
    finally:
        teardown(ctx)
    if proc.returncode != 0:
        raise RuntimeError(f"traced cli child failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, traced = Outcome(), Outcome()
    for name, outcome in (("plain", plain), ("traced", traced)):
        for j, (job, (code, stdout, seconds)) in enumerate(zip(jobs, out[name])):
            ok = check(ctx, job, (code, stdout))
            outcome.record(j, job[0], seconds, seconds, ok, None if ok else f"oracle mismatch ({name} pass)")
    info.update(
        {
            "traced_jobs": len(jobs),
            "jobs_per_kind": traced.per_kind(),
            "exact_counts": {k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"},
            "failures": plain.failures + traced.failures,
        }
    )
    return {"attempted": plain.executions + traced.executions, "failed": plain.failed + traced.failed, "metrics": out["metrics"]}


def check(ctx, job, result) -> bool:
    code, stdout = result
    if code != job[2]:
        return False
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if O.report_problems(doc) or doc["ok"] != (code == 0):
        return False
    return all(doc["data"].get(key) == value for key, value in job[3])
