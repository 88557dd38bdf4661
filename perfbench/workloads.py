"""The benchmark's workloads: seeded inputs, the job each one runs, and an
oracle for every job.

A workload yields jobs in rounds; every round holds each kind of job once,
so a run of whole rounds always has the same mix.  `run(job)` is the timed
part and sees only graph6 strings (and, for paley-scale, the permutations
whose membership it must decide); the relabelings, switchings and pinned
answers stay in the job and are used by `check(job, output)`, which runs
outside the timed span and returns None or the reason the answer is wrong.

Why these workloads:

- class-analysis: the paper's analysis path on random members of the
  switching classes it studies; spectra dominate and every member is new,
  so the caches never help.
- generic-graphs: random graphs whose eigenvalues are irrational, so the
  spectrum falls through to certified intervals; group searches die early.
- paley-scale: Paley two-graphs on 26..62 points, where group search does
  real work and where `spectrum` is known to hang (jobs time out).
- cli-pipes: the README shell pipelines and the pinned-result battery, one
  fresh process per stage, so start-up, fields and constructions show.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import equilines
from equilines import cli, constructions, extensibility, fields, graphs, groups, spectra

# The caches a fresh process starts without (the originals, never the
# tracer's wrappers, which have no cache_clear).
CACHES = (spectra.char_poly, spectra.chi_polynomial, spectra.spectrum,
          fields.field_ctx)
SPECTRAL_CACHES = CACHES[:3]
NUMERIC_TOL = 1e-8


def clear_caches():
    """Empty the caches; return the spectral caches' (hits, misses) since
    they were last emptied."""
    infos = [cache.cache_info() for cache in SPECTRAL_CACHES]
    for cache in CACHES:
        cache.cache_clear()
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class JobTimeout(BaseException):
    """Raised by the deadline timer.  Not an Exception, so library code that
    catches Exception (reproduce-table rows) cannot swallow it."""


@dataclass
class Job:
    id: int
    kind: str
    inputs: dict
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent oracles

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def chi_from_spectrum(rational, quad):
    """prod (1 + c(lam - 1))^m, constant term first.  `rational` maps
    integer eigenvalues to multiplicities; `quad` is (q, m) for the pair
    1 +/- sqrt(q), whose factors multiply to (1 - q c^2)^m."""
    out = [1]
    for lam, m in rational.items():
        for _ in range(m):
            out = _poly_mul(out, [1, lam - 1])
    if quad:
        q, m = quad
        for _ in range(m):
            out = _poly_mul(out, [1, 0, -q])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def seidel_matrix(g):
    n = g.n
    return np.array([[1 if i == j else (-1 if (g.adj[i] >> j) & 1 else 1)
                      for j in range(n)] for i in range(n)], dtype=float)


def int_det(rows):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def check_chi_by_evaluation(g, chi):
    """chi has degree <= n, so agreeing with det(S(1,c)) at c = 0..n proves
    it equal to det(S(1,c))."""
    n = g.n
    if len(chi) > n + 1:
        return f"chi has degree {len(chi) - 1} > n = {n}"
    for c in range(n + 1):
        rows = [[1 if i == j else c * (-1 if (g.adj[i] >> j) & 1 else 1)
                 for j in range(n)] for i in range(n)]
        want = int_det(rows)
        got = sum(int(a) * c ** k for k, a in enumerate(chi))
        if got != want:
            return f"chi({c}) = {got}, det(S(1,{c})) = {want}"
    return None


def check_spectrum_numeric(g, spec):
    """Every eigenvalue of E from numpy lies on an exact value or inside a
    certified interval, with the stated multiplicities."""
    vals = np.linalg.eigvalsh(seidel_matrix(g))
    total = 0
    for ev in spec.eigenvalues:
        if ev.interval is not None:
            lo, hi = (float(x) for x in ev.interval)
        else:
            lo = hi = ev.approx
        k = int(np.sum((vals >= lo - NUMERIC_TOL) & (vals <= hi + NUMERIC_TOL)))
        if k != ev.multiplicity:
            return f"{k} numeric eigenvalues at {ev.label()}, multiplicity {ev.multiplicity}"
        total += k
    if total != g.n:
        return f"multiplicities cover {total} of {g.n} eigenvalues"
    return None


def check_lines(g, ls, lam, mult):
    """Dimension n - m(lam), and Gram matrix E[i][j] / (1 - lam) off the
    diagonal with unit vectors, from the returned vectors."""
    if ls.dim != g.n - mult:
        return f"line system dim {ls.dim}, expected {g.n - mult}"
    c = 1.0 / (1.0 - lam)
    if abs(abs(ls.cos_value) - abs(c)) > NUMERIC_TOL:
        return f"cos {ls.cos_value}, expected {abs(c)}"
    vecs = np.array(ls.vectors, dtype=float)
    target = seidel_matrix(g) * c
    np.fill_diagonal(target, 1.0)
    err = float(np.max(np.abs(vecs @ vecs.T - target)))
    if vecs.shape != (g.n, ls.dim) or err > NUMERIC_TOL:
        return f"line vectors miss the Gram matrix by {err}"
    return None


def preserves_two_graph(g, sigma):
    """Whether relabeling by sigma keeps every triple's edge parity, i.e.
    maps the two-graph (the switching class) of g onto itself."""
    n = g.n
    adj = g.adj
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = sigma[i], sigma[j], sigma[k]
                before = ((adj[i] >> j) ^ (adj[j] >> k) ^ (adj[i] >> k)) & 1
                after = ((adj[a] >> b) ^ (adj[b] >> c) ^ (adj[a] >> c)) & 1
                if before != after:
                    return False
    return True


def spectrum_labels(rational, quad):
    labels = {str(lam): m for lam, m in rational.items()}
    if quad:
        q, m = quad
        labels[f"1+sqrt({q})"] = m
        labels[f"1-sqrt({q})"] = m
    return labels


def random_member(g, rng):
    """A random relabeling and switching of g, with the permutation used."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    nu = [rng.choice((-1, 1)) for _ in range(g.n)]
    return graphs.apply_switching(graphs.conjugate(g, perm), nu), tuple(perm)


def eigen_value(label):
    """Float value of a pinned label: an integer or 1 +/- sqrt(q)."""
    if "sqrt" in label:
        q = int(label.split("sqrt(")[1][:-1])
        return 1 + (1 if label[1] == "+" else -1) * math.sqrt(q)
    return float(int(label))


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    deadline_s = 10.0
    in_process = True
    passes = 2
    # Enough rounds that the tail, ten samples from the top, falls among the
    # jobs of the slowest kind rather than at the gap below them.
    min_rounds = 12

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def passes_of(self, kind):
        """How many times a job of this kind runs; its time is the fastest."""
        return self.passes

    def kinds(self):
        """The kinds of job in one round, in the order they run."""
        raise NotImplementedError

    def make_job(self, job_id, kind):
        raise NotImplementedError

    def rounds(self):
        """Endless rounds; each round runs every kind once."""
        job_id = 0
        while True:
            jobs = []
            for kind in self.kinds():
                jobs.append(self.make_job(job_id, kind))
                job_id += 1
            yield jobs


# (name, construction, group order, rational spectrum, (q, m) for 1 +/- sqrt(q))
PAPER_CLASSES = (
    ("pentagon", lambda: constructions.pentagon(), 60, {}, (5, 3)),
    ("t1:2", lambda: constructions.t1_graph(2), 720, {4: 5, -2: 5}, None),
    ("t1:3", lambda: constructions.t1_graph(3), 11520, {6: 6, -2: 10}, None),
    ("t1:5", lambda: constructions.t1_graph(5), 1451520, {10: 7, -2: 21}, None),
    ("paley:9", lambda: constructions.paley_graph(9), 720, {4: 5, -2: 5}, None),
    ("paley:13", lambda: constructions.paley_graph(13), 1092, {}, (13, 7)),
    ("paley:17", lambda: constructions.paley_graph(17), 2448, {}, (17, 9)),
)


class ClassAnalysis(Workload):
    name = "class-analysis"
    # The median job is a 20-30 ms one, and the shared cores have spells,
    # from seconds to minutes long, in which everything runs up to 1.6 times
    # slower.  So the cheap kinds run eight times over the whole run; t1:5,
    # a second a job and most of the run, runs twice.
    passes = 8

    def passes_of(self, kind):
        return 2 if kind == "t1:5" else self.passes

    def __init__(self, seed):
        super().__init__(seed)
        self.classes = {}
        for name, build, order, rational, quad in PAPER_CLASSES:
            self.classes[name] = (extensibility.extend(build()), {
                "order": order,
                "spectrum": spectrum_labels(rational, quad),
                "chi": chi_from_spectrum(rational, quad),
            })

    def kinds(self):
        return [name for name, *_ in PAPER_CLASSES]

    def make_job(self, job_id, kind):
        base, expected = self.classes[kind]
        member, _ = random_member(base, self.rng)
        return Job(job_id, kind, {"g6": graphs.to_graph6(member), "graph": member},
                   dict(expected))

    def run(self, job):
        g = graphs.from_graph6(job.inputs["g6"])
        grp = groups.two_graph_group(g)
        doubly = grp.is_doubly_transitive()
        chi = spectra.chi_polynomial(g)
        spec = spectra.spectrum(g)
        lines = [spectra.embed_lines(g, ev)
                 for ev in (spec.min_eigenvalue(), spec.max_eigenvalue())
                 if ev.is_exact]
        text = json.dumps({
            "graph6": job.inputs["g6"],
            "group": grp.to_json_dict(),
            "chi": [str(c) for c in chi],
            "spectrum": spec.to_json_dict(),
            "lines": [ls.to_json_dict() for ls in lines],
        })
        return {"order": grp.order, "doubly": doubly, "chi": chi,
                "spectrum": spec, "lines": lines, "json": text}

    def check(self, job, out):
        g, want = job.inputs["graph"], job.expected
        if out["order"] != want["order"]:
            return f"group order {out['order']}, expected {want['order']}"
        if not out["doubly"]:
            return "group not doubly transitive"
        got = {ev.label(): ev.multiplicity for ev in out["spectrum"].eigenvalues}
        if got != want["spectrum"]:
            return f"spectrum {got}, expected {want['spectrum']}"
        if list(out["chi"]) != want["chi"]:
            return f"chi {list(out['chi'])}, expected {want['chi']}"
        labels = sorted(want["spectrum"], key=eigen_value)
        extremes = [labels[0], labels[-1]]
        if len(out["lines"]) != 2:
            return f"{len(out['lines'])} line systems, expected 2"
        for ls, label in zip(out["lines"], extremes):
            err = check_lines(g, ls, eigen_value(label), want["spectrum"][label])
            if err:
                return f"lines at {label}: {err}"
        if json.loads(out["json"])["group"]["order"] != str(want["order"]):
            return "JSON report disagrees with the group order"
        return None


class GenericGraphs(Workload):
    name = "generic-graphs"
    # An odd number of sizes puts the median inside one size, not between
    # two; neighbouring sizes keep job times close, so the tail is smooth too.
    SIZES = (9, 10, 11)

    def kinds(self):
        return [f"n={n}" for n in self.SIZES]

    def make_job(self, job_id, kind):
        n = int(kind[2:])
        rng = self.rng
        g = graphs.SeidelGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < 0.5])
        nu = [rng.choice((-1, 1)) for _ in range(n)]
        switched = graphs.apply_switching(g, nu)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = graphs.conjugate(g, perm)
        return Job(job_id, kind, {
            "g6": graphs.to_graph6(g), "switched": graphs.to_graph6(switched),
            "relabeled": graphs.to_graph6(relabeled), "graph": g,
        }, {"switched": switched, "relabeled": relabeled})

    def run(self, job):
        g = graphs.from_graph6(job.inputs["g6"])
        switched = graphs.from_graph6(job.inputs["switched"])
        relabeled = graphs.from_graph6(job.inputs["relabeled"])
        spec = spectra.spectrum(g)
        chi = spectra.chi_polynomial(g)
        two = spectra.two_eigenvalue_check(g)
        grp = groups.two_graph_group(g)
        return {"spectrum": spec, "chi": chi, "two": two,
                "generators": grp.generators,
                "nu": graphs.is_switching_equivalent(g, switched),
                "sigma": groups.find_isomorphism(g, relabeled)}

    def check(self, job, out):
        g = job.inputs["graph"]
        spec = out["spectrum"]
        err = check_spectrum_numeric(g, spec)
        if err:
            return err
        err = check_chi_by_evaluation(g, out["chi"])
        if err:
            return err
        if out["two"] != (len(spec.eigenvalues) <= 2):
            return f"two_eigenvalue_check {out['two']} with {len(spec.eigenvalues)} distinct"
        for sigma in out["generators"]:
            if not preserves_two_graph(g, sigma):
                return f"group generator {sigma} moves the two-graph"
        nu = out["nu"]
        if nu is None or graphs.apply_switching(g, nu) != job.expected["switched"]:
            return f"switching witness {nu} is wrong"
        sigma = out["sigma"]
        if sigma is None or graphs.conjugate(g, sigma) != job.expected["relabeled"]:
            return f"isomorphism witness {sigma} is wrong"
        return None


class PaleyScale(Workload):
    name = "paley-scale"
    QS = (25, 29, 37, 41, 49, 53, 61)
    # One round is len(QS) jobs; today each one times out in spectrum().
    deadline_s = 5.0
    min_rounds = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.rungs = {q: (constructions.paley_projective(q),
                          constructions.sl2_point_permutations(q)) for q in self.QS}

    def kinds(self):
        return [f"q={q}" for q in self.QS]

    def make_job(self, job_id, kind):
        q = int(kind[2:])
        base, sl2 = self.rungs[q]
        member, perm = random_member(base, self.rng)
        inv = [0] * len(perm)
        for i, x in enumerate(perm):
            inv[x] = i
        # s fixes the class of base, so perm . s . perm^-1 fixes that of member
        conjugated = [tuple(perm[s[inv[x]]] for x in range(len(perm))) for s in sl2]
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = round(math.log(q, p))
        half = (q + 1) // 2
        root = math.isqrt(q)
        rational = {1 + root: half, 1 - root: half} if root * root == q else {}
        quad = None if rational else (q, half)
        return Job(job_id, kind, {"g6": graphs.to_graph6(member), "graph": member,
                                  "sl2": conjugated},
                   {"order": e * q * (q * q - 1) // 2,
                    "spectrum": spectrum_labels(rational, quad)})

    def run(self, job):
        g = graphs.from_graph6(job.inputs["g6"])
        grp = groups.two_graph_group(g)
        doubly = grp.is_doubly_transitive()
        contains = all(grp.contains(p) for p in job.inputs["sl2"])
        spec = spectra.spectrum(g)
        ls = spectra.embed_lines(g, spec.min_eigenvalue())
        return {"order": grp.order, "doubly": doubly, "contains": contains,
                "spectrum": spec, "lines": ls}

    def check(self, job, out):
        want = job.expected
        if out["order"] != want["order"]:
            return f"group order {out['order']}, expected {want['order']}"
        if not (out["doubly"] and out["contains"]):
            return "group not doubly transitive or missing SL(2,q) generators"
        got = {ev.label(): ev.multiplicity for ev in out["spectrum"].eigenvalues}
        if got != want["spectrum"]:
            return f"spectrum {got}, expected {want['spectrum']}"
        low = min(want["spectrum"], key=eigen_value)
        return check_lines(job.inputs["graph"], out["lines"], eigen_value(low),
                           want["spectrum"][low])


# name -> argument lists of the stages, each reading the previous one's stdout
PIPELINES = {
    "extensible": [["construct", "paley:5", "--g6"], ["extensible"]],
    "group": [["construct", "t1:5", "--g6"], ["extend", "--g6"],
              ["group", "--two-graph"]],
    "chi": [["construct", "t1:3", "--g6"], ["extend", "--g6"], ["chi"]],
    "lines": [["construct", "pentagon", "--g6"], ["extend", "--g6"],
              ["lines", "--eigenvalue", "1-sqrt(5)"]],
    "paley-verify": [["paley-verify", "9"]],
    "reproduce-table": [["reproduce-table", "--uniqueness"]],
}
# pinned fields of each pipeline's final report ("last_line" for the battery)
PIPELINE_ANSWERS = {
    "extensible": {"extensible": True, "t": 0, "s": 1, "sbar": 1, "n": 6,
                   "srg": [5, 2, 0, 1]},
    "group": {"order": "1451520", "transitivity": 2},
    "chi": {"chi": [str(c) for c in chi_from_spectrum({6: 6, -2: 10}, None)]},
    "lines": {"n": 6, "dim": 3, "cos": "1/sqrt(5)"},
    "paley-verify": {"q": 9, "shifted_square_counts": True, "common_neighbor_law": True,
                     "basis_swap_is_localization": True, "determinant_criterion": True,
                     "two_orbits": True},
    "reproduce-table": {"last_line": "45/45 rows passed"},
}


class CliPipes(Workload):
    """Untraced, every stage is a fresh `python -m equilines` process; the
    traced run calls `cli.main` in-process with cold caches instead."""

    name = "cli-pipes"
    deadline_s = 30.0
    in_process = False
    # Jobs last 0.4-3 s, so one pass; the tail falls among the three-stage
    # pipelines, whose times are close, so few rounds suffice.
    passes = 1
    min_rounds = 1

    def __init__(self, seed, root):
        super().__init__(seed)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("EQUILINES_SEARCH_CAP", None)

    def kinds(self):
        # the only input here that depends on the seed
        order = list(PIPELINES)
        self.rng.shuffle(order)
        return order

    def make_job(self, job_id, kind):
        return Job(job_id, kind, {"stages": PIPELINES[kind]}, dict(PIPELINE_ANSWERS[kind]))

    def _stage_process(self, argv, stdin, remaining):
        try:
            proc = subprocess.run([sys.executable, "-m", "equilines", *argv],
                                  input=stdin, capture_output=True, text=True,
                                  timeout=remaining, env=self.env, cwd=self.root)
        except subprocess.TimeoutExpired:
            raise JobTimeout() from None
        return proc.returncode, proc.stdout

    @staticmethod
    def _stage_in_process(argv, stdin):
        counts = clear_caches()
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), counts

    def run(self, job):
        start = time.perf_counter()
        text = ""
        stages = []
        cache = [0, 0]
        for argv in job.inputs["stages"]:
            t0 = time.perf_counter()
            if self.in_process:
                code, text, (hits, misses) = self._stage_in_process(argv, text)
                cache[0] += hits
                cache[1] += misses
            else:
                remaining = self.deadline_s - (t0 - start)
                if remaining <= 0:
                    raise JobTimeout()
                code, text = self._stage_process(argv, text, remaining)
            stages.append((argv[0], 1000 * (time.perf_counter() - t0), len(text), code))
            if code != 0:
                break
        return {"stages": stages, "stdout": text, "cache": cache}

    def check(self, job, out):
        for command, _, _, code in out["stages"]:
            if code != 0:
                return f"stage {command} exited with {code}"
        text = out["stdout"].strip()
        if job.kind == "reproduce-table":
            got = {"last_line": text.splitlines()[-1] if text else ""}
        else:
            result = json.loads(text)["result"]
            got = {key: result.get(key) for key in job.expected}
            if job.kind == "lines":
                vecs = np.array(result["vectors"], dtype=float)
                target = np.full((len(vecs), len(vecs)), 1 / math.sqrt(5))
                np.fill_diagonal(target, 1.0)
                err = float(np.max(np.abs(np.abs(vecs @ vecs.T) - target)))
                if err > NUMERIC_TOL:
                    return f"unit line vectors miss |cos| = 1/sqrt(5) by {err}"
        return None if got == job.expected else f"got {got}, expected {job.expected}"


WORKLOADS = {cls.name: cls for cls in (ClassAnalysis, GenericGraphs, PaleyScale, CliPipes)}


def make(name, seed, root):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[name]
    return cls(seed, root) if cls is CliPipes else cls(seed)


def versions():
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "equilines": getattr(equilines, "__version__", None),
            "equilines_path": os.path.dirname(equilines.__file__)}

