"""The benchmark's workloads: fixed lists of defectlab CLI invocations and
the checks their reports must pass.

Checks compare against computations made apart from the program: the
families are rebuilt here from the paper's formulas, ranks and distances
are recomputed with sympy (the oracle pattern of `tests/conftest.py`), the
set metric rho is summed from its definition, and the prescribed defects
are the values the paper's constructions realize. Where no independent
value exists the check is a property the method must have (monotone
decay, certified interval widths, nonincreasing chain dimensions).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q

INF = "inf"


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    spec: dict
    known_fault: str = ""  # the error message of a fault this invocation always hits

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: object  # seed -> list of Invocation
    check: object  # list of (Invocation, returncode, reports) -> list of problems
    corrupt: object  # same list -> same list with one report corrupted


# -- the paper's families, rebuilt independently ------------------------------
# Each entry: ambient(n), x(k), x_star(k), with vectors as {coordinate: value}.

def _defect_pair(m):
    return (lambda n: m + n,
            lambda k: {**{j: Q(k ** (j - 1)) for j in range(1, m + 1)}, m + k: Q(1)},
            lambda k: {m + k: Q(1)})


def _young(w):
    return (lambda n: w + n,
            lambda k: {**{j: Q(2 ** k, k ** (j - 1)) for j in range(1, min(k, w) + 1)},
                       w + k: Q(1)},
            lambda k: {w + k: Q(1)})


def _finite_set(defect_set):
    k_s, period = defect_set[-1], len(defect_set)

    def x(k):
        k_j = defect_set[(k - 1) % period]
        return {**{l: Q(k ** (l - 1)) for l in range(k_j + 1, k_s + 1)}, k + k_s: Q(1)}

    return lambda n: k_s + n, x, lambda k: {k + k_s: Q(1)}


FAMILIES = {
    "e1-plus-ek": (lambda n: n + 1, lambda k: {1: Q(1), k + 1: Q(1)}, lambda k: {k + 1: Q(1)}),
    "defect-pair(m=2)": _defect_pair(2),
    "defect-pair(m=3)": _defect_pair(3),
    "young(w=2)": _young(2),
    "finite-set(0,1,3)": _finite_set((0, 1, 3)),
}

# Index sets as (membership, period, last exception): membership is
# periodic with that period beyond the last exception.
SIGMAS = {
    "all": (lambda k: True, 1, 0),
    "none": (lambda k: False, 1, 0),
    "fin(1)": (lambda k: k == 1, 1, 1),
    "fin(2,5)": (lambda k: k in (2, 5), 1, 5),
    "res(2;1)": (lambda k: k % 2 == 1, 2, 0),
    "res(3;2)": (lambda k: k % 3 == 2, 3, 0),
    "res(3;0,2)": (lambda k: k % 3 in (0, 2), 3, 0),
}


def mixed(family: str, sigma: str, n: int) -> list:
    _, x, x_star = FAMILIES[family]
    member = SIGMAS[sigma][0]
    return [x(k) if member(k) else x_star(k) for k in range(1, n + 1)]


def rho(a, b) -> Q:
    """sum_k |1_a(k) - 1_b(k)| / 2^k from the definition, with the periodic
    tail summed as a geometric series."""
    (in_a, pa, ea), (in_b, pb, eb) = a, b
    period, start = pa * pb, max(ea, eb)
    head = sum((Q(1, 2 ** k) for k in range(1, start + 1) if in_a(k) != in_b(k)), Q(0))
    cycle = sum((Q(1, 2 ** k) for k in range(start + 1, start + period + 1)
                 if in_a(k) != in_b(k)), Q(0))
    return head + cycle / (1 - Q(1, 2 ** period))


def tail_union(sigma, m):
    """sigma ∪ [m+1, ∞) in the (membership, period, last exception) form."""
    member, period, last = sigma
    return (lambda k: k > m or member(k), period, max(last, m))


# -- sympy oracles (dense exact matrices, as in tests/conftest.py) ------------

def _matrix(vectors, ambient):
    import sympy

    def entry(value):
        return sympy.Rational(value.numerator, value.denominator)

    return sympy.Matrix([[entry(v.get(i, Q(0))) for i in range(1, ambient + 1)]
                         for v in vectors])


def sympy_nullity(vectors, ambient) -> int:
    return ambient - _matrix(vectors, ambient).rank()


def sympy_projector(generators, ambient):
    """Orthogonal projector onto the span: normal equations on a basis of
    the column space, so dependent generators are allowed."""
    import sympy

    basis = sympy.Matrix.hstack(*_matrix(generators, ambient).T.columnspace())
    return basis * (basis.T * basis).inv() * basis.T


def sympy_dist_sq(probe, generators, ambient) -> Q:
    b = _matrix([probe], ambient).T
    if generators:
        b = b - sympy_projector(generators, ambient) * b
    r = (b.T * b)[0, 0]
    return Q(int(r.p), int(r.q))


# -- report helpers --------------------------------------------------------------

def _results(reports) -> dict:
    return json.loads(reports["stdout"])["results"]


def _replace_results(reports, edit) -> dict:
    doc = json.loads(reports["stdout"])
    edit(doc["results"])
    out = dict(reports)
    out["stdout"] = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    return out


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _run_checks(outcomes, check_one) -> list:
    problems = []
    for inv, code, reports in outcomes:
        if code != 0:
            message = reports.get("stderr", b"").decode()
            if not (inv.known_fault and code == 2 and inv.known_fault in message):
                problems.append(f"{inv.key}: exit code {code}: {message.strip()}")
            continue
        try:
            problems.extend(f"{inv.key}: {p}" for p in check_one(inv, reports))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"{inv.key}: malformed report ({exc!r})")
    return problems


def _corrupt(outcomes, target, edit) -> list:
    """The outcomes with the report of invocation `target` edited."""
    out = list(outcomes)
    for i, (inv, code, reports) in enumerate(out):
        if code == 0 and inv == target:
            out[i] = (inv, code, _replace_results(reports, edit))
            return out
    raise ValueError(f"no successful report of {target.key} to corrupt")


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# -- certify -------------------------------------------------------------------

def _defect(family, sigma, n, prescribed, witnesses, *extra, may_stay_open=False):
    """A `defect` report. `prescribed` is the defect of the paper's
    construction for (family, sigma); `witnesses` are the coordinates of the
    unit vectors that span its witness space."""
    argv = ("defect", "--family", family, "--sigma", sigma, "--n", str(n)) + extra
    return Invocation(argv, {"prescribed": prescribed, "witnesses": witnesses,
                             "may_stay_open": may_stay_open})


def _sweep(family, sigmas, n_grid, known_fault=""):
    argv = ("sweep", "--family", family, "--sigmas", sigmas, "--n-grid", n_grid)
    return Invocation(argv, {}, known_fault)


# cli.cmd_sweep splits --sigmas on ';', which res(p;r) also contains, so
# every residue-class sigma in a sweep exits 2 with this message.
SWEEP_FAULT = "unexpected end of expression"

CERTIFY = (
    _defect("e1-plus-ek", "all", 60, 0, (), "--n-list", "2,9,30,60", "--threshold", "1/50"),
    # sigma = all on defect-pair(m=3) decays polynomially: at n = 40 the
    # decay is not yet below the threshold, so "inconclusive" is allowed.
    _defect("defect-pair(m=3)", "all", 40, 0, (), may_stay_open=True),
    _defect("defect-pair(m=3)", "none", 40, 3, (1, 2, 3)),
    _defect("finite-set(0,1,3)", "res(3;2)", 60, 1, (1,), "--csv", "decay.csv"),
    _defect("young(w=2)", "all", 30, 0, ()),
    _defect("infinite-set(0,1,inf)", "none", 40, INF, ()),
    _sweep("e1-plus-ek", "none;all;fin(1)", "5,10,20,40,80"),
    _sweep("defect-pair(m=3)", "none;all;fin(2,5)", "10,20,40,80"),
    _sweep("e1-plus-ek", "res(2;1);res(3;0,2)", "5,10,20", known_fault=SWEEP_FAULT),
)


def _check_defect(inv, reports):
    res, spec = _results(reports), inv.spec
    prescribed = spec["prescribed"]
    verdict = res["verdict"]
    allowed = {str(prescribed)} | ({"inconclusive"} if spec["may_stay_open"] else set())
    if verdict not in allowed:
        yield f"verdict {verdict} is not the prescribed defect {prescribed}"
    if not res["witness_ok"]:
        yield "witness audit failed"
    if prescribed == INF:
        # every f-direction of the probe window contributes one witness
        if res["witness_dim"] != min(res["probe_window"], int(_flag(inv.argv, "--n"))):
            yield f"witness_dim {res['witness_dim']} does not fill the probe window"
        return
    if res["witness_dim"] != prescribed:
        yield f"witness_dim {res['witness_dim']} != prescribed {prescribed}"
    columns = {}
    for cell in res["decay_table"]:
        columns.setdefault(cell["probe"], []).append((cell["n"], Q(cell["dist_sq"]["value"])))
    n_list = res["n_list"]
    family, sigma = _flag(inv.argv, "--family"), _flag(inv.argv, "--sigma")
    ambient = FAMILIES[family][0]
    for probe, cells in columns.items():
        values = [d for _, d in cells]
        if [n for n, _ in cells] != n_list:
            yield f"{probe}: decay column does not follow n_list"
        if any(b > a for a, b in zip(values, values[1:])):
            yield f"{probe}: decay column increases"
        if any(not 0 <= d <= 1 for d in values):
            yield f"{probe}: dist^2 outside [0, |probe|^2] = [0, 1]"
        # first cell, recomputed apart from the program
        index = int(probe[len("probe["):-1])
        n0 = n_list[0]
        gens = [{c: Q(1)} for c in spec["witnesses"]] + mixed(family, sigma, n0)
        expect = sympy_dist_sq({index: Q(1)}, gens, max(ambient(n0), index))
        if values[0] != expect:
            yield f"{probe}: dist^2 at n={n0} is {values[0]}, sympy gives {expect}"
    if len(columns) != min(res["probe_window"], ambient(n_list[-1])):
        yield "decay table misses probes"
    if "--csv" in inv.argv:
        rows = reports["decay.csv"].decode().splitlines()
        if len(rows) != 1 + len(res["decay_table"]):
            yield "decay CSV does not match the decay table"


def _check_sweep(inv, reports):
    res = _results(reports)
    family = _flag(inv.argv, "--family")
    sigmas = _flag(inv.argv, "--sigmas").split(";")
    grid = [int(n) for n in _flag(inv.argv, "--n-grid").split(",")]
    ambient = FAMILIES[family][0]
    cells = {(row["sigma"], row["n"]): row["defect_truncated"] for row in res["grid"]}
    if sorted(cells) != sorted((s, n) for s in sigmas for n in grid):
        yield "grid does not cover sigmas x n-grid"
        return
    n0 = grid[0]
    for sigma in sigmas:
        expect = sympy_nullity(mixed(family, sigma, n0), ambient(n0))
        if cells[(sigma, n0)] != expect:
            yield f"{sigma} at n={n0}: {cells[(sigma, n0)]}, sympy nullity {expect}"
        if any(not 0 <= cells[(sigma, n)] <= ambient(n) for n in grid):
            yield f"{sigma}: truncated defect outside [0, ambient]"


def check_certify(outcomes):
    return _run_checks(outcomes, lambda inv, reports: list(
        (_check_defect if inv.argv[0] == "defect" else _check_sweep)(inv, reports)))


def corrupt_certify(outcomes):
    def edit(res):
        cell = res["decay_table"][0]["dist_sq"]
        cell["value"] = str(Q(cell["value"]) + Q(1, 10 ** 6))
    return _corrupt(outcomes, CERTIFY[0], edit)


# -- topology ------------------------------------------------------------------

def _width_bound(K, precision=64):
    return Q(2, 2 ** K) + K * Q(1, 2 ** precision)


def _interval(v):
    return Q(v["lo"]), Q(v["hi"])


TOPOLOGY = (
    Invocation(("metric", "--family", "e1-plus-ek", "--sigma", "res(2;1)", "--tau", "all",
                "--n", "16", "--terms", "10"), {}),
    Invocation(("metric", "--family", "defect-pair(m=2)", "--sigma", "all", "--tau", "none",
                "--n", "16", "--terms", "10"), {}),
    Invocation(("converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "6",
                "--n", "12", "--semicontinuity"), {}),
    Invocation(("chain", "--family", "defect-pair(m=2)", "--sigma", "res(2;1)",
                "--depth", "8", "--n", "24"), {}),
)


def _check_metric(inv, res):
    K = int(_flag(inv.argv, "--terms"))
    expect = rho(SIGMAS[_flag(inv.argv, "--sigma")], SIGMAS[_flag(inv.argv, "--tau")])
    if Q(res["rho"]["value"]) != expect:
        yield f"rho {res['rho']['value']} != {expect} from the definition"
    ds_lo, ds_hi = _interval(res["d_s"])
    dw_lo, dw_hi = _interval(res["d_w"])
    if not (ds_lo <= ds_hi and dw_lo <= dw_hi):
        yield "interval bounds out of order"
    if ds_hi - ds_lo > _width_bound(K):
        yield "d_s wider than 2^(1-K) + K 2^-precision"
    if dw_lo > ds_hi:
        yield "d_w.lo exceeds d_s.hi"


def _sympy_ds_to_zero_head(family, sigma, m, n, K):
    """sum_{k<=K} |P x_k| / (|x_k| 2^k) for P onto the span of sigma_m at n,
    evaluated to 100 digits; the certified enclosure must contain it."""
    import sympy

    ambient, x, _ = FAMILIES[family]
    member = tail_union(SIGMAS[sigma], m)[0]
    gens = [x(k) for k in range(1, n + 1) if member(k)]
    proj = sympy_projector(gens, ambient(n))
    total = sympy.Integer(0)
    for k in range(1, K + 1):
        v = _matrix([x(k)], ambient(n)).T
        pv = proj * v
        total += sympy.sqrt((pv.T * pv)[0, 0] / (v.T * v)[0, 0]) / 2 ** k
    return total.evalf(100)


def _check_converge(inv, res):
    import sympy

    family, sigma = _flag(inv.argv, "--family"), _flag(inv.argv, "--sigma")
    n, K = int(_flag(inv.argv, "--n")), 10  # the CLI's default --terms
    rows = res["rows"]
    if [row["m"] for row in rows] != list(range(1, int(_flag(inv.argv, "--m-max")) + 1)):
        yield "rows do not cover m = 1..m_max"
    for row in rows:
        expect = rho(tail_union(SIGMAS[sigma], row["m"]), SIGMAS[sigma])
        if Q(row["rho"]["value"]) != expect:
            yield f"m={row['m']}: rho {row['rho']['value']} != {expect}"
        lo, hi = _interval(row["ds_to_zero"])
        if not lo <= hi or hi - lo > _width_bound(K):
            yield f"m={row['m']}: ds_to_zero enclosure too wide"
    lo, hi = _interval(rows[0]["ds_to_zero"])
    value = _sympy_ds_to_zero_head(family, sigma, 1, n, K)
    if not sympy.Rational(lo.numerator, lo.denominator) <= value <= sympy.Rational(
            hi.numerator, hi.denominator):
        yield f"m=1: ds_to_zero [{lo}, {hi}] misses the sympy value {value}"
    if res["semicontinuity"]["violation"]:
        yield "semicontinuity violation reported"


def _check_chain(inv, res):
    dims = res["dims"]
    if len(dims) != int(_flag(inv.argv, "--depth")):
        yield "one dimension per intersection step expected"
    if any(b > a for a, b in zip(dims, dims[1:])):
        yield f"chain dimensions increase: {dims}"


def check_topology(outcomes):
    checks = {"metric": _check_metric, "converge": _check_converge, "chain": _check_chain}
    return _run_checks(outcomes, lambda inv, reports: list(
        checks[inv.argv[0]](inv, _results(reports))))


def corrupt_topology(outcomes):
    def edit(res):
        res["rho"]["value"] = str(Q(res["rho"]["value"]) + Q(1, 2 ** 40))
    return _corrupt(outcomes, TOPOLOGY[0], edit)


# -- oracle --------------------------------------------------------------------

ORACLE_INSTANCES = 150
ORACLE_SUITES = ("all", "swap", "swap", "swap", "swap", "swap")


def oracle_invocations(seed):
    """`all` once and `swap` five times, on seeds drawn from `seed`.

    The cost of an instance depends on its random sizes, so a round draws
    six seeds: its total work then varies less from seed to seed than one
    large invocation's would, and a run has six samples per round. The
    median invocation is always a `swap`."""
    rng = random.Random(seed)
    return [
        Invocation(("oracle", "--suite", suite, "--instances", str(ORACLE_INSTANCES),
                    "--seed", str(rng.randrange(1 << 30))), {})
        for suite in ORACLE_SUITES
    ]


def _check_oracle(inv, reports):
    res = _results(reports)
    suites = ("swap", "hereditary") if _flag(inv.argv, "--suite") == "all" else ("swap",)
    if sorted(res) != sorted(suites):
        yield f"suites {sorted(res)} reported, {sorted(suites)} expected"
    for suite in suites:
        if res[suite]["violations"] != 0:
            yield f"{suite}: {res[suite]['violations']} violations"
    if res["swap"]["instances"] != ORACLE_INSTANCES or res["swap"]["checks"] < ORACLE_INSTANCES:
        yield "swap suite did not run every instance"


def check_oracle(outcomes):
    return _run_checks(outcomes, lambda inv, reports: list(_check_oracle(inv, reports)))


def corrupt_oracle(outcomes):
    def edit(res):
        res["swap"]["violations"] += 1
    return _corrupt(outcomes, outcomes[0][0], edit)


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("certify", lambda seed: _shuffled(CERTIFY, seed), check_certify,
                 corrupt_certify),
        Workload("topology", lambda seed: _shuffled(TOPOLOGY, seed), check_topology,
                 corrupt_topology),
        Workload("oracle", oracle_invocations, check_oracle, corrupt_oracle),
    )
}
