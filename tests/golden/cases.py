"""The golden report corpus: CLI invocations whose exact bytes are pinned.

Each case runs `defectlab.cli.main` in process; its digest is the sha256
of standard output, the sha256 of standard error and the exit code.
`tests/test_golden.py` compares every case with `digests.json`, and
`regenerate.py` rewrites that file from the source of a named commit.

Run as a script, this module prints the digests of every case as JSON,
computed by the `defectlab` on the import path, and the file that
package was imported from.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json


def _family_sigma(family, sigma, n, *more):
    return ["--family", family, "--sigma", sigma, "--n", str(n), *more]


# σ forms of docs/sigma_grammar.ebnf, each certified on e1-plus-ek.
_SIGMA_FORMS = {
    "all": "all",
    "none": "none",
    "fin-empty": "fin()",
    "fin": "fin(1,4,9)",
    "res": "res(3;1)",
    "res-residues": "res(4;1,3)",
    "res-reduced": "res(3;4,7)",
    "all-minus": "all-2",
    "none-plus": "none+3",
    "suffixes": "res(2;0)+3-4",
    "union": "res(2;0)|fin(3)",
    "intersection": "res(2;0)&res(3;0)",
    "complement": "~res(2;0)+2",
    "double-complement": "~~fin(1)",
    "parentheses": "(res(2;1)|fin(2))&all-1",
    "spaces": " res( 3 ; 1 , 2 ) | fin( 5 )",
    "trailing space": "all ",
}

_BUDGET_PINS = [
    # (name, argv, digits that exit 3, digits that pass)
    ("defect-young", ["defect", *_family_sigma("young(w=2)", "all", 40)], 70, 71),
    ("defect-witness-rank",
     ["defect", *_family_sigma("infinite-set(0,1,inf)", "fin(5,20,30)", 40)], 8, 9),
    ("sweep", ["sweep", "--family", "defect-pair(m=3)", "--sigmas", "none;all;fin(2,5)",
               "--n-grid", "10,20,40,80"], 3, 4),
    ("oracle-swap", ["oracle", "--suite", "swap", "--instances", "5", "--seed", "0"],
     7, 8),
    ("oracle-hereditary",
     ["oracle", "--suite", "hereditary", "--instances", "5", "--seed", "0"], 2, 3),
]

_RANDOM = [
    "random(d=6,n=3,seed=5,dual=perturbed)",
    "random(d=9,n=9,seed=1)",
    "random(d=9,n=4,seed=123,dual=perturbed)",
    "random(d=8,n=8,seed=77,dual=perturbed)",
    "random(d=7,n=2,seed=999,dual=perturbed)",
    "random(d=3,n=3,seed=20,dual=perturbed)",
    "random(d=3,n=3,seed=20,dual=span)",
    "random(d=6,n=6,seed=154,dual=perturbed)",
    "random(d=2,n=2,seed=0)",
    "random(d=1,n=1,seed=9,dual=perturbed)",
    "random(d=5,n=5,seed=2,dual=span)",
    "random(d=8,n=5,seed=11,dual=perturbed)",
    "random(d=8,n=5,seed=11,dual=span)",
    "random(d=10,n=7,seed=3,dual=perturbed)",
    "random(d=4,n=2)",
    "random(d=4,n=0,seed=1,dual=perturbed)",
    "random(d=0,n=0)",
]

CASES = {}


def _add(name, *argv):
    assert name not in CASES, name
    CASES[name] = [str(a) for a in argv]


# -- construct: every family kind ------------------------------------------
for _family, _n in [
    ("e1-plus-ek", 5), ("young(w=0)", 3), ("young(w=2)", 6), ("young(w=3)", 4),
    ("defect-pair(m=1)", 3), ("defect-pair(m=3)", 5), ("finite-set(0)", 3),
    ("finite-set(0,2)", 4), ("finite-set(0,1,3)", 7), ("infinite-set(0,inf)", 4),
    ("infinite-set(0,1,inf)", 8), ("infinite-set(0,2,inf)", 6),
]:
    _add(f"construct {_family} n={_n}", "construct", "--family", _family, "--n", _n)
for _family in _RANDOM:
    _add(f"construct {_family}", "construct", "--family", _family, "--n", 12)
_add("construct random truncated", "construct", "--family",
     "random(d=7,n=5,seed=4,dual=perturbed)", "--n", 3)
for _name, _family in [
    ("count-negative", "random(d=3,n=-1)"), ("count-above-dim", "random(d=2,n=3)"),
    ("bad-dual", "random(d=3,n=2,dual=weird)"), ("unknown-key", "random(d=3,n=2,sede=4)"),
    ("unknown-kind", "bogus(q=1)"), ("young-negative", "young(w=-1)"),
    ("young-not-int", "young(w=two)"), ("young-unknown-key", "young(w=1,bogus=3)"),
    ("young-twice", "young(w=1,w=2)"), ("e1-plus-ek-argument", "e1-plus-ek(m=7)"),
    ("defect-pair-bare", "defect-pair"), ("finite-set-no-zero", "finite-set(1,2)"),
    ("finite-set-unordered", "finite-set(0,3,2)"), ("infinite-set-no-inf", "infinite-set(0,2)"),
    ("malformed", "young(w=1"), ("defect-pair-empty", "defect-pair(m=)"),
    ("finite-set-not-int", "finite-set(0,x)"), ("random-not-int", "random(d=3,n=x)"),
]:
    _add(f"construct error {_name}", "construct", "--family", _family, "--n", 2)
_add("construct error n=0", "construct", "--family", "e1-plus-ek", "--n", 0)
_add("construct error n-negative", "construct", "--family", "e1-plus-ek", "--n", -2)

# -- defect ------------------------------------------------------------------
for _name, _sigma in _SIGMA_FORMS.items():
    _add(f"defect sigma {_name}", "defect", *_family_sigma("e1-plus-ek", _sigma, 12))
for _name, _argv in [
    ("defect-pair none", _family_sigma("defect-pair(m=3)", "none", 30)),
    ("defect-pair all", _family_sigma("defect-pair(m=2)", "all", 24)),
    ("young all", _family_sigma("young(w=2)", "all", 16)),
    ("young fin", _family_sigma("young(w=1)", "fin(1,2)", 12)),
    ("finite-set res csv", _family_sigma("finite-set(0,1,3)", "res(3;2)", 30,
                                         "--n-list", "10,20,30", "--csv", "-")),
    ("finite-set threshold", _family_sigma("finite-set(0,1,3)", "res(3;1)", 24,
                                           "--threshold", "1/2")),
    ("finite-set none", _family_sigma("finite-set(0,2)", "none", 12)),
    ("defect-pair paper scale", _family_sigma("defect-pair(m=3)", "all", 1200)),
    ("finite-set paper scale", _family_sigma("finite-set(0,1,3)", "res(3;1)", 3600)),
    ("infinite-set all", _family_sigma("infinite-set(0,1,inf)", "all", 16)),
    ("infinite-set none", _family_sigma("infinite-set(0,2,inf)", "none", 12)),
    ("infinite-set finite sigma", _family_sigma("infinite-set(0,1,inf)", "fin(2,3)", 12)),
    # bounded defects: res(3;0) misses class 0 (n = m(m+1)/2 + 1 is never
    # 0 mod 3) and meets class 1, so the defect is 1 and x_1, x_2 (class 0)
    # meet the witness f_1; res(7;6) misses classes 0 and 1 and meets only
    # the last class of (0,2,5), so the defect is 5
    ("infinite-set bounded exceptional",
     _family_sigma("infinite-set(0,1,inf)", "res(3;0)|fin(1,2)", 30)),
    ("infinite-set last class", _family_sigma("infinite-set(0,2,5,inf)", "res(7;6)", 30)),
    ("probe-window", _family_sigma("defect-pair(m=2)", "none", 16, "--probe-window", "3")),
    ("min-points", _family_sigma("e1-plus-ek", "all", 16, "--min-points", "2")),
    ("threshold decimal", _family_sigma("e1-plus-ek", "all", 16, "--threshold", "0.05")),
    ("n-list unsorted", _family_sigma("e1-plus-ek", "none", 12, "--n-list", "12,4,8")),
    ("random unsupported", _family_sigma("random(d=3,n=2)", "all", 2)),
    ("error n=0", _family_sigma("e1-plus-ek", "all", 0)),
    ("error n-list zero", _family_sigma("e1-plus-ek", "all", 8, "--n-list", "2,0,8")),
    ("error n-list empty", _family_sigma("e1-plus-ek", "all", 8, "--n-list", ",")),
    ("error n-list not int", _family_sigma("e1-plus-ek", "all", 8, "--n-list", "x")),
    ("error threshold zero denominator",
     _family_sigma("e1-plus-ek", "all", 8, "--threshold", "1/0")),
    ("error threshold not rational", _family_sigma("e1-plus-ek", "all", 8, "--threshold", "x")),
    ("error probe-window 0", _family_sigma("e1-plus-ek", "all", 8, "--probe-window", "0")),
    ("error probe-window negative",
     _family_sigma("e1-plus-ek", "all", 8, "--probe-window", "-2")),
    ("error min-points 0", _family_sigma("e1-plus-ek", "all", 8, "--min-points", "0")),
    ("error sigma period 0", _family_sigma("e1-plus-ek", "res(0;1)", 8)),
    ("error sigma fin zero", _family_sigma("e1-plus-ek", "fin(0)", 8)),
    ("error sigma unknown", _family_sigma("e1-plus-ek", "odd", 8)),
    ("error sigma unbalanced", _family_sigma("e1-plus-ek", "(all", 8)),
    ("sigma nesting at the bound", _family_sigma("e1-plus-ek", "(~" * 50 + "all" + ")" * 50, 8)),
    ("error sigma deep complement", _family_sigma("e1-plus-ek", "~" * 1500 + "all", 4)),
    ("error sigma deep parentheses",
     _family_sigma("e1-plus-ek", "(" * 1200 + "all" + ")" * 1200, 4)),
    ("sigma period at the bound", _family_sigma("e1-plus-ek", "~res(10000;1)", 8)),
    ("error sigma period above the bound", _family_sigma("e1-plus-ek", "~res(3000000;1)", 4)),
    ("error sigma lcm above the bound",
     _family_sigma("e1-plus-ek", "res(9973;1)|res(9967;1)", 4)),
    ("sigma element at the bound", _family_sigma("infinite-set(0,1,inf)", "all-100000", 6)),
    ("error sigma element above the bound",
     _family_sigma("infinite-set(0,1,inf)", "all-100001", 6)),
    ("error sigma element of 100000 digits",
     _family_sigma("e1-plus-ek", "fin(%s)" % ("9" * 100_000), 4)),
    ("error sigma correction of 100000 digits",
     _family_sigma("e1-plus-ek", "all+%s" % ("9" * 100_000), 4)),
    ("error sigma period of 100000 digits",
     _family_sigma("e1-plus-ek", "res(%s;1)" % ("9" * 100_000), 4)),
    ("error n-list max not n",
     _family_sigma("e1-plus-ek", "all", 5, "--n-list", "2,9,30", "--threshold", "1/50")),
]:
    _add(f"defect {_name}", "defect", *_argv)

# -- sweep -------------------------------------------------------------------
for _name, _family, _sigmas, _grid in [
    ("defect-pair", "defect-pair(m=2)", "none;all", "3,5"),
    ("defect-pair three", "defect-pair(m=3)", "none;all;fin(2,5)", "10,20"),
    ("e1-plus-ek", "e1-plus-ek", "none;all;fin(1)", "5,10,20"),
    ("grid order", "young(w=2)", "none;all;fin(1,3)", "9,3,9,1,6"),
    ("finite-set", "finite-set(0,1,3)", "all;none;all-2", "6,12"),
    ("infinite-set", "infinite-set(0,1,inf)", "all;none;fin(2,3)", "6,10"),
    ("random past its last index", "random(d=4,n=2,seed=1)", "all;none", "1,2,5"),
    ("random perturbed", "random(d=6,n=5,seed=8,dual=perturbed)", "fin(1,3);~fin(2)",
     "2,5"),
    ("forms", "e1-plus-ek", "all-2;none+3;~fin(1)|fin(3)", "4,8"),
    ("error n-grid zero", "e1-plus-ek", "all", "3,0"),
    ("error n-grid negative", "e1-plus-ek", "all", "-1,0"),
    ("error sigmas empty", "e1-plus-ek", ";", "3"),
    ("error n-grid empty", "e1-plus-ek", "all", ""),
    ("error n-grid not int", "e1-plus-ek", "all", "a"),
    ("error sigma inside", "e1-plus-ek", "all;odd", "3"),
    ("res split at its semicolon", "e1-plus-ek", "res(2;1)", "3"),
    ("error sigmas deep parentheses", "e1-plus-ek", "all;" + "(" * 1200 + "none" + ")" * 1200,
     "3"),
]:
    _add(f"sweep {_name}", "sweep", "--family", _family, "--sigmas", _sigmas,
         "--n-grid", _grid)
_add("sweep csv", "sweep", "--family", "e1-plus-ek", "--sigmas", "none;all",
     "--n-grid", "4,8", "--csv", "-")

# -- metric ------------------------------------------------------------------
for _name, _family, _sigma, _tau, _more in [
    ("e1-plus-ek", "e1-plus-ek", "all", "none", ["--n", 10, "--terms", 8]),
    ("e1-plus-ek res", "e1-plus-ek", "res(2;1)", "all", ["--n", 12, "--terms", 6]),
    ("defect-pair", "defect-pair(m=2)", "fin(1,3)", "none",
     ["--n", 8, "--terms", 4, "--precision", 32]),
    ("young", "young(w=1)", "all", "all-1", ["--n", 8, "--terms", 5]),
    ("finite-set", "finite-set(0,1,3)", "res(3;1)", "res(3;2)", ["--n", 9, "--terms", 4]),
    ("infinite-set", "infinite-set(0,1,inf)", "none", "all", ["--n", 6, "--terms", 4]),
    ("random", "random(d=5,n=4,seed=1,dual=perturbed)", "all", "fin(2)",
     ["--n", 4, "--terms", 3]),
    ("equal spans", "e1-plus-ek", "all", "all", ["--n", 6, "--terms", 4]),
    ("precision 0", "e1-plus-ek", "all", "none", ["--n", 4, "--terms", 3, "--precision", 0]),
    ("precision 2000", "e1-plus-ek", "fin(1)", "none",
     ["--n", 4, "--terms", 2, "--precision", 2000]),
    ("error terms 0", "e1-plus-ek", "all", "none", ["--n", 4, "--terms", 0]),
    ("error precision negative", "e1-plus-ek", "all", "none", ["--n", 4, "--precision", -5]),
    ("error n=0", "e1-plus-ek", "all", "none", ["--n", 0]),
    ("error bad tau", "e1-plus-ek", "all", "res(0;0)", ["--n", 4]),
    ("error tau deep complement", "e1-plus-ek", "all", "~" * 1500 + "none", ["--n", 4]),
    ("sigma element at the bound", "e1-plus-ek", "fin(100000)", "none+1",
     ["--n", 4, "--terms", 2]),
    ("error sigma element above the bound", "e1-plus-ek", "fin(100001)", "none",
     ["--n", 4, "--terms", 2]),
    ("error sigma tau lcm above the bound", "e1-plus-ek", "res(9973;1)", "res(2;1)",
     ["--n", 4, "--terms", 2]),
]:
    _add(f"metric {_name}", "metric", "--family", _family, "--sigma", _sigma,
         "--tau", _tau, *_more)

# -- chain -------------------------------------------------------------------
for _name, _family, _sigma, _depth, _n in [
    ("e1-plus-ek", "e1-plus-ek", "none", 5, 10),
    ("defect-pair res", "defect-pair(m=2)", "res(2;1)", 8, 24),
    ("finite-set", "finite-set(0,1,3)", "all", 4, 12),
    ("infinite-set", "infinite-set(0,1,inf)", "fin(2,3)", 3, 8),
    ("young", "young(w=2)", "res(3;0)", 4, 9),
    ("random", "random(d=6,n=5,seed=2)", "fin(1,2)", 3, 5),
    ("depth equals n", "e1-plus-ek", "all-1", 6, 6),
    ("error depth 0", "e1-plus-ek", "none", 0, 8),
    ("error depth negative", "e1-plus-ek", "none", -1, 8),
    ("error depth above n", "e1-plus-ek", "none", 9, 8),
    ("error n 0", "e1-plus-ek", "none", 1, 0),
]:
    _add(f"chain {_name}", "chain", "--family", _family, "--sigma", _sigma,
         "--depth", _depth, "--n", _n)
# chain counts indices and computes no rational, so no budget can trip it
_add("chain digit budget 1", "chain", "--family", "defect-pair(m=2)", "--sigma", "res(2;1)",
     "--depth", 8, "--n", 24, "--digit-budget", 1)

# -- converge ----------------------------------------------------------------
for _name, _family, _sigma, _more in [
    ("e1-plus-ek semicontinuity", "e1-plus-ek", "none",
     ["--m-max", 6, "--n", 12, "--semicontinuity"]),
    ("e1-plus-ek all", "e1-plus-ek", "all", ["--m-max", 3, "--n", 8, "--terms", 4]),
    ("defect-pair", "defect-pair(m=2)", "fin(1,2)",
     ["--m-max", 4, "--n", 10, "--semicontinuity"]),
    ("finite-set", "finite-set(0,1,3)", "res(3;1)", ["--m-max", 3, "--n", 9, "--terms", 5]),
    ("young", "young(w=1)", "none", ["--m-max", 3, "--n", 6, "--terms", 4]),
    ("infinite-set", "infinite-set(0,1,inf)", "fin(1)", ["--m-max", 2, "--n", 5,
                                                         "--terms", 3]),
    ("random", "random(d=5,n=4,seed=6,dual=perturbed)", "fin(1,3)",
     ["--m-max", 3, "--n", 4, "--terms", 3, "--semicontinuity"]),
    ("precision 8", "e1-plus-ek", "none", ["--m-max", 2, "--n", 6, "--precision", 8]),
    # 300 rows, each with its own sigma_m and rho over exceptions up to 300
    ("m-max 300", "e1-plus-ek", "none", ["--m-max", 300, "--n", 4, "--terms", 2]),
    ("error m-max 0", "e1-plus-ek", "none", ["--m-max", 0, "--n", 4]),
    ("error terms 0", "e1-plus-ek", "none", ["--m-max", 2, "--n", 4, "--terms", 0]),
    ("error precision negative", "e1-plus-ek", "none",
     ["--m-max", 2, "--n", 4, "--precision", -1]),
    ("error n 0", "e1-plus-ek", "none", ["--m-max", 2, "--n", 0]),
]:
    _add(f"converge {_name}", "converge", "--family", _family, "--sigma", _sigma, *_more)

# -- oracle ------------------------------------------------------------------
for _suite, _instances, _seed in [("all", 20, 7), ("all", 10, 3), ("swap", 30, 1),
                                  ("hereditary", 12, 2), ("swap", 0, 0),
                                  ("hereditary", 0, 5)]:
    _add(f"oracle {_suite} {_instances} seed={_seed}", "oracle", "--suite", _suite,
         "--instances", _instances, "--seed", _seed)
_add("oracle default suite", "oracle", "--instances", 4, "--seed", 11)
_add("oracle error instances negative", "oracle", "--instances", -1)

# -- sizes: one above each bound (defectlab.cli.MAX_N, MAX_TERMS, MAX_M_MAX,
# MAX_PRECISION, MAX_INSTANCES; defectlab.families.MAX_YOUNG_WIDTH, MAX_PAIR_M,
# MAX_FINITE_SET_ELEMENT; defectlab.infiniteset.MAX_INFINITE_SET_ELEMENT;
# defectlab.oracle.MAX_RANDOM_DIM, MAX_RANDOM_COUNT) -------------------------------
_add("defect error n above the bound", "defect", *_family_sigma("e1-plus-ek", "all", 10_001))
_add("sweep error n-grid above the bound", "sweep", "--family", "e1-plus-ek", "--sigmas",
     "all", "--n-grid", "3,10001")
_add("metric error terms above the bound", "metric", "--family", "e1-plus-ek", "--sigma",
     "all", "--tau", "none", "--n", 4, "--terms", 1_001)
_add("converge error m-max above the bound", "converge", "--family", "e1-plus-ek",
     "--sigma", "none", "--m-max", 1_001, "--n", 4, "--terms", 2)
_add("construct error random d above the bound", "construct", "--family",
     "random(d=101,n=2)", "--n", 1)
_add("construct error random n above the bound", "construct", "--family",
     "random(d=100,n=51)", "--n", 1)
_add("metric error precision above the bound", "metric", "--family", "e1-plus-ek", "--sigma",
     "all", "--tau", "none", "--n", 4, "--precision", 100_001)
_add("converge error precision above the bound", "converge", "--family", "e1-plus-ek",
     "--sigma", "none", "--m-max", 2, "--n", 4, "--precision", 100_001)
_add("oracle error instances above the bound", "oracle", "--instances", 10_001)
for _name, _family in [("young w", "young(w=101)"), ("defect-pair m", "defect-pair(m=101)"),
                       ("finite-set element", "finite-set(0,1,101)"),
                       ("infinite-set element", "infinite-set(0,101,inf)")]:
    _add(f"construct error {_name} above the bound", "construct", "--family", _family, "--n", 1)
# an integer argument of more than 20 digits is refused by its digit count
_add("construct error young w of 5000 digits", "construct", "--family",
     "young(w=%s)" % ("9" * 5000), "--n", 1)
_add("construct error random d of 5000 digits", "construct", "--family",
     "random(d=%s,n=2)" % ("9" * 5000), "--n", 1)
# and so is a bounded integer flag
_add("construct error n of 100000 digits", "construct", "--family", "e1-plus-ek",
     "--n", "9" * 100_000)
_add("defect error n-list of 100000 digits", "defect",
     *_family_sigma("e1-plus-ek", "all", 4, "--n-list", "9" * 100_000 + ",4"))

# -- digit budget: just below and at each pinned trip point -------------------
for _name, _argv, _below, _at in _BUDGET_PINS:
    _add(f"budget {_name} below", *_argv, "--digit-budget", _below)
    _add(f"budget {_name} at", *_argv, "--digit-budget", _at)
_add("budget error 0", "metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau",
     "none", "--n", 4, "--digit-budget", 0)
_add("budget error negative", "chain", "--family", "e1-plus-ek", "--sigma", "all",
     "--depth", 2, "--n", 4, "--digit-budget", -1)
_add("budget metric", "metric", "--family", "defect-pair(m=2)", "--sigma", "all", "--tau",
     "none", "--n", 8, "--terms", 4, "--digit-budget", 6)
_add("budget converge", "converge", "--family", "e1-plus-ek", "--sigma", "none",
     "--m-max", 3, "--n", 8, "--digit-budget", 4)

# -- the parser ----------------------------------------------------------------
_add("version", "--version")
_add("help", "--help")
_add("sweep help", "sweep", "--help")
# not converge: Python 3.13's argparse wraps its usage line at another
# place than 3.10-3.12, so its bytes depend on the Python version
for _command in ["construct", "defect", "metric", "chain", "oracle"]:
    _add(f"{_command} help", _command, "--help")
_add("no command")
_add("error missing flags", "defect", "--family", "e1-plus-ek")
_add("error int flag", "construct", "--family", "e1-plus-ek", "--n", "x")
_add("error unknown flag", "construct", "--family", "e1-plus-ek", "--n", 3, "--bogus")


def run_case(argv) -> dict:
    """{"exit", "stdout", "stderr"}: the exit code and the sha256 of each
    stream of one in-process run of the CLI."""
    from defectlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def digests() -> dict:
    return {name: run_case(argv) for name, argv in CASES.items()}


if __name__ == "__main__":
    import defectlab

    print(json.dumps({"package": defectlab.__file__, "digests": digests()}))
