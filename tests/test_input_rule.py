"""Every public integer argument follows one rule: an int, not a bool, at or
above its lower bound, or InvalidInputError before any work is done.  Every
resource cap follows one more: over the cap is ResourceLimitError with one
message form, checked only after every argument, and before any work."""

import importlib
import inspect
import pathlib
import pkgutil
import re
import time

import pytest

import clusterext
from clusterext import asymptotics, cli, patterns, profiles, sampling
from clusterext.errors import (InvalidInputError, ResourceLimitError,
                               require_at_most, require_int)
from clusterext.exact_counts import exact_count_sweep
from clusterext.posets import ClusterParams, FinitePoset, cluster_poset

SMALL = ClusterParams(3, 1, 2, 2)
ANTICHAIN = FinitePoset(["x", "y", "z"], [])


def _fit_points(v):
    args = cli.build_parser().parse_args(
        ["fit", "--m", "3", "--a", "1", "--b", "2", "--n-max", "3"])
    args.points = v
    cli._COMMANDS["fit"][2](args)


# (argument, call with the value under test, a value just below its range)
ARGUMENTS = [
    ("ClusterParams.m", lambda v: ClusterParams(v, 1, 2, 1), 1),
    ("ClusterParams.a", lambda v: ClusterParams(3, v, 2, 1), 0),
    ("ClusterParams.b", lambda v: ClusterParams(3, 1, v, 1), 1),
    ("ClusterParams.n", lambda v: ClusterParams(3, 1, 2, v), 0),
    ("occurrence_histogram.n", lambda v: patterns.occurrence_histogram((1, 2), v), 0),
    ("cwilf_evidence.n_max", lambda v: patterns.cwilf_evidence((1, 2), (2, 1), v), 0),
    ("evidence_classes.m", lambda v: patterns.evidence_classes(v, 3), 0),
    ("evidence_classes.n_max", lambda v: patterns.evidence_classes(3, v), 0),
    ("nonoverlapping_fraction.m", patterns.nonoverlapping_fraction, 1),
    ("profile_table.grid_size", lambda v: profiles.profile_table(3, 1, 2, v), 1),
    ("variational_profile.grid_size",
     lambda v: profiles.variational_profile(
         profiles.VariationalProblem([1.0] * 1001, 1.0), v), 1),
    ("height_profile.samples",
     lambda v: sampling.height_profile(SMALL, v, burnin=0, thinning=1), 0),
    ("height_profile.burnin",
     lambda v: sampling.height_profile(SMALL, 1, burnin=v, thinning=1), -1),
    ("height_profile.thinning",
     lambda v: sampling.height_profile(SMALL, 1, burnin=0, thinning=v), 0),
    ("height_profile.seed",
     lambda v: sampling.height_profile(SMALL, 1, burnin=0, thinning=1, seed=v), -1),
    ("sample_distribution.num_samples",
     lambda v: sampling.sample_distribution(ANTICHAIN, v, 1, 0, 0), 0),
    ("sample_distribution.thinning",
     lambda v: sampling.sample_distribution(ANTICHAIN, 1, v, 0, 0), 0),
    ("sample_distribution.burnin",
     lambda v: sampling.sample_distribution(ANTICHAIN, 1, 1, v, 0), -1),
    ("sample_distribution.seed",
     lambda v: sampling.sample_distribution(ANTICHAIN, 1, 1, 0, v), -1),
    ("sample_linear_extension.steps",
     lambda v: sampling.sample_linear_extension(ANTICHAIN, v, 0), -1),
    ("sample_linear_extension.seed",
     lambda v: sampling.sample_linear_extension(ANTICHAIN, 1, v), -1),
    ("ExtensionChain.seed", lambda v: sampling.ExtensionChain(ANTICHAIN, v), -1),
    ("ExtensionChain.run.steps", lambda v: sampling.ExtensionChain(ANTICHAIN, 0).run(v), -1),
    ("exact_count_sweep.n_max", lambda v: exact_count_sweep(3, 1, 2, v), 0),
    ("crossover_sweeps.n_max",
     lambda v: asymptotics.crossover_sweeps(6, 1, 3, 2, 4, v), 0),
    ("crossover_search.n_max",
     lambda v: asymptotics.crossover_search(6, 1, 3, 2, 4, v), 0),
    ("empirical_constant.n", lambda v: asymptotics.empirical_constant(3, 1, 2, v), 0),
    ("constant_concavity.d", lambda v: asymptotics.constant_concavity(1.0, v), 1),
    ("log_integer.value", asymptotics.log_integer, 0),
    ("default_burnin.size", sampling.default_burnin, -1),
    ("default_thinning.size", sampling.default_thinning, -1),
    ("FinitePoset.less.x", lambda v: ANTICHAIN.less(v, 0), -1),
    ("FinitePoset.less.y", lambda v: ANTICHAIN.less(0, v), -1),
    ("fit --points", _fit_points, -1),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}={value!r}")
    for name, call, below in ARGUMENTS for value in (True, 2.5, "3", below)])
def test_integer_arguments_refuse_bad_values(call, value):
    with pytest.raises(InvalidInputError):
        call(value)


# every function that takes these builds ClusterParams first, which has its own rows
SHAPE_ARGUMENTS = {"m", "a", "b", "a2", "b2"}


def _int_parameters():
    """Names, as in ARGUMENTS, of the int and Optional[int] parameters of the
    functions that clusterext exports and of the FinitePoset and
    ExtensionChain methods."""
    callables = [(name, fn) for name, fn in vars(clusterext).items()
                 if inspect.isfunction(fn)]
    for cls in (FinitePoset, sampling.ExtensionChain):
        callables.append((cls.__name__, cls.__init__))
        callables += [(f"{cls.__name__}.{name}", fn) for name, fn in vars(cls).items()
                      if inspect.isfunction(fn) and not name.startswith("_")]
    for prefix, fn in callables:
        for param in inspect.signature(fn).parameters.values():
            # annotations are strings: every module uses postponed evaluation
            if (param.annotation in ("int", "Optional[int]")
                    and param.name not in SHAPE_ARGUMENTS):
                yield f"{prefix}.{param.name}"


def test_every_int_parameter_has_a_row():
    rows = {name for name, _, _ in ARGUMENTS}
    scanned = set(_int_parameters())
    assert {"ExtensionChain.run.steps", "FinitePoset.less.x"} <= scanned
    assert sorted(scanned - rows) == []


def test_require_int():
    require_int("k", 3, 3)
    require_int("k", -2, -5)
    for bad in (2, 3.0, True, "3", None):
        with pytest.raises(InvalidInputError, match=r"^k must be an integer >= 3, got "):
            require_int("k", bad, 3)


def test_n_max_errors_name_n_max():
    with pytest.raises(InvalidInputError, match=r"^n_max must be an integer >= 1, got 0$"):
        exact_count_sweep(3, 1, 2, 0)


def _handler(*argv):
    """Run one CLI subcommand's handler, so its exceptions reach the caller."""
    args = cli.build_parser().parse_args(argv)
    return cli._COMMANDS[args.command][2](args)


# (cap, quantity in the message, one unit over the cap, call with one other
# argument, a valid and an invalid value of that argument); None where the
# call takes no other argument.  With its cap lifted, each call's work takes
# 0.65 s (classify) to minutes on one core of a 2-vCPU Xeon VM, so a refusal
# within REFUSAL_SECONDS started none of it.  The one exception is the
# brute-force count, about 0.05 s just past its cap; test_cli checks that
# its refusal builds no poset.
BUDGETS = [
    ("posets.MAX_BRUTEFORCE_ELEMENTS", "brute-force poset size", 25,
     lambda a: _handler("count", "--m", "3", "--a", a, "--b", "2", "--n", "12",
                        "--method", "brute"), "1", "0"),
    ("posets.MAX_GLUED_ELEMENTS", "glued-chain poset size", 10 ** 6 + 1,
     lambda n: cluster_poset(ClusterParams(2, 1, 2, n)), 10 ** 6, 0),
    ("exact_counts.MAX_INTEGRAL_DEGREE", "iterated integral degree", 6001,
     lambda v: exact_count_sweep(18, 9, 10, 353, v), "p", "x"),
    ("patterns.MAX_TEXT_LENGTH", "text length", 11,
     lambda p: patterns.occurrence_histogram(p, 11), (1, 2), (1, 1)),
    ("patterns.MAX_CENSUS_LENGTH", "census pattern length", 12,
     lambda _: patterns.nonoverlapping_fraction(12), None, None),
    ("patterns.MAX_CLASSIFY_LENGTH", "classified pattern length", 8,
     lambda n_max: patterns.evidence_classes(8, n_max), 10, 0),
    ("profiles.MAX_PROFILE_POINTS", "grid_size", 100001,
     lambda a: profiles.profile_table(3, a, 2, 100001), 1, 2),
    ("sampling.MAX_CHAIN_STEPS", "chain steps", 10 ** 9 + 1,
     lambda seed: sampling.sample_linear_extension(ANTICHAIN, 10 ** 9 + 1, seed), 0, -1),
    ("sampling.MAX_CHAIN_ELEMENTS", "sampled poset size", 4097,
     lambda seed: sampling.height_profile(ClusterParams(2, 1, 2, 4096), 1, burnin=0,
                                          thinning=1, seed=seed), 0, -1),
]

REFUSAL_SECONDS = 0.25


def _cap(name):
    module, constant = name.split(".")
    return getattr(importlib.import_module(f"clusterext.{module}"), constant)


@pytest.mark.parametrize("cap, quantity, over, call, valid, invalid",
                         BUDGETS, ids=[row[0] for row in BUDGETS])
def test_caps_are_checked_after_arguments_and_before_work(
        cap, quantity, over, call, valid, invalid):
    limit = _cap(cap)
    assert over == limit + 1
    message = f"{quantity} {over} exceeds the cap of {limit}"
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        call(valid)
    assert time.perf_counter() - start < REFUSAL_SECONDS
    if invalid is not None:
        with pytest.raises(InvalidInputError):
            call(invalid)


def _caps():
    """Names, as in BUDGETS, of the module-level MAX_* constants of clusterext."""
    for info in pkgutil.iter_modules(clusterext.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"clusterext.{info.name}")
        yield from (f"{info.name}.{name}" for name in vars(module)
                    if name.startswith("MAX_"))


def test_every_cap_has_a_row():
    scanned = set(_caps())
    assert {"posets.MAX_BRUTEFORCE_ELEMENTS", "sampling.MAX_CHAIN_STEPS"} <= scanned
    assert sorted(scanned - {row[0] for row in BUDGETS}) == []


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# | `module.MAX_NAME` | what it bounds | value | checked by |
README_ROW = re.compile(r"^\| `(\w+\.MAX_\w+)` \|.*\| ([^|]*?) \|[^|]*\|$")


def _readme_value(text):
    """A Value cell such as ``24`` or ``10**5`` as an int."""
    base, _, exponent = text.partition("**")
    return int(base) ** int(exponent or 1)


def test_every_cap_has_a_readme_row():
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = [row.groups() for row in map(README_ROW.match, lines) if row]
    names = [name for name, _ in rows]
    assert sorted(names) == sorted(_caps())  # one row per cap, none stale
    for name, value in rows:
        assert _readme_value(value) == _cap(name), (name, value)


def _cost_note(name):
    """The ``#:`` comment lines right above a MAX_* constant, joined."""
    module, constant = name.split(".")
    lines = inspect.getsource(importlib.import_module(f"clusterext.{module}")).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{constant} = "))
    note = []
    while at > 0 and lines[at - 1].startswith("#:"):
        at -= 1
        note.insert(0, lines[at][2:].strip())
    return " ".join(note)


MEASURED_TIME = re.compile(r"\d(?:[\d.,]*\d)?\s*(?:ms|s|min)\b")


@pytest.mark.parametrize("cap", sorted(_caps()))
def test_every_cap_states_its_cost(cap):
    # each cap's note gives a measured time, such as "0.6 s" or "6.4 min"
    assert MEASURED_TIME.search(_cost_note(cap)), (cap, _cost_note(cap))


def test_require_at_most():
    require_at_most("k", 3, 3)
    require_at_most("k", -2, -1)
    with pytest.raises(ResourceLimitError, match=r"^k 4 exceeds the cap of 3$"):
        require_at_most("k", 4, 3)
