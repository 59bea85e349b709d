import ast
import copy
import gc
import hashlib
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterext import posets
from clusterext.errors import (DomainError, InternalConsistencyError,
                               InvalidInputError, ResourceLimitError)
from clusterext.exact_counts import sandwich_check
from clusterext.posets import (ClusterParams, FinitePoset, cluster_poset,
                               count_linear_extensions_bruteforce, glue_labels,
                               modified_cluster_poset, poset_to_dot)
from oracle import enumerate_linear_extensions


def chain(k):
    return FinitePoset([f"e{i}" for i in range(k)],
                       [(i, i + 1) for i in range(k - 1)])


def antichain(k):
    return FinitePoset([f"e{i}" for i in range(k)], [])


def test_params_validation():
    ClusterParams(3, 1, 2, 1)
    with pytest.raises(InvalidInputError):
        ClusterParams(3, 2, 2, 1)
    with pytest.raises(InvalidInputError):
        ClusterParams(3, 0, 2, 1)
    with pytest.raises(InvalidInputError):
        ClusterParams(3, 1, 4, 1)
    with pytest.raises(InvalidInputError):
        ClusterParams(3, 1, 2, 0)
    # the tuple API validates too
    with pytest.raises(InvalidInputError, match="need 1 <= a < b <= m"):
        ClusterParams(3, 1, 2, 2)._replace(a=5)
    with pytest.raises(InvalidInputError, match="m must be an integer >= 1"):
        ClusterParams._make((0, 1, 2, 1))
    params = ClusterParams(3, 1, 2, 2)
    assert ClusterParams._make((3, 1, 2, 2)) == params
    for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params),
                 copy.deepcopy(params)):
        assert type(twin) is ClusterParams and twin == params
    with pytest.raises(AttributeError):
        params.a = 2
    with pytest.raises(AttributeError):
        params.extra = 2
    assert hash(params) == hash((3, 1, 2, 2))
    assert repr(params) == "ClusterParams(m=3, a=1, b=2, n=2)"
    assert params == (3, 1, 2, 2) and tuple(params) == (3, 1, 2, 2)


@pytest.mark.parametrize("fields", [(3, 1, 2, True), (True, False, True, 1),
                                    (3.0, 1, 2, 1), (3, 1, 2, "1")])
def test_params_reject_non_int(fields):
    with pytest.raises(InvalidInputError):
        ClusterParams(*fields)


def test_shape_beyond_the_float_range_is_a_domain_error():
    assert ClusterParams(10 ** 308, 1, 2, 1).shape == (1.0, 1e308)
    for m, a, b in [(10 ** 309, 1, 2), (10 ** 400, 10 ** 400 - 1, 10 ** 400)]:
        with pytest.raises(DomainError, match="beyond the float range"):
            ClusterParams(m, a, b, 1).shape


def test_params_derived_quantities():
    p = ClusterParams(8, 3, 5, 2)
    assert p.d == 2
    assert p.leading == 5
    assert p.p_size == 15
    assert p.q_size == 20


def test_cluster_poset_is_chain_when_glued_end_to_end():
    poset = cluster_poset(ClusterParams(3, 1, 3, 2))
    assert len(poset) == 5
    # a poset is a chain iff it has a unique linear extension
    assert count_linear_extensions_bruteforce(poset) == 1


def test_cluster_poset_covers_literal():
    poset = cluster_poset(ClusterParams(3, 1, 2, 2))
    assert len(poset) == 5
    label_covers = {(poset.labels[x], poset.labels[y]) for x, y in poset.covers}
    assert label_covers == {("A(1,1)", "A(1,2)"), ("A(1,2)", "A(1,3)"),
                            ("A(1,2)", "A(2,2)"), ("A(2,2)", "A(2,3)")}


def test_cluster_poset_cardinality():
    poset = cluster_poset(ClusterParams(8, 3, 5, 3))
    assert len(poset) == 22


#: SHA-256 of repr((labels, covers)) over both variants, 2 <= m <= 8,
#: 1 <= a < b <= m and 1 <= n <= 4, in that loop order.
POSET_DIGEST = "e9ff1cd44c9d1f611e89f6bebf7c013fb4a57a5c6dd9e4b0a3eff903627d2d67"


def test_poset_labels_and_covers_are_pinned():
    h = hashlib.sha256()
    for build in (cluster_poset, modified_cluster_poset):
        for m in range(2, 9):
            for a in range(1, m):
                for b in range(a + 1, m + 1):
                    for n in range(1, 5):
                        p = build(ClusterParams(m, a, b, n))
                        h.update(repr((p.labels, p.covers)).encode())
    assert h.hexdigest() == POSET_DIGEST


def test_modified_poset_builds_one_finite_poset(monkeypatch):
    built = []

    class Counted(FinitePoset):
        def __init__(self, labels, covers):
            built.append(len(labels))
            super().__init__(labels, covers)

    monkeypatch.setattr(posets, "FinitePoset", Counted)
    modified_cluster_poset(ClusterParams(8, 3, 5, 2))
    assert built == [20]


def test_poset_size_mismatch_is_internal(monkeypatch):
    monkeypatch.setattr(ClusterParams, "q_size", property(lambda self: 0))
    with pytest.raises(InternalConsistencyError):
        modified_cluster_poset(ClusterParams(8, 3, 5, 2))


def test_posets_imports_only_errors():
    tree = ast.parse(Path(posets.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative == {"errors"}


def test_modified_poset_examples():
    assert len(modified_cluster_poset(ClusterParams(3, 1, 2, 2))) == 6
    assert len(modified_cluster_poset(ClusterParams(8, 3, 5, 2))) == 20
    # a = 1, b = m adds nothing
    p = ClusterParams(4, 1, 4, 3)
    assert modified_cluster_poset(p).labels == cluster_poset(p).labels


def test_modified_poset_induces_plain_poset():
    params = ClusterParams(5, 2, 4, 2)
    plain = cluster_poset(params)
    padded = modified_cluster_poset(params)
    kept = set(plain.labels)
    induced = {(padded.labels[x], padded.labels[y]) for x, y in padded.covers
               if padded.labels[x] in kept and padded.labels[y] in kept}
    original = {(plain.labels[x], plain.labels[y]) for x, y in plain.covers}
    assert induced == original


def test_glue_labels():
    assert glue_labels(ClusterParams(3, 1, 2, 2)) == ["A(1,1)", "A(1,2)", "A(2,2)"]
    params = ClusterParams(8, 3, 5, 3)
    poset = cluster_poset(params)
    for lab in glue_labels(params):
        poset.index(lab)  # every glue label resolves


def test_bruteforce_counts_basic():
    assert count_linear_extensions_bruteforce(antichain(3)) == 6
    assert count_linear_extensions_bruteforce(chain(5)) == 1
    assert count_linear_extensions_bruteforce(
        cluster_poset(ClusterParams(3, 1, 2, 2))) == 3


def test_bruteforce_antichain_factorials():
    for k in range(0, 9):
        assert count_linear_extensions_bruteforce(antichain(k)) == math.factorial(k)


def test_bruteforce_frees_its_memo_without_the_cycle_collector():
    # a memo left in a reference cycle waits for a full collection, so
    # in-process callers of cli.run would hold every count's memo
    poset = cluster_poset(ClusterParams(4, 2, 3, 5))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        count_linear_extensions_bruteforce(poset)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _reachable(poset, x):
    # depth-first search over the cover pairs themselves, not upper_covers
    seen, stack = set(), [x]
    while stack:
        u = stack.pop()
        for v in (y for w, y in poset.covers if w == u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@st.composite
def dags(draw, max_size=8):
    # relations x -> y between ranks x < y, then the elements relabelled, so
    # a relation may run from a larger index to a smaller one
    n = draw(st.integers(0, max_size))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    name = draw(st.permutations(range(n)))
    return FinitePoset([f"e{i}" for i in range(n)],
                       [(name[x], name[y]) for (x, y), k in zip(pairs, keep) if k])


@settings(max_examples=80, deadline=None)
@given(poset=dags(), data=st.data())
def test_bruteforce_counts_every_extension(poset, data):
    exts = enumerate_linear_extensions(poset)
    assert count_linear_extensions_bruteforce(poset) == len(exts)
    # Kahn's order, smallest index first, is the least extension
    assert poset.topological_order() == exts[0]
    # cover lists padded with pairs the order already implies count the same
    implied = [(x, y) for x in range(len(poset)) for y in _reachable(poset, x)]
    if implied:
        extra = data.draw(st.lists(st.sampled_from(implied), min_size=1))
        padded = FinitePoset(poset.labels, poset.covers + tuple(extra))
        assert count_linear_extensions_bruteforce(padded) == len(exts)


def test_bruteforce_resource_limit():
    with pytest.raises(ResourceLimitError):
        count_linear_extensions_bruteforce(chain(25))


def test_cycle_detection():
    with pytest.raises(InvalidInputError):
        FinitePoset(["x", "y", "z"], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidInputError):
        FinitePoset(["x"], [(0, 0)])
    for cover in ((-1, 0), (0, 2)):
        with pytest.raises(InvalidInputError):
            FinitePoset(["x", "y"], [cover])


def test_labels_must_be_distinct():
    with pytest.raises(InvalidInputError, match="^element labels must be distinct$"):
        FinitePoset(["x", "y", "x"], [(0, 1)])


def test_glued_chain_cap_counts_the_padding():
    # p has (m-1)n + 1 elements, at the cap here; the padded q has m - b + a - 1 more
    params = ClusterParams(4, 1, 2, (posets.MAX_GLUED_ELEMENTS - 1) // 3)
    assert params.p_size == posets.MAX_GLUED_ELEMENTS < params.q_size
    with pytest.raises(ResourceLimitError, match="^glued-chain poset size 1000002 "):
        modified_cluster_poset(params)


@pytest.mark.parametrize("cover", [(0.9, 1), (0, 1.0), (True, 0), (False, 1),
                                   ("0", 1)])
def test_cover_indices_are_checked_ints(cover):
    with pytest.raises(InvalidInputError):
        FinitePoset(["a", "b"], [cover])


def test_updown_symmetry_counts():
    for m in range(2, 6):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                for n in range(1, 4):
                    p1 = cluster_poset(ClusterParams(m, a, b, n))
                    p2 = cluster_poset(ClusterParams(m, m + 1 - b, m + 1 - a, n))
                    assert (count_linear_extensions_bruteforce(p1)
                            == count_linear_extensions_bruteforce(p2))


def test_single_chain_has_one_extension():
    for m in range(2, 7):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                poset = cluster_poset(ClusterParams(m, a, b, 1))
                assert count_linear_extensions_bruteforce(poset) == 1


def test_sandwich_examples():
    assert sandwich_check(ClusterParams(3, 1, 2, 2))  # 3 <= 15 <= 18
    assert sandwich_check(ClusterParams(4, 1, 4, 3))  # chains, equality
    assert sandwich_check(ClusterParams(4, 1, 3, 2))


def test_dot_export():
    poset = cluster_poset(ClusterParams(3, 1, 2, 2))
    dot = poset_to_dot(poset, name="example")
    assert dot.startswith("digraph example {")
    assert dot.count("->") == len(poset.covers)
    assert 'label="A(1,1)"' in dot
    assert dot.endswith("}\n")


def test_dot_export_escapes_labels_and_refuses_bad_names():
    poset = FinitePoset(['say "hi"', "C:\\tmp"], [(0, 1)])
    dot = poset_to_dot(poset, name="my_poset")
    assert dot.startswith("digraph my_poset {")
    assert '  n0 [label="say \\"hi\\""];' in dot
    assert '  n1 [label="C:\\\\tmp"];' in dot
    for bad in ("my poset", "1st", "", "a-b", "graph", "Node", None):
        with pytest.raises(InvalidInputError):
            poset_to_dot(poset, name=bad)


@settings(max_examples=60, deadline=None)
@given(poset=dags())
def test_upper_covers_group_the_covers_by_their_lower_element(poset):
    assert len(poset.upper_covers) == len(poset)
    for x, above in enumerate(poset.upper_covers):
        assert above == tuple(y for u, y in poset.covers if u == x)


@settings(max_examples=60, deadline=None)
@given(poset=dags())
@example(poset=cluster_poset(ClusterParams(4, 2, 3, 2)))
def test_less_matches_reachability_in_the_covers(poset):
    for x in range(len(poset)):
        above = _reachable(poset, x)
        for y in range(len(poset)):
            assert poset.less(x, y) == (y in above)


@settings(max_examples=60, deadline=None)
@given(poset=dags(max_size=6))
def test_less_is_precedence_in_every_extension(poset):
    # x < y exactly when x comes before y in every linear extension
    positions = [{x: i for i, x in enumerate(ext)}
                 for ext in enumerate_linear_extensions(poset)]
    for x in range(len(poset)):
        for y in range(len(poset)):
            assert poset.less(x, y) == (x != y and all(pos[x] < pos[y]
                                                       for pos in positions))


def test_finite_poset_has_no_instance_dict():
    # the order is kept as the covers alone, with nothing cached beside them
    poset = cluster_poset(ClusterParams(4, 2, 3, 2))
    assert not hasattr(poset, "__dict__")
    with pytest.raises(AttributeError):
        poset.strict_upsets = ()


def test_less_and_index_refuse_outside_input():
    # the type and lower-bound cases of less are rows of test_input_rule
    poset = FinitePoset(["x", "y", "z"], [(0, 1), (1, 2)])
    for x, y in [(0, 3), (0, 5), (3, 0), (5, 0)]:
        with pytest.raises(InvalidInputError):
            poset.less(x, y)
    for label in ("zz", None, ["x"]):
        with pytest.raises(InvalidInputError):
            poset.index(label)
    assert poset.less(0, 2) and poset.index("z") == 2
