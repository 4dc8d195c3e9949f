import io

import pytest
from hypothesis import given, strategies as st

from simplexledger.ontology import (
    DEFAULT_BRANCHES,
    BranchFilter,
    Descriptor,
    OntologyError,
    is_eligible,
    load_ontology,
)

from conftest import ONTOLOGY_TSV


def test_load_assigns_dense_ids_in_source_order():
    text = "D1\tOne\tA01\nD2\tTwo\tB01\nD3\tThree\tC01\n"
    ontology = load_ontology(io.StringIO(text))
    assert len(ontology) == 3
    assert [d.id for d in ontology.descriptors] == [0, 1, 2]
    assert {d.external_code: d.id for d in ontology.descriptors}["D2"] == 1


def test_header_row_is_detected_and_skipped():
    text = "external_code\tname\ttree_numbers\nD1\tOne\tA01\n"
    assert len(load_ontology(io.StringIO(text))) == 1


def test_duplicate_code_rejected_naming_the_code():
    text = "D1\tOne\tA01\nD1\tAgain\tB01\n"
    with pytest.raises(OntologyError, match="D1"):
        load_ontology(io.StringIO(text))


@pytest.mark.parametrize("code", [" D2", "D2 ", "D2\u00a0", "*D2", "**D2"])
def test_code_no_keyword_token_can_name_is_rejected(code):
    # A corpus token is trimmed and a leading ``*`` marks it Major.
    text = f"D1\tOne\tA01\n{code}\tTwo\tB01\n"
    with pytest.raises(OntologyError, match="line 2"):
        load_ontology(io.StringIO(text))


def test_malformed_row_rejected_with_line_number():
    text = "D1\tOne\tA01\nD2\tmissing-field\n"
    with pytest.raises(OntologyError, match="line 2"):
        load_ontology(io.StringIO(text))


def test_load_is_deterministic():
    a = load_ontology(io.StringIO(ONTOLOGY_TSV))
    b = load_ontology(io.StringIO(ONTOLOGY_TSV))
    assert a.descriptors == b.descriptors


def test_telomere_style_row_lands_in_branch_g():
    ontology = load_ontology(io.StringIO("D016615\tTelomere\tG05.360.80\n"))
    (descriptor,) = ontology.descriptors
    assert descriptor.external_code == "D016615"
    assert descriptor.tree_numbers == ("G05.360.80",)
    assert is_eligible(descriptor, BranchFilter())


def test_default_branch_set():
    assert BranchFilter().allowed == frozenset("ABCDEFGJLN")
    assert DEFAULT_BRANCHES == frozenset("ABCDEFGJLN")


def test_geographical_branch_excluded_by_default():
    d = Descriptor(0, "DX", "Somewhere", ("Z01.2",))
    assert not is_eligible(d, BranchFilter())


def test_multi_branch_descriptor_eligible_if_any_branch_allowed():
    d = Descriptor(0, "DX", "Mixed", ("Z01.2", "C04.5"))
    assert is_eligible(d, BranchFilter())


def test_no_tree_numbers_means_ineligible():
    d = Descriptor(0, "DX", "Orphan", ())
    assert not is_eligible(d, BranchFilter())


def test_invalid_branch_codes_rejected():
    with pytest.raises(OntologyError):
        BranchFilter(frozenset({"a", "1"}))


def test_eligible_partition_covers_all_descriptors(ontology):
    eligible = {d.id for d in ontology.descriptors if is_eligible(d, BranchFilter())}
    excluded_only = {
        d.id
        for d in ontology.descriptors
        if all(t[:1] in set("HIKMVZ") for t in d.tree_numbers)
    }
    assert len(eligible) + len(excluded_only) == len(ontology)


@given(
    trees=st.lists(
        st.sampled_from([c + "01.5" for c in "ABCDEFGHIJKLMNVZ"]),
        min_size=0,
        max_size=4,
    ),
    smaller=st.sets(st.sampled_from(list("ABCDEFGHIJKLMNVZ"))),
    extra=st.sets(st.sampled_from(list("ABCDEFGHIJKLMNVZ"))),
)
def test_eligibility_is_monotone_in_the_filter(trees, smaller, extra):
    d = Descriptor(0, "DX", "Any", tuple(trees))
    small = BranchFilter(frozenset(smaller))
    large = BranchFilter(frozenset(smaller | extra))
    if is_eligible(d, small):
        assert is_eligible(d, large)
