import io

import pytest

from simplexledger.corpus import ArticleRecord, CorpusStore
from simplexledger.ontology import load_ontology

ONTOLOGY_TSV = """\
D000001\tAlpha Concept\tA01.111
D000002\tBeta Process\tG05.360.80
D000003\tGamma Region\tZ01.2
D000004\tDelta Agent\tD02.3;Z01.5
D000005\tEpsilon Method\tE05.1
D000006\tZeta Notion\tH01.2
D000007\tEta Entity\tC04.5
D000008\tTheta Factor\tB02.2
"""

DEMO_CORPUS = """\
p1\t2000\tJournal Article\t*D000001;*D000002;*D000007
p2\t2001\tJournal Article\t*D000002;*D000007;*D000008
"""


@pytest.fixture
def ontology():
    return load_ontology(io.StringIO(ONTOLOGY_TSV))


@pytest.fixture
def two_article_corpus():
    """The worked two-article corpus: {1,2,3} in 2000, {2,3,4} in 2001."""
    store = CorpusStore()
    store.add(
        ArticleRecord("a", 2000, frozenset({1, 2, 3}), frozenset({1, 2, 3}))
    )
    store.add(
        ArticleRecord("b", 2001, frozenset({2, 3, 4}), frozenset({2, 3, 4}))
    )
    return store
