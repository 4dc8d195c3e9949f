import io
import math

import numpy as np
import pytest

from simplexledger.corpus import ArticleRecord, CorpusStore
from simplexledger.passes import Layout, _emit_pass, _row_cells
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


@pytest.fixture
def engine_simplices():
    """The (k+1)-combinations of one keyword set as the ledger emits them:
    the words of the full pass over a one-article, one-year view, from the
    cells of its rows, unpacked."""

    def simplices(keywords, k):
        ids = np.array(sorted(set(keywords)), dtype=np.uint32)
        s = k + 1
        layout = Layout.of(int(ids.max(initial=0)) + 1, s, 1)
        offsets = np.array([0, ids.size], dtype=np.int64)
        view = (None, np.array([0, 1]), offsets, ids, None, None)
        words = np.empty(math.comb(ids.size, s), dtype=np.uint64)
        _emit_pass(view, k, layout, _row_cells(view, k, 1 << 30), 0, words, 1 << 30)
        mask = (1 << layout.bits) - 1
        return [
            tuple(key >> layout.bits * (s - 1 - j) & mask for j in range(s))
            for key in words.tolist()
        ]

    return simplices
