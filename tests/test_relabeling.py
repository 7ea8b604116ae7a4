"""Node ids name nodes; positions in the document order index them.  The
same graph under sparse ids, or with its nodes listed in another order, has
the same features, matches and mined patterns."""

import numpy as np
import pytest

from cfgsentinel.features import FEATURE_NAMES, extract_features
from cfgsentinel.isomorphism import is_subgraph, match_count
from cfgsentinel.mining import canonical_dfs_code, gspan_mine
from conftest import as_samples, random_cfg, relabeled, tiny_cfg
from test_features import bits

BETWEENNESS = np.array([name.startswith("betweenness_") for name in FEATURE_NAMES])


@pytest.mark.parametrize("shuffle", [False, True])
def test_features(rng, shuffle):
    for _ in range(150):
        g = random_cfg(rng, n_lo=1, n_hi=16, p=2.0, self_loops=True)
        want, got = extract_features(g), extract_features(relabeled(g, rng, shuffle))
        if shuffle:
            # betweenness sums its sources in document order
            assert np.allclose(got[BETWEENNESS], want[BETWEENNESS], rtol=1e-12, atol=0)
            want, got = want[~BETWEENNESS], got[~BETWEENNESS]
        assert bits(got) == bits(want)


@pytest.mark.parametrize("shuffle", [False, True])
def test_matching(rng, shuffle):
    hits = 0
    for _ in range(300):
        p = tiny_cfg(rng, max_nodes=4)
        h = random_cfg(rng, n_lo=3, n_hi=9, p=1.5, n_labels=2, self_loops=True)
        rp, rh = relabeled(p, rng, shuffle), relabeled(h, rng, shuffle)
        want = is_subgraph(p, h)
        hits += want
        assert is_subgraph(rp, rh) == is_subgraph(p, rh) == is_subgraph(rp, h) == want
        assert match_count(rp, rh) == match_count(p, h)
    assert 0 < hits < 300


@pytest.mark.parametrize("shuffle", [False, True])
def test_canonical_code(rng, shuffle):
    for _ in range(150):
        g = random_cfg(rng, n_lo=1, n_hi=9, p=1.5, self_loops=True)
        assert canonical_dfs_code(relabeled(g, rng, shuffle)) == canonical_dfs_code(g)


@pytest.mark.parametrize("shuffle", [False, True])
def test_gspan_mine(rng, shuffle):
    def mined(graphs):
        return [(p.code, p.support, p.supporting_ids)
                for p in gspan_mine(as_samples(graphs), min_support=2, min_nodes=1, max_nodes=4)]

    for _ in range(10):
        graphs = [random_cfg(rng, n_lo=3, n_hi=8, p=1.5, n_labels=2, self_loops=True)
                  for _ in range(4)]
        want = mined(graphs)
        assert want
        assert mined([relabeled(g, rng, shuffle) for g in graphs]) == want
