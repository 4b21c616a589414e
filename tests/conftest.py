import pytest

from d2dcache import NeighborCacheDistribution, default_config


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture
def uniform_dist(cfg):
    return NeighborCacheDistribution.uniform(cfg.F, cfg.L)


@pytest.fixture
def patch_beta(monkeypatch):
    """Make channel._beta serve the entry that its own build gives for the
    interference factors ``beta`` at cfg's nodes, and return that entry."""
    from d2dcache import channel

    def patch(beta, cfg):
        with monkeypatch.context() as m:
            m.setattr(channel, "_interference_factor_at", lambda r, c: beta)
            entry = channel._beta.__wrapped__(cfg)
        monkeypatch.setattr(channel, "_beta", lambda c: entry)
        return entry

    return patch
