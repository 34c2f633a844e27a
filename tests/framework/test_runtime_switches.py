"""The two runtime switches, ``backend`` and ``selfcheck``, are resolved once.

``GSpecPalConfig`` (and a directly built ``GpuSimulator``) resolves them at
construction; every layer below reads the stored value.  A ``MatcherPool``
settles on one serving config — its own, else its cache's, else the
default — and serves and compiles with it.  The backend
precedence is pool ``backend=`` > config > ``$REPRO_BACKEND`` > ``"sim"``;
the selfcheck precedence is config > ``$REPRO_SELFCHECK``.
"""

import math

import numpy as np
import pytest

from repro.engine import BACKEND_ENV_VAR
from repro.errors import SchemeError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.plan import compile_plan
from repro.selfcheck import SELFCHECK_ENV_VAR
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

SWITCHES = (None, "sim", "fast")


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.delenv(SELFCHECK_ENV_VAR, raising=False)
    return monkeypatch


@pytest.fixture(scope="module")
def training():
    rng = np.random.default_rng(39)
    return bytes(rng.integers(48, 58, size=512).astype(np.uint8))


@pytest.fixture(scope="module")
def plan(training):
    return compile_plan(classic.div7(), training, GSpecPalConfig(n_threads=8))


def _served(pool, sid):
    """One feed's result and the simulator the stream serves on: every
    scheme the session builds, and its walk, read both switches there."""
    result = pool.feed(sid, b"0123456789" * 8)
    return result, pool.state.lookup(sid).session._pal._simulator()


def test_pool_serves_with_the_config_it_compiles_with(clean_env, training):
    cfg = GSpecPalConfig(n_threads=16, backend="fast", selfcheck=True)
    pool = MatcherPool(PlanCache(config=cfg), config=cfg)
    sid = pool.open(classic.div7(), training_input=training)
    result, sim = _served(pool, sid)
    assert result.scheme == "walk"
    assert sim.engine.name == "fast"
    assert sim.selfcheck is True
    assert math.isnan(pool.close(sid).total_cycles)


def test_pool_serves_pm_at_the_one_spec_k(clean_env, training):
    pool = MatcherPool(PlanCache(config=GSpecPalConfig(n_threads=16)))
    with pytest.raises(SchemeError, match="pm-spec8"):
        pool.open(classic.div7(), training_input=training, scheme="pm-spec8")
    assert pool.stats()["cache"]["compiles"] == 0
    assert pool.stats()["reserved"] == 0
    sid = pool.open(classic.div7(), training_input=training, scheme="pm-spec4")
    result, _ = _served(pool, sid)
    assert result.scheme == "pm-spec4"


@pytest.mark.parametrize("env", SWITCHES)
@pytest.mark.parametrize("configured", SWITCHES)
@pytest.mark.parametrize("override", SWITCHES)
def test_backend_precedence(clean_env, plan, env, configured, override):
    if env is not None:
        clean_env.setenv(BACKEND_ENV_VAR, env)
    pool = MatcherPool(
        config=GSpecPalConfig(n_threads=8, backend=configured), backend=override
    )
    expected = override or configured or env or "sim"
    assert pool.config.backend == expected
    sid = pool.open(plan=plan)
    assert _served(pool, sid)[1].engine.name == expected


@pytest.mark.parametrize("env", (None, "0", "1"))
@pytest.mark.parametrize("configured", (None, False, True))
def test_selfcheck_precedence(clean_env, plan, env, configured):
    if env is not None:
        clean_env.setenv(SELFCHECK_ENV_VAR, env)
    pool = MatcherPool(config=GSpecPalConfig(n_threads=8, selfcheck=configured))
    expected = configured if configured is not None else env == "1"
    assert pool.config.selfcheck is expected
    sid = pool.open(plan=plan)
    assert _served(pool, sid)[1].selfcheck is expected


def test_a_config_keeps_the_switches_it_resolved(clean_env, plan, training):
    cfg = GSpecPalConfig(n_threads=8)
    clean_env.setenv(BACKEND_ENV_VAR, "fast")
    clean_env.setenv(SELFCHECK_ENV_VAR, "1")
    assert (cfg.backend, cfg.selfcheck) == ("sim", False)
    pal = GSpecPal(classic.div7(), cfg, training_input=training)
    scheme = pal.build_scheme("seq")
    assert (scheme.engine.name, scheme.selfcheck) == ("sim", False)
    pool = MatcherPool(config=cfg)
    sid = pool.open(plan=plan)
    _, sim = _served(pool, sid)
    assert (sim.engine.name, sim.selfcheck) == ("sim", False)
