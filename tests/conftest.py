import threading

import pytest

from yolite import tensor as T


@pytest.fixture(autouse=True)
def no_conv_pool_left():
    """Fail a test that ends in parallel mode or leaves a conv pool thread
    alive: either would outlive it and change the tests after it."""
    yield
    pool = T._pool
    threads = [t.name for t in threading.enumerate() if t.name.startswith("yolite-conv")]
    if pool is not None or threads:
        T.set_parallel(0)
        pytest.fail(f"test left a conv pool {pool} and live pool threads {threads}")
