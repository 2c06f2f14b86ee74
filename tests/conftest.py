import pytest

from yolite import tensor as T


@pytest.fixture(autouse=True)
def no_conv_helpers_left():
    """Fail a test that ends in parallel mode: a forked conv helper or a
    mapped arena would outlive it and change the tests after it."""
    yield
    pids, arena = [pid for pid, *_ in T._helpers], T._arena
    if pids or arena is not None:
        T.set_parallel(0)
        pytest.fail(f"test left conv helpers {pids} and an arena of "
                    f"{None if arena is None else len(arena)} bytes")
