import glob

import numpy as np
import pytest

from meshsplat import assets, gstexture
from meshsplat.splat import workers


def _children():
    """Pids of this process's children that are not yet reaped."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids += f.read().split()
    return pids


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_session():
    """Stop the compositor's workers at session end; then no child of the
    test process may be left."""
    yield
    workers.stop()
    assert not _children(), f"child processes left at session end: {_children()}"


@pytest.fixture(scope="session")
def rig():
    return assets.make_capsule_rig(4, cloth=False, seed=7)


@pytest.fixture(scope="session")
def clothed_rig():
    return assets.make_capsule_rig(6, cloth=True, seed=3)


@pytest.fixture(scope="session")
def clothed_texture(clothed_rig):
    return gstexture.init_texture(clothed_rig, 1, 1, seed=2)


@pytest.fixture(scope="session")
def motion(clothed_rig):
    return assets.make_swing_motion(clothed_rig, 6, seed=1, resolution=(64, 64))


@pytest.fixture()
def rest_frame():
    def make(template):
        return assets.FrameInput(
            np.zeros(template.theta_dim, np.float32),
            np.zeros(template.num_expressions, np.float32),
            np.eye(4, dtype=np.float32),
        )

    return make
