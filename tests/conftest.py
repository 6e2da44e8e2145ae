import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database; the first example of a run also pays for imports and caches,
# so no deadline.
settings.register_profile("mvmlc", derandomize=True, database=None, deadline=None)
settings.load_profile("mvmlc")


@pytest.fixture()
def refuse_large_allocations(monkeypatch):
    """Make ``np.empty`` raise MemoryError above 10**8 values without
    asking for the memory, as an allocation the system refuses does."""
    real = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=np.int64) > 10 ** 8:
            raise MemoryError(f"refused {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
