import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


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
