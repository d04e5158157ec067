"""The one way the pinned-output tests hash what they pin."""

import hashlib

import numpy as np


def sha256_of(*parts) -> str:
    """Hex sha256 over the parts in order: str as UTF-8, bytes as they are,
    anything else as its array's bytes (not its dtype or shape)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        h.update(part if isinstance(part, bytes) else np.asarray(part).tobytes())
    return h.hexdigest()
