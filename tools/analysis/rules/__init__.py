"""Built-in analysis rules; importing this package registers them all."""

from . import concurrency  # noqa: F401
from . import config_contract  # noqa: F401
from . import determinism  # noqa: F401
from . import state_schema  # noqa: F401
