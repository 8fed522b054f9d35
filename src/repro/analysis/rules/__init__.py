"""Built-in analysis rules; importing this package registers them all."""

import repro.analysis.rules.concurrency  # noqa: F401
import repro.analysis.rules.config_contract  # noqa: F401
import repro.analysis.rules.determinism  # noqa: F401
import repro.analysis.rules.state_schema  # noqa: F401
