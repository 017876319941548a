"""Rule modules — importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401 - registration side effects
    cache,
    exceptions,
    falsy_or,
    locks,
    schemas,
    wal,
)
