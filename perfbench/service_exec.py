"""The service's point executor for traced runs (``ServiceConfig.executor``).

The worker resolves its executor once, at start-up, so wrapping
``execute_spec_point`` later would not reach it.  This executor looks
the function up on every call instead, and records the ``service.compute``
span around it when a tracer is set.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

#: The run's :class:`perfbench.spans.Tracer`, set by the traced run only.
TRACER: Any = None


def execute(spec: Any) -> Dict[str, Any]:
    """Run one point exactly as the default executor does."""
    run = sys.modules["repro.analysis.spec"].execute_spec_point
    tracer = TRACER
    if tracer is None or not tracer.enabled:
        return run(spec)
    tracer.count("service.compute.calls")
    index = tracer.begin("service.compute")
    try:
        return run(spec)
    finally:
        tracer.end(index)
