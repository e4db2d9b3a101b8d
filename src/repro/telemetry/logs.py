"""Root logger setup behind ``repro --log-level / --log-json``.

The orchestration modules log (``repro.orchestrate.store`` demotes a
defective row to a logged miss) but nothing configured a handler, so
the records died in ``logging.lastResort`` at WARNING and above and
everything below was invisible.  :func:`setup_logging` attaches one
stream handler to the ``repro`` logger — text or JSON-lines.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Optional, TextIO

#: The package-level logger every ``repro.*`` module logger rolls up to.
ROOT_LOGGER = "repro"

_TEXT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


class _JsonLinesFormatter(logging.Formatter):
    """One JSON object per record: machine-tailable campaign logs."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def setup_logging(
    level: str = "warning",
    json_lines: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Configure the ``repro`` logger; returns it.

    Idempotent: repeated calls replace the previously installed handler
    rather than stacking duplicates (the CLI calls this once per
    process, tests call it per-case).  Logs go to *stream* (default
    stderr, so ``--json`` table output on stdout stays clean).
    """
    logger = logging.getLogger(ROOT_LOGGER)
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        _JsonLinesFormatter() if json_lines else logging.Formatter(_TEXT_FORMAT)
    )
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    # Everything is handled here; don't also bubble to the root logger.
    logger.propagate = False
    return logger
