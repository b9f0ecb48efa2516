"""``repro.lint``: the AST-based determinism & contract sanitizer.

Every headline property of this repo -- byte-identical scorecards per
seed across runs and ``--jobs``, lossless telemetry folds, codec
corruption boundaries, zero-cost-when-disabled instrumentation -- is an
invariant written down in the docs but, until this subsystem, enforced
only by convention. ``repro.lint`` turns those conventions into named,
testable rules over the Python AST and gates the whole tree in CI.

Layers:

- :mod:`repro.lint.rules` -- the rule registry (families D/E/O/U; run
  ``repro lint --list-rules`` for the catalog);
- :mod:`repro.lint.engine` -- one parse per file, parent maps, rule
  dispatch, deterministic ordering;
- :mod:`repro.lint.suppress` -- ``# repro: lint-ok[RULE] -- why``
  inline waivers with required justification text, the only exemption;
- :mod:`repro.lint.cli` -- the ``repro lint`` command.

See docs/lint.md for the rule catalog and workflow.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.lint.engine": (
            "FileContext",
            "LintReport",
            "discover_files",
            "lint_paths",
        ),
        "repro.lint.finding": ("ERROR", "Finding", "WARNING"),
        "repro.lint.rules": ("Rule", "all_rules", "get_rules"),
        "repro.lint.suppress": ("Suppression", "parse_suppressions"),
    },
)
