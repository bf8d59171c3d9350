"""The project-specific rule set.

Each rule protects one invariant the OPT reproduction depends on but
the unit tests cannot reliably enforce (thread interleavings, hash
order, silent vocabulary drift).  ``default_rules()`` returns fresh
instances in a fixed order; the CLI's ``--rules`` flag selects a
subset by id.

Adding a rule: subclass :class:`repro.lint.engine.Rule` in a new module
here, set ``rule_id`` / ``severity`` / ``description`` /
``paper_invariant``, implement ``check()`` as a generator of findings,
append the class to :data:`ALL_RULES`, and add one true-positive and
one true-negative fixture to ``tests/test_lint.py`` (the rule-coverage
test fails until both exist).
"""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.rules.callback_io import CallbackIoRule
from repro.lint.rules.engine_composition import EngineCompositionRule
from repro.lint.rules.error_types import ErrorTypesRule
from repro.lint.rules.lockset import LocksetRule
from repro.lint.rules.mutable_default import MutableDefaultRule
from repro.lint.rules.obs_vocab import ObsVocabRule
from repro.lint.rules.set_iteration import SetIterationRule
from repro.lint.rules.sim_purity import SimPurityRule

__all__ = ["ALL_RULES", "default_rules"]

#: Every registered rule class, in reporting order.
ALL_RULES: tuple[type[Rule], ...] = (
    LocksetRule,
    SimPurityRule,
    ObsVocabRule,
    CallbackIoRule,
    EngineCompositionRule,
    ErrorTypesRule,
    MutableDefaultRule,
    SetIterationRule,
)


def default_rules(only: set[str] | None = None) -> list[Rule]:
    """Instantiate the rule set, optionally restricted to ids in *only*."""
    if only is not None:
        known = {cls.rule_id for cls in ALL_RULES}
        unknown = only - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
    return [cls() for cls in ALL_RULES
            if only is None or cls.rule_id in only]
