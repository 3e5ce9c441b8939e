"""Range rules of settings in the one form every refusal takes. It imports
nothing from the package, so the tokenizer and every config can state their
rules here."""

from __future__ import annotations


def check_settings(config, rules) -> None:
    """Refuse the first (name, ok, rule) triple of `rules` that does not hold, as
    `name must be rule, got value`: the one form of every config's range rules."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {getattr(config, name)!r}")


def text_layout_rules(layout) -> list:
    """The rules of a text layout of `layout.limit` positions with `layout.m`
    corners: [CLS], the corners and one [SEP] fit."""
    m = layout.m
    return [("m", m >= 0, ">= 0"), ("limit", layout.limit >= m + 2, f">= m + 2 ({m + 2})")]
