"""Test helper: plan a query through a short-lived session."""

from __future__ import annotations

from repro.session import Database


def plan(structure, query, order=None, **options):
    """``query``'s preprocessed pipeline, planned by a throwaway
    :class:`~repro.session.Database` (its write guard is lifted again
    when it closes, so the structure stays directly mutable)."""
    with Database(structure) as db:
        return db.query(query, order=order, **options).pipeline
