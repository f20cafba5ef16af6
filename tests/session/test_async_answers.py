"""The awaitable face of :class:`repro.session.Answers`.

Run with plain pytest via ``asyncio.run`` — no pytest-asyncio needed.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.enumeration import enumerate_answers
from repro.errors import CancelledResultError
from repro.session import Database

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
QUERIES = [
    "B(x)",
    "R(x)",
    "B(x) & R(y)",
    "B(x) & R(y) & ~E(x,y)",
    "B(x) & R(y) & E(x,y)",
    "B(x) & B(y) & x != y",
]


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def db(medium_colored):
    with Database(medium_colored, workers=2) as session:
        yield session


def serial(db, text):
    return list(enumerate_answers(db.query(text).pipeline))


class TestConcurrentAwaits:
    def test_many_concurrent_awaits(self, db):
        """Many handles drained concurrently must each match their
        serial result exactly."""
        want = {text: serial(db, text) for text in QUERIES}

        async def main():
            handles = [db.query(text).answers() for text in QUERIES]
            results = await asyncio.gather(*[h.aall() for h in handles])
            counts = await asyncio.gather(*[h.acount() for h in handles])
            return results, counts

        results, counts = run(main())
        for text, answers, count in zip(QUERIES, results, counts):
            assert answers == want[text], f"async answers diverge for {text}"
            assert count == len(want[text])

    def test_stream_matches_serial_order(self, db):
        want = serial(db, EXAMPLE)

        async def main():
            handle = db.query(EXAMPLE, backend="thread").answers()
            return [answer async for answer in handle.astream(page_size=7)]

        assert run(main()) == want


class TestCancellation:
    def test_cancel_mid_stream_cancels_handle(self, db):
        """Cancelling the consuming task propagates to the handle, which
        releases its pool work; later access raises CancelledResultError."""

        async def main():
            handle = db.query(EXAMPLE, backend="thread").answers()
            started = asyncio.Event()

            async def consume():
                async for _ in handle.astream(page_size=3):
                    started.set()
                    await asyncio.sleep(3600)  # park mid-stream

            task = asyncio.create_task(consume())
            await asyncio.wait_for(started.wait(), timeout=60)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The cancel lands once any in-flight pull retires.
            deadline = time.monotonic() + 30
            while not handle.cancelled and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert handle.cancelled
            with pytest.raises(CancelledResultError):
                await handle.aall()
            with pytest.raises(CancelledResultError):
                await handle.acount()

        run(main())


class TestPinnedAcrossCommits:
    def test_commit_between_pulls_keeps_serving(self, db, medium_colored):
        """A commit between two awaits leaves the handle on its version:
        it reports ``stale`` and keeps serving pre-commit answers."""
        want = serial(db, EXAMPLE)
        victim = next(
            e for e in medium_colored.domain if not medium_colored.has_fact("B", e)
        )

        async def main():
            handle = db.query(EXAMPLE).answers()
            first = await handle.apage(0, size=2)
            db.insert_fact("B", victim)
            assert handle.stale
            return first, await handle.aall(), await handle.acount()

        first, everything, count = run(main())
        assert first == want[:2]
        assert everything == want
        assert count == len(want)
