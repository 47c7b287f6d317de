"""Single-flight coalescing: leaders, joiners, fan-out, cancellation."""

import asyncio

import pytest

from repro.serve import SingleFlight


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_identical_keys_run_once(self):
        async def scenario():
            sf = SingleFlight()
            starts = []
            gate = asyncio.Event()

            def start(cancel):
                async def work():
                    starts.append(1)
                    await gate.wait()
                    return {"answer": 42}
                return work()

            tasks = [asyncio.ensure_future(sf.run("k", start))
                     for _ in range(8)]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks)
            assert len(starts) == 1
            assert sf.leaders == 1 and sf.coalesced == 7
            # Every participant received the very same object.
            assert all(r is results[0] for r in results)
            assert sf.inflight() == 0
            assert sf.stats()["coalesce_rate"] == pytest.approx(7 / 8)

        run(scenario())

    def test_distinct_keys_run_independently(self):
        async def scenario():
            sf = SingleFlight()

            def start_for(value):
                def start(cancel):
                    async def work():
                        await asyncio.sleep(0.001)
                        return value
                    return work()
                return start

            a, b = await asyncio.gather(sf.run("a", start_for(1)),
                                        sf.run("b", start_for(2)))
            assert (a, b) == (1, 2)
            assert sf.leaders == 2 and sf.coalesced == 0

        run(scenario())

    def test_sequential_same_key_not_coalesced(self):
        async def scenario():
            sf = SingleFlight()
            starts = []

            def start(cancel):
                async def work():
                    starts.append(1)
                    return len(starts)
                return work()

            first = await sf.run("k", start)
            second = await sf.run("k", start)
            assert (first, second) == (1, 2)
            assert sf.leaders == 2

        run(scenario())

    def test_exception_fans_out_to_all_participants(self):
        async def scenario():
            sf = SingleFlight()
            gate = asyncio.Event()

            def start(cancel):
                async def work():
                    await gate.wait()
                    raise RuntimeError("boom")
                return work()

            tasks = [asyncio.ensure_future(sf.run("k", start))
                     for _ in range(4)]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert len(results) == 4
            assert all(isinstance(r, RuntimeError) for r in results)
            assert sf.inflight() == 0

        run(scenario())


class TestCancellation:
    def test_one_joiner_leaving_keeps_flight_alive(self):
        async def scenario():
            sf = SingleFlight()
            cancel_tokens = []
            gate = asyncio.Event()

            def start(cancel):
                cancel_tokens.append(cancel)

                async def work():
                    await gate.wait()
                    return "done"
                return work()

            tasks = [asyncio.ensure_future(sf.run("k", start))
                     for _ in range(3)]
            await asyncio.sleep(0)
            tasks[1].cancel()
            with pytest.raises(asyncio.CancelledError):
                await tasks[1]
            assert not cancel_tokens[0].is_set()
            gate.set()
            assert await tasks[0] == "done"
            assert await tasks[2] == "done"
            assert sf.cancelled_flights == 0

        run(scenario())

    def test_leader_leaving_spares_the_joiners(self):
        """The participant that started the work disconnects first: the
        refcount, not the leader role, decides whether the work dies."""
        async def scenario():
            sf = SingleFlight()
            cancel_tokens = []
            gate = asyncio.Event()

            def start(cancel):
                cancel_tokens.append(cancel)

                async def work():
                    await gate.wait()
                    return "done"
                return work()

            leader = asyncio.ensure_future(sf.run("k", start))
            await asyncio.sleep(0)
            joiners = [asyncio.ensure_future(sf.run("k", start))
                       for _ in range(2)]
            await asyncio.sleep(0)
            assert sf._flights["k"].refs == 3
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            assert not cancel_tokens[0].is_set()
            assert not sf._flights["k"].task.cancelled()
            gate.set()
            assert await asyncio.gather(*joiners) == ["done", "done"]
            assert len(cancel_tokens) == 1
            assert sf.cancelled_flights == 0

        run(scenario())

    def test_last_participant_out_cancels_the_work(self):
        async def scenario():
            sf = SingleFlight()
            cancel_tokens = []

            def start(cancel):
                cancel_tokens.append(cancel)

                async def work():
                    await asyncio.sleep(60)
                return work()

            tasks = [asyncio.ensure_future(sf.run("k", start))
                     for _ in range(3)]
            await asyncio.sleep(0)
            for t in tasks:
                t.cancel()
            for t in tasks:
                with pytest.raises(asyncio.CancelledError):
                    await t
            # Give the done-callback a few beats to clean the registry.
            for _ in range(10):
                if sf.inflight() == 0:
                    break
                await asyncio.sleep(0.001)
            assert cancel_tokens[0].is_set()
            assert sf.cancelled_flights == 1
            assert sf.inflight() == 0

        run(scenario())

    def test_new_flight_after_cancelled_one(self):
        async def scenario():
            sf = SingleFlight()

            def never(cancel):
                async def work():
                    await asyncio.sleep(60)
                return work()

            task = asyncio.ensure_future(sf.run("k", never))
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(0)

            def quick(cancel):
                async def work():
                    return "fresh"
                return work()

            assert await sf.run("k", quick) == "fresh"

        run(scenario())
