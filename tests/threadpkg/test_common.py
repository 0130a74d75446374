"""Behaviour shared by both thread packages (parametrized)."""

import time

import pytest

from repro.threadpkg import make_thread_package


@pytest.fixture(params=["kernel", "user"])
def pkg(request):
    package = make_thread_package(request.param)
    yield package
    package.shutdown()


class TestSpawnJoin:
    def test_result_propagates(self, pkg):
        handle = pkg.spawn(lambda: 41 + 1, name="worker")
        assert handle.join(5.0)
        assert handle.result == 42
        assert not handle.is_alive()

    def test_exception_captured_not_raised(self, pkg):
        def boom():
            raise ValueError("intentional")

        handle = pkg.spawn(boom, name="boom")
        assert handle.join(5.0)
        assert isinstance(handle.exception, ValueError)

    def test_args_passed(self, pkg):
        handle = pkg.spawn(lambda a, b: a * b, 6, 7)
        handle.join(5.0)
        assert handle.result == 42

    def test_many_threads_all_finish(self, pkg):
        handles = [pkg.spawn(lambda i=i: i, name=f"w{i}") for i in range(20)]
        for handle in handles:
            assert handle.join(5.0)
        assert sorted(h.result for h in handles) == list(range(20))

    def test_spawn_after_shutdown_rejected(self, pkg):
        pkg.shutdown()
        with pytest.raises(RuntimeError):
            pkg.spawn(lambda: None)


class TestYieldAndSleep:
    def test_yield_interleaves_threads(self, pkg):
        order = []

        def worker(tag):
            for _ in range(3):
                order.append(tag)
                pkg.yield_control()

        handles = [pkg.spawn(worker, tag) for tag in "ab"]
        for handle in handles:
            handle.join(5.0)
        # Both tags appear; on the cooperative package they strictly
        # alternate, on the kernel package at least both ran.
        assert set(order) == {"a", "b"}
        assert len(order) == 6

    def test_sleep_duration_respected(self, pkg):
        def sleeper():
            start = time.monotonic()
            pkg.sleep(0.05)
            return time.monotonic() - start

        handle = pkg.spawn(sleeper)
        handle.join(5.0)
        assert handle.result >= 0.045

    def test_sleepers_wake_in_deadline_order(self, pkg):
        order = []

        def sleeper(tag, duration):
            pkg.sleep(duration)
            order.append(tag)

        slow = pkg.spawn(sleeper, "slow", 0.08)
        fast = pkg.spawn(sleeper, "fast", 0.02)
        slow.join(5.0)
        fast.join(5.0)
        assert order == ["fast", "slow"]


class TestMutex:
    def test_mutual_exclusion_counter(self, pkg):
        mutex = pkg.mutex()
        state = {"count": 0}

        def worker():
            for _ in range(200):
                with mutex:
                    current = state["count"]
                    pkg.yield_control()  # force interleaving windows
                    state["count"] = current + 1

        handles = [pkg.spawn(worker) for _ in range(3)]
        for handle in handles:
            assert handle.join(20.0)
        assert state["count"] == 600

    def test_release_unlocked_raises(self, pkg):
        mutex = pkg.mutex()
        handle = pkg.spawn(mutex.release)
        handle.join(5.0)
        assert isinstance(handle.exception, RuntimeError)


class TestSemaphore:
    def test_producer_consumer_handoff(self, pkg):
        items = []
        ready = pkg.semaphore(0)

        def producer():
            for i in range(5):
                items.append(i)
                ready.release()

        def consumer():
            taken = 0
            while taken < 5:
                assert ready.acquire(timeout=5.0)
                taken += 1
            return taken

        c = pkg.spawn(consumer)
        p = pkg.spawn(producer)
        p.join(5.0)
        c.join(5.0)
        assert c.result == 5

    def test_timeout_returns_false(self, pkg):
        sem = pkg.semaphore(0)
        handle = pkg.spawn(lambda: sem.acquire(timeout=0.05))
        handle.join(5.0)
        assert handle.result is False

    def test_initial_value_consumable(self, pkg):
        sem = pkg.semaphore(3)
        handle = pkg.spawn(
            lambda: [sem.acquire(timeout=0.5) for _ in range(4)]
        )
        handle.join(5.0)
        assert handle.result == [True, True, True, False]

    def test_release_many(self, pkg):
        sem = pkg.semaphore(0)

        def taker():
            return all(sem.acquire(timeout=2.0) for _ in range(3))

        handle = pkg.spawn(taker)
        pkg.spawn(lambda: sem.release(3)).join(5.0)
        handle.join(5.0)
        assert handle.result is True


class TestChannel:
    def test_fifo_order(self, pkg):
        channel = pkg.channel()

        def producer():
            for i in range(10):
                channel.put(i)

        def consumer():
            return [channel.get(timeout=5.0) for _ in range(10)]

        c = pkg.spawn(consumer)
        pkg.spawn(producer).join(5.0)
        c.join(5.0)
        assert c.result == list(range(10))

    def test_bounded_capacity_blocks_put(self, pkg):
        channel = pkg.channel(capacity=2)

        def producer():
            results = [channel.put(i, timeout=0.05) for i in range(3)]
            return results

        handle = pkg.spawn(producer)
        handle.join(5.0)
        assert handle.result == [True, True, False]

    def test_get_timeout_raises(self, pkg):
        channel = pkg.channel()

        def getter():
            try:
                channel.get(timeout=0.05)
                return "got"
            except TimeoutError:
                return "timeout"

        handle = pkg.spawn(getter)
        handle.join(5.0)
        assert handle.result == "timeout"

    def test_try_get(self, pkg):
        channel = pkg.channel()
        channel.put("item")
        ok, item = channel.try_get()
        assert ok and item == "item"
        ok, item = channel.try_get()
        assert not ok and item is None

    def test_external_producer_internal_consumer(self, pkg):
        # Application code (not a package thread) feeding a node channel.
        channel = pkg.channel(capacity=4)
        handle = pkg.spawn(lambda: [channel.get(timeout=5.0) for _ in range(6)])
        for i in range(6):
            channel.put(i)
        handle.join(5.0)
        assert handle.result == list(range(6))

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_contract_unbounded_and_bounded(self, pkg, capacity):
        """One contract whichever queue backs the channel (the kernel
        package picks by ``capacity``): only a bounded one can be full."""

        def exercise():
            channel = pkg.channel(capacity=capacity)
            assert channel.empty() and channel.qsize() == 0
            assert channel.try_get() == (False, None)
            with pytest.raises(TimeoutError):
                channel.get(timeout=0.02)
            assert channel.put("a") is True
            assert channel.put("b", timeout=0.02) is True
            assert channel.qsize() == 2 and not channel.empty()
            fits = capacity == 0
            assert channel.put("c", timeout=0.02) is fits
            expected = ["a", "b", "c"] if fits else ["a", "b"]
            assert channel.get(timeout=1.0) == "a"
            assert [channel.try_get() for _ in expected[1:]] == [
                (True, item) for item in expected[1:]
            ]
            assert channel.try_get() == (False, None)
            assert channel.empty()
            return "held"

        handle = pkg.spawn(exercise)
        assert handle.join(5.0)
        assert handle.exception is None, handle.exception
        assert handle.result == "held"

    def test_qsize(self, pkg):
        channel = pkg.channel()
        channel.put(1)
        channel.put(2)
        assert channel.qsize() == 2
        assert not channel.empty()


class TestCondition:
    def test_notify_wakes_waiter(self, pkg):
        cond = pkg.condition()
        state = {"flag": False}

        def waiter():
            while not state["flag"]:
                if not cond.wait(timeout=2.0):
                    return False
            return True

        handle = pkg.spawn(waiter)

        def signaller():
            pkg.sleep(0.02)
            state["flag"] = True
            cond.notify()

        pkg.spawn(signaller)
        handle.join(5.0)
        assert handle.result is True

    def test_notify_all(self, pkg):
        cond = pkg.condition()
        woken = []

        def waiter(tag):
            if cond.wait(timeout=2.0):
                woken.append(tag)

        handles = [pkg.spawn(waiter, i) for i in range(3)]

        def signaller():
            pkg.sleep(0.05)
            cond.notify_all()

        pkg.spawn(signaller)
        for handle in handles:
            handle.join(5.0)
        assert sorted(woken) == [0, 1, 2]


class TestContextSwitchProbe:
    def test_probe_returns_positive_cost(self, pkg):
        cost = pkg.context_switch_cost_probe(rounds=50)
        assert 0 < cost < 0.01  # sane: under 10 ms per switch
