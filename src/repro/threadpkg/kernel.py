"""Kernel-level thread package (the paper's Pthread configuration).

Threads map 1:1 onto OS threads (`threading`), so a blocking system call
suspends only its own thread — the property that lets the kernel-level
NCS overlap computation with a stalled Send Thread once the socket buffer
fills (paper §4.1, Figure 10's large-message regime).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional

from repro.threadpkg.base import (
    Channel,
    Condition,
    Mutex,
    Semaphore,
    ThreadHandle,
    ThreadPackage,
)


class KernelThreadHandle(ThreadHandle):
    """Handle over a real OS thread."""

    def __init__(self, fn: Callable[..., Any], args: tuple, name: str, daemon: bool):
        self.name = name
        self._result: Any = None
        self._exception: Optional[BaseException] = None

        def runner():
            try:
                self._result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - reported via .exception
                self._exception = exc

        self._thread = threading.Thread(target=runner, name=name, daemon=daemon)
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def result(self) -> Any:
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception


class KernelMutex(Mutex):
    def __init__(self):
        self._lock = threading.Lock()

    def acquire(self) -> None:
        self._lock.acquire()

    def release(self) -> None:
        self._lock.release()


class KernelSemaphore(Semaphore):
    def __init__(self, value: int = 0):
        self._sem = threading.Semaphore(value)

    def acquire(self, timeout: Optional[float] = None) -> bool:
        if timeout is None:
            self._sem.acquire()
            return True
        return self._sem.acquire(timeout=timeout)

    def release(self, count: int = 1) -> None:
        for _ in range(count):
            self._sem.release()


class KernelCondition(Condition):
    def __init__(self, mutex: Optional[KernelMutex] = None):
        lock = mutex._lock if isinstance(mutex, KernelMutex) else None
        self._cond = threading.Condition(lock)
        self._owns_lock = mutex is None

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._owns_lock:
            with self._cond:
                return self._cond.wait(timeout)
        return self._cond.wait(timeout)

    def notify(self, count: int = 1) -> None:
        if self._owns_lock:
            with self._cond:
                self._cond.notify(count)
        else:
            self._cond.notify(count)

    def notify_all(self) -> None:
        if self._owns_lock:
            with self._cond:
                self._cond.notify_all()
        else:
            self._cond.notify_all()


class KernelChannel(Channel):
    """An unbounded channel — every one NCS itself creates — is the C
    ``queue.SimpleQueue``: about half the cost per cross-thread hop of
    ``queue.Queue`` and its three Python condition variables.  Only a
    ``capacity`` needs ``queue.Queue``, the one that can be full."""

    def __init__(self, capacity: int = 0):
        self._queue = (
            queue.Queue(maxsize=capacity) if capacity > 0 else queue.SimpleQueue()
        )

    def put(self, item: Any, timeout: Optional[float] = None) -> bool:
        try:
            self._queue.put(item, timeout=timeout)
            return True
        except queue.Full:
            return False

    def get(self, timeout: Optional[float] = None) -> Any:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("channel get timed out") from None

    def try_get(self) -> tuple[bool, Any]:
        try:
            return True, self._queue.get_nowait()
        except queue.Empty:
            return False, None

    def qsize(self) -> int:
        return self._queue.qsize()


class KernelThreadPackage(ThreadPackage):
    """The Pthread-model package: preemptive OS threads."""

    kind = "kernel"

    def __init__(self):
        self._shutdown = False

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "thread",
        daemon: bool = True,
    ) -> ThreadHandle:
        if self._shutdown:
            raise RuntimeError("thread package has been shut down")
        return KernelThreadHandle(fn, args, name, daemon)

    def yield_control(self) -> None:
        # A kernel thread yields its quantum; sleep(0) releases the GIL
        # and lets the OS scheduler pick another runnable thread.
        time.sleep(0)

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def mutex(self) -> Mutex:
        return KernelMutex()

    def semaphore(self, value: int = 0) -> Semaphore:
        return KernelSemaphore(value)

    def condition(self, mutex: Optional[Mutex] = None) -> Condition:
        return KernelCondition(mutex)  # type: ignore[arg-type]

    def channel(self, capacity: int = 0) -> Channel:
        return KernelChannel(capacity)

    def shutdown(self) -> None:
        self._shutdown = True
