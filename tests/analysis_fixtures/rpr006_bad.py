"""RPR006 fixture: blocking and thread-waking calls under a guarding lock."""

import threading
import time


class Publisher:
    def __init__(self, loop, sock) -> None:
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._done = threading.Event()
        self._items: list = []  # guarded-by: self._lock
        self.loop = loop
        self.sock = sock

    def publish(self, queue, item) -> None:
        with self._lock:
            self._items.append(item)
            self.loop.call_soon_threadsafe(queue.put_nowait, item)

    def settle(self, future) -> None:
        with self._work:  # Condition shares self._lock
            self._items.clear()
            time.sleep(0.01)
            future.result()

    def flush(self) -> None:
        with self._lock:
            self.sock.sendall(b"".join(self._items))
            self._done.wait()

    def _drain(self, worker) -> None:  # guarded-by: self._lock
        self._items.clear()
        worker.join()
