"""RPR006 twin: collect under the lock, block or wake after releasing it;
``Condition.wait`` on the held condition, ``str.join``, and an unguarded
lock are fine."""

import threading
import time


class Publisher:
    def __init__(self, loop, sock) -> None:
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._scratch = threading.Lock()  # guards nothing annotated
        self._items: list = []  # guarded-by: self._lock
        self.loop = loop
        self.sock = sock

    def publish(self, queue, item) -> None:
        with self._lock:
            self._items.append(item)
            batch = list(self._items)
        self.loop.call_soon_threadsafe(queue.put_nowait, batch)

    def wait_for_items(self) -> list:
        with self._work:
            while not self._items:
                self._work.wait(timeout=1.0)
            return list(self._items)

    def flush(self) -> None:
        with self._lock:
            payload = ", ".join(str(item) for item in self._items)
            sep = "|"
            joined = sep.join(payload)
        self.sock.sendall(joined.encode())

    def later(self, future):
        with self._lock:
            self._items.clear()

            def callback():
                return future.result()  # runs after the lock is released

        return callback

    def pace(self) -> None:
        with self._scratch:
            time.sleep(0.001)
