import threading

CAPACITY = 1
items = []
guard = threading.Lock()
not_full = threading.Condition(guard)
not_empty = threading.Condition(guard)


def put(item):
    with guard:
        while len(items) >= CAPACITY:
            not_full.wait()
        items.append(item)
        not_empty.notify()


def get():
    with guard:
        while not items:
            not_empty.wait()
        item = items.pop(0)
        not_full.notify()
        return item


def producer():
    put(1)


def consumer():
    get()


def main():
    workers = [threading.Thread(target=producer) for _ in range(2)]
    workers += [threading.Thread(target=consumer) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
