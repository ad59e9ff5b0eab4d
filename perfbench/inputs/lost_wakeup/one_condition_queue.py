import threading

CAPACITY = 1
items = []
ready = threading.Condition()


def put(item):
    with ready:
        while len(items) >= CAPACITY:
            ready.wait()
        items.append(item)
        ready.notify()


def get():
    with ready:
        while not items:
            ready.wait()
        item = items.pop(0)
        ready.notify()
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
