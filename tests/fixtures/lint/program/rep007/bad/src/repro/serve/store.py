"""REP007 true positives: pathlib metadata calls stat the disk on the loop."""


def entry_size(path):
    return path.stat().st_size


async def is_memoized(path):
    # A single stat, but a slow disk stalls every in-flight request.
    return path.exists()


async def size(path):
    return entry_size(path)
