"""Task bodies the benchmark ships to HTEX workers.

They live in an importable module, not ``__main__``, so they travel by
reference as a user's module-level app does. Worker pools import them
because the stack puts the checkout root on the pools' ``PYTHONPATH``.
"""


def noop(index):
    """The paper's no-op task; returns its index so the result can be checked."""
    return index


def echo(payload):
    """Return the payload unchanged, so its bytes cross the wire both ways."""
    return payload
