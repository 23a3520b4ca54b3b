"""Per-engine constructor options for registry-driven tests.

Small, fast options for every registered engine, keyed by registry name.
Registry-driven tests parametrize over ``available_engines()`` and look
options up here, so registering a new engine without adding an entry fails
the suite loudly instead of silently skipping the newcomer.

(A plain module rather than a conftest attribute: test modules import it by
name, and ``conftest`` is ambiguous when benchmarks/ and tests/ are
collected in one pytest run.)
"""

ENGINE_TEST_OPTIONS = {
    "dew": dict(block_size=8, associativity=2, set_sizes=(1, 2, 4)),
    "single": dict(num_sets=4, associativity=2, block_size=8, policy="lru"),
    "janapsatya": dict(block_size=8, associativities=(1, 2), set_sizes=(1, 2, 4)),
    "miss-cache": dict(num_sets=2, associativity=2, block_size=8, entries=4),
    "stream-buffer": dict(num_sets=2, associativity=2, block_size=8, entries=4),
    "victim-cache": dict(num_sets=2, associativity=2, block_size=8, entries=4),
}
