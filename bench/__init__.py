"""The repo's benchmark (ISSUE 12): cold/warm compile, generated-code run
time on both CPU backends, and schedule search, end to end and layer by
layer.  See README.md; entry point ``python3 -m bench.run``."""
