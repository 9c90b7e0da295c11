"""The repo benchmark harness; see run.py."""
