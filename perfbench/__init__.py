"""kvlie benchmark harness; see README.md."""
