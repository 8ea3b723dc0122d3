"""Benchmark tests import kvlie from this tree's src/ with one BLAS thread."""
from perfbench import run

run.pin_threads()
