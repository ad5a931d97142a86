"""Probabilistic data structures: software and data-plane variants."""

from repro.sketches.bloom import BloomFilter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.dataplane import BloomFragment, preload_bloom_filter

__all__ = [
    "BloomFilter",
    "BloomFragment",
    "CountMinSketch",
    "preload_bloom_filter",
]
