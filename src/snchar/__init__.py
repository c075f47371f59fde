"""Exact toolkit for partition combinatorics, k-cores, symmetric-group
character columns, and mod-p divisibility censuses."""
