"""Truncated-operator toolkit for shift-invariant subspace verification."""
