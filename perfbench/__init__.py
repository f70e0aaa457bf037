"""The repository's benchmark for the PipeMare runtime (see README.md)."""
