"""The repository's benchmark: three closed-loop workloads measured end
to end, and a traced run that times each layer.  See ``README.md``."""
