"""Run many smart-contract analysis tools over many contracts, in parallel, resumably.

The pipeline: discover contracts, pair them with compatible tools into a
prefetched plan, execute each task in its own container with resource limits,
parse the heterogeneous outputs into findings / errors / failures, and
aggregate everything into taxonomy-mapped reports (SARIF included).
"""

__version__ = "0.1.0"
