"""hublab: hub labelings of sparse graphs, hard layered families, covering
audits, and a simulated sum-index protocol.

The package root re-exports nothing; import the modules, as in
`from hublab import graph_core` or `from hublab.graph_core import all_pairs`."""

__version__ = "0.1.0"
