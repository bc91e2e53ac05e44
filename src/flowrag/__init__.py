"""Flowchart graphs as data: corpora, edit-distance scoring, and retrieval
benchmarks over chunked graph embeddings.

Each stage of the pipeline is one module, and its public names are imported
from that module (``from flowrag.ged import ged_exact``):

  graph_model  the graph types and graph JSON
  synthgen     generate: seeded corpora and QA items
  mermaid      parse and render Mermaid flowchart scripts
  ged          score predicted graphs by graph edit distance (needs scipy)
  chunker      chunk graphs under one of three strategies
  embed        embed texts, locally or through a remote service
  vstore       index the vectors, query them, save and load snapshots
  evalharness  run the retrieval evaluation, judge it, write its reports
  jsonio       JSON records and configs, and the one file writer
  errors       the package's base error and the config error
  cli          the ``flowrag`` command, one subcommand per stage
"""

__version__ = "0.1.0"
