"""Four-layer NFR analysis: stakeholders, goals, sub-goals and the
non-functional requirements that constrain them.

Import each name from the submodule that defines it:

- ``nfr4.model``: the four layer types and ``validate_structure``.
- ``nfr4.dsl``: ``parse`` and ``serialize`` for the ``.nfr4`` text format.
- ``nfr4.analysis``: checklist scores, MCR, the matrix and its ranking.
- ``nfr4.report``: the report bundle and its text, markdown and JSON output.

``nfr4.cli`` is the command line; ``nfr4.fixtures`` ships two models.
"""
