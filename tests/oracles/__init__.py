"""Identities of the paper checked against the pipeline; test code, not library code."""
