"""Exact integer linear algebra and finitely generated abelian groups."""
