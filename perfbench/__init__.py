"""Closed-loop benchmark of the stokes_schur library; see README.md."""
