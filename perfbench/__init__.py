"""Checked-run benchmark for causalsim; see README.md in this directory."""
