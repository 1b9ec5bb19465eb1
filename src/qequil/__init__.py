"""Desk-scale numerics for equilibration of closed quantum systems.

Spectral window statistics, eigenbasis dynamics, measurement
distinguishability, Lorentzian-averaged purity bounds, Haar-measurement
ensembles, and slow-equilibration snapshot constructions, with a CLI for
reproducible seeded experiments.
"""
