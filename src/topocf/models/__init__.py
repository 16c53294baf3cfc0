"""Desk-scale graph collaborative-filtering recommenders."""
