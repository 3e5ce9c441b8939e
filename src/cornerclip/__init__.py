"""Toy-scale dual-encoder language-image pretraining with corner tokens."""
