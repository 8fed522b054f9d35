"""Oracles: earlier implementations the tests compare the program against."""
