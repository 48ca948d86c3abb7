"""The allocator policy the package sets on import."""

import ctypes
import types

import adsm


def test_allocator_policy_sets_both_glibc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(adsm.sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    adsm._keep_freed_memory()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)


def test_allocator_policy_does_nothing_without_a_c_library(monkeypatch):
    def missing(name):
        raise OSError("no C library")

    monkeypatch.setattr(adsm.sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert adsm._keep_freed_memory() is None


def test_allocator_policy_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(adsm.sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert adsm._keep_freed_memory() is None


def test_allocator_policy_leaves_other_platforms_alone(monkeypatch):
    def untouched(name):
        raise AssertionError("CDLL opened off Linux")

    monkeypatch.setattr(adsm.sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", untouched)
    adsm._keep_freed_memory()
