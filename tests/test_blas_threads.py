"""The single-threaded BLAS pin that Solver.solve holds for its duration."""

import sys
import threading

import numpy as np
import pytest

from ocpqp import alm, kkt
from ocpqp.alm import Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_spring_mass

needs_openblas = pytest.mark.skipif(
    not alm.blas_thread_counts(), reason="no bundled OpenBLAS library found"
)


def small_problem(seed=0):
    return gen_spring_mass(SpringMassConfig(masses=3, horizon=8, seed=seed))


def dense_solver(problem):
    return Solver(problem, SolverSettings(variant="dense"))


@pytest.fixture
def prior():
    """Set every library to two threads (read back: the host may cap it) and
    put the original counts back afterwards."""
    libs = alm._openblas()
    original = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield alm.blas_thread_counts()
    for (_, put), count in zip(libs, original):
        put(count)


def hook_factor_stages(monkeypatch, hook):
    """Run ``hook()`` at the start of every stage factorization."""
    original = kkt.factor_stages

    def wrapped(*args, **kwargs):
        hook()
        return original(*args, **kwargs)

    monkeypatch.setattr(kkt, "factor_stages", wrapped)


@needs_openblas
class TestPin:
    def test_one_thread_inside_solve(self, prior, monkeypatch):
        seen = []
        hook_factor_stages(monkeypatch, lambda: seen.append(alm.blas_thread_counts()))
        with dense_solver(small_problem()) as solver:
            _, _, _, report = solver.solve()
        assert report.solved
        assert seen and all(counts == [1] * len(prior) for counts in seen)
        assert report.blas_threads == 1
        assert alm.blas_thread_counts() == prior

    def test_restored_after_exception(self, prior, monkeypatch):
        def boom():
            raise RuntimeError("injected")

        hook_factor_stages(monkeypatch, boom)
        with dense_solver(small_problem()) as solver:
            with pytest.raises(RuntimeError, match="injected"):
                solver.solve()
        assert alm.blas_thread_counts() == prior
        monkeypatch.undo()
        with dense_solver(small_problem()) as solver:
            assert solver.solve()[3].solved
        assert alm.blas_thread_counts() == prior

    def test_nested_solves_restore_once(self, prior, monkeypatch):
        inner = dense_solver(small_problem(seed=1))
        after_inner = []

        def hook():
            if after_inner:
                return
            after_inner.append(None)  # the inner solve must not recurse again
            assert inner.solve()[3].solved
            after_inner[0] = alm.blas_thread_counts()

        hook_factor_stages(monkeypatch, hook)
        with dense_solver(small_problem()) as outer:
            assert outer.solve()[3].solved
        inner.close()
        # the outer solve was still running, so the inner one left the pin on
        assert after_inner[0] == [1] * len(prior)
        assert alm.blas_thread_counts() == prior

    def test_concurrent_solves_restore_once(self, prior, monkeypatch):
        barrier = threading.Barrier(2, timeout=30)
        local = threading.local()

        def hook():
            if not getattr(local, "met", False):
                local.met = True
                barrier.wait()  # both solves are inside their pin here

        hook_factor_stages(monkeypatch, hook)
        reports = [None, None]

        def run(i):
            with dense_solver(small_problem(seed=i)) as solver:
                reports[i] = solver.solve()[3]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert all(r is not None and r.solved for r in reports)
        assert alm.blas_thread_counts() == prior

    def test_pin_stress(self, prior):
        # many threads entering and leaving the pin with frequent switches:
        # a lost update of the depth would leave the pin on or restore early
        inside = []

        def churn():
            for _ in range(200):
                with alm.single_threaded_blas() as threads:
                    inside.append(threads == 1 and alm.blas_thread_counts() == [1] * len(prior))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(inside) == 8 * 200 and all(inside)
        assert alm._blas_depth == 0
        assert alm.blas_thread_counts() == prior


def test_no_library_found(monkeypatch):
    monkeypatch.setattr(alm, "_find_openblas", lambda: [])
    monkeypatch.setattr(alm, "_blas_libs", None)
    assert alm.blas_thread_counts() == []
    with dense_solver(small_problem()) as solver:
        x, _, _, report = solver.solve()
    assert report.solved and np.all(np.isfinite(x))
    assert report.blas_threads is None
