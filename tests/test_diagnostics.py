import threading
import time

import pytest

from dampedwave.diagnostics import JobThread


class Stop(BaseException):
    """A job's exception that is not an ``Exception``."""


def _fail(error):
    def job():
        raise error

    return job


def test_jobs_run_in_submission_order_one_at_a_time():
    # a submit returns only after the previous job has finished, so the
    # caller may then overwrite what that job read; the new job may or
    # may not have run by then
    jobs, done, threads = JobThread(), [], set()

    def job(k):
        def run():
            time.sleep(0.002 * (k % 3))
            threads.add(threading.current_thread())
            done.append(k)

        return run

    try:
        for k in range(10):
            jobs.submit(job(k))
            assert done[:k] == list(range(k))
        jobs.wait()
    finally:
        jobs.close()
    assert done == list(range(10))
    assert len(threads) == 1 and threading.main_thread() not in threads


def test_job_error_is_raised_at_the_next_wait_once():
    jobs, done = JobThread(), []
    try:
        jobs.submit(_fail(OSError("disk full")))
        with pytest.raises(OSError, match="disk full"):
            jobs.wait()
        jobs.wait()
        jobs.submit(lambda: done.append(1))
        jobs.submit(_fail(ValueError("bad value")))
        with pytest.raises(ValueError, match="bad value"):
            jobs.submit(lambda: done.append(2))
        jobs.wait()
    finally:
        jobs.close()
    assert done == [1]


def test_base_exception_of_a_job_reaches_wait_at_once():
    jobs = JobThread()
    start = time.perf_counter()
    try:
        jobs.submit(_fail(Stop()))
        with pytest.raises(Stop):
            jobs.wait()
        assert time.perf_counter() - start < 5.0
        done = []
        jobs.submit(lambda: done.append(1))
        jobs.wait()
        assert done == [1]
    finally:
        jobs.close()


@pytest.mark.parametrize("failing", [False, True], ids=["ok", "failed"])
def test_no_thread_before_the_first_job_or_after_close(failing):
    before = threading.active_count()
    jobs = JobThread()
    assert threading.active_count() == before
    counts = []
    jobs.submit(lambda: counts.append(threading.active_count()))
    if failing:
        jobs.submit(_fail(OSError("disk full")))
        with pytest.raises(OSError):
            jobs.wait()
    else:
        jobs.wait()
    jobs.close()
    assert counts == [before + 1]
    assert threading.active_count() == before


def test_close_without_a_wait_leaves_no_thread():
    before = threading.active_count()
    jobs = JobThread()
    jobs.submit(_fail(Stop()))
    jobs.close()
    assert threading.active_count() == before


def test_inline_jobs_run_inside_submit_on_the_callers_thread():
    before = threading.active_count()
    jobs, done = JobThread(inline=True), []
    jobs.submit(lambda: done.append((threading.current_thread(), threading.active_count())))
    assert done == [(threading.current_thread(), before)]
    with pytest.raises(OSError, match="disk full"):
        jobs.submit(_fail(OSError("disk full")))
    jobs.wait()
    jobs.close()
    assert threading.active_count() == before
