import threading

from swagppm import blas


def test_overlapping_windows_hold_one_thread_until_the_last_closes(
        set_blas_threads):
    # another thread opens a window, this one opens a second and the other
    # closes first: the count stays at one until this window closes, and
    # then it is the count the process had before both
    set_blas_threads(2)
    opened, close = threading.Event(), threading.Event()

    def other_window():
        with blas.one_thread():
            opened.set()
            assert close.wait(60)

    other = threading.Thread(target=other_window)
    other.start()
    assert opened.wait(60)
    with blas.one_thread():
        close.set()
        other.join(60)
        assert not other.is_alive()
        inside = blas.threads()
    assert (inside, blas.threads()) == (1, 2)
