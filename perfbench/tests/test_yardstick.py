"""The yardstick repeats its work exactly; its child process answers and exits."""

from perfbench import yardstick


def test_yardstick_work_is_fixed():
    assert yardstick.yardstick() == yardstick.yardstick()


def test_child_times_the_yardstick_and_exits():
    with yardstick.Yardstick() as stick:
        samples = [stick.sample(), stick.sample(3)]
        child = stick._child
    assert all(0 < sample < 10 for sample in samples)
    assert child.returncode == 0
