import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*args):
    return subprocess.run([sys.executable, "tools/memtimeline.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_small_step_prints_each_call_in_order_for_both_orders():
    done = run("--batch", "4", "--channels", "8", "--frames", "40", "--stage", "joint_grl")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("# one joint_grl step at lambda 0.3: batch 4, 8 channels, 40 frames; "
                        "tracemalloc MB")
    orders = [i for i, line in enumerate(lines) if line.startswith("bn_before_relu=")]
    assert [lines[i] for i in orders] == ["bn_before_relu=False", "bn_before_relu=True"]
    for bn_first, start, stop in zip((False, True), orders, orders[1:] + [len(lines)]):
        header, *rows, step = lines[start + 1 : stop]
        assert header.split() == ["call", "current", "peak"]
        calls = [row.split()[0] for row in rows]
        assert all(len(row.split()) == 3 for row in rows)
        assert calls[0] == "l1.tdnn.forward" and calls[-1] == "adam.step"
        forward = calls.index("pool.forward")
        assert [c for c in calls[:forward] if c.endswith("tdnn.forward")] == [
            f"l{i}.tdnn.forward" for i in range(1, 6)]
        assert [c for c in calls[forward:] if c.endswith("tdnn.backward")] == [
            f"l{i}.tdnn.backward" for i in range(5, 0, -1)]
        # with batch norm first, rebuilding each block's output in backward runs its ReLU
        assert [c for c in calls[forward:] if c.endswith("relu.forward")] == [
            f"l{i}.relu.forward" for i in range(5, 0, -1) if bn_first]
        assert step.split()[0] == "step" and float(step.split()[1]) > 0


def test_unknown_stage_is_a_usage_error():
    done = run("--stage", "nope")
    assert done.returncode == 2
    assert "--stage must be one of baseline, mtl" in done.stderr
