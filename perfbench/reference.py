"""Reference kernel for rescaling wall times to a fixed CPU speed.

The speed of a shared virtual machine drifts by tens of percent over
minutes, as other tenants load the host, and every wall time taken in that
window drifts with it.  Each measuring process therefore also times this
kernel, a fixed pure-Python loop that calls no maxdtn code, between its
passes.  An end-to-end time is reported as

    median wall time * REF_S / median kernel time,

its value on a machine where the kernel takes exactly REF_S.  A change to
maxdtn moves the numerator only.
"""

import cmath
import time

#: kernel time that defines the reference speed: about its time on a quiet
#: 2-core Xeon host with Python 3.11, so reported times read close to wall
#: seconds there
REF_S = 0.03


def kernel_s():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(100000):
        z = z * (0.99 + 0.01j) + 0.05
        acc += cmath.exp(1j * z.real) / (abs(z) + 1.0)
    return time.perf_counter() - t0
