"""
Closed-loop simulation and motor self-rejection
===============================================

Run the full watch over the canonical scenario (rest, a strong movement
burst at 5-8 s, rest again) and write the plot-ready series. Then enable
motor feedback, so the running motor shakes the accelerometer at 20 Hz,
and verify the alert schedule does not change: the band-pass filter keeps
the watch from waking itself up.
"""
import dataclasses

import numpy as np

from stillwatch import MotorFeedback, canonical_scenario, run
from stillwatch.io import serialize_events, serialize_trace

scenario = canonical_scenario()
trace = run(scenario)

###############################################################################
# The three panels of the story: acceleration, counts, timer.

print("canonical run, 1 s resolution:")
print(f"{'t (s)':>6}  {'|a|-1 (g)':>10}  {'VM':>8}  {'timer':>6}  motor")
for second in range(30):
    k = second * 100
    magnitude = float(np.sqrt(trace.ax[k] ** 2 + trace.ay[k] ** 2 + trace.az[k] ** 2))
    print(f"{trace.t[k]:6.1f}  {magnitude - 1.0:10.3f}  {trace.vm[k]:8.1f}  "
          f"{trace.timer[k]:6.2f}  {'ON' if trace.motor[k] else ''}")

print("\nevents:")
for e in trace.events:
    print(f"  {e.t:6.2f}  {e.kind}")

last_above = trace.t[trace.vm > 125.0].max()
print(f"\nthe burst pushes VM past 125 until t = {last_above:.2f} s;")
print("the vibration starts exactly 10 s later and runs for 5 s.")

###############################################################################
# Same scenario with the motor shaking the sensor while it runs.

fed = dataclasses.replace(
    scenario, motor_feedback=MotorFeedback(enabled=True, amplitude_g=0.5, frequency_hz=20.0)
)
trace_fed = run(fed)

vibrating = trace.motor
print(f"\nwith 20 Hz / 0.5 g feedback during vibration:")
print(f"  raw X amplitude while vibrating: "
      f"{np.abs(trace_fed.ax[vibrating]).max():.3f} g "
      f"(vs {np.abs(trace.ax[vibrating]).max():.3f} g without)")
print(f"  VM while vibrating: {trace_fed.vm[vibrating].max():.3f} "
      f"(vs {trace.vm[vibrating].max():.3f} without)")
print(f"  event traces identical: {trace_fed.events == trace.events}")

###############################################################################
# Write the CSVs for external plotting. `serialize_trace` takes traces of
# consecutive ticks, one after another: the whole trace is `[trace]`. It goes
# straight to its file a block of rows at a time, so its text is never held
# whole; for a string, pass an io.StringIO.

with open("demo_trace.csv", "w", newline="\n") as fh:
    serialize_trace([trace], fh)
with open("demo_events.csv", "w", newline="\n") as fh:
    fh.write(serialize_events(trace.events))
print("\nwrote demo_trace.csv and demo_events.csv")
print("(the `stillwatch figure3` command produces the same files anywhere)")
