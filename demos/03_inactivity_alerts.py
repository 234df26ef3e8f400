"""
The inactivity timer and vibration alerts
=========================================

Drive the detector with a hand-made VM count trace and watch the timer,
the vibration episodes, and the reset rules: counts above the threshold
reset the timer; a full quiet period starts a vibration; vibrations end
after their time is up or as soon as the wearer moves.
"""
from stillwatch import DetectorConfig, InactivityDetector

cfg = DetectorConfig(
    count_threshold=125.0,
    inactivity_seconds=4.0,   # short, to keep the demo compact
    vibration_seconds=2.0,
    tick_seconds=0.01,
)
print(f"threshold {cfg.count_threshold} counts, inactivity {cfg.inactivity_seconds} s, "
      f"vibration {cfg.vibration_seconds} s\n")

###############################################################################
# 20 seconds of scripted behavior: still, one movement, still again, then a
# movement that interrupts a vibration halfway.

def vm_at(t: float) -> float:
    if 2.00 <= t < 2.30:
        return 300.0   # a wave of the arm
    if 13.20 <= t < 13.35:
        return 200.0   # movement while the motor is running
    return 0.0


detector = InactivityDetector(cfg)
print(f"{'t (s)':>6}  {'timer':>6}  {'motor':>5}  events")
events_log = []
for k in range(2000):
    t = k * cfg.tick_seconds
    events = detector.tick(vm_at(t), t)
    events_log.extend(events)
    if events or (k % 100 == 0):
        names = "+".join(e.kind for e in events)
        print(f"{t:6.2f}  {detector.timer_seconds:6.2f}  "
              f"{'ON' if detector.vibrating else '.':>5}  {names}")

###############################################################################
# The event trace condenses the same story.

print("\nevent trace:")
for e in events_log:
    print(f"  {e.t:6.2f}  {e.kind}")

print("""
Reading it:
  * the movement at 2.0 s resets the timer (one onset event per burst)
  * 4 s of stillness later (6.29 s) the motor starts
  * that vibration runs its full 2 s and resets the timer again
  * the next vibration (12.29 s) is cut short at 13.2 s by movement
""")
