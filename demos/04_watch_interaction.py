"""
Buttons and LEDs
================

The watch face has three buttons (select the inactivity duration, toggle
the red vibration indicator, power off) and three LEDs (white: power,
blue: selection feedback, red: flashes with the motor when enabled).
This script scripts a user session and prints what the LEDs do.
"""
from stillwatch import Device, DeviceConfig

config = DeviceConfig(
    inactivity_options=(3.0, 6.0, 12.0),  # short options for the demo
    vibration_seconds=2.0,
)
device = Device(config)
TICK = 0.01

print(f"inactivity options: {config.inactivity_options} s")
print(f"starting on option {device.selected_option} "
      f"({config.inactivity_options[device.selected_option]} s)\n")

# (tick, button) script: cycle the options twice, enable red, power off late
script = {
    100: "select",    # t=1 s   -> option 1, blue flashes twice
    300: "select",    # t=3 s   -> option 2, blue flashes thrice
    500: "select",    # t=5 s   -> wraps to option 0, one flash
    900: "red",       # t=9 s   -> red indicator armed
    1800: "power",    # t=18 s  -> everything dark
}

last = None
print(f"{'t (s)':>6}  option  white  blue  red  motor  timer")
for k in range(2000):
    if k in script:
        device.press_button(script[k], k * TICK)
        print(f"{k * TICK:6.2f}  -- pressed {script[k]} --")
    snap = device.tick(0.0, k * TICK)  # wearer never moves
    state = (snap.option, snap.white, snap.blue, snap.red, snap.motor)
    if state != last:
        print(f"{snap.t:6.2f}  {snap.option:>6}  {int(snap.white):>5}  "
              f"{int(snap.blue):>4}  {int(snap.red):>3}  {int(snap.motor):>5}  "
              f"{snap.timer_seconds:5.2f}")
        last = state

print("\nevent trace from the watch's detector:")
for e in device.events:
    print(f"  {e.t:6.2f}  {e.kind}")

print("""
What happened:
  * each select press restarts the timer and flashes the blue LED once per
    option index + 1; a press also reprograms the inactivity duration
  * with option 0 (3 s) armed and no movement, the motor fires every
    3 s + 2 s cycle; the red LED flashes along once enabled at 9 s
  * power-off at 18 s silences everything; later ticks and presses are
    ignored (a fresh Device models switching back on)
""")
