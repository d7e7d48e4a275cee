package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

// TestEngineSchedulingInPastPanics: At, At2 and At2Batch refuse a time
// before now or beyond MaxTime, each with the same message.
func TestEngineSchedulingInPastPanics(t *testing.T) {
	const past = "sim: scheduling event at 5ns before now 10ns"
	beyond := fmt.Sprintf("sim: scheduling event at %d ps, beyond MaxTime (%d ps); use SaturatingAdd for relative timers",
		int64(MaxTime+1), int64(MaxTime))
	for _, sched := range []struct {
		name string
		at   func(e *Engine, t Time)
	}{
		{"At", func(e *Engine, t Time) { e.At(t, func() {}) }},
		{"At2", func(e *Engine, t Time) { e.At2(t, nopEvent, nil) }},
		{"At2Batch", func(e *Engine, t Time) { e.At2Batch([]Batch{{At: t, Fn: nopEvent}}) }},
	} {
		for _, tc := range []struct {
			at   Time
			want string
		}{{5 * Nanosecond, past}, {MaxTime + 1, beyond}} {
			e := NewEngine()
			e.At(10*Nanosecond, func() {
				defer func() {
					if got := recover(); got != tc.want {
						t.Errorf("%s(%d ps) panicked with %v, want %q", sched.name, int64(tc.at), got, tc.want)
					}
				}()
				sched.at(e, tc.at)
			})
			e.Run()
		}
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(20*Nanosecond, func() { fired++ })
	e.At(30*Nanosecond, func() { fired++ })
	e.RunUntil(20 * Nanosecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*Nanosecond {
		t.Fatalf("Now = %v, want 20ns", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestEngineRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42 * Microsecond)
	if e.Now() != 42*Microsecond {
		t.Fatalf("Now = %v, want 42us", e.Now())
	}
}

func TestEngineStopHaltsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1*Nanosecond, func() { fired++; e.Stop() })
	e.At(2*Nanosecond, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 150*Nanosecond {
		t.Fatalf("After fired at %v, want 150ns", at)
	}
}

func TestEngineEventsCascade(t *testing.T) {
	// Events scheduled from events must fire; classic chain of N.
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 1000 {
			e.After(Nanosecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d steps, want 1000", n)
	}
	if e.Now() != 999*Nanosecond {
		t.Fatalf("Now = %v, want 999ns", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{5400 * Picosecond, "5.4ns"},
		{Time(1575300), "1.575us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromNanosRoundTrip(t *testing.T) {
	if got := FromNanos(5.4); got != 5400*Picosecond {
		t.Fatalf("FromNanos(5.4) = %v", got)
	}
	if got := FromNanos(1575.3); got != Time(1575300) {
		t.Fatalf("FromNanos(1575.3) = %v", got)
	}
}

// Property: for any batch of event delays, events fire in sorted order
// and the engine clock ends at the max delay.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			dt := Time(d) * Nanosecond
			if dt > max {
				max = dt
			}
			e.At(dt, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeArithmeticSaturatesAtHorizon is the overflow regression for
// the sim.Time audit: before the fix, After/After2/RunFor computed
// now+d unchecked, so a huge "forever" duration wrapped negative —
// After panicked with a misleading "scheduling before now" and RunFor
// silently did nothing. They now saturate at MaxTime.
func TestTimeArithmeticSaturatesAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	// Park the clock close to the horizon, then schedule relative
	// timers whose naive sum would wrap int64.
	e.At(MaxTime-5, func() {
		e.After(MaxTime, func() { fired++ })            // would wrap pre-fix
		e.After2(MaxTime-1, func(any) { fired++ }, nil) // would wrap pre-fix
	})
	e.Run() // drains to the horizon, so saturated events do fire
	if fired != 2 {
		t.Fatalf("saturated events fired %d times, want 2", fired)
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock %v, want MaxTime", e.Now())
	}
}

func TestRunForSaturatesAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(MaxTime-100, func() { ran = true })
	e.RunFor(1000) // within range: advances normally
	if ran || e.Now() != 1000 {
		t.Fatalf("RunFor(1000): now=%v ran=%v", e.Now(), ran)
	}
	e.RunFor(MaxTime) // would wrap pre-fix and silently no-op
	if !ran {
		t.Fatal("RunFor(MaxTime) did not reach an event near the horizon")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock %v, want MaxTime", e.Now())
	}
}

func TestProcSleepSaturatesAtHorizon(t *testing.T) {
	e := NewEngine()
	woke := false
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(MaxTime - 1) // fine
		p.Sleep(MaxTime)     // would wrap pre-fix; saturates to the horizon
		woke = true
	})
	e.Run()
	if !woke {
		t.Fatal("saturated Sleep never woke")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock %v, want MaxTime", e.Now())
	}
}

func TestSaturatingAdd(t *testing.T) {
	cases := []struct{ t, d, want Time }{
		{0, 5, 5},
		{MaxTime, 1, MaxTime},
		{MaxTime - 3, 3, MaxTime},
		{MaxTime - 3, 4, MaxTime},
		{5, -3, 2},
		{5, 0, 5},
		{MaxTime, MaxTime, MaxTime},
	}
	for _, c := range cases {
		if got := SaturatingAdd(c.t, c.d); got != c.want {
			t.Errorf("SaturatingAdd(%d, %d) = %d, want %d", c.t, c.d, got, c.want)
		}
	}
}
