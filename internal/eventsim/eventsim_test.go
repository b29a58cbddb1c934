package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.MustSchedule(3*time.Second, func() { order = append(order, 3) })
	s.MustSchedule(1*time.Second, func() { order = append(order, 1) })
	s.MustSchedule(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustSchedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.MustSchedule(time.Second, func() {
		fired = append(fired, s.Now())
		s.MustSchedule(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v, want [1s 2s]", fired)
	}
}

func TestZeroDelayRunsAtCurrentTime(t *testing.T) {
	s := New(1)
	var at time.Duration = -1
	s.MustSchedule(5*time.Second, func() {
		s.MustSchedule(0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5*time.Second {
		t.Fatalf("zero-delay event ran at %v, want 5s", at)
	}
}

func TestSchedulePastFails(t *testing.T) {
	s := New(1)
	s.MustSchedule(10*time.Second, func() {
		if _, err := s.ScheduleAt(5*time.Second, func() {}); err == nil {
			t.Error("scheduling in the past should fail")
		}
	})
	s.Run()
	if _, err := s.Schedule(-time.Second, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if _, err := s.Schedule(time.Second, nil); err == nil {
		t.Error("nil fn should fail")
	}
}

func TestTimerCancel(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.MustSchedule(time.Second, func() { fired = true })
	if !timer.Pending() {
		t.Error("timer should be pending before firing")
	}
	if !timer.Cancel() {
		t.Error("first cancel should report true")
	}
	if timer.Cancel() {
		t.Error("second cancel should report false")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if timer.Pending() {
		t.Error("cancelled timer should not be pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	timer := s.MustSchedule(time.Second, func() {})
	s.Run()
	if timer.Pending() {
		t.Error("fired timer should not be pending")
	}
	if timer.Cancel() {
		t.Error("cancelling a fired timer should report false")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		s.MustSchedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if s.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s (deadline advances clock)", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.MustSchedule(3*time.Second, func() { fired = true })
	s.RunUntil(3 * time.Second)
	if !fired {
		t.Error("event at exactly the deadline should fire")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	var count int
	for i := 0; i < 10; i++ {
		s.MustSchedule(time.Duration(i+1)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	// Run can be resumed afterwards.
	s.Run()
	if count != 10 {
		t.Fatalf("processed %d events after resume, want 10", count)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		s := New(99)
		var draws []int64
		for i := 0; i < 100; i++ {
			delay := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.MustSchedule(delay, func() {
				draws = append(draws, s.Rand().Int63())
			})
		}
		s.Run()
		return draws
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at draw %d", i)
		}
	}
}

func TestProcessedAndPendingCounters(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.MustSchedule(time.Duration(i)*time.Second, func() {})
	}
	cancel := s.MustSchedule(10*time.Second, func() {})
	cancel.Cancel()
	if s.Pending() != 6 {
		t.Errorf("Pending() = %d, want 6", s.Pending())
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed() = %d, want 5", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New(5)
	const n = 20000
	var count int
	for i := 0; i < n; i++ {
		delay := time.Duration(s.Rand().Intn(1000000)) * time.Microsecond
		s.MustSchedule(delay, func() { count++ })
	}
	var last time.Duration
	for s.Step() {
		if s.Now() < last {
			t.Fatal("clock went backwards")
		}
		last = s.Now()
	}
	if count != n {
		t.Fatalf("processed %d, want %d", count, n)
	}
}

// TestHeapOrderMatchesReference drives the kernel with a random mix of
// schedules (many equal times), cancels and steps, and checks every step
// against a model that fires the earliest live (at, seq) event and reaps
// cancelled events only as they reach the front.
func TestHeapOrderMatchesReference(t *testing.T) {
	type ref struct {
		at        time.Duration
		seq       int
		cancelled bool
		timer     *Timer
	}
	r := rand.New(rand.NewSource(9))
	s := New(1)
	var model []*ref // not yet popped by the kernel
	fired := -1
	var processed uint64
	for op := 0; op < 20000; op++ {
		switch x := r.Intn(10); {
		case x < 5:
			seq := op
			at := s.Now() + time.Duration(r.Intn(8))*time.Millisecond
			e := &ref{at: at, seq: seq}
			e.timer = s.MustSchedule(at-s.Now(), func() { fired = seq })
			model = append(model, e)
		case x < 7:
			if len(model) == 0 {
				continue
			}
			e := model[r.Intn(len(model))]
			if got := e.timer.Cancel(); got == e.cancelled {
				t.Fatalf("op %d: Cancel() = %v on an event cancelled=%v", op, got, e.cancelled)
			}
			e.cancelled = true
		default:
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
			next := -1
			for i, e := range model {
				if !e.cancelled {
					next = i
					break
				}
			}
			stepped := s.Step()
			if next < 0 {
				if stepped {
					t.Fatalf("op %d: Step fired event %d, model has none live", op, fired)
				}
				model = model[:0]
			} else {
				want := model[next]
				if !stepped || fired != want.seq || s.Now() != want.at {
					t.Fatalf("op %d: fired %d at %v, want %d at %v", op, fired, s.Now(), want.seq, want.at)
				}
				if want.timer.Pending() {
					t.Fatalf("op %d: fired timer still pending", op)
				}
				processed++
				model = model[next+1:]
			}
		}
		if s.Pending() != len(model) || s.Processed() != processed {
			t.Fatalf("op %d: Pending %d Processed %d, want %d and %d",
				op, s.Pending(), s.Processed(), len(model), processed)
		}
	}
}

// TestScheduleStepAllocs pins the kernel's cost per event: the timer,
// which is also the queue entry, is the only allocation.
func TestScheduleStepAllocs(t *testing.T) {
	s := New(1)
	fn := func() {}
	const batch = 100
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < batch; i++ {
			s.MustSchedule(time.Duration(s.Rand().Intn(1000))*time.Millisecond, fn)
		}
		for s.Step() {
		}
	})
	if allocs != batch {
		t.Fatalf("%v allocations per %d scheduled events, want one each", allocs, batch)
	}
}

// BenchmarkScheduleStep measures one schedule plus one pop against a
// queue holding 4096 pending events.
func BenchmarkScheduleStep(b *testing.B) {
	s := New(1)
	fn := func() {}
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(s.Rand().Intn(1000)) * time.Millisecond
	}
	for i := 0; i < 4096; i++ {
		s.MustSchedule(delays[i%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustSchedule(delays[i%len(delays)], fn)
		s.Step()
	}
}
