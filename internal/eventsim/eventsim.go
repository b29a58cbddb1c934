// Package eventsim provides a deterministic discrete-event simulation
// kernel: a virtual clock, a 4-ary-heap event queue, cancellable timers,
// and a seeded random number generator. It replaces PeerSim's event-driven
// engine from the paper. All state is single-goroutine; the kernel itself
// never spawns goroutines, which makes every run exactly reproducible from
// its seed.
package eventsim

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrPastTime reports an attempt to schedule an event before the current
// virtual time.
var ErrPastTime = errors.New("eventsim: cannot schedule event in the past")

// DefaultCancelBatch is the event-batch granularity at which Run and
// RunUntil poll an installed cancel context: a canceled run stops within
// at most this many further events. Small enough that even a dense
// simulation halts in microseconds, large enough that the poll is
// invisible next to real event work.
const DefaultCancelBatch = 256

// Simulator is a discrete-event simulator with a virtual clock. The zero
// value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	seq       uint64 // tie-breaker so equal-time events run in schedule order
	queue     []*Timer
	rng       *rand.Rand
	processed uint64
	stopped   bool

	cancelCtx   context.Context
	cancelEvery uint64
	cancelErr   error
}

// Timer is a scheduled event and the handle to it. Cancel prevents a
// pending event from firing; cancelling an already-fired or
// already-cancelled timer is a no-op.
type Timer struct {
	at  time.Duration
	seq uint64
	fn  func() // nil once fired or cancelled
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.fn == nil {
		return false
	}
	t.fn = nil
	return true
}

// Pending reports whether the timer's event has neither fired nor been
// cancelled.
func (t *Timer) Pending() bool {
	return t != nil && t.fn != nil
}

// before is the queue order: by time, then by schedule sequence. seq is
// unique, so the order is total and the firing order does not depend on
// the heap's shape.
func (t *Timer) before(u *Timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// push adds t to the 4-ary min-heap s.queue.
func (s *Simulator) push(t *Timer) {
	q := append(s.queue, t)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !t.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = t
	s.queue = q
}

// pop removes and returns the earliest timer of the non-empty queue.
func (s *Simulator) pop() *Timer {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// New returns a simulator whose random number generator is seeded with seed.
// Two simulators built from the same seed and fed the same schedule of
// events produce identical executions.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time, measured from simulation start.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random number generator. All
// randomness in a simulation must come from this generator to keep runs
// reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetCancel installs ctx as the kernel's cancellation signal: Run and
// RunUntil poll ctx between batches of every fired events (every <= 0
// means DefaultCancelBatch) and return early once ctx is done, recording
// the cause for Err. The poll never touches the clock, the queue or the
// RNG, so a run that completes — whether ctx fires late or never — is
// byte-identical to one executed without a cancel context.
func (s *Simulator) SetCancel(ctx context.Context, every int) {
	s.cancelCtx = ctx
	if every <= 0 {
		every = DefaultCancelBatch
	}
	s.cancelEvery = uint64(every)
}

// Err returns the cancellation cause that interrupted the most recent Run
// or RunUntil, or nil if it ran to completion.
func (s *Simulator) Err() error { return s.cancelErr }

// interrupted polls the installed cancel context at batch boundaries.
// countdown counts events remaining in the current batch; a zero value
// forces a poll (so the first event of a run never fires canceled).
func (s *Simulator) interrupted(countdown *uint64) bool {
	if *countdown > 0 {
		*countdown--
		return false
	}
	if s.cancelCtx != nil {
		if err := s.cancelCtx.Err(); err != nil {
			s.cancelErr = err
			return true
		}
	}
	*countdown = s.cancelEvery
	if *countdown > 0 {
		*countdown--
	}
	return false
}

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued (including cancelled events
// not yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule queues fn to run after delay of virtual time and returns a
// cancellable handle. A negative delay is an error; a zero delay runs fn
// at the current time, after already-queued events for that time.
func (s *Simulator) Schedule(delay time.Duration, fn func()) (*Timer, error) {
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) (*Timer, error) {
	if at < s.now {
		return nil, ErrPastTime
	}
	if fn == nil {
		return nil, errors.New("eventsim: nil event function")
	}
	t := &Timer{at: at, seq: s.seq, fn: fn}
	s.seq++
	s.push(t)
	return t, nil
}

// MustSchedule is Schedule for call sites that control the delay and accept
// a panic on misuse (negative delay or nil fn).
func (s *Simulator) MustSchedule(delay time.Duration, fn func()) *Timer {
	t, err := s.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return t
}

// Step fires the next pending event, advancing the clock to its time. It
// reports whether an event fired; cancelled events are skipped silently.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		t := s.pop()
		if t.fn == nil {
			continue
		}
		s.now = t.at
		fn := t.fn
		t.fn = nil
		fn()
		s.processed++
		return true
	}
	return false
}

// Run fires events until the queue is empty, Stop is called, or an
// installed cancel context (SetCancel) fires at a batch boundary.
func (s *Simulator) Run() {
	s.stopped = false
	s.cancelErr = nil
	var countdown uint64
	for !s.stopped {
		if s.interrupted(&countdown) {
			return
		}
		if !s.Step() {
			return
		}
	}
}

// RunUntil fires events with time <= deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline stay queued. When an
// installed cancel context (SetCancel) fires, the run stops within one
// event batch without advancing the clock to the deadline — the partial
// state is the caller's to discard.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.stopped = false
	s.cancelErr = nil
	var countdown uint64
	for !s.stopped {
		if s.interrupted(&countdown) {
			return
		}
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop makes a Run or RunUntil in progress return after the current event.
// It is intended to be called from inside an event callback.
func (s *Simulator) Stop() { s.stopped = true }

func (s *Simulator) peek() (time.Duration, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].fn == nil {
			s.pop()
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}
