package udpnet

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/event"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// loopID returns the id of p's event-loop goroutine.
func loopID(p *Provider) uint64 {
	var id uint64
	p.Wait(func() { id = goid() })
	return id
}

// firing is one observed timer callback: when and on which goroutine.
type firing struct {
	at   time.Duration
	goid uint64
}

func awaitFiring(t *testing.T, ch <-chan firing, what string) firing {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never fired", what)
		return firing{}
	}
}

func TestLoopTimerRunsOnLoopNotEarly(t *testing.T) {
	p := New()
	defer p.Close()
	loop := loopID(p)
	c := p.Clock()
	m := event.NewManager(c)
	fired := make(chan firing, 1)
	var armed time.Duration
	const d = 20 * time.Millisecond
	p.Wait(func() {
		armed = c.Now()
		m.Schedule(d, func() { fired <- firing{c.Now(), goid()} })
		if p.timers.Pending() != 1 {
			t.Error("session timer did not arm on the provider's timer wheel")
		}
	})
	f := awaitFiring(t, fired, "loop timer")
	if f.goid != loop {
		t.Fatalf("timer ran on goroutine %d, loop is %d", f.goid, loop)
	}
	if f.at-armed < d {
		t.Fatalf("timer fired %v after arming, before its %v deadline", f.at-armed, d)
	}
}

func TestLoopTimerCancel(t *testing.T) {
	p := New()
	defer p.Close()
	m := event.NewManager(p.Clock())
	var fired atomic.Bool
	p.Wait(func() {
		e := m.Schedule(10*time.Millisecond, func() { fired.Store(true) })
		if !e.Cancel() {
			t.Error("Cancel of a pending timer returned false")
		}
		if p.timers.Pending() != 0 {
			t.Errorf("cancelled timer still on the wheel (%d pending)", p.timers.Pending())
		}
	})
	time.Sleep(40 * time.Millisecond)
	p.Wait(func() {}) // any wake that was armed has run by now
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestLoopTimerRearm(t *testing.T) {
	p := New()
	defer p.Close()
	c := p.Clock()
	m := event.NewManager(c)
	fired := make(chan firing, 4)
	fn := func() { fired <- firing{c.Now(), goid()} }

	// Earlier: a 2 s timer re-armed to 10 ms in a later loop job (the wake
	// timer is already armed for 2 s by then) must fire near 10 ms, once.
	var e *event.Event
	var at time.Duration
	p.Wait(func() { e = m.Schedule(2*time.Second, fn) })
	p.Wait(func() {
		at = c.Now()
		e.Reset(10 * time.Millisecond)
	})
	f := awaitFiring(t, fired, "timer re-armed earlier")
	if f.at-at < 10*time.Millisecond || f.at-at >= 2*time.Second {
		t.Fatalf("re-armed-earlier timer fired %v after Reset, want in [10ms, 2s)", f.at-at)
	}

	// Later: a 5 ms timer re-armed to 60 ms must not fire at 5 ms.
	p.Wait(func() { e = m.Schedule(5*time.Millisecond, fn) })
	p.Wait(func() {
		at = c.Now()
		e.Reset(60 * time.Millisecond)
	})
	f = awaitFiring(t, fired, "timer re-armed later")
	if f.at-at < 60*time.Millisecond {
		t.Fatalf("re-armed-later timer fired %v after Reset, before its 60ms deadline", f.at-at)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case f := <-fired:
		t.Fatalf("a re-armed timer fired twice (again at %v)", f.at)
	default:
	}
}

func TestCloseWithPendingTimers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New()
	c := p.Clock()
	m := event.NewManager(c)
	var closed, late atomic.Bool
	fn := func() {
		if closed.Load() {
			late.Store(true)
		}
	}
	p.Wait(func() {
		for i := 0; i < 64; i++ {
			m.Schedule(time.Duration(i)*500*time.Microsecond, fn)
		}
		m.SchedulePeriodic(time.Millisecond, time.Millisecond, fn)
	})
	time.Sleep(3 * time.Millisecond) // let some fire, leave most pending
	p.Close()
	closed.Store(true)
	time.Sleep(50 * time.Millisecond)
	if late.Load() {
		t.Fatal("timer callback ran after Close returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAfterFuncOffLoopFiresOnLoop(t *testing.T) {
	p := New()
	defer p.Close()
	loop := loopID(p)
	c := p.Clock()
	fired := make(chan firing, 1)
	start := c.Now()
	// Armed from the test goroutine, not the loop: AfterFunc stays the
	// goroutine-safe netapi.Clock path.
	c.AfterFunc(5*time.Millisecond, func() { fired <- firing{c.Now(), goid()} })
	f := awaitFiring(t, fired, "off-loop AfterFunc")
	if f.goid != loop {
		t.Fatalf("AfterFunc callback ran on goroutine %d, loop is %d", f.goid, loop)
	}
	if f.at-start < 5*time.Millisecond {
		t.Fatalf("AfterFunc fired after %v, before its 5ms deadline", f.at-start)
	}
}
