// Package event implements the TKO_Event service (ADAPTIVE §4.2.1):
// schedulable, cancellable, one-shot or periodic timer events for protocol
// mechanisms (retransmission timers, rate-control gaps, periodic probes,
// policy evaluation ticks).
//
// Events run on the clock provider's event loop, so mechanism code needs no
// locking. The manager also keeps scheduling statistics, which UNITES exposes
// as whitebox metrics.
package event

import (
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/sim"
)

// Stats counts timer activity for whitebox metrics.
type Stats struct {
	Scheduled uint64
	Expired   uint64
	Canceled  uint64
}

// Manager creates events against a clock.
type Manager struct {
	clock netapi.Clock
	k     *sim.Kernel // non-nil when timers arm on a kernel: no Timer boxing
	wall  bool        // k is a wall-clock wheel: arm at clock.Now()+d
	stats Stats
	blk   []Event // block allocator: Events are created in batches of eventBlock
}

// eventBlock is the Event-struct allocation granule. Events live as long as
// their owning mechanism and are never recycled individually, so carving
// them from a shared backing array is safe and cuts the per-Event heap
// allocation to one per block.
const eventBlock = 16

// NewManager returns a Manager driving timers from clock. A clock backed by a
// simulation kernel (netsim.Clock) is detected here once, so every arm/re-arm
// can schedule directly on the kernel: no per-arm closure and no boxing of the
// value-type sim.Timer into the netapi.Timer interface. A wall clock that
// owns a loop-driven timer wheel (udpnet's TimerWheel) is detected the same
// way; arms on it take absolute deadlines read from the clock, and, like
// every Event method, must run on the provider's event loop.
func NewManager(clock netapi.Clock) *Manager {
	m := &Manager{clock: clock}
	if kc, ok := clock.(interface{ Kernel() *sim.Kernel }); ok {
		m.k = kc.Kernel()
	} else if wc, ok := clock.(interface{ TimerWheel() *sim.Kernel }); ok {
		m.k, m.wall = wc.TimerWheel(), true
	}
	return m
}

// Clock returns the underlying clock.
func (m *Manager) Clock() netapi.Clock { return m.clock }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Event is a scheduled timer. Methods must be called from the provider's
// event loop (the same discipline as all protocol code).
type Event struct {
	mgr      *Manager
	timer    netapi.Timer  // generic-clock path
	simTimer sim.Timer     // kernel fast path (value type, no boxing)
	period   time.Duration // 0 for one-shot
	fn       func()
	fireFn   func() // e.fire bound once; reused for every (re)arm
	stopped  bool
	pending  bool
	fireSeen uint64
}

// Schedule runs fn once after d.
func (m *Manager) Schedule(d time.Duration, fn func()) *Event {
	return m.schedule(d, 0, fn)
}

// SchedulePeriodic runs fn after d and then every period thereafter until
// canceled. A zero or negative period panics.
func (m *Manager) SchedulePeriodic(d, period time.Duration, fn func()) *Event {
	if period <= 0 {
		panic("event: non-positive period")
	}
	return m.schedule(d, period, fn)
}

func (m *Manager) schedule(d, period time.Duration, fn func()) *Event {
	if fn == nil {
		panic("event: nil fn")
	}
	if len(m.blk) == 0 {
		m.blk = make([]Event, eventBlock)
	}
	e := &m.blk[0]
	m.blk = m.blk[1:]
	e.mgr, e.period, e.fn = m, period, fn
	m.arm(e, d)
	return e
}

func (m *Manager) arm(e *Event, d time.Duration) {
	m.stats.Scheduled++
	e.pending = true
	if m.wall {
		// The deadline is read at arm time, exactly when time.AfterFunc
		// would have read it, so no timer fires earlier than d from now.
		e.simTimer = m.k.ScheduleArgAt(m.clock.Now()+d, fireEvent, e)
	} else if m.k != nil {
		// Closure-free: the kernel calls fireEvent(e). Boxing *Event into
		// any is pointer-sized and allocation-free.
		e.simTimer = m.k.ScheduleArg(d, fireEvent, e)
	} else {
		if e.fireFn == nil {
			e.fireFn = e.fire // bound once; reused for every re-arm
		}
		e.timer = m.clock.AfterFunc(d, e.fireFn)
	}
}

// fireEvent is the kernel-side trampoline for the sim fast path.
func fireEvent(v any) { v.(*Event).fire() }

// stopTimer stops whichever underlying timer is live. Stopping a zero or
// spent sim.Timer is a safe no-op (generation check).
func (e *Event) stopTimer() {
	if e.mgr.k != nil {
		e.simTimer.Stop()
	} else if e.timer != nil {
		e.timer.Stop()
	}
}

func (e *Event) fire() {
	if e.stopped {
		return
	}
	e.pending = false
	e.mgr.stats.Expired++
	e.fireSeen++
	e.fn()
	if e.period > 0 && !e.stopped {
		e.mgr.arm(e, e.period)
	}
}

// Cancel stops the event (and all future periods). It reports whether a
// firing was still pending.
func (e *Event) Cancel() bool {
	if e.stopped {
		return false
	}
	e.stopped = true
	was := e.pending
	e.pending = false
	e.stopTimer()
	if was {
		e.mgr.stats.Canceled++
	}
	return was
}

// Reset re-arms a one-shot event to fire after d from now, canceling any
// pending firing. Reset on a periodic event re-bases the next firing.
func (e *Event) Reset(d time.Duration) {
	e.stopTimer()
	e.stopped = false
	e.mgr.arm(e, d)
}

// Pending reports whether a firing is scheduled.
func (e *Event) Pending() bool { return e.pending && !e.stopped }

// Fired returns how many times the event has expired.
func (e *Event) Fired() uint64 { return e.fireSeen }
