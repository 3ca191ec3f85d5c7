package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("fresh timer not pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	k.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
}

func TestStopFromWithinEvent(t *testing.T) {
	k := NewKernel(1)
	fired := false
	victim := k.Schedule(2*time.Millisecond, func() { fired = true })
	k.Schedule(time.Millisecond, func() { victim.Stop() })
	k.Run()
	if fired {
		t.Fatal("event stopped mid-run still fired")
	}
}

func TestStopAfterFireIsNoOp(t *testing.T) {
	k := NewKernel(1)
	count := 0
	tm := k.Schedule(time.Millisecond, func() { count++ })
	k.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	// The Event object is recycled; a stale handle must not cancel its
	// successor.
	tm2 := k.Schedule(time.Millisecond, func() { count++ })
	if tm.Stop() {
		t.Fatal("stale handle stopped a recycled event")
	}
	k.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stale Stop leaked onto new event?)", count)
	}
	_ = tm2
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Pending() {
		t.Fatal("zero Timer is not inert")
	}
	if _, ok := tm.At(); ok {
		t.Fatal("zero Timer has a fire time")
	}
}

func TestTimerAt(t *testing.T) {
	k := NewKernel(1)
	tm := k.Schedule(7*time.Millisecond, func() {})
	at, ok := tm.At()
	if !ok || at != 7*time.Millisecond {
		t.Fatalf("At() = %v, %v", at, ok)
	}
	k.Run()
	if _, ok := tm.At(); ok {
		t.Fatal("At() valid after fire")
	}
}

func TestScheduleArg(t *testing.T) {
	k := NewKernel(1)
	var got any
	k.ScheduleArg(time.Millisecond, func(v any) { got = v }, 42)
	k.Run()
	if got != 42 {
		t.Fatalf("ScheduleArg delivered %v", got)
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(5 * time.Millisecond)
	var at time.Duration = -1
	k.Schedule(-time.Second, func() { at = k.Now() })
	k.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("negative-delay event ran at %v, want 5ms", at)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(time.Second, func() { fired = true })
	k.RunUntil(500 * time.Millisecond)
	if fired {
		t.Fatal("future event fired early")
	}
	if k.Now() != 500*time.Millisecond {
		t.Fatalf("clock = %v, want 500ms", k.Now())
	}
	k.RunFor(time.Second)
	if !fired {
		t.Fatal("event never fired")
	}
	if k.Now() != 1500*time.Millisecond {
		t.Fatalf("clock = %v, want 1.5s", k.Now())
	}
}

func TestScheduleAfterRunUntil(t *testing.T) {
	// RunUntil advances the clock past times where no events fired; events
	// scheduled afterwards with short delays must still work (the wheel's
	// reference instant lags the clock here).
	k := NewKernel(1)
	k.Schedule(time.Second, func() {})
	k.RunUntil(500 * time.Millisecond)
	var at time.Duration
	k.Schedule(time.Millisecond, func() { at = k.Now() })
	k.Run()
	if at != 501*time.Millisecond {
		t.Fatalf("post-RunUntil event ran at %v, want 501ms", at)
	}
}

func TestScheduleAt(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.ScheduleAt(42*time.Millisecond, func() { at = k.Now() })
	k.Run()
	if at != 42*time.Millisecond {
		t.Fatalf("ScheduleAt ran at %v", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(time.Microsecond, rec)
		}
	}
	k.Schedule(0, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed = %d, want 100", k.Executed())
	}
}

func TestSameInstantRescheduleRunsAfterBatch(t *testing.T) {
	// An event scheduled with zero delay from inside a callback lands at the
	// same instant but after every already-pending event at that instant.
	k := NewKernel(1)
	var got []string
	k.Schedule(time.Millisecond, func() {
		got = append(got, "a")
		k.Schedule(0, func() { got = append(got, "nested") })
	})
	k.Schedule(time.Millisecond, func() { got = append(got, "b") })
	k.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "nested" {
		t.Fatalf("order: %v", got)
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewKernel(7), NewKernel(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed kernels diverged")
		}
	}
}

func TestEventLimitPanics(t *testing.T) {
	k := NewKernel(1)
	k.SetEventLimit(10)
	var loop func()
	loop = func() { k.Schedule(time.Millisecond, loop) }
	k.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	k.Run()
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
	k.Schedule(0, func() {})
	if !k.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", k.Pending())
	}
}

func TestPendingReapsAllCanceled(t *testing.T) {
	k := NewKernel(1)
	var timers []Timer
	for i := 0; i < 20; i++ {
		timers = append(timers, k.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if k.Step() {
		t.Fatal("Step fired a canceled event")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after all-canceled drain", k.Pending())
	}
}

func TestPendingExcludesStoppedImmediately(t *testing.T) {
	// Cancellation reaps event objects lazily, but Pending must reflect a
	// Stop right away — callers poll it for quiescence and metrics.
	k := NewKernel(1)
	a := k.Schedule(time.Millisecond, func() {})
	b := k.Schedule(2*time.Millisecond, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	a.Stop()
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d immediately after Stop, want 1", k.Pending())
	}
	a.Stop() // no-op: must not double-count
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after redundant Stop, want 1", k.Pending())
	}
	b.Stop()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after stopping all, want 0", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", k.Pending())
	}
}

func TestFarFutureEventsOverflowHeap(t *testing.T) {
	// Events beyond the wheel span (> ~78h) take the heap fallback and must
	// still fire in order and interleave correctly with near events.
	k := NewKernel(1)
	var got []int
	k.Schedule(200*time.Hour, func() { got = append(got, 3) })
	k.Schedule(100*time.Hour, func() { got = append(got, 2) })
	k.Schedule(300*time.Hour, func() { got = append(got, 4) })
	k.Schedule(time.Millisecond, func() { got = append(got, 1) })
	if len(k.wh.overflow) == 0 {
		t.Fatal("far-future events did not land in the overflow heap")
	}
	k.Run()
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("overflow events out of order: %v", got)
		}
	}
	if k.Now() != 300*time.Hour {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestOverflowStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.Schedule(100*time.Hour, func() { fired = true })
	k.Schedule(time.Millisecond, func() {})
	if !tm.Stop() {
		t.Fatal("Stop on overflow event returned false")
	}
	k.Run()
	if fired {
		t.Fatal("stopped overflow event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d", k.Pending())
	}
}

func TestWheelCascadeAcrossLevels(t *testing.T) {
	// Spread events so extraction must cascade through multiple wheel levels:
	// delays spanning ns to hours with awkward offsets.
	k := NewKernel(1)
	delays := []time.Duration{
		1, 63, 64, 65, 4095, 4096, 4097,
		time.Microsecond, 262143, 262144,
		time.Millisecond, 16*time.Millisecond + 1,
		time.Second, 17 * time.Second, time.Hour, 70 * time.Hour,
	}
	var got []time.Duration
	for _, d := range delays {
		d := d
		k.Schedule(d, func() { got = append(got, d) })
	}
	k.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d events", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if k.Executed() != uint64(len(delays)) {
		t.Fatalf("executed = %d", k.Executed())
	}
}

func TestKernelDeterminismUnderChurn(t *testing.T) {
	// Two kernels driven by the same seeded workload — random delays, random
	// cancellations, nested rescheduling — must fire identical sequences.
	run := func(seed int64) []time.Duration {
		k := NewKernel(seed)
		var fired []time.Duration
		var live []Timer
		var churn func()
		n := 0
		churn = func() {
			fired = append(fired, k.Now())
			n++
			if n > 3000 {
				return
			}
			for i := 0; i < 3; i++ {
				d := time.Duration(k.Rand().Intn(5000)) * time.Microsecond
				live = append(live, k.Schedule(d, churn))
			}
			if len(live) > 0 && k.Rand().Intn(3) == 0 {
				live[k.Rand().Intn(len(live))].Stop()
			}
		}
		k.Schedule(0, churn)
		k.SetEventLimit(100_000)
		k.Run()
		return fired
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}

func TestEventPoolingReusesObjects(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(time.Millisecond, func() {})
	k.Run()
	if k.free == nil {
		t.Fatal("fired event not returned to the free list")
	}
	ev := k.free
	gen := ev.gen
	tm := k.Schedule(time.Millisecond, func() {})
	if tm.ev != ev {
		t.Fatal("Schedule did not reuse the pooled event")
	}
	if tm.gen != gen {
		t.Fatalf("reused event kept gen %d, handle has %d", ev.gen, tm.gen)
	}
	k.Run()
}

// population counts every event object the kernel still holds for a
// future firing, live or cancelled: wheel slots, overflow heap and the
// unconsumed due batch.
func population(k *Kernel) int {
	n := len(k.wh.overflow) + len(k.due) - k.dueIdx
	for lvl := range k.wh.slots {
		for _, e := range k.wh.slots[lvl] {
			for ; e != nil; e = e.next {
				n++
			}
		}
	}
	return n
}

func TestRearmFarTimerKeepsOneEvent(t *testing.T) {
	// A wall-clock kernel re-arms its retransmission timer on every ack,
	// far ahead of a clock that creeps forward by microseconds and never
	// reaches a deadline, so the wheel's reference instant never moves.
	// Each re-arm must recycle the cancelled event, not leave it behind.
	k := NewKernel(1)
	fired := 0
	fn := func(any) { fired++ }
	tm := k.ScheduleArgAt(200*time.Millisecond, fn, nil)
	for i := 1; i <= 100_000; i++ {
		k.RunFor(time.Microsecond)
		if !tm.Stop() {
			t.Fatalf("re-arm %d: Stop on a pending timer returned false", i)
		}
		tm = k.ScheduleArgAt(k.Now()+200*time.Millisecond, fn, nil)
		if p := population(k); p != 1 {
			t.Fatalf("re-arm %d: wheel holds %d events, want 1", i, p)
		}
		if k.Pending() != 1 {
			t.Fatalf("re-arm %d: Pending = %d, want 1", i, k.Pending())
		}
	}
	if k.Executed() != 0 || fired != 0 {
		t.Fatalf("a re-armed timer fired: executed %d, fired %d", k.Executed(), fired)
	}
	at, ok := k.NextAt()
	if want := 100*time.Millisecond + 200*time.Millisecond; !ok || at != want {
		t.Fatalf("NextAt = %v, %v; want %v", at, ok, want)
	}
	k.Run()
	if fired != 1 || k.Executed() != 1 || k.Now() != at || k.Pending() != 0 {
		t.Fatalf("fired %d, executed %d, now %v, pending %d; want 1, 1, %v, 0",
			fired, k.Executed(), k.Now(), k.Pending(), at)
	}
}

func TestStaleHandleAfterEagerRecycle(t *testing.T) {
	// Stop recycles a wheel event at once, so the very next Schedule reuses
	// the same object. The old handle must not reach its successor.
	k := NewKernel(1)
	var got []int
	old := k.Schedule(200*time.Millisecond, func() { got = append(got, 1) })
	old.Stop()
	cur := k.Schedule(300*time.Millisecond, func() { got = append(got, 2) })
	if cur.ev != old.ev {
		t.Fatal("Schedule did not reuse the event Stop recycled")
	}
	if old.Stop() || old.Pending() {
		t.Fatal("stale handle acted on the recycled event")
	}
	if _, ok := old.At(); ok {
		t.Fatal("stale handle reports a deadline")
	}
	if !cur.Pending() || k.Pending() != 1 {
		t.Fatalf("successor pending %v, kernel pending %d", cur.Pending(), k.Pending())
	}
	k.Run()
	if len(got) != 1 || got[0] != 2 || k.Now() != 300*time.Millisecond {
		t.Fatalf("fired %v at %v, want [2] at 300ms", got, k.Now())
	}
}

func TestStopInDueBatchIsLazy(t *testing.T) {
	// Same-instant events sit in the due batch once extraction starts;
	// stopping one from an earlier sibling's callback cancels it there.
	k := NewKernel(1)
	var got []int
	var b Timer
	k.Schedule(time.Millisecond, func() { got = append(got, 1); b.Stop() })
	b = k.Schedule(time.Millisecond, func() { got = append(got, 2) })
	k.Schedule(time.Millisecond, func() { got = append(got, 3) })
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", got)
	}
	if k.Pending() != 0 || population(k) != 0 {
		t.Fatalf("pending %d, population %d after drain", k.Pending(), population(k))
	}
}

func TestKernelMatchesReferenceModel(t *testing.T) {
	// Random schedule / stop / advance traffic against a brute-force
	// model: events fire in (at, seq) order, Pending counts live events,
	// and NextAt is the earliest live deadline.
	type ref struct {
		at   time.Duration
		id   int
		tm   Timer
		live bool
	}
	k := NewKernel(7)
	rng := k.Rand()
	var model []*ref
	var fired []int
	fire := func(v any) { fired = append(fired, v.(*ref).id) }
	delays := []time.Duration{0, 1, 63, 4096, time.Microsecond, 700 * time.Microsecond,
		time.Millisecond, 200 * time.Millisecond, 3 * time.Second, 100 * time.Hour}
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			r := &ref{id: step, live: true}
			r.at = k.Now() + delays[rng.Intn(len(delays))] + time.Duration(rng.Intn(1000))
			r.tm = k.ScheduleArgAt(r.at, fire, r)
			model = append(model, r)
		case op < 8 && len(model) > 0:
			r := model[rng.Intn(len(model))]
			if got := r.tm.Stop(); got != r.live {
				t.Fatalf("step %d: Stop = %v, model live %v", step, got, r.live)
			}
			r.live = false
		default:
			until := k.Now() + time.Duration(rng.Int63n(int64(5*time.Millisecond)))
			var want []int
			for {
				var next *ref
				for _, r := range model {
					if r.live && r.at <= until && (next == nil || r.at < next.at) {
						next = r // model is in schedule order: first wins ties
					}
				}
				if next == nil {
					break
				}
				next.live = false
				want = append(want, next.id)
			}
			fired = fired[:0]
			k.RunUntil(until)
			if len(fired) != len(want) {
				t.Fatalf("step %d: fired %v, want %v", step, fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("step %d: fired %v, want %v", step, fired, want)
				}
			}
		}
		live, first := 0, time.Duration(-1)
		kept := model[:0]
		for _, r := range model {
			if r.live {
				live++
				if first < 0 || r.at < first {
					first = r.at
				}
				kept = append(kept, r)
			}
		}
		model = kept
		if k.Pending() != live {
			t.Fatalf("step %d: Pending = %d, model %d", step, k.Pending(), live)
		}
		if at, ok := k.NextAt(); ok != (live > 0) || (ok && at != first) {
			t.Fatalf("step %d: NextAt = %v, %v; model %v", step, at, ok, first)
		}
	}
}
