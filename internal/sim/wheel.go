package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel (Varghese & Lauck), adapted to a discrete-event
// kernel: instead of ticking, the wheel jumps its reference instant straight
// to the next live event's timestamp during extraction.
//
// Placement is XOR-based: an event scheduled for time `at` lives at the level
// of the most significant bit in which `at` differs from the wheel's current
// reference `cur`, in the slot addressed by `at`'s bit-field for that level.
// Because live events never precede cur, this gives three invariants the
// kernel relies on:
//
//  1. Within a level, slot index order is timestamp order, so the first
//     occupied slot at the lowest populated level bounds the minimum.
//  2. All events in a level-0 slot share one exact timestamp.
//  3. When cur advances to the global minimum tmin, only the slots that
//     contain tmin itself ((tmin>>6L)&63 at each level) can hold events whose
//     level assignment became stale; cascading exactly those slots restores
//     the invariant. Every other slot keeps both its level and index, since
//     slot indices are absolute bit-fields of the timestamp.
//
// Slot lists are doubly linked and every event records its level, so
// Timer.Stop unlinks a cancelled event in O(1): the wheel holds only live
// events. That matters when cur lags far behind the events (a wall-clock
// kernel whose re-armed timers rarely fire): lazily cancelled events would
// pile up in one high-level slot for minLive to walk on every peek.
//
// Events more than 2^48 ns (~78 h) past cur overflow into a small binary
// heap ordered by (at, seq) and migrate onto the wheel as cur advances.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 8
	wheelSpan   = wheelBits * wheelLevels // bits of ns the wheel covers
	offWheel    = 0xFF                    // Event.lvl of an event in no slot
)

type wheel struct {
	cur      time.Duration // reference instant; live events never precede it
	slots    [wheelLevels][wheelSlots]*Event
	occ      [wheelLevels]uint64 // per-level slot occupancy bitmap
	overflow overflowHeap
}

// insert places ev, which must satisfy ev.at >= w.cur.
func (w *wheel) insert(ev *Event) {
	d := uint64(ev.at) ^ uint64(w.cur)
	if d>>wheelSpan != 0 {
		w.overflow.push(ev)
		return
	}
	lvl := 0
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	slot := int(uint64(ev.at)>>(lvl*wheelBits)) & slotMask
	head := w.slots[lvl][slot]
	ev.next, ev.prev, ev.lvl = head, nil, uint8(lvl)
	if head != nil {
		head.prev = ev
	}
	w.slots[lvl][slot] = ev
	w.occ[lvl] |= 1 << slot
}

// unlink removes ev, which must be on the wheel, from its slot list.
func (w *wheel) unlink(ev *Event) {
	lvl := int(ev.lvl)
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		slot := int(uint64(ev.at)>>(lvl*wheelBits)) & slotMask
		w.slots[lvl][slot] = ev.next
		if ev.next == nil {
			w.occ[lvl] &^= 1 << slot
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev, ev.lvl = nil, nil, offWheel
}

// minLive returns the earliest timestamp among non-canceled events. It is
// read-only: peeking must not advance cur, because callers (RunUntil) may
// decline to extract and later schedule events earlier than the peeked time.
// The wheel holds only live events (Stop unlinks), so the first occupied
// slot of the lowest populated level holds the minimum (invariant 1).
func (w *wheel) minLive() (time.Duration, bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if w.occ[lvl] == 0 {
			continue
		}
		e := w.slots[lvl][bits.TrailingZeros64(w.occ[lvl])]
		best := e.at
		for e = e.next; e != nil; e = e.next {
			best = min(best, e.at)
		}
		return best, true
	}
	best := time.Duration(-1)
	for _, e := range w.overflow {
		if !e.canceled && (best < 0 || e.at < best) {
			best = e.at
		}
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// extract advances cur to tmin (the current live minimum, as returned by
// minLive), restores placement invariants, and appends every live event due
// exactly at tmin to k.due. Canceled overflow events touched along the way
// are reaped.
func (w *wheel) extract(tmin time.Duration, k *Kernel) {
	w.cur = tmin
	// Overflow events now within the wheel span migrate in. The heap is
	// ordered by at, and XOR distance from tmin is monotonic in at for
	// at >= tmin, so a while-top-qualifies loop is exact.
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if (uint64(top.at)^uint64(tmin))>>wheelSpan != 0 {
			break
		}
		w.overflow.pop()
		if top.canceled {
			k.reap(top)
		} else {
			w.insert(top)
		}
	}
	// Cascade the slot containing tmin at each level, top down: its events
	// agree with tmin through that level's bits, so each re-inserts strictly
	// lower (reaching level 0's due slot when at == tmin).
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		slot := int(uint64(tmin)>>(lvl*wheelBits)) & slotMask
		e := w.slots[lvl][slot]
		if e == nil {
			continue
		}
		w.slots[lvl][slot] = nil
		w.occ[lvl] &^= 1 << slot
		for e != nil {
			next := e.next
			w.insert(e)
			e = next
		}
	}
	// Drain the due slot: its events have at == tmin exactly (invariant 2).
	// They leave the wheel, so a Stop from here on cancels lazily.
	slot := int(uint64(tmin)) & slotMask
	e := w.slots[0][slot]
	w.slots[0][slot] = nil
	w.occ[0] &^= 1 << slot
	for e != nil {
		next := e.next
		e.next, e.prev, e.lvl = nil, nil, offWheel
		k.due = append(k.due, e)
		e = next
	}
	// FIFO among same-instant events: sort the batch by schedule order.
	// Insertion sort — batches are small and usually nearly sorted.
	due := k.due
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].seq < due[j-1].seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
}

// purgeOverflow reaps every overflow event (all necessarily canceled when
// called after minLive reports none live; the wheel itself is then empty).
func (w *wheel) purgeOverflow(k *Kernel) {
	for _, e := range w.overflow {
		k.reap(e)
	}
	clear(w.overflow)
	w.overflow = w.overflow[:0]
}

// overflowHeap is a binary min-heap of events ordered by (at, seq), used for
// timestamps beyond the wheel span. Lazy cancellation means it only ever
// needs push and pop.
type overflowHeap []*Event

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(ev *Event) {
	ev.lvl = offWheel
	*h = append(*h, ev)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *overflowHeap) pop() *Event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a.less(l, s) {
			s = l
		}
		if r < n && a.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	return top
}
