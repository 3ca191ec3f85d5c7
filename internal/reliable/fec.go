package reliable

import (
	"crypto/subtle"
	"encoding/binary"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// FEC is forward-error-correction recovery: the sender emits one XOR parity
// PDU per group of k data PDUs, and the receiver reconstructs any single
// loss per group without a retransmission round trip. This is the mechanism
// the paper's policy engine switches to "when the round-trip delay time
// increases beyond some threshold (e.g., when a route switches from a
// terrestrial link to a satellite link)" (§3C).
//
// In loss-tolerant mode (hybrid=false) unrecoverable gaps are abandoned
// after Spec.GapDeadline and reported via NoteAppLoss. In hybrid mode a gap
// falls back to a NAK-driven retransmission, giving full reliability with
// FEC absorbing the common single losses.
//
// Parity block format: each data PDU contributes a block of
// [len uint16 | payload | zero padding to MSS]; the parity payload is the
// XOR of the group's blocks. Seq of the parity PDU is the group's base
// sequence; Aux is the number of data PDUs covered.
type FEC struct {
	hybrid bool

	// Sender side: accumulator for the group currently being emitted.
	sndAcc   []byte
	sndCount int
	sndBase  uint32
	sndMax   int // largest (2+payload) block in the current group

	// Receiver side: per-group accumulators, recycled through a bounded
	// free list as groups complete (one group dies every k packets on the
	// hot path).
	groups     map[uint32]*fecGroup
	freeGroups []*fecGroup
	recBlock   []byte // reused reconstruction block (valid within one tryReconstruct)

	// Gap abandonment (loss-tolerant mode).
	gapTimer *event.Event

	// Hybrid fallback throttles.
	lastRetx   map[uint32]time.Duration
	lastNak    map[uint32]time.Duration
	nakScratch []uint32 // reused missing-sequence list (valid within one nakGaps call)
}

type fecGroup struct {
	acc    []byte
	got    uint64 // bitmap of received members
	count  int
	parity []byte
	m      int // group size announced by the parity PDU (0 until it arrives)
}

// reset prepares a recycled group for a new base, keeping its backing arrays.
func (g *fecGroup) reset(bs int) {
	if cap(g.acc) < bs {
		g.acc = make([]byte, bs)
	} else {
		g.acc = g.acc[:bs]
		clear(g.acc)
	}
	g.got, g.count, g.m = 0, 0, 0
	g.parity = g.parity[:0]
}

var _ mechanism.Recovery = (*FEC)(nil)

// NewFEC returns an FEC strategy; hybrid adds NAK-driven retransmission
// fallback (fully reliable), otherwise gaps are abandoned (loss-tolerant).
func NewFEC(hybrid bool) *FEC {
	return &FEC{
		hybrid:   hybrid,
		groups:   make(map[uint32]*fecGroup),
		lastRetx: make(map[uint32]time.Duration),
		lastNak:  make(map[uint32]time.Duration),
	}
}

func (f *FEC) Name() string {
	if f.hybrid {
		return "fec-hybrid"
	}
	return "fec"
}

func (f *FEC) Reliable() bool { return f.hybrid }

// ConsumesRTO reports that FEC acts on RTO expiry even in loss-tolerant
// mode (abandoning the window-accounting buffer), so the session keeps the
// retransmission timer armed across a segue to pure FEC.
func (f *FEC) ConsumesRTO() bool { return true }

// blockSize returns the XOR block size for the session's MSS.
func blockSize(e mechanism.Env) int { return 2 + e.Spec().MSS }

// xorInto accumulates a length-prefixed, zero-padded copy of payload. The
// length word's high bit carries the PDU's end-of-message flag so
// reconstruction restores message framing (payloads are bounded well below
// 32 KiB by the MTU).
func xorInto(acc []byte, payload []byte, eom bool) {
	word := uint16(len(payload))
	if eom {
		word |= 0x8000
	}
	acc[0] ^= byte(word >> 8)
	acc[1] ^= byte(word)
	body := acc[2 : 2+len(payload)]
	subtle.XORBytes(body, body, payload)
}

// OnSendData folds the outgoing PDU into the current parity group, emitting
// the parity PDU when the group completes.
func (f *FEC) OnSendData(e mechanism.Env, p *wire.PDU) {
	k := e.Spec().FECGroup
	if f.sndCount == 0 {
		// Group start: reuse the accumulator from the previous group
		// (zeroing in place) instead of allocating a fresh one per group.
		bs := blockSize(e)
		if cap(f.sndAcc) < bs {
			f.sndAcc = make([]byte, bs)
		} else {
			f.sndAcc = f.sndAcc[:bs]
			clear(f.sndAcc)
		}
		f.sndBase = p.Seq
		f.sndMax = 0
	}
	xorInto(f.sndAcc, p.PayloadBytes(), p.Flags&wire.FlagEOM != 0)
	if b := 2 + len(p.PayloadBytes()); b > f.sndMax {
		f.sndMax = b
	}
	f.sndCount++
	if !f.hybrid {
		// Loss-tolerant mode keeps no retransmission buffer: the payload
		// reference in Unacked stays only for window accounting, but we
		// never resend. (Entries clear on cumulative acks.)
	}
	if f.sndCount >= k {
		f.emitParity(e)
	}
}

// emitParity sends the accumulated parity block and resets the accumulator.
// The block is trimmed to the group's largest (length-prefixed) payload so
// parity never exceeds the size of the data PDUs it protects — crucial when
// the MSS is tuned to the path MTU.
func (f *FEC) emitParity(e mechanism.Env) {
	if f.sndCount == 0 {
		return
	}
	block := f.sndAcc
	if f.sndMax > 0 && f.sndMax < len(block) {
		block = block[:f.sndMax]
	}
	pm := message.AllocPooled(len(block), message.DefaultHeadroom)
	copy(pm.Bytes(), block)
	p := &e.State().CtrlScratch
	p.Header = wire.Header{Type: wire.TParity, Seq: f.sndBase, Aux: uint16(f.sndCount)}
	p.Payload = pm
	e.Metrics().Count("rel.parity_sent", 1)
	e.EmitControl(p)
	p.ReleasePayload()
	f.sndCount = 0
}

// FlushParity force-emits a partial group (end of burst / segue away).
func (f *FEC) FlushParity(e mechanism.Env) { f.emitParity(e) }

// OnAck prunes hybrid retransmission throttling state the cumulative ack
// advanced past (same bounded-map discipline as the ARQ strategies).
func (f *FEC) OnAck(e mechanism.Env, p *wire.PDU) {
	if f.hybrid {
		pruneStale(f.lastRetx, e.State().SndUna)
	}
}

// OnNak (hybrid only) retransmits the listed sequences.
func (f *FEC) OnNak(e mechanism.Env, p *wire.PDU) {
	if !f.hybrid {
		return
	}
	for _, seq := range DecodeNakList(p) {
		retransmit(e, seq, f.lastRetx)
	}
}

// OnRTO: hybrid resends the oldest outstanding PDU; loss-tolerant mode
// abandons the sender buffer entirely (the data's delivery window passed).
func (f *FEC) OnRTO(e mechanism.Env) {
	st := e.State()
	st.BackoffRTO(e.Spec().RTOMax)
	if f.hybrid {
		e.WindowOnLoss()
		if _, ok := st.Unacked[st.SndUna]; ok {
			delete(f.lastRetx, st.SndUna)
			retransmit(e, st.SndUna, f.lastRetx)
		}
		return
	}
	// Emit any held partial parity, then give up on the outstanding data:
	// a loss-tolerant sender never blocks on history.
	f.emitParity(e)
	for seq, entry := range st.Unacked {
		delete(st.Unacked, seq)
		st.FreeSent(entry)
	}
	st.SndUna = st.SndNxt
	e.Pump()
}

// OnData buffers the PDU, folds it into the group accumulator, attempts
// reconstruction, and delivers contiguous runs.
func (f *FEC) OnData(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	if p.Seq < st.RcvNxt {
		wire.PutPDU(p)
		e.Metrics().Count("rel.duplicates", 1)
		sendCumAck(e)
		return
	}
	if _, dup := st.RcvBuf[p.Seq]; dup {
		wire.PutPDU(p)
		e.Metrics().Count("rel.duplicates", 1)
		sendCumAck(e)
		return
	}
	if 2+len(p.PayloadBytes()) > blockSize(e) {
		// Longer than any block the sender could have folded: a malformed
		// or hostile PDU, dropped before it can open a group.
		wire.PutPDU(p)
		e.Metrics().Count("rel.fec_malformed", 1)
		return
	}
	k := uint32(e.Spec().FECGroup)
	g := f.group(e, p.Seq/k*k)
	idx := p.Seq % k
	if g.got&(1<<idx) == 0 {
		xorInto(g.acc, p.PayloadBytes(), p.Flags&wire.FlagEOM != 0)
		g.got |= 1 << idx
		g.count++
	}
	st.RcvBuf[p.Seq] = st.NewRecv(p, e.Clock().Now(), false)
	f.tryReconstruct(e, p.Seq/k*k)
	f.afterArrival(e)
}

// OnParity records (or applies) a parity block. Parity that cannot carry a
// length word, exceeds the block size, or covers no or more than FECGroup
// members is dropped as malformed.
func (f *FEC) OnParity(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	base := p.Seq
	k := uint32(e.Spec().FECGroup)
	if n := len(p.PayloadBytes()); n < 2 || n > blockSize(e) || p.Aux < 1 || uint32(p.Aux) > k {
		e.Metrics().Count("rel.fec_malformed", 1)
		return
	}
	if base+k <= st.RcvNxt && base+uint32(p.Aux) <= st.RcvNxt {
		return // group fully delivered already
	}
	g := f.group(e, base)
	g.m = int(p.Aux)
	g.parity = append(g.parity[:0], p.PayloadBytes()...)
	f.tryReconstruct(e, base)
	f.afterArrival(e)
}

func (f *FEC) group(e mechanism.Env, base uint32) *fecGroup {
	g, ok := f.groups[base]
	if !ok {
		if n := len(f.freeGroups); n > 0 {
			g = f.freeGroups[n-1]
			f.freeGroups = f.freeGroups[:n-1]
			g.reset(blockSize(e))
		} else {
			g = &fecGroup{acc: make([]byte, blockSize(e))}
		}
		f.groups[base] = g
	}
	return g
}

// tryReconstruct rebuilds the single missing member of a group when parity
// plus all other members are present.
func (f *FEC) tryReconstruct(e mechanism.Env, base uint32) {
	g, ok := f.groups[base]
	if !ok || len(g.parity) == 0 || g.m == 0 || g.count != g.m-1 {
		return
	}
	st := e.State()
	// Identify the missing index.
	missing := -1
	for i := 0; i < g.m; i++ {
		if g.got&(1<<i) == 0 {
			missing = i
			break
		}
	}
	if missing < 0 {
		return
	}
	seq := base + uint32(missing)
	block := append(f.recBlock[:0], g.parity...)
	f.recBlock = block
	subtle.XORBytes(block, block, g.acc)
	word := binary.BigEndian.Uint16(block)
	eom := word&0x8000 != 0
	n := int(word &^ 0x8000)
	if n > len(block)-2 {
		n = len(block) - 2 // corrupted length; clamp
	}
	g.got |= 1 << missing
	g.count++
	if seq < st.RcvNxt {
		return // already passed (was abandoned); nothing to insert
	}
	if _, dup := st.RcvBuf[seq]; dup {
		return
	}
	pdu := wire.GetPDU()
	pdu.Type = wire.TData
	pdu.Seq = seq
	pl := message.AllocPooled(n, message.DefaultHeadroom)
	copy(pl.Bytes(), block[2:2+n])
	pdu.Payload = pl
	if eom {
		pdu.Flags |= wire.FlagEOM
	}
	st.RcvBuf[seq] = st.NewRecv(pdu, e.Clock().Now(), true)
	st.FECRecovered++
	e.Tracer().Emit(e.Clock().Now(), trace.KFECRepair, e.ConnID(), uint64(seq), 0, 0)
	e.Metrics().Count("rel.fec_recovered", 1)
}

// afterArrival drains deliverable data, acknowledges, reports gaps (hybrid),
// arms the abandonment timer (loss-tolerant), and garbage-collects groups.
func (f *FEC) afterArrival(e mechanism.Env) {
	st := e.State()
	deliverRun(e, st.DrainInOrder())
	sendCumAck(e)
	f.gcGroups(e)
	if len(st.RcvBuf) == 0 {
		return
	}
	if f.hybrid {
		f.nakGaps(e)
		return
	}
	if f.gapTimer == nil {
		dl := e.Spec().GapDeadline
		env := e
		f.gapTimer = e.Timers().Schedule(dl, func() { f.abandonGaps(env) })
	} else if !f.gapTimer.Pending() {
		f.gapTimer.Reset(e.Spec().GapDeadline)
	}
}

// nakGaps (hybrid) requests retransmission of sequences FEC could not
// rebuild.
func (f *FEC) nakGaps(e mechanism.Env) {
	st := e.State()
	var max uint32
	for q := range st.RcvBuf {
		if q > max {
			max = q
		}
	}
	now := e.Clock().Now()
	gap := minRetxGap(st)
	missing := f.nakScratch[:0]
	for q := st.RcvNxt; q < max && len(missing) < maxNakList; q++ {
		if _, have := st.RcvBuf[q]; have {
			continue
		}
		if last, seen := f.lastNak[q]; seen && now-last < gap {
			continue
		}
		f.lastNak[q] = now
		missing = append(missing, q)
	}
	f.nakScratch = missing
	if len(missing) > 0 {
		e.Metrics().Count("rel.naks_sent", 1)
		p := EncodeNak(missing)
		e.EmitControl(p)
		wire.PutPDU(p) // EmitControl copies synchronously; recycle PDU + payload
	}
}

// abandonGaps (loss-tolerant) skips past losses whose deadline expired.
func (f *FEC) abandonGaps(e mechanism.Env) {
	st := e.State()
	if len(st.RcvBuf) == 0 {
		return
	}
	now := e.Clock().Now()
	dl := e.Spec().GapDeadline
	// Find the oldest buffered arrival; if it has waited past the
	// deadline, skip the gap in front of it.
	var oldestSeq uint32
	var oldestAt time.Duration = -1
	for q, r := range st.RcvBuf {
		if oldestAt < 0 || r.ArrivedAt < oldestAt || (r.ArrivedAt == oldestAt && q < oldestSeq) {
			oldestSeq, oldestAt = q, r.ArrivedAt
		}
	}
	var smallest uint32
	first := true
	for q := range st.RcvBuf {
		if first || q < smallest {
			smallest, first = q, false
		}
	}
	if now-oldestAt >= dl {
		lost := smallest - st.RcvNxt
		st.GapsAbandoned += uint64(lost)
		e.Metrics().Count("rel.gaps_abandoned", uint64(lost))
		e.Notify(mechanism.Notification{Kind: mechanism.NoteAppLoss, Detail: "gap abandoned"})
		e.SkipTo(smallest)
		st.RcvNxt = smallest
		deliverRun(e, st.DrainInOrder())
		sendCumAck(e)
		f.gcGroups(e)
	}
	if len(st.RcvBuf) > 0 {
		f.gapTimer.Reset(dl)
	}
}

// gcGroups drops group accumulators fully below RcvNxt.
func (f *FEC) gcGroups(e mechanism.Env) {
	st := e.State()
	k := uint32(e.Spec().FECGroup)
	for base, g := range f.groups {
		if base+k <= st.RcvNxt {
			delete(f.groups, base)
			if len(f.freeGroups) < 64 {
				f.freeGroups = append(f.freeGroups, g)
			}
		}
	}
}

type fecState struct {
	sndAcc   []byte
	sndCount int
	sndBase  uint32
	sndMax   int
	groups   map[uint32]*fecGroup
	lastRetx map[uint32]time.Duration
	lastNak  map[uint32]time.Duration
}

func (f *FEC) ExportState() any {
	if f.gapTimer != nil {
		f.gapTimer.Cancel()
	}
	return fecState{
		sndAcc: f.sndAcc, sndCount: f.sndCount, sndBase: f.sndBase, sndMax: f.sndMax,
		groups: f.groups, lastRetx: f.lastRetx, lastNak: f.lastNak,
	}
}

func (f *FEC) ImportState(st any) {
	if v, ok := st.(fecState); ok {
		f.sndAcc, f.sndCount, f.sndBase, f.sndMax = v.sndAcc, v.sndCount, v.sndBase, v.sndMax
		if v.groups != nil {
			f.groups = v.groups
		}
		if v.lastRetx != nil {
			f.lastRetx = v.lastRetx
		}
		if v.lastNak != nil {
			f.lastNak = v.lastNak
		}
	}
}
