package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Application messages are self-checking. The sending session splits a
// message into MSS-sized segments, so every MSS-sized chunk of a message
// starts with a tag naming the message and the chunk; the rest of the chunk
// is drawn from a seeded pattern at an offset fixed by (message, chunk).
// The receiver can therefore check any delivered segment on its own, in
// whatever order an unordered session hands segments over.
//
//	[0..3]  message sequence number  uint32 BE
//	[4..5]  chunk index              uint16 BE
//	[6..7]  chunk count              uint16 BE
//	[8..11] message size in bytes    uint32 BE
const tagLen = 12

// pattern is the seeded byte source every message body is cut from.
type pattern []byte

const patternLen = 1 << 17

func newPattern(seed int64) pattern {
	p := make([]byte, patternLen)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p)
	return p
}

// body returns the n pattern bytes chunk idx of message seq carries.
func (p pattern) body(seq uint32, idx, n int) []byte {
	off := int((uint64(seq)*2654435761 + uint64(idx)*40503) % uint64(len(p)-n))
	return p[off : off+n]
}

// maxChunks bounds a message's chunk count (one bit each in flow.missing).
const maxChunks = 64

// fixSize nudges a message size so every chunk has room for its tag and
// the message fits maxChunks chunks.
func fixSize(size, mss int) int {
	size = min(max(size, tagLen), maxChunks*mss)
	if r := size % mss; r != 0 && r < tagLen {
		size += tagLen - r
	}
	return size
}

// msg is what a flow remembers about one offered message.
type msg struct {
	due     int64  // when it was due, ns on the loop's clock
	size    uint32 // bytes offered
	missing uint64 // bitmap of chunks not yet delivered
}

// flow tracks one direction of one session: what was offered, when it was
// due, and what arrived intact. It keeps only the messages from the oldest
// incomplete one on, so its memory follows what is in flight, not how long
// the run is. Sender and receiver of a flow always run on the same event
// loop (one udpnet provider, or one simulator shard).
type flow struct {
	pat pattern
	mss int
	buf []byte // send scratch (Conn.Send copies synchronously)

	base uint32 // sequence number of live[head]
	live []msg  // live[head:] holds messages base, base+1, ...
	head int    // complete messages before it are dropped
	next uint32 // sequence number of the next message offered

	delivered uint64 // messages complete and intact
	goodBytes uint64 // their bytes
	corrupt   uint64 // chunks that failed the check
}

func newFlow(pat pattern, mss int) *flow {
	return &flow{pat: pat, mss: mss}
}

// build lays out message seq of the given size in the send scratch.
func (f *flow) build(seq uint32, size int) []byte {
	if cap(f.buf) < size {
		f.buf = make([]byte, size)
	}
	b := f.buf[:size]
	n := (size + f.mss - 1) / f.mss
	for i := 0; i < n; i++ {
		lo, hi := i*f.mss, (i+1)*f.mss
		if hi > size {
			hi = size
		}
		c := b[lo:hi]
		binary.BigEndian.PutUint32(c[0:], seq)
		binary.BigEndian.PutUint16(c[4:], uint16(i))
		binary.BigEndian.PutUint16(c[6:], uint16(n))
		binary.BigEndian.PutUint32(c[8:], uint32(size))
		copy(c[tagLen:], f.pat.body(seq, i, len(c)-tagLen))
	}
	return b
}

// offer registers a new message due at the given time and returns its
// bytes, ready for Conn.Send.
func (f *flow) offer(due int64, size int) []byte {
	size = fixSize(size, f.mss)
	seq := f.next
	f.next++
	f.live = append(f.live, msg{due: due, size: uint32(size), missing: ^uint64(0) >> (64 - (size+f.mss-1)/f.mss)})
	return f.build(seq, size)
}

// offered is the number of messages handed to the session so far.
func (f *flow) offered() uint64 { return uint64(f.next) }

// receive checks one delivered segment. When the segment completes its
// message it reports done with the message's sequence number and record.
func (f *flow) receive(c []byte) (seq uint32, m msg, done bool) {
	if len(c) < tagLen {
		f.corrupt++
		return 0, m, false
	}
	seq = binary.BigEndian.Uint32(c[0:])
	idx := int(binary.BigEndian.Uint16(c[4:]))
	n := int(binary.BigEndian.Uint16(c[6:]))
	size := int(binary.BigEndian.Uint32(c[8:]))
	want := min(f.mss, size-idx*f.mss)
	if seq >= f.next || n != (size+f.mss-1)/f.mss || idx >= n || len(c) != want ||
		!bytes.Equal(c[tagLen:], f.pat.body(seq, idx, want-tagLen)) {
		f.corrupt++
		return seq, m, false
	}
	if seq < f.base {
		return seq, m, false // duplicate of a completed message
	}
	p := &f.live[f.head+int(seq-f.base)]
	bit := uint64(1) << idx
	if int(p.size) != size {
		f.corrupt++
		return seq, m, false
	}
	if p.missing&bit == 0 {
		return seq, m, false // duplicate
	}
	p.missing &^= bit
	if p.missing != 0 {
		return seq, m, false
	}
	m = *p
	f.delivered++
	f.goodBytes += uint64(size)
	for f.head < len(f.live) && f.live[f.head].missing == 0 {
		f.head++
		f.base++
	}
	// Reuse the backing array rather than let appends regrow it: the
	// benchmark's bookkeeping must not show up in allocs_per_pkt.
	if f.head == len(f.live) || f.head >= 1024 {
		f.live = f.live[:copy(f.live, f.live[f.head:])]
		f.head = 0
	}
	return seq, m, true
}

// failed counts messages offered but not delivered intact.
func (f *flow) failed() uint64 { return f.offered() - f.delivered }
