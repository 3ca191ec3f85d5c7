// Package wire defines the ADAPTIVE protocol data unit (PDU) format.
//
// The format follows the paper's §2.2C critique of TCP/TP4 control formats:
// every header field is word-aligned, the header is fixed-size (no variable
// options on the data path), and the checksum travels in a trailer so a
// sender can compute it while the packet body streams out. Out-of-band
// control (QoS negotiation, reconfiguration signals) uses Signal PDUs whose
// payloads are TLV-encoded, keeping the data path free of option parsing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"adaptive/internal/message"
)

// Type enumerates PDU types.
type Type uint8

const (
	TData      Type = 1  // application data
	TAck       Type = 2  // cumulative acknowledgment (Ack field)
	TNak       Type = 3  // selective negative ack; payload lists missing seqs
	TConnReq   Type = 4  // connection request (explicit handshake step 1)
	TConnAck   Type = 5  // connection accept (step 2)
	TConnConf  Type = 6  // connection confirm (3-way handshake step 3)
	TFin       Type = 7  // graceful close request
	TFinAck    Type = 8  // close acknowledgment
	TSignal    Type = 9  // out-of-band control channel PDU
	TParity    Type = 10 // FEC parity block covering a group of data PDUs
	TProbe     Type = 11 // network monitor probe (RTT / liveness)
	TKeepalive Type = 12 // session keepalive (FlagEcho marks the reply)
	TControl   Type = 13 // control-plane channel (migration handoff, ownership)
)

func (t Type) String() string {
	switch t {
	case TData:
		return "DATA"
	case TAck:
		return "ACK"
	case TNak:
		return "NAK"
	case TConnReq:
		return "CONNREQ"
	case TConnAck:
		return "CONNACK"
	case TConnConf:
		return "CONNCONF"
	case TFin:
		return "FIN"
	case TFinAck:
		return "FINACK"
	case TSignal:
		return "SIGNAL"
	case TParity:
		return "PARITY"
	case TProbe:
		return "PROBE"
	case TKeepalive:
		return "KEEPALIVE"
	case TControl:
		return "CONTROL"
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// Flag bits.
const (
	FlagImplicitCfg uint8 = 1 << 0 // PDU carries a piggybacked session config
	FlagEOM         uint8 = 1 << 1 // end of application message (block mode)
	FlagMcast       uint8 = 1 << 2 // sent to a multicast group
	FlagSegueMark   uint8 = 1 << 3 // first PDU after a mechanism segue
	FlagEcho        uint8 = 1 << 4 // probe echo (reply) rather than request

	// Checksum kind occupies the top two flag bits.
	flagCkShift       = 6
	flagCkMask  uint8 = 0b11 << flagCkShift
)

// ChecksumKind selects the trailer checksum algorithm. It is carried in the
// header flags so a receiver can verify before any session lookup.
type ChecksumKind uint8

const (
	CkNone     ChecksumKind = 0 // no protection (loss-tolerant media)
	CkInternet ChecksumKind = 1 // 16-bit one's-complement Internet checksum
	CkCRC32    ChecksumKind = 2 // CRC-32 (IEEE)
)

func (c ChecksumKind) String() string {
	switch c {
	case CkNone:
		return "none"
	case CkInternet:
		return "internet16"
	case CkCRC32:
		return "crc32"
	}
	return fmt.Sprintf("ck(%d)", uint8(c))
}

// Version is the wire protocol version stamped into every header.
const Version = 1

// HeaderLen is the fixed header size; TrailerLen the checksum trailer size.
const (
	HeaderLen  = 24
	TrailerLen = 4
	Overhead   = HeaderLen + TrailerLen
)

// Header layout (all multi-byte fields big-endian, all word-aligned):
//
//	 0  VerType   uint8   version(4) | type(4)
//	 1  Flags     uint8
//	 2  SrcPort   uint16
//	 4  DstPort   uint16
//	 6  Window    uint16  receiver window advertisement (scaled units)
//	 8  ConnID    uint32
//	12  Seq       uint32
//	16  Ack       uint32  cumulative ack (valid on ACK/DATA)
//	20  PayloadLen uint16
//	22  Aux       uint16  type-specific (FEC group size, NAK count, ...)
type Header struct {
	Type       Type
	Flags      uint8
	SrcPort    uint16
	DstPort    uint16
	Window     uint16
	ConnID     uint32
	Seq        uint32
	Ack        uint32
	PayloadLen uint16
	Aux        uint16
}

// Checksum returns the checksum kind encoded in the flags.
func (h *Header) Checksum() ChecksumKind {
	return ChecksumKind((h.Flags & flagCkMask) >> flagCkShift)
}

// SetChecksum stores kind into the flag bits.
func (h *Header) SetChecksum(kind ChecksumKind) {
	h.Flags = h.Flags&^flagCkMask | uint8(kind)<<flagCkShift
}

func (h *Header) String() string {
	return fmt.Sprintf("%v conn=%d seq=%d ack=%d win=%d len=%d aux=%d flags=%02x",
		h.Type, h.ConnID, h.Seq, h.Ack, h.Window, h.PayloadLen, h.Aux, h.Flags)
}

// PDU couples a header with its payload message. The payload may be nil for
// header-only PDUs (acks).
type PDU struct {
	Header
	Payload *message.Message
}

// PayloadBytes returns the payload view or nil.
func (p *PDU) PayloadBytes() []byte {
	if p.Payload == nil {
		return nil
	}
	return p.Payload.Bytes()
}

// ReleasePayload drops the payload reference if present.
func (p *PDU) ReleasePayload() {
	if p.Payload != nil {
		p.Payload.Release()
		p.Payload = nil
	}
}

var pduPool = sync.Pool{New: func() any { return new(PDU) }}

// GetPDU returns a zeroed PDU from the pool. Pair with PutPDU at the point
// the PDU's lifecycle provably ends (receive-path terminal, acked
// retransmission-buffer entry); a PDU whose ownership is ambiguous may simply
// be dropped to the garbage collector instead — losing one to GC is always
// safe, double-recycling never is.
func GetPDU() *PDU {
	return pduPool.Get().(*PDU)
}

// PutPDU releases any payload still attached, zeroes the PDU, and recycles
// it. The caller must not touch p afterwards.
func PutPDU(p *PDU) {
	p.ReleasePayload()
	p.Header = Header{}
	pduPool.Put(p)
}

var (
	ErrTooShort    = errors.New("wire: packet shorter than header+trailer")
	ErrBadVersion  = errors.New("wire: unknown protocol version")
	ErrBadLength   = errors.New("wire: payload length mismatch")
	ErrBadChecksum = errors.New("wire: checksum verification failed")
)

// putHeader serializes h into buf, which must be at least HeaderLen bytes.
func putHeader(buf []byte, h *Header) {
	buf[0] = Version<<4 | uint8(h.Type)&0x0f
	buf[1] = h.Flags
	binary.BigEndian.PutUint16(buf[2:], h.SrcPort)
	binary.BigEndian.PutUint16(buf[4:], h.DstPort)
	binary.BigEndian.PutUint16(buf[6:], h.Window)
	binary.BigEndian.PutUint32(buf[8:], h.ConnID)
	binary.BigEndian.PutUint32(buf[12:], h.Seq)
	binary.BigEndian.PutUint32(buf[16:], h.Ack)
	binary.BigEndian.PutUint16(buf[20:], h.PayloadLen)
	binary.BigEndian.PutUint16(buf[22:], h.Aux)
}

// EncodeTo serializes the PDU and hands the complete packet to emit. The
// packet slice is valid only for the duration of the call: providers copy
// synchronously (the netapi.Endpoint contract), which is what makes the
// zero-copy fast path sound.
//
// Fast path: when the payload is exclusively owned (Refs()==1) and has
// HeaderLen of headroom plus TrailerLen of tailroom, the header and trailer
// are built in place around the existing payload bytes — no intermediate
// buffer, no copy — and the view is restored after emit returns, so
// retransmission buffers keep a clean payload view. Shared payloads (split
// segments, clones held by retransmission buffers with the header region
// aliasing a sibling's bytes) and header-only PDUs take a pooled-scratch
// path with a single copy.
//
// EncodeTo consumes nothing; p and its payload are unchanged on return. The
// payload buffer is pinned (an extra reference is held) for the duration of
// emit, so a synchronous transport that re-enters the protocol and drops the
// last caller-side reference cannot recycle the buffer out from under the
// packet slice.
func EncodeTo(p *PDU, kind ChecksumKind, emit func(pkt []byte) error) error {
	h := p.Header
	h.SetChecksum(kind)
	m := p.Payload
	if m != nil && m.Refs() == 1 && m.Headroom() >= HeaderLen && m.Tailroom() >= TrailerLen {
		n := m.Len()
		h.PayloadLen = uint16(n)
		// A synchronous transport (loopback) can re-enter the protocol from
		// inside emit and drop the caller's reference — e.g. a retransmit's
		// packet is acked synchronously and the retransmission buffer
		// releases the payload. Pin the buffer (not the view: the view
		// struct itself may be recycled by that release) so the bytes stay
		// valid until the emitted slice is no longer aliased, and build the
		// packet through Window so the view is never mutated.
		pin := m.Pin()
		pkt := m.Window(HeaderLen, TrailerLen)
		putHeader(pkt, &h)
		sum := checksum(kind, pkt[:HeaderLen+n])
		binary.BigEndian.PutUint32(pkt[HeaderLen+n:], sum)
		err := emit(pkt)
		pin.Unpin()
		return err
	}

	plen := 0
	if m != nil {
		plen = m.Len()
	}
	h.PayloadLen = uint16(plen)
	pkt := message.GetSlab(HeaderLen + plen + TrailerLen)
	putHeader(pkt, &h)
	if plen > 0 {
		copy(pkt[HeaderLen:], m.Bytes())
	}
	sum := checksum(kind, pkt[:HeaderLen+plen])
	binary.BigEndian.PutUint32(pkt[HeaderLen+plen:], sum)
	err := emit(pkt)
	message.PutSlab(pkt)
	return err
}

// Encode serializes the PDU into a single packet buffer drawn from the
// message pool. The returned message owns one reference that the caller must
// release after the provider copies it out. Hot paths should prefer EncodeTo,
// which avoids materializing the packet as a Message at all.
func Encode(p *PDU, kind ChecksumKind) *message.Message {
	var out *message.Message
	_ = EncodeTo(p, kind, func(pkt []byte) error {
		out = message.PooledFromBytes(pkt)
		return nil
	})
	return out
}

// DecodeInto parses a packet into the caller-supplied PDU, overwriting it.
// The payload (if any) is a pooled message copied out of pkt (providers
// reuse their receive buffers). On error the PDU is left unmodified and no
// payload is allocated.
func DecodeInto(pkt []byte, p *PDU) error {
	if len(pkt) < Overhead {
		return ErrTooShort
	}
	if pkt[0]>>4 != Version {
		return ErrBadVersion
	}
	var h Header
	h.Type = Type(pkt[0] & 0x0f)
	h.Flags = pkt[1]
	h.SrcPort = binary.BigEndian.Uint16(pkt[2:])
	h.DstPort = binary.BigEndian.Uint16(pkt[4:])
	h.Window = binary.BigEndian.Uint16(pkt[6:])
	h.ConnID = binary.BigEndian.Uint32(pkt[8:])
	h.Seq = binary.BigEndian.Uint32(pkt[12:])
	h.Ack = binary.BigEndian.Uint32(pkt[16:])
	h.PayloadLen = binary.BigEndian.Uint16(pkt[20:])
	h.Aux = binary.BigEndian.Uint16(pkt[22:])

	body := pkt[:len(pkt)-TrailerLen]
	if int(h.PayloadLen) != len(body)-HeaderLen {
		return ErrBadLength
	}
	kind := h.Checksum()
	if kind > CkCRC32 {
		return ErrBadChecksum // reserved flag value
	}
	want := binary.BigEndian.Uint32(pkt[len(pkt)-TrailerLen:])
	if got := checksum(kind, body); got != want {
		return ErrBadChecksum
	}
	p.Header = h
	p.Payload = nil
	if h.PayloadLen > 0 {
		p.Payload = message.PooledFromBytes(body[HeaderLen:])
	}
	return nil
}

// Decode parses a packet into a freshly allocated PDU. Verification failures
// return a nil PDU and the error.
func Decode(pkt []byte) (*PDU, error) {
	p := new(PDU)
	if err := DecodeInto(pkt, p); err != nil {
		return nil, err
	}
	return p, nil
}
