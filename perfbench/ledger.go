package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// frameMagic marks the payload of every frame the benchmark generates;
// the sequence number follows it, so the wire callback and the delivery
// check can find a frame's record from its bytes alone.
const frameMagic = 0x54574231 // "TWB1"

// Frame layout: Ethernet header, a 20-byte IPv4/UDP header (the e1000
// transmit path dispatches on the ethertype and IP protocol bytes, so
// frames must not carry random bytes there), then magic and sequence.
const (
	ipOff    = 14
	magicOff = ipOff + 20
	seqOff   = magicOff + 4
	minFrame = seqOff + 4
)

// wireDst is the destination index of a frame bound for the wire.
const wireDst = -1

// frameRec is one honest frame the benchmark offered, kept until the
// frame reaches a terminal state: on the wire, delivered, or lost.
type frameRec struct {
	seq    uint32
	origin int // guest that transmitted it; -1 for a frame arriving from the wire
	dst    int // destination guest; wireDst for a frame leaving on the wire
	data   []byte
	start  uint64 // critical-path clock at the start of the offering call
	// measured is set for frames offered in the measured phase: only they
	// contribute latency samples.
	measured bool
	// queued is set once the twin holds the frame for a guest's receive
	// queue: the interrupt that drained it returned, or the service that
	// switched it locally consumed it.
	queued  bool
	retries int
}

// ledgerGuest is one guest's exactly-once ledger: every honest frame it
// offered (transmit) or was offered (receive from the wire) ends in one
// of wired, delivered, lost or refused (consumed by a hostile buffer the
// workload posted on purpose).
type ledgerGuest struct {
	offered, wired, delivered, lost, refused uint64
}

// ledger tracks every honest frame in flight and checks bytes at every
// completion. Problems are counted in bad and described in errs.
type ledger struct {
	seq      uint32
	inflight map[uint32]*frameRec
	guests   []ledgerGuest
	bad      int
	errs     []string
}

func newLedger(guests int) *ledger {
	return &ledger{inflight: make(map[uint32]*frameRec), guests: make([]ledgerGuest, guests)}
}

func (l *ledger) failf(format string, a ...any) {
	l.bad++
	l.note(fmt.Sprintf(format, a...))
}

// note keeps the first few problem descriptions for the report.
func (l *ledger) note(msg string) {
	if len(l.errs) < 8 {
		l.errs = append(l.errs, msg)
	}
}

// owner is the guest whose ledger a frame belongs to.
func (r *frameRec) owner() int {
	if r.origin >= 0 {
		return r.origin
	}
	return r.dst
}

// newFrame builds a frame of size bytes (at least minFrame): Ethernet
// and IPv4/UDP headers, magic, sequence number, then bytes from fill.
func (l *ledger) newFrame(origin, dst int, size int, dstMAC, srcMAC [6]byte, fill func([]byte)) *frameRec {
	l.seq++
	b := make([]byte, size)
	copy(b[0:6], dstMAC[:])
	copy(b[6:12], srcMAC[:])
	b[12], b[13] = 0x08, 0x00
	ip := b[ipOff:magicOff]
	ip[0] = 0x45 // IPv4, 20-byte header
	binary.BigEndian.PutUint16(ip[2:4], uint16(size-ipOff))
	binary.BigEndian.PutUint16(ip[4:6], uint16(l.seq))
	ip[8], ip[9] = 64, 17 // TTL, UDP
	copy(ip[12:16], []byte{10, 0, byte(origin + 1), 1})
	copy(ip[16:20], []byte{10, 0, byte(dst + 1), 1})
	binary.BigEndian.PutUint32(b[magicOff:seqOff], frameMagic)
	binary.BigEndian.PutUint32(b[seqOff:minFrame], l.seq)
	fill(b[minFrame:])
	r := &frameRec{seq: l.seq, origin: origin, dst: dst, data: b}
	l.inflight[r.seq] = r
	l.guests[r.owner()].offered++
	return r
}

// lookup finds the in-flight record a frame's bytes name.
func (l *ledger) lookup(pkt []byte) (*frameRec, error) {
	if len(pkt) < minFrame || binary.BigEndian.Uint32(pkt[magicOff:seqOff]) != frameMagic {
		return nil, fmt.Errorf("unrecognised frame of %d bytes", len(pkt))
	}
	seq := binary.BigEndian.Uint32(pkt[seqOff:minFrame])
	r := l.inflight[seq]
	if r == nil {
		return nil, fmt.Errorf("frame seq %d is not in flight (duplicate or phantom)", seq)
	}
	if !bytes.Equal(r.data, pkt) {
		return nil, fmt.Errorf("frame seq %d: %d bytes differ from the %d generated", seq, len(pkt), len(r.data))
	}
	return r, nil
}

// complete moves a record to a terminal state.
func (l *ledger) complete(r *frameRec, wired bool) {
	delete(l.inflight, r.seq)
	g := &l.guests[r.owner()]
	if wired {
		g.wired++
	} else {
		g.delivered++
	}
}

// lose marks a record lost.
func (l *ledger) lose(r *frameRec) {
	delete(l.inflight, r.seq)
	l.guests[r.owner()].lost++
}

// refuse marks a record refused.
func (l *ledger) refuse(r *frameRec) {
	delete(l.inflight, r.seq)
	l.guests[r.owner()].refused++
}

// check applies offered == wired + delivered + lost + refused to every
// guest and requires that nothing is left in flight.
func (l *ledger) check() {
	if n := len(l.inflight); n > 0 {
		l.failf("%d frames still in flight after the drain", n)
	}
	for i, g := range l.guests {
		if g.offered != g.wired+g.delivered+g.lost+g.refused {
			l.failf("guest %d ledger: offered %d != wired %d + delivered %d + lost %d + refused %d",
				i, g.offered, g.wired, g.delivered, g.lost, g.refused)
		}
	}
}
