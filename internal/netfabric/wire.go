package netfabric

import "encoding/binary"

// Datagram layout (little-endian). Every packet starts with a 4-byte common
// header:
//
//	byte 0  magic (0xA7)
//	byte 1  wire version
//	byte 2  packet type (pktData | pktAck)
//	byte 3  flags (flagAck: the piggyback fields are valid)
//
// DATA packets carry one MTU-sized fragment of one logical message. Each
// fragment is self-describing (it repeats the message's header/meta words
// and total length) so reassembly needs no per-message handshake: fragments
// of a message occupy consecutive sequence numbers of the flow and are
// applied in order by the sliding-window receiver.
//
// Since wire version 2 every DATA packet also reserves room for the reverse
// direction's cumulative ack and credit advertisement ("piggybacking"): on
// bidirectional traffic the ack path costs no extra datagrams at all, and
// standalone ACK packets are only needed for one-way flows (sent on the
// delayed-ack timer or after ackEvery receives). The fields are stamped at
// flush time — not at Send time — so a packet always carries the freshest
// receive state, including on retransmission. flagAck distinguishes a
// stamped packet from one whose sender has piggybacking ablated.
//
//	src u32 | seq u32 | fragOff u32 | msgLen u32 | header u64 | meta u64 | ack u32 | credit u64 | chunk
//
// ACK packets carry the flow's cumulative ack (next expected sequence
// number) and the receiver-advertised credit: the absolute count of
// messages the peer may have sent, i.e. consumed + credit window. Credits
// are what replaces the simulator's bounded receive ring — a sender out of
// credit gets fabric.ErrResource, the same retriable back-pressure.
//
//	src u32 | cumAck u32 | credit u64
const (
	magicByte   = 0xA7
	wireVersion = 2 // v2: DATA packets carry piggybacked ack + credit

	pktData = 1
	pktAck  = 2

	flagAck = 1 << 0 // DATA: piggybacked ack/credit fields are valid

	dataAckOff    = 36 // offset of the piggybacked ack field
	dataCreditOff = 40 // offset of the piggybacked credit field

	dataHdrLen = 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4 + 8
	ackPktLen  = 4 + 4 + 4 + 8
)

// dataPkt is one decoded DATA datagram.
type dataPkt struct {
	src     int
	seq     uint32
	fragOff uint32
	msgLen  uint32
	header  uint64
	meta    uint64
	chunk   []byte // aliases the read buffer; clone before retaining

	// Piggybacked reverse-direction ack/credit (valid when hasAck).
	hasAck   bool
	pgAck    uint32
	pgCredit uint64
}

// clone deep-copies a packet so it can outlive the read buffer (out-of-order
// buffering).
func (d *dataPkt) clone() *dataPkt {
	c := *d
	c.chunk = append([]byte(nil), d.chunk...)
	return &c
}

func putCommon(b []byte, typ byte) {
	b[0] = magicByte
	b[1] = wireVersion
	b[2] = typ
	b[3] = 0
}

// encodeData writes a DATA packet into b and returns its length. The
// piggyback ack/credit fields are left zero with flagAck clear; stampAck
// fills them at flush time.
func encodeData(b []byte, src int, seq, fragOff, msgLen uint32, header, meta uint64, chunk []byte) int {
	putCommon(b, pktData)
	binary.LittleEndian.PutUint32(b[4:], uint32(src))
	binary.LittleEndian.PutUint32(b[8:], seq)
	binary.LittleEndian.PutUint32(b[12:], fragOff)
	binary.LittleEndian.PutUint32(b[16:], msgLen)
	binary.LittleEndian.PutUint64(b[20:], header)
	binary.LittleEndian.PutUint64(b[28:], meta)
	binary.LittleEndian.PutUint32(b[dataAckOff:], 0)
	binary.LittleEndian.PutUint64(b[dataCreditOff:], 0)
	copy(b[dataHdrLen:], chunk)
	return dataHdrLen + len(chunk)
}

// stampAck overwrites an encoded DATA packet's piggyback fields with the
// current cumulative ack and credit for the reverse direction and marks them
// valid. Called immediately before every (re)transmission of the packet.
func stampAck(b []byte, ack uint32, credit uint64) {
	b[3] |= flagAck
	binary.LittleEndian.PutUint32(b[dataAckOff:], ack)
	binary.LittleEndian.PutUint64(b[dataCreditOff:], credit)
}

// encodeAck writes a standalone ACK packet into b and returns its length.
func encodeAck(b []byte, src int, cumAck uint32, credit uint64) int {
	putCommon(b, pktAck)
	binary.LittleEndian.PutUint32(b[4:], uint32(src))
	binary.LittleEndian.PutUint32(b[8:], cumAck)
	binary.LittleEndian.PutUint64(b[12:], credit)
	return ackPktLen
}

// validCommon reports whether b starts with this wire version's common
// header for packet type typ, with no flag outside flags set.
func validCommon(b []byte, typ, flags byte) bool {
	return len(b) >= 4 && b[0] == magicByte && b[1] == wireVersion && b[2] == typ && b[3]&^flags == 0
}

// decodeData parses a DATA packet. It accepts exactly what encodeData and
// stampAck produce: an unstamped packet must carry zero piggyback fields,
// so every accepted byte means something.
func decodeData(b []byte) (dataPkt, bool) {
	if len(b) < dataHdrLen || !validCommon(b, pktData, flagAck) {
		return dataPkt{}, false
	}
	d := dataPkt{
		src:     int(binary.LittleEndian.Uint32(b[4:])),
		seq:     binary.LittleEndian.Uint32(b[8:]),
		fragOff: binary.LittleEndian.Uint32(b[12:]),
		msgLen:  binary.LittleEndian.Uint32(b[16:]),
		header:  binary.LittleEndian.Uint64(b[20:]),
		meta:    binary.LittleEndian.Uint64(b[28:]),
		chunk:   b[dataHdrLen:],
	}
	if b[3]&flagAck != 0 {
		d.hasAck = true
		d.pgAck = binary.LittleEndian.Uint32(b[dataAckOff:])
		d.pgCredit = binary.LittleEndian.Uint64(b[dataCreditOff:])
	} else if binary.LittleEndian.Uint32(b[dataAckOff:]) != 0 || binary.LittleEndian.Uint64(b[dataCreditOff:]) != 0 {
		return dataPkt{}, false
	}
	if int(d.fragOff)+len(d.chunk) > int(d.msgLen) {
		return dataPkt{}, false
	}
	return d, true
}

// decodeAck parses a standalone ACK packet: exactly ackPktLen bytes, as
// encodeAck writes them.
func decodeAck(b []byte) (src int, cumAck uint32, credit uint64, ok bool) {
	if len(b) != ackPktLen || !validCommon(b, pktAck, 0) {
		return 0, 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(b[4:])),
		binary.LittleEndian.Uint32(b[8:]),
		binary.LittleEndian.Uint64(b[12:]),
		true
}
