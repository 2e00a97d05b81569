package soa

import (
	"encoding/binary"
	"hash/crc32"
)

// End-to-end communication protection in the AUTOSAR E2E style: safety
// payloads are wrapped with a data ID, an alive counter and a CRC so the
// *receiver* can detect corruption, repetition, loss and masquerading
// regardless of what the channel below did. The paper's safety argument
// (Section 3) requires exactly this property once communication paths
// become dynamic: trust moves from the (static, qualified) channel to the
// (checkable) message.

// E2EStatus is the receiver-side verdict for one protected payload.
type E2EStatus int

const (
	// E2EOK means the payload is fresh and intact.
	E2EOK E2EStatus = iota
	// E2EWrongCRC means the payload or header was corrupted.
	E2EWrongCRC
	// E2EWrongID means a message from a different data stream arrived
	// (masquerade/misrouting).
	E2EWrongID
	// E2ERepetition means the same counter arrived again.
	E2ERepetition
	// E2ELoss means one or more messages were skipped (counter jumped).
	E2ELoss
)

func (s E2EStatus) String() string {
	switch s {
	case E2EOK:
		return "ok"
	case E2EWrongCRC:
		return "wrong-crc"
	case E2EWrongID:
		return "wrong-id"
	case E2ERepetition:
		return "repetition"
	case E2ELoss:
		return "loss"
	}
	return "unknown"
}

// E2EHeaderSize is the wrapping overhead in bytes.
const E2EHeaderSize = 10 // dataID(4) + counter(2) + crc(4)

// E2ESender wraps payloads for one protected data stream.
type E2ESender struct {
	DataID  uint32
	counter uint16
}

// Protect wraps payload with the E2E header and advances the counter.
func (s *E2ESender) Protect(payload []byte) []byte {
	buf := make([]byte, E2EHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:], s.DataID)
	binary.BigEndian.PutUint16(buf[4:], s.counter)
	copy(buf[E2EHeaderSize:], payload)
	// CRC covers dataID, counter and payload; it lives at bytes 6..10.
	binary.BigEndian.PutUint32(buf[6:], e2eCRC(buf[:6], payload))
	s.counter++
	return buf
}

// e2eCRC is the CRC-32 (IEEE) of head followed by payload, computed in
// two steps so no joined copy is made.
func e2eCRC(head, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, payload)
}

// E2EReceiver validates one protected data stream.
type E2EReceiver struct {
	DataID uint32

	expect  uint16
	started bool

	// Counters by verdict.
	OK, WrongCRC, WrongID, Repetition, Loss int64
}

// Check validates a wrapped payload, returning the verdict and (when the
// envelope is intact) the inner payload.
func (r *E2EReceiver) Check(buf []byte) (E2EStatus, []byte) {
	if len(buf) < E2EHeaderSize {
		r.WrongCRC++
		return E2EWrongCRC, nil
	}
	dataID := binary.BigEndian.Uint32(buf[0:])
	counter := binary.BigEndian.Uint16(buf[4:])
	crc := binary.BigEndian.Uint32(buf[6:])
	payload := buf[E2EHeaderSize:]
	if crc != e2eCRC(buf[:6], payload) {
		r.WrongCRC++
		return E2EWrongCRC, nil
	}
	if dataID != r.DataID {
		r.WrongID++
		return E2EWrongID, payload
	}
	if r.started {
		switch delta := counter - r.expect; {
		case delta == 0:
			// fresh, in sequence
		case delta == 0xFFFF: // counter == expect-1: repeat of last
			r.Repetition++
			return E2ERepetition, payload
		default:
			r.Loss++
			r.expect = counter + 1
			return E2ELoss, payload
		}
	}
	r.started = true
	r.expect = counter + 1
	r.OK++
	return E2EOK, payload
}
