package soa

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"

	"dynaplat/internal/sim"
)

func TestE2ERoundTrip(t *testing.T) {
	s := &E2ESender{DataID: 0xBEEF}
	r := &E2EReceiver{DataID: 0xBEEF}
	for i := 0; i < 100; i++ {
		status, payload := r.Check(s.Protect([]byte{byte(i), 1, 2, 3}))
		if status != E2EOK {
			t.Fatalf("msg %d: status = %v", i, status)
		}
		if payload[0] != byte(i) {
			t.Fatalf("msg %d: payload = %v", i, payload)
		}
	}
	if r.OK != 100 {
		t.Errorf("OK = %d", r.OK)
	}
}

func TestE2EDetectsCorruption(t *testing.T) {
	s := &E2ESender{DataID: 1}
	r := &E2EReceiver{DataID: 1}
	buf := s.Protect([]byte("hello"))
	buf[E2EHeaderSize+1] ^= 0x40
	if status, _ := r.Check(buf); status != E2EWrongCRC {
		t.Errorf("payload corruption: %v", status)
	}
	// Header corruption also caught.
	buf2 := s.Protect([]byte("hello"))
	buf2[0] ^= 0x01
	if status, _ := r.Check(buf2); status != E2EWrongCRC {
		t.Errorf("header corruption: %v", status)
	}
	// Truncation.
	if status, _ := r.Check(buf2[:4]); status != E2EWrongCRC {
		t.Errorf("truncation: %v", status)
	}
}

func TestE2EDetectsMasquerade(t *testing.T) {
	other := &E2ESender{DataID: 2}
	r := &E2EReceiver{DataID: 1}
	if status, _ := r.Check(other.Protect([]byte("x"))); status != E2EWrongID {
		t.Errorf("masquerade: %v", status)
	}
	if r.WrongID != 1 {
		t.Errorf("WrongID = %d", r.WrongID)
	}
}

func TestE2EDetectsLossAndRepetition(t *testing.T) {
	s := &E2ESender{DataID: 1}
	r := &E2EReceiver{DataID: 1}
	m0 := s.Protect([]byte("a"))
	m1 := s.Protect([]byte("b"))
	m2 := s.Protect([]byte("c"))
	m3 := s.Protect([]byte("d"))
	if st, _ := r.Check(m0); st != E2EOK {
		t.Fatalf("m0: %v", st)
	}
	// m1 lost; m2 arrives → loss detected, stream resyncs.
	if st, _ := r.Check(m2); st != E2ELoss {
		t.Fatalf("skip: %v", st)
	}
	if st, _ := r.Check(m3); st != E2EOK {
		t.Fatalf("resync: %v", st)
	}
	// Replay of m3 → repetition.
	if st, _ := r.Check(m3); st != E2ERepetition {
		t.Fatalf("replay: %v", st)
	}
	// Old m1 arriving very late counts as loss-pattern (counter jump back).
	if st, _ := r.Check(m1); st != E2ELoss {
		t.Fatalf("stale: %v", st)
	}
	if r.Loss != 2 || r.Repetition != 1 {
		t.Errorf("loss=%d rep=%d", r.Loss, r.Repetition)
	}
}

func TestE2ECounterWraps(t *testing.T) {
	s := &E2ESender{DataID: 9}
	r := &E2EReceiver{DataID: 9}
	for i := 0; i < 70000; i++ { // crosses the uint16 wrap
		if st, _ := r.Check(s.Protect(nil)); st != E2EOK {
			t.Fatalf("msg %d: %v", i, st)
		}
	}
}

func TestE2EPropertyAnySingleBitFlipCaught(t *testing.T) {
	err := quick.Check(func(seed uint64, payload []byte, bit16 uint16) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		s := &E2ESender{DataID: 7}
		r := &E2EReceiver{DataID: 7}
		buf := s.Protect(payload)
		bit := int(bit16) % (len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		status, _ := r.Check(buf)
		// A flip in the dataID field may produce WrongID (CRC covers it,
		// so actually it must be WrongCRC — except flips inside the CRC
		// field itself, which also yield WrongCRC). Never OK.
		return status != E2EOK
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestE2ECRCMatchesJoinedCopy checks the two-step CRC against the CRC of
// header and payload joined in one buffer, on random headers and
// payloads of every length up to 64 bytes, the empty payload included,
// and that Protect writes it and Check accepts it.
func TestE2ECRCMatchesJoinedCopy(t *testing.T) {
	rng := sim.NewRNG(1)
	for n := 0; n <= 64; n++ {
		for range 8 {
			head := make([]byte, 6)
			payload := make([]byte, n)
			for i := range head {
				head[i] = byte(rng.Uint64())
			}
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			want := crc32.ChecksumIEEE(append(head[:6:6], payload...))
			if got := e2eCRC(head, payload); got != want {
				t.Fatalf("%d-byte payload: e2eCRC %08x, joined copy %08x", n, got, want)
			}
			s := &E2ESender{DataID: binary.BigEndian.Uint32(head), counter: binary.BigEndian.Uint16(head[4:])}
			frame := s.Protect(payload)
			if got := binary.BigEndian.Uint32(frame[6:]); got != want {
				t.Fatalf("%d-byte payload: Protect wrote CRC %08x, want %08x", n, got, want)
			}
			r := &E2EReceiver{DataID: s.DataID}
			if st, _ := r.Check(frame); st != E2EOK {
				t.Fatalf("%d-byte payload: Check = %v", n, st)
			}
		}
	}
}

// TestE2EAllocs pins the frame path: a warm Protect allocates only the
// frame it returns, and Check allocates nothing.
func TestE2EAllocs(t *testing.T) {
	s := &E2ESender{DataID: 7}
	r := &E2EReceiver{DataID: 7}
	payload := []byte("wheel speed 1234")
	var frame []byte
	if a := testing.AllocsPerRun(1000, func() { frame = s.Protect(payload) }); a != 1 {
		t.Errorf("Protect: %v allocs, want 1 (the frame)", a)
	}
	if a := testing.AllocsPerRun(1000, func() { r.Check(frame) }); a != 0 {
		t.Errorf("Check: %v allocs, want 0", a)
	}
}
