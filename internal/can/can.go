// Package can simulates a Controller Area Network bus with bitwise
// priority arbitration and standard-frame timing, including worst-case bit
// stuffing. It implements network.Network.
//
// CAN is the paper's example of a legacy signal-oriented communication
// system whose priority arbitration provides (only) per-frame isolation:
// a high-priority frame waits at most one maximal frame time behind a
// lower-priority transmission already on the wire.
package can

import (
	"fmt"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// MaxPayload is the classic CAN payload limit.
const MaxPayload = 8

// Config parameterizes a bus.
type Config struct {
	Name string
	// BitsPerSecond is the bus bit rate (e.g. 500_000).
	BitsPerSecond int64
	// WorstCaseStuffing, when true, adds the worst-case stuff-bit count
	// to every frame; otherwise frames carry no stuff bits. Worst case is
	// the correct choice for schedulability reasoning.
	WorstCaseStuffing bool
	// FrameLossRate injects bus errors: each frame is independently lost
	// (error frame, no delivery) with this probability. Lost frames still
	// occupy the bus for their transmission time. Requires a kernel RNG.
	FrameLossRate float64
}

// Bus is a simulated CAN bus.
//
// A frame's trip through the bus allocates nothing in steady state: its
// record comes from a per-bus network.Pool, the end of its transmission is
// one pre-bound AfterCall event carrying the record, and broadcasts walk
// a sorted station snapshot.
type Bus struct {
	cfg     Config
	k       *sim.Kernel
	rx      map[string]network.Receiver
	pending []*queued // waiting for arbitration, any station, unordered
	busy    bool
	seq     uint64
	fd      bool
	dataBps int64

	// stations lists the attached stations in sorted order. Attach
	// replaces it with a fresh copy rather than inserting in place, so a
	// broadcast ranging over the old slice never sees a station attached
	// by one of its receivers.
	stations []string
	pool     network.Pool[queued]
	txDoneFn func(any) // b.txDone, bound once in New

	// Stats
	FramesSent   int64
	BitsSent     int64
	BusyTime     sim.Duration
	ArbitrationQ sim.Stats // queueing delay before winning arbitration
	// FramesLost counts frames destroyed by injected bus errors.
	FramesLost int64

	rng *sim.RNG
	tap network.Tap // the kernel's frame tap (network.TapOf); nil unobserved
}

// queued is one frame's record from Send to delivery. Records are
// pooled: txDone returns one to the pool only after every receiver has
// returned, so a receiver that sends gets a different record.
type queued struct {
	msg      network.Message
	enqueued sim.Time
	seq      uint64
	span     uint64
	lost     bool // destroyed by an injected bus error, drawn at tx start
}

// New creates a bus on the kernel.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.BitsPerSecond <= 0 {
		cfg.BitsPerSecond = 500_000
	}
	if cfg.FrameLossRate < 0 || cfg.FrameLossRate >= 1 {
		cfg.FrameLossRate = 0
	}
	b := &Bus{cfg: cfg, k: k, rx: map[string]network.Receiver{}, tap: network.TapOf(k)}
	b.txDoneFn = b.txDone
	if cfg.FrameLossRate > 0 {
		b.rng = k.RNG().Split()
	}
	return b
}

// Name implements network.Network.
func (b *Bus) Name() string { return b.cfg.Name }

// Attach implements network.Network.
func (b *Bus) Attach(station string, rx network.Receiver) {
	if _, ok := b.rx[station]; !ok {
		b.stations = network.InsertStation(b.stations, station)
	}
	b.rx[station] = rx
}

// Send implements network.Network. Messages longer than MaxPayload are
// rejected with a panic: callers must segment (the SOA layer does).
func (b *Bus) Send(msg network.Message) {
	if _, ok := b.rx[msg.Src]; !ok {
		panic(fmt.Sprintf("can: source %q not attached to %s", msg.Src, b.cfg.Name))
	}
	limit := MaxPayload
	if b.fd {
		limit = MaxPayloadFD
	}
	if msg.Bytes > limit {
		panic(fmt.Sprintf("can: payload %dB exceeds %dB frame limit", msg.Bytes, limit))
	}
	if msg.Bytes < 0 {
		panic("can: negative payload size")
	}
	q := b.pool.Get()
	q.msg = msg
	q.enqueued = b.k.Now()
	q.seq = b.seq
	b.seq++
	if b.tap != nil {
		q.span = b.tap.FrameEnqueued(b.cfg.Name, &q.msg, q.enqueued)
	}
	b.pending = append(b.pending, q)
	b.arbitrate()
}

// FrameBits returns the on-wire size of a standard (11-bit ID) data frame
// with n payload bytes: 47 framing bits + 8n data bits, plus worst-case
// stuff bits ⌊(34+8n−1)/4⌋ when enabled.
func FrameBits(n int, worstCaseStuffing bool) int64 {
	bits := int64(47 + 8*n)
	if worstCaseStuffing {
		bits += int64((34 + 8*n - 1) / 4)
	}
	return bits
}

// FrameTime returns the transmission time of an n-byte frame on this bus
// (classic or FD framing, per the bus configuration).
func (b *Bus) FrameTime(n int) sim.Duration {
	if b.fd {
		return FDFrameTime(n, b.cfg.BitsPerSecond, b.dataBps)
	}
	bits := FrameBits(n, b.cfg.WorstCaseStuffing)
	return sim.Duration((bits*1_000_000_000 + b.cfg.BitsPerSecond - 1) / b.cfg.BitsPerSecond)
}

// arbitrate starts the highest-priority pending frame if the bus is idle.
// Lower arbitration ID wins; ties (same ID from different stations would
// be a config error on real CAN) break by enqueue order. Sequence numbers
// are unique, so the minimum (ID, seq) is the one winner a stable sort
// by ID would put first, and pending can stay unordered.
func (b *Bus) arbitrate() {
	if b.busy || len(b.pending) == 0 {
		return
	}
	w := 0
	for i := 1; i < len(b.pending); i++ {
		if before(b.pending[i], b.pending[w]) {
			w = i
		}
	}
	q := b.pending[w]
	last := len(b.pending) - 1
	b.pending[w] = b.pending[last]
	b.pending[last] = nil
	b.pending = b.pending[:last]
	b.busy = true
	ft := b.FrameTime(q.msg.Bytes)
	b.ArbitrationQ.AddDuration(b.k.Now().Sub(q.enqueued))
	b.FramesSent++
	b.BitsSent += FrameBits(q.msg.Bytes, b.cfg.WorstCaseStuffing)
	b.BusyTime += ft
	if b.k.Tracing() {
		b.k.TraceLine("can", sim.TraceLine{Form: sim.LineCANTx,
			S: [3]string{b.cfg.Name, q.msg.Src}, I: [3]int64{int64(q.msg.ID), int64(q.msg.Bytes), int64(ft)}})
	}
	if b.tap != nil {
		b.tap.FrameTxStart(b.cfg.Name, q.span, b.k.Now())
	}
	q.lost = b.rng != nil && b.rng.Bool(b.cfg.FrameLossRate)
	b.k.AfterCall(ft, b.txDoneFn, q)
}

// before orders frames for arbitration: by ID, then by enqueue order.
func before(x, y *queued) bool {
	if x.msg.ID != y.msg.ID {
		return x.msg.ID < y.msg.ID
	}
	return x.seq < y.seq
}

// txDone ends the transmission of the frame record arg: it delivers the
// frame (or accounts its loss), recycles the record and arbitrates the
// next frame.
func (b *Bus) txDone(arg any) {
	q := arg.(*queued)
	b.busy = false
	if q.lost {
		b.FramesLost++
		if b.k.Tracing() {
			b.k.Trace("can", "%s: id=%#x destroyed by bus error", b.cfg.Name, q.msg.ID)
		}
		if b.tap != nil {
			b.tap.FrameLost(b.cfg.Name, q.span, &q.msg, "bus-error", b.k.Now())
		}
	} else {
		b.deliver(q)
	}
	b.pool.Put(q)
	b.arbitrate()
}

func (b *Bus) deliver(q *queued) {
	d := network.Delivery{Msg: q.msg, Enqueued: q.enqueued, Delivered: b.k.Now()}
	if q.msg.Dst != "" {
		if rx, ok := b.rx[q.msg.Dst]; ok {
			if b.tap != nil {
				b.tap.FrameDelivered(b.cfg.Name, q.span, &q.msg, q.msg.Dst, b.k.Now())
			}
			rx(d)
		} else if b.tap != nil {
			b.tap.FrameLost(b.cfg.Name, q.span, &q.msg, "no-receiver", b.k.Now())
		}
		return
	}
	// CAN is a broadcast medium: everyone but the sender receives.
	for _, n := range b.stations {
		if n == q.msg.Src {
			continue
		}
		if b.tap != nil {
			b.tap.FrameDelivered(b.cfg.Name, q.span, &q.msg, n, b.k.Now())
		}
		b.rx[n](d)
	}
}

// Utilization returns the fraction of elapsed time the bus was busy.
func (b *Bus) Utilization() float64 {
	if b.k.Now() == 0 {
		return 0
	}
	return float64(b.BusyTime) / float64(b.k.Now())
}

// PendingFrames returns the current arbitration backlog length.
func (b *Bus) PendingFrames() int { return len(b.pending) }
