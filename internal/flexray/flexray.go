// Package flexray simulates a FlexRay bus: a fixed-length communication
// cycle with a time-triggered static TDMA segment and a priority-ordered
// dynamic minislot segment. It implements network.Network.
//
// The paper (Section 5.3) cites exactly this combination as the classic
// way to partition deterministic from non-deterministic communication:
// ClassControl messages ride pre-assigned static slots, everything else
// arbitrates in the dynamic segment by ascending frame ID.
package flexray

import (
	"fmt"
	"sort"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Config parameterizes a FlexRay cluster.
type Config struct {
	Name string
	// BitsPerSecond is the channel rate (FlexRay: typically 10 Mbps).
	BitsPerSecond int64
	// SlotLength is the static slot duration.
	SlotLength sim.Duration
	// StaticSlots is the number of static slots per cycle.
	StaticSlots int
	// StaticPayload is the fixed payload capacity of a static slot.
	StaticPayload int
	// MinislotLength is the dynamic-segment minislot duration.
	MinislotLength sim.Duration
	// Minislots is the number of minislots per cycle.
	Minislots int
}

// DefaultConfig returns a 10 Mbps cluster with a 5 ms cycle:
// 40 static slots of 100 µs and 100 minislots of 10 µs.
func DefaultConfig(name string) Config {
	return Config{
		Name:           name,
		BitsPerSecond:  10_000_000,
		SlotLength:     100 * sim.Microsecond,
		StaticSlots:    40,
		StaticPayload:  32,
		MinislotLength: 10 * sim.Microsecond,
		Minislots:      100,
	}
}

// CycleLength returns the total communication-cycle duration.
func (c Config) CycleLength() sim.Duration {
	return sim.Duration(c.StaticSlots)*c.SlotLength +
		sim.Duration(c.Minislots)*c.MinislotLength
}

// Bus is a simulated FlexRay cluster.
type Bus struct {
	cfg Config
	k   *sim.Kernel
	rx  map[string]network.Receiver
	// slotOwner maps static slot index → owning station.
	slotOwner map[int]string
	staticQ   map[string][]*queued // per station
	dynamicQ  []*queued
	seq       uint64
	started   bool
	// ticker drives the cyclic schedule; held so Stop can tear the bus
	// down instead of ticking forever (dynalint droppedref).
	ticker *sim.Ticker

	// Stats
	StaticSent  int64
	DynamicSent int64
	// StaticLatency and DynamicLatency sample enqueue→delivery times.
	StaticLatency  sim.Sample
	DynamicLatency sim.Sample
	// DynamicDeferred counts frames that could not fit in their cycle's
	// remaining minislots.
	DynamicDeferred int64

	tap network.Tap // the kernel's frame tap (network.TapOf); nil unobserved
}

type queued struct {
	msg      network.Message
	enqueued sim.Time
	seq      uint64
	span     uint64
}

// New creates a FlexRay bus on the kernel. The cyclic schedule starts
// lazily with the first Send.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.StaticSlots <= 0 || cfg.SlotLength <= 0 {
		panic("flexray: static segment must be configured")
	}
	if cfg.BitsPerSecond <= 0 {
		cfg.BitsPerSecond = 10_000_000
	}
	return &Bus{
		cfg:       cfg,
		k:         k,
		rx:        map[string]network.Receiver{},
		slotOwner: map[int]string{},
		staticQ:   map[string][]*queued{},
		tap:       network.TapOf(k),
	}
}

// Name implements network.Network.
func (b *Bus) Name() string { return b.cfg.Name }

// Attach implements network.Network.
func (b *Bus) Attach(station string, rx network.Receiver) { b.rx[station] = rx }

// AssignSlot reserves static slot idx for the station. Slots are the
// design-time TDMA schedule; assigning an owned slot panics.
func (b *Bus) AssignSlot(idx int, station string) {
	if idx < 0 || idx >= b.cfg.StaticSlots {
		panic(fmt.Sprintf("flexray: slot %d out of range [0,%d)", idx, b.cfg.StaticSlots))
	}
	if owner, ok := b.slotOwner[idx]; ok {
		panic(fmt.Sprintf("flexray: slot %d already owned by %s", idx, owner))
	}
	b.slotOwner[idx] = station
}

// Send implements network.Network. ClassControl messages require the
// source to own at least one static slot and to fit the static payload;
// other classes go to the dynamic segment.
func (b *Bus) Send(msg network.Message) {
	if _, ok := b.rx[msg.Src]; !ok {
		panic(fmt.Sprintf("flexray: source %q not attached", msg.Src))
	}
	q := &queued{msg: msg, enqueued: b.k.Now(), seq: b.seq}
	b.seq++
	if b.tap != nil {
		q.span = b.tap.FrameEnqueued(b.cfg.Name, &q.msg, q.enqueued)
	}
	if msg.Class == network.ClassControl {
		if msg.Bytes > b.cfg.StaticPayload {
			panic(fmt.Sprintf("flexray: control payload %dB exceeds static slot %dB",
				msg.Bytes, b.cfg.StaticPayload))
		}
		if !b.ownsSlot(msg.Src) {
			panic(fmt.Sprintf("flexray: %s owns no static slot", msg.Src))
		}
		b.staticQ[msg.Src] = append(b.staticQ[msg.Src], q)
	} else {
		b.dynamicQ = append(b.dynamicQ, q)
	}
	b.start()
}

func (b *Bus) ownsSlot(station string) bool {
	for _, s := range b.slotOwner {
		if s == station {
			return true
		}
	}
	return false
}

// start launches the cyclic schedule aligned to cycle boundaries.
func (b *Bus) start() {
	if b.started {
		return
	}
	b.started = true
	cycle := b.cfg.CycleLength()
	// Align to the next cycle boundary.
	now := b.k.Now()
	next := (sim.Duration(now) + cycle - 1) / cycle * cycle
	b.ticker = b.k.Every(sim.Time(next), cycle, b.runCycle)
}

// Stop halts the cyclic schedule. Frames already slotted into the
// current cycle still deliver; no further cycles run. A later Send
// restarts the schedule at the next cycle boundary.
func (b *Bus) Stop() {
	if !b.started {
		return
	}
	b.started = false
	b.ticker.Stop()
	b.ticker = nil
}

// runCycle executes one communication cycle starting now.
func (b *Bus) runCycle() {
	cycleStart := b.k.Now()
	// Static segment: each slot fires at its offset; the frame queued
	// longest for the owning station is transmitted.
	for idx := 0; idx < b.cfg.StaticSlots; idx++ {
		owner, ok := b.slotOwner[idx]
		if !ok {
			continue
		}
		slotIdx := idx
		slotEnd := cycleStart.Add(sim.Duration(slotIdx+1) * b.cfg.SlotLength)
		b.k.At(slotEnd, func() {
			queue := b.staticQ[owner]
			if len(queue) == 0 {
				return
			}
			q := queue[0]
			// Only frames enqueued before the slot began may use it.
			slotStart := slotEnd.Add(-b.cfg.SlotLength)
			if q.enqueued > slotStart {
				return
			}
			b.staticQ[owner] = queue[1:]
			b.StaticSent++
			b.StaticLatency.AddDuration(b.k.Now().Sub(q.enqueued))
			if b.k.Tracing() {
				b.k.Trace("flexray", "%s: static slot %d %s %dB", b.cfg.Name, slotIdx, owner, q.msg.Bytes)
			}
			if b.tap != nil {
				b.tap.FrameTxStart(b.cfg.Name, q.span, slotEnd.Add(-b.cfg.SlotLength))
			}
			b.deliver(q)
		})
	}
	// Dynamic segment: minislot arbitration in ascending frame-ID order.
	dynStart := cycleStart.Add(sim.Duration(b.cfg.StaticSlots) * b.cfg.SlotLength)
	b.k.At(dynStart, func() { b.runDynamic(dynStart) })
}

func (b *Bus) runDynamic(dynStart sim.Time) {
	// Snapshot: only frames already queued at segment start arbitrate.
	var ready []*queued
	var later []*queued
	for _, q := range b.dynamicQ {
		if q.enqueued <= dynStart {
			ready = append(ready, q)
		} else {
			later = append(later, q)
		}
	}
	sort.SliceStable(ready, func(i, j int) bool {
		if ready[i].msg.ID != ready[j].msg.ID {
			return ready[i].msg.ID < ready[j].msg.ID
		}
		return ready[i].seq < ready[j].seq
	})
	msLeft := b.cfg.Minislots
	offset := sim.Duration(0)
	var deferred []*queued
	for _, q := range ready {
		tx := network.TxTime(q.msg.Bytes, b.cfg.BitsPerSecond)
		need := int((tx + b.cfg.MinislotLength - 1) / b.cfg.MinislotLength)
		if need < 1 {
			need = 1
		}
		if need > msLeft {
			// Does not fit this cycle: consumes one empty minislot
			// (its slot counter passes) and waits.
			if msLeft > 0 {
				msLeft--
				offset += b.cfg.MinislotLength
			}
			deferred = append(deferred, q)
			b.DynamicDeferred++
			continue
		}
		msLeft -= need
		offset += sim.Duration(need) * b.cfg.MinislotLength
		end := dynStart.Add(offset)
		q := q
		b.DynamicSent++
		b.k.At(end, func() {
			b.DynamicLatency.AddDuration(b.k.Now().Sub(q.enqueued))
			if b.k.Tracing() {
				b.k.Trace("flexray", "%s: dynamic id=%#x %s %dB", b.cfg.Name, q.msg.ID, q.msg.Src, q.msg.Bytes)
			}
			if b.tap != nil {
				b.tap.FrameTxStart(b.cfg.Name, q.span, b.k.Now())
			}
			b.deliver(q)
		})
	}
	b.dynamicQ = append(deferred, later...)
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
	names := make([]string, 0, len(b.rx))
	for n := range b.rx {
		if n != q.msg.Src {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if b.tap != nil {
			b.tap.FrameDelivered(b.cfg.Name, q.span, &q.msg, n, b.k.Now())
		}
		b.rx[n](d)
	}
}
