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
	"cmp"
	"fmt"
	"slices"

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
//
// Like can.Bus it moves frames without allocating in steady state:
// frame records come from a per-bus network.Pool, every slot and minislot
// transmission is an AtCall event with a pre-bound method, and
// broadcasts walk a sorted station snapshot.
type Bus struct {
	cfg Config
	k   *sim.Kernel
	rx  map[string]network.Receiver
	// slots[i] is static slot i's assignment, nil while unowned.
	slots []*slot
	// staticQ holds each slot-owning station's control frames; an
	// entry exists exactly for stations that own a slot.
	staticQ  map[string]*network.FIFO[*queued]
	dynamicQ []*queued
	// spare is the backing array runDynamic builds the next dynamicQ in.
	spare   []*queued
	seq     uint64
	started bool
	// ticker drives the cyclic schedule; held so Stop can tear the bus
	// down instead of ticking forever (dynalint droppedref).
	ticker *sim.Ticker

	// Stats
	StaticSent  int64
	DynamicSent int64
	// StaticLatency and DynamicLatency sample enqueue→delivery times.
	StaticLatency  sim.Stats
	DynamicLatency sim.Stats
	// DynamicDeferred counts frames that could not fit in their cycle's
	// remaining minislots.
	DynamicDeferred int64

	// stations lists the attached stations in sorted order, replaced
	// (never edited in place) by Attach; see network.InsertStation.
	stations []string
	pool     network.Pool[queued]
	// Pre-bound event handlers (bound once in New).
	staticFn, dynamicFn, dynTxFn func(any)

	tap network.Tap // the kernel's frame tap (network.TapOf); nil unobserved
}

// slot is one assigned static slot: the AtCall argument of its
// per-cycle transmission event.
type slot struct {
	idx   int
	owner string
	queue *network.FIFO[*queued] // the owner's static queue
}

// queued is one frame's pooled record. It returns to the pool after its
// last receiver returns, never earlier.
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
	b := &Bus{
		cfg:     cfg,
		k:       k,
		rx:      map[string]network.Receiver{},
		slots:   make([]*slot, cfg.StaticSlots),
		staticQ: map[string]*network.FIFO[*queued]{},
		tap:     network.TapOf(k),
	}
	b.staticFn = b.staticSlot
	b.dynamicFn = b.runDynamic
	b.dynTxFn = b.dynamicTx
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

// AssignSlot reserves static slot idx for the station. Slots are the
// design-time TDMA schedule; assigning an owned slot panics.
func (b *Bus) AssignSlot(idx int, station string) {
	if idx < 0 || idx >= b.cfg.StaticSlots {
		panic(fmt.Sprintf("flexray: slot %d out of range [0,%d)", idx, b.cfg.StaticSlots))
	}
	if s := b.slots[idx]; s != nil {
		panic(fmt.Sprintf("flexray: slot %d already owned by %s", idx, s.owner))
	}
	q := b.staticQ[station]
	if q == nil {
		q = &network.FIFO[*queued]{}
		b.staticQ[station] = q
	}
	b.slots[idx] = &slot{idx: idx, owner: station, queue: q}
}

// Send implements network.Network. ClassControl messages require the
// source to own at least one static slot and to fit the static payload;
// other classes go to the dynamic segment.
func (b *Bus) Send(msg network.Message) {
	if _, ok := b.rx[msg.Src]; !ok {
		panic(fmt.Sprintf("flexray: source %q not attached", msg.Src))
	}
	q := b.pool.Get()
	q.msg = msg
	q.enqueued = b.k.Now()
	q.seq = b.seq
	b.seq++
	if b.tap != nil {
		q.span = b.tap.FrameEnqueued(b.cfg.Name, &q.msg, q.enqueued)
	}
	if msg.Class == network.ClassControl {
		if msg.Bytes > b.cfg.StaticPayload {
			panic(fmt.Sprintf("flexray: control payload %dB exceeds static slot %dB",
				msg.Bytes, b.cfg.StaticPayload))
		}
		sq := b.staticQ[msg.Src]
		if sq == nil {
			panic(fmt.Sprintf("flexray: %s owns no static slot", msg.Src))
		}
		sq.Push(q)
	} else {
		b.dynamicQ = append(b.dynamicQ, q)
	}
	b.start()
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

// runCycle executes one communication cycle starting now: each owned
// static slot transmits at its end, then the dynamic segment arbitrates.
func (b *Bus) runCycle() {
	cycleStart := b.k.Now()
	for _, sl := range b.slots {
		if sl != nil {
			b.k.AtCall(cycleStart.Add(sim.Duration(sl.idx+1)*b.cfg.SlotLength), b.staticFn, sl)
		}
	}
	// Dynamic segment: minislot arbitration in ascending frame-ID order.
	b.k.AtCall(cycleStart.Add(sim.Duration(b.cfg.StaticSlots)*b.cfg.SlotLength), b.dynamicFn, nil)
}

// staticSlot fires at the end of static slot arg: the frame queued
// longest for the owning station is transmitted, if it was enqueued
// before the slot began.
func (b *Bus) staticSlot(arg any) {
	sl := arg.(*slot)
	if sl.queue.Len() == 0 {
		return
	}
	q := sl.queue.Peek()
	slotStart := b.k.Now().Add(-b.cfg.SlotLength)
	if q.enqueued > slotStart {
		return
	}
	sl.queue.Pop()
	b.StaticSent++
	b.StaticLatency.AddDuration(b.k.Now().Sub(q.enqueued))
	if b.k.Tracing() {
		b.k.Trace("flexray", "%s: static slot %d %s %dB", b.cfg.Name, sl.idx, sl.owner, q.msg.Bytes)
	}
	if b.tap != nil {
		b.tap.FrameTxStart(b.cfg.Name, q.span, slotStart)
	}
	b.deliver(q)
	b.pool.Put(q)
}

// runDynamic runs the dynamic segment starting now. Every frame queued
// so far arbitrates, by ascending (ID, enqueue order); frames sent during
// the segment wait for the next cycle. Each frame that fits the
// remaining minislots transmits at its end offset.
func (b *Bus) runDynamic(any) {
	dynStart := b.k.Now()
	deferred := b.spare[:0]
	// (ID, seq) is unique, so this unstable sort yields the one order a
	// stable sort by ID would.
	slices.SortFunc(b.dynamicQ, func(x, y *queued) int {
		if c := cmp.Compare(x.msg.ID, y.msg.ID); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	msLeft := b.cfg.Minislots
	offset := sim.Duration(0)
	for _, q := range b.dynamicQ {
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
		b.DynamicSent++
		b.k.AtCall(dynStart.Add(offset), b.dynTxFn, q)
	}
	clear(b.dynamicQ)
	b.spare = b.dynamicQ[:0]
	b.dynamicQ = deferred
}

// dynamicTx ends the dynamic-segment transmission of frame record arg.
func (b *Bus) dynamicTx(arg any) {
	q := arg.(*queued)
	b.DynamicLatency.AddDuration(b.k.Now().Sub(q.enqueued))
	if b.k.Tracing() {
		b.k.Trace("flexray", "%s: dynamic id=%#x %s %dB", b.cfg.Name, q.msg.ID, q.msg.Src, q.msg.Bytes)
	}
	if b.tap != nil {
		b.tap.FrameTxStart(b.cfg.Name, q.span, b.k.Now())
	}
	b.deliver(q)
	b.pool.Put(q)
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
