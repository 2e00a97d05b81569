package faults

import (
	"fmt"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// NetConfig parameterizes the frame-level fault model of a wrapped
// network.
type NetConfig struct {
	// LossRate drops each frame independently with this probability
	// before it reaches the medium (connector faults, TX buffer drops).
	// The underlying technologies' own error models (e.g. can.Config.
	// FrameLossRate, which occupies the bus) compose with this one.
	LossRate float64
	// CorruptRate flips one payload byte per affected frame when the
	// payload is a []byte — the E2E layer above may or may not catch it.
	// Frames whose payload is not a byte slice cannot be bit-flipped;
	// corruption destroys their framing instead, so they are dropped
	// (and separately counted in CorruptDropped).
	CorruptRate float64
}

// NetFaults wraps a network.Network with a deterministic fault
// interceptor. It implements network.Network itself, so the SOA
// middleware and raw senders use it exactly like the wrapped medium.
//
// Fault decisions are drawn from a private RNG split off the kernel's
// seed at wrap time; draws happen in Send order (total-ordered by the
// kernel), so the fault sequence is reproducible.
type NetFaults struct {
	k     *sim.Kernel
	inner network.Network
	cfg   NetConfig
	rng   *sim.RNG

	partitioned map[string]bool
	phantoms    map[string]bool // babble stations we attached ourselves

	// FramesDropped counts frames destroyed by injected loss.
	FramesDropped int64
	// FramesCorrupted counts delivered frames whose []byte payload was
	// bit-flipped. Every such frame is either caught by E2E protection
	// above or is silent corruption — the engine itself cannot tell.
	FramesCorrupted int64
	// CorruptDropped counts frames whose corruption destroyed non-byte
	// framing (dropped, surfacing as loss to the layer above).
	CorruptDropped int64
	// FramesBlocked counts frames suppressed by an active partition.
	FramesBlocked int64
	// BabbleFrames counts injected babbling-idiot frames.
	BabbleFrames int64
	// Passed counts frames handed to the wrapped medium unmodified.
	Passed int64

	// tap is the kernel's frame tap (network.TapOf), the one the wrapped
	// medium also holds. It is notified of frames the fault layer
	// destroys before they reach the medium. All uses are nil-checked.
	tap network.Tap
}

// WrapNetwork wraps net with the fault model. The interceptor draws its
// randomness from a stream split off the kernel RNG, so wrapping does
// not perturb draws made by other subsystems.
func WrapNetwork(k *sim.Kernel, net network.Network, cfg NetConfig) *NetFaults {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		cfg.LossRate = 0
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate >= 1 {
		cfg.CorruptRate = 0
	}
	return &NetFaults{
		k:           k,
		inner:       net,
		cfg:         cfg,
		rng:         k.RNG().Split(),
		partitioned: map[string]bool{},
		phantoms:    map[string]bool{},
		tap:         network.TapOf(k),
	}
}

// Name implements network.Network (transparent to the middleware).
func (f *NetFaults) Name() string { return f.inner.Name() }

// Config returns the active frame-fault configuration.
func (f *NetFaults) Config() NetConfig { return f.cfg }

// SetConfig swaps the frame-fault rates at runtime (campaign windows).
func (f *NetFaults) SetConfig(cfg NetConfig) {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		cfg.LossRate = 0
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate >= 1 {
		cfg.CorruptRate = 0
	}
	f.cfg = cfg
}

// Attach implements network.Network: the receiver is wrapped so a
// partitioned station also stops *hearing* traffic (including
// broadcasts), not just sending it.
func (f *NetFaults) Attach(station string, rx network.Receiver) {
	f.inner.Attach(station, func(d network.Delivery) {
		if f.partitioned[station] {
			f.FramesBlocked++
			return
		}
		rx(d)
	})
}

// Send implements network.Network, applying partition, loss and
// corruption in that order before handing the frame to the medium.
func (f *NetFaults) Send(msg network.Message) {
	if f.partitioned[msg.Src] {
		f.FramesBlocked++
		f.lost(msg, "partition")
		return
	}
	if f.cfg.LossRate > 0 && f.rng.Bool(f.cfg.LossRate) {
		f.FramesDropped++
		if f.k.Tracing() {
			f.k.Trace("faults", "net %s: dropped frame id=%#x %s->%s", f.Name(), msg.ID, msg.Src, msg.Dst)
		}
		f.lost(msg, "fault-loss")
		return
	}
	if f.cfg.CorruptRate > 0 && f.rng.Bool(f.cfg.CorruptRate) {
		if buf, ok := msg.Payload.([]byte); ok && len(buf) > 0 {
			// Flip one byte of a copy; the sender's buffer stays intact.
			mutated := append([]byte(nil), buf...)
			i := f.rng.Intn(len(mutated))
			mutated[i] ^= byte(1 + f.rng.Intn(255))
			msg.Payload = mutated
			f.FramesCorrupted++
			if f.k.Tracing() {
				f.k.Trace("faults", "net %s: corrupted byte %d of frame id=%#x", f.Name(), i, msg.ID)
			}
		} else {
			// Framing of an opaque payload destroyed: the receiver
			// discards the frame, i.e. corruption degrades to loss.
			f.CorruptDropped++
			if f.k.Tracing() {
				f.k.Trace("faults", "net %s: corruption destroyed frame id=%#x", f.Name(), msg.ID)
			}
			f.lost(msg, "corrupt-drop")
			return
		}
	}
	f.Passed++
	f.inner.Send(msg)
}

// lost reports a frame the fault layer discarded to the tap. Only the
// tapped copy m escapes to the heap; taking Send's own msg by address
// would move it to the heap on every call.
func (f *NetFaults) lost(msg network.Message, reason string) {
	if f.tap != nil {
		m := msg
		f.tap.FrameLost(f.Name(), 0, &m, reason, f.k.Now())
	}
}

// Partition cuts the stations off the network: frames from or to them
// are silently discarded until Heal. Unknown stations are fine — the
// partition applies when they first appear.
func (f *NetFaults) Partition(stations ...string) {
	for _, s := range stations {
		f.partitioned[s] = true
	}
}

// Heal reconnects previously partitioned stations.
func (f *NetFaults) Heal(stations ...string) {
	for _, s := range stations {
		delete(f.partitioned, s)
	}
}

// Partitioned reports whether a station is currently cut off.
func (f *NetFaults) Partitioned(station string) bool { return f.partitioned[station] }

// Babbler injects periodic load frames from a (usually phantom) station —
// the classic babbling-idiot failure a bus guardian must contain.
type Babbler struct {
	f      *NetFaults
	ticker *sim.Ticker
}

// StartBabble attaches station (with a discarding receiver, unless the
// caller attached it already) and floods the medium with self-addressed
// frames of the given class and size every period. The frames occupy the
// medium — arbitrating, filling queues, consuming gate windows — which
// is exactly the interference a babbling node causes.
func (f *NetFaults) StartBabble(station string, id uint32, class network.Class, bytes int, period sim.Duration) *Babbler {
	if period <= 0 {
		panic(fmt.Sprintf("faults: non-positive babble period %v", period))
	}
	if !f.phantoms[station] {
		f.phantoms[station] = true
		f.Attach(station, func(network.Delivery) {})
	}
	b := &Babbler{f: f}
	b.ticker = f.k.Every(f.k.Now(), period, func() {
		if f.partitioned[station] {
			// Compose order: partition beats babble. A babbler on a
			// partitioned link is contained — its frame never reaches
			// the medium and must NOT be counted as injected (it used
			// to inflate BabbleFrames even though Send blocked it,
			// making the injected/blocked accounting inconsistent).
			f.FramesBlocked++
			f.lost(network.Message{ID: id, Src: station, Dst: station, Class: class, Bytes: bytes}, "partition")
			return
		}
		f.BabbleFrames++
		f.Send(network.Message{
			ID: id, Src: station, Dst: station, Class: class, Bytes: bytes,
		})
	})
	return b
}

// Stop halts the babbler.
func (b *Babbler) Stop() { b.ticker.Stop() }
