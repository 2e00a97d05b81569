package tsn

import (
	"fmt"

	"dynaplat/internal/sim"
)

// Credit-based shaping (IEEE 802.1Qav): an audio/video stream class is
// throttled to a reserved bandwidth (the idle slope) so that it can
// neither starve lower classes nor burst into its own reservation's
// future. Together with the Qbv gates this completes the TSN toolbox the
// paper's Section 5.3 points at: time-triggered windows for control
// traffic, shaped classes for streams, strict priority for the rest.
//
// Credit mechanics per shaped queue:
//   - waiting (frames queued, not transmitting): credit rises at
//     idleSlope [bits/s]
//   - transmitting: credit falls at sendSlope = idleSlope − lineRate
//   - a frame may start only when credit ≥ 0
//   - empty queue with positive credit resets to 0 (no banking)

// CBSConfig reserves bandwidth for one priority queue.
type CBSConfig struct {
	// Queue is the shaped priority queue (e.g. QueuePriority for AV).
	Queue int
	// IdleSlopeBps is the reserved bandwidth in bits/s.
	IdleSlopeBps int64
}

type cbsState struct {
	idleSlope  int64
	creditBits float64
	lastUpdate sim.Time
}

// EnableCBS installs credit-based shaping on a queue at every egress
// port. Must be called before traffic flows.
func (n *Network) EnableCBS(cfg CBSConfig) error {
	if cfg.Queue < 0 || cfg.Queue >= NumQueues {
		return fmt.Errorf("tsn: CBS queue %d out of range", cfg.Queue)
	}
	if cfg.IdleSlopeBps <= 0 || cfg.IdleSlopeBps >= n.cfg.BitsPerSecond {
		return fmt.Errorf("tsn: CBS idle slope %d outside (0, line rate)", cfg.IdleSlopeBps)
	}
	for _, st := range n.order {
		st.egress.enableCBS(cfg)
	}
	n.cbsTemplates = append(n.cbsTemplates, cfg)
	return nil
}

func (l *link) enableCBS(cfg CBSConfig) {
	l.cbs[cfg.Queue] = &cbsState{idleSlope: cfg.IdleSlopeBps}
}

// cbsUpdate brings a shaped queue's credit to the current instant while
// the port is not transmitting that queue.
func (l *link) cbsUpdate(q int, now sim.Time) *cbsState {
	st := l.cbs[q]
	if st == nil {
		return nil
	}
	dt := now.Sub(st.lastUpdate)
	if dt > 0 {
		if l.queues[q].Len() > 0 {
			st.creditBits += float64(st.idleSlope) * dt.Seconds()
		} else if st.creditBits > 0 {
			st.creditBits = 0 // no banking while idle
		}
		st.lastUpdate = now
	}
	return st
}

// cbsEligible reports whether queue q may transmit now, and if not, when
// its credit reaches zero (zero Time when not shaped or not computable).
func (l *link) cbsEligible(q int, now sim.Time) (bool, sim.Time) {
	st := l.cbsUpdate(q, now)
	if st == nil {
		return true, 0
	}
	if st.creditBits >= 0 {
		return true, 0
	}
	needSec := -st.creditBits / float64(st.idleSlope)
	wake := now.Add(sim.Duration(needSec*1e9) + 1)
	return false, wake
}

// cbsCharge debits a completed transmission of txTime duration.
func (l *link) cbsCharge(q int, tx sim.Duration, lineRate int64) {
	st := l.cbs[q]
	if st == nil {
		return
	}
	// During transmission credit changes at sendSlope = idle − line.
	st.creditBits += (float64(st.idleSlope) - float64(lineRate)) * tx.Seconds()
	st.lastUpdate = st.lastUpdate.Add(tx)
}
