package soa

// Criticality-aware overload admission (mesh.go). Every provider
// instance owns a backpressure-bounded wait queue; when the queue is
// full, the mesh sheds load in strict criticality order — the lowest-
// criticality queued call goes first, and calls at or above the
// protected level (ASIL-D) are never shed, even if that
// means exceeding the bound. Every admission decision is accounted:
// offered == served + shed + dead-lettered holds at quiescence
// (Mesh.Conserved), so an overload experiment can prove no call was
// silently dropped.

// Criticality ranks a mesh call for overload admission, mirroring the
// model's ASIL ladder (QM lowest). The mesh deliberately keeps its own
// scalar instead of importing the model package: callers map their app
// criticality once at the call site.
type Criticality uint8

const (
	// CritQM is unrated infotainment-class traffic (shed first).
	CritQM Criticality = iota
	// CritASILA .. CritASILD rank safety-relevant traffic.
	CritASILA
	CritASILB
	CritASILC
	// CritASILD is the highest criticality (never shed).
	CritASILD
)

// protectFrom is the criticality at or above which a call is never
// shed.
const protectFrom = CritASILD

func (c Criticality) String() string {
	switch c {
	case CritQM:
		return "QM"
	case CritASILA:
		return "ASIL-A"
	case CritASILB:
		return "ASIL-B"
	case CritASILC:
		return "ASIL-C"
	case CritASILD:
		return "ASIL-D"
	}
	return "?"
}

// admit places a routed call at its selected instance: dispatch if a
// service slot is free, otherwise queue, otherwise shed — lowest
// criticality first, protected criticalities never.
func (ms *Mesh) admit(inst *meshInstance, c *meshCall) {
	if inst.active < ms.cfg.Concurrency {
		ms.dispatch(inst, c)
		return
	}
	if ms.cfg.QueueDepth <= 0 || inst.queueLive() < ms.cfg.QueueDepth {
		inst.enqueue(c)
		return
	}
	// Queue full: the shed ordering invariant. A higher-criticality
	// arrival evicts the oldest call of the lowest queued criticality
	// class below its own; otherwise the arrival itself is shed —
	// unless it is protected, in which case it is admitted beyond the
	// bound (DA/ASIL-D is never the victim of backpressure).
	if v := inst.shedVictim(c.crit); v != nil {
		inst.removeQueued(v)
		ms.shedCall(v)
		inst.enqueue(c)
		return
	}
	if c.crit >= protectFrom {
		inst.enqueue(c)
		return
	}
	ms.shedCall(c)
}

// queueLive counts non-settled queued calls (stragglers that settled
// while waiting — budget expiry, late response from a prior attempt —
// are tombstones the pump discards).
func (i *meshInstance) queueLive() int {
	n := 0
	for _, c := range i.queue.Items() {
		if !c.settled {
			n++
		}
	}
	return n
}

func (i *meshInstance) enqueue(c *meshCall) {
	c.queuedOn = i
	i.queue.Push(c)
}

// shedVictim returns the oldest queued call of the lowest criticality
// class strictly below crit (and below the protected level), or nil if
// nothing qualifies.
func (i *meshInstance) shedVictim(crit Criticality) *meshCall {
	var victim *meshCall
	for _, q := range i.queue.Items() {
		if q.settled || q.crit >= crit || q.crit >= protectFrom {
			continue
		}
		if victim == nil || q.crit < victim.crit {
			victim = q
		}
	}
	return victim
}

// removeQueued drops one call from the wait queue (eviction path; the
// pump discards settled tombstones on its own).
func (i *meshInstance) removeQueued(c *meshCall) {
	for j, q := range i.queue.Items() {
		if q == c {
			i.queue.Delete(j)
			break
		}
	}
	c.queuedOn = nil
}
