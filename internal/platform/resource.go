package platform

import (
	"sort"

	"dynaplat/internal/sim"
)

// Resource models exclusive hardware access arbitration (Section 3.1
// "Hardware Access & Communication"): crypto modules, persistent memory
// and similar shared devices. Requests queue by priority — deterministic
// applications' urgent accesses overtake queued bulk work, though an
// in-service request is never preempted (bounded inversion).
type Resource struct {
	Name string
	k    *sim.Kernel

	queue []*resRequest
	busy  bool
	seq   uint64

	// Served counts completed acquisitions; Wait samples queueing delay
	// per priority class.
	Served   int64
	WaitHigh sim.Stats
	WaitLow  sim.Stats
}

type resRequest struct {
	prio     int // 0 = deterministic/urgent, 1 = background
	hold     sim.Duration
	enqueued sim.Time
	seq      uint64
	fn       func()
}

// NewResource creates a named exclusive resource.
func NewResource(k *sim.Kernel, name string) *Resource {
	return &Resource{Name: name, k: k}
}

// AcquireUrgent requests the resource at deterministic priority for hold
// virtual time; fn runs when access is granted (before the hold elapses).
func (r *Resource) AcquireUrgent(hold sim.Duration, fn func()) { r.acquire(0, hold, fn) }

// AcquireBulk requests the resource at background priority.
func (r *Resource) AcquireBulk(hold sim.Duration, fn func()) { r.acquire(1, hold, fn) }

func (r *Resource) acquire(prio int, hold sim.Duration, fn func()) {
	if hold <= 0 {
		hold = sim.Nanosecond
	}
	r.queue = append(r.queue, &resRequest{
		prio: prio, hold: hold, enqueued: r.k.Now(), seq: r.seq, fn: fn,
	})
	r.seq++
	r.serve()
}

func (r *Resource) serve() {
	if r.busy || len(r.queue) == 0 {
		return
	}
	sort.SliceStable(r.queue, func(i, j int) bool {
		if r.queue[i].prio != r.queue[j].prio {
			return r.queue[i].prio < r.queue[j].prio
		}
		return r.queue[i].seq < r.queue[j].seq
	})
	req := r.queue[0]
	r.queue = r.queue[1:]
	r.busy = true
	wait := r.k.Now().Sub(req.enqueued)
	if req.prio == 0 {
		r.WaitHigh.AddDuration(wait)
	} else {
		r.WaitLow.AddDuration(wait)
	}
	if req.fn != nil {
		req.fn()
	}
	r.k.After(req.hold, func() {
		r.busy = false
		r.Served++
		r.serve()
	})
}

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.queue) }
