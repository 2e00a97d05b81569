package sim

// Event-queue internals: a monomorphic 4-ary heap over *event plus a
// free-list event pool so steady-state scheduling is allocation-free.
//
// Design notes (see DESIGN.md §"simulation substrate"):
//
//   - The 4-ary layout halves tree depth versus a binary heap and keeps
//     all children of a node adjacent in one cache line of pointers.
//     Sift-up and sift-down are specialized to the (time, priority, seq)
//     comparator: no interface boxing and no indirect Less/Swap calls,
//     which is what container/heap costs on every compare and swap.
//   - Canceled events are removed lazily: dropped when they surface at
//     the heap head, or swept in bulk (compaction) once more than half
//     the queue is dead. Because (time, priority, seq) is a strict total
//     order with a unique seq per event, re-heapifying after a sweep
//     cannot change the pop order.
//   - Fired and canceled events return to a free list. A generation
//     counter on each slot is bumped whenever the slot leaves the queue,
//     so a stale EventRef (cancel-after-fire, cancel of a recycled slot)
//     is detected by a generation mismatch and becomes a safe no-op.

// compactMinLen is the queue length below which lazy head-dropping is
// cheap enough that bulk compaction is not worth the sweep.
const compactMinLen = 64

// lessEv is the kernel's total order: earliest time first, then lowest
// priority value, then FIFO by sequence number. seq is unique, so the
// order is strict and pop order is independent of heap-internal layout.
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// push inserts ev into the heap, sifting up with the hole technique
// (move parents down into the hole, place ev once).
func (k *Kernel) push(ev *event) {
	q := append(k.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEv(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
	k.queue = q
}

// popHead removes and returns the heap minimum. The caller owns the
// returned event (its index is set to -1).
func (k *Kernel) popHead() *event {
	q := k.queue
	h := q[0]
	h.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
	return h
}

// siftDown fills the hole at index i with ev, moving smaller children up.
func (k *Kernel) siftDown(i int, ev *event) {
	q := k.queue
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEv(q[j], q[m]) {
				m = j
			}
		}
		if !lessEv(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = ev
	ev.index = int32(i)
}

// peekLive returns the earliest live event without removing it,
// dropping (and recycling) any canceled events that have surfaced at the
// head. It returns nil when no live events remain.
func (k *Kernel) peekLive() *event {
	for len(k.queue) > 0 {
		h := k.queue[0]
		if !h.canceled {
			return h
		}
		k.popHead()
		k.dead--
		k.release(h)
	}
	return nil
}

// alloc returns an event slot: from the pool when possible, then from
// the kernel's inline backing, then the heap.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		k.statReused++
		return ev
	}
	if int(k.ev0Used) < len(k.ev0) {
		ev := &k.ev0[k.ev0Used]
		k.ev0Used++
		ev.k = k
		ev.index = -1
		return ev
	}
	return &event{k: k, index: -1}
}

// release parks an event slot in the pool. Bumping the generation makes
// every outstanding EventRef to this slot stale.
func (k *Kernel) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fn1 = nil
	ev.arg = nil
	ev.tk = nil
	ev.canceled = false
	ev.index = -1
	k.free = append(k.free, ev)
}

// maybeCompact sweeps the queue when more than half of it is dead.
func (k *Kernel) maybeCompact() {
	if n := len(k.queue); n >= compactMinLen && k.dead*2 > n {
		k.compact()
	}
}

// compact removes all canceled events in one pass and re-heapifies.
func (k *Kernel) compact() {
	q := k.queue
	live := q[:0]
	for _, ev := range q {
		if ev.canceled {
			k.release(ev)
		} else {
			ev.index = int32(len(live))
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(q); i++ {
		q[i] = nil
	}
	k.queue = live
	k.dead = 0
	k.statCompactions++
	// Floyd heapify: sift down every internal node, bottom-up.
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i, live[i])
	}
}
