package network

// Containers for pooled records and queues. The CAN, FlexRay and TSN
// simulators keep their frame records here, the SOA middleware its
// delivery and segmentation records and the platform its pending
// completions, so that each steady-state trip through those layers
// allocates nothing.

// Pool is a free list of records: the one recycling primitive of every
// layer above the kernel. The kernel is single-threaded, so it needs no
// locking (unlike sync.Pool, it also never drops records). The zero
// value is an empty pool.
//
// Put zeroes a record, so nothing a recycled record referenced is kept
// alive and Get always hands out a blank one. That is why the kernel's
// event slots are pooled separately (internal/sim): a slot must keep
// its generation across recycling, or a stale EventRef could cancel the
// slot's next event.
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed record, recycled when one is free.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(T)
}

// Put zeroes r, dropping what it references, and frees it for reuse.
// The caller must hold no other reference to r. Built with the
// norecycle tag, Put zeroes r and drops it, so every Get allocates: a
// record used after its Put then reads zeroes instead of a later user's
// fields, and any output that differs between the two builds shows a
// use after recycling.
func (p *Pool[T]) Put(r *T) {
	var zero T
	*r = zero
	if recycle {
		p.free = append(p.free, r)
	}
}

// FIFO is a first-in first-out queue for a network's frame records (and
// for the jobs waiting for a platform node's shared CPU, the calls
// waiting at a mesh instance and a service's served sessions). It
// pops by advancing a head index and reuses its backing array once
// drained, or compacts it when full, so a steady stream of frames never
// reallocates it (popping with q[1:] would shed capacity on every pop).
// It compacts only when at least half the array is popped slots, and
// grows otherwise, so a queue that never drains copies each element a
// bounded number of times instead of once per push.
// The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Peek returns the oldest element. The queue must not be empty.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.drained()
	return v
}

// Items returns the queued elements, oldest first. The slice aliases
// the queue and is valid until its next Push, Pop or Delete.
func (q *FIFO[T]) Items() []T { return q.buf[q.head:] }

// Delete removes Items()[i], keeping the order of the others.
func (q *FIFO[T]) Delete(i int) {
	n := copy(q.buf[q.head+i:], q.buf[q.head+i+1:])
	var zero T
	q.buf[q.head+i+n] = zero
	q.buf = q.buf[:q.head+i+n]
	q.drained()
}

// drained rewinds an emptied queue to the start of its backing array.
func (q *FIFO[T]) drained() {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}
