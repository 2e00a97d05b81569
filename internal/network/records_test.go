package network

import (
	"slices"
	"testing"

	"dynaplat/internal/sim"
)

// TestFIFOOrder drives a FIFO through random pushes, pops and deletes,
// including drains and compactions of its reused backing array, against
// a plain slice.
func TestFIFOOrder(t *testing.T) {
	rng := sim.NewRNG(3)
	var q FIFO[int]
	var ref []int
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(6); {
		case len(ref) == 0 || op < 4:
			q.Push(i)
			ref = append(ref, i)
		case op == 4:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		default:
			j := rng.Intn(len(ref))
			q.Delete(j)
			ref = slices.Delete(ref, j, j+1)
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", i, q.Len(), len(ref))
		}
		if !slices.Equal(q.Items(), ref) {
			t.Fatalf("step %d: items %v, want %v", i, q.Items(), ref)
		}
		if len(ref) > 0 && q.Peek() != ref[0] {
			t.Fatalf("step %d: peek %d, want %d", i, q.Peek(), ref[0])
		}
		if len(ref) > 20 { // keep the queue short so it drains often
			for len(ref) > 0 {
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("step %d: drain popped %d, want %d", i, got, ref[0])
				}
				ref = ref[1:]
			}
		}
	}
}

// TestFIFOReusesBackingArray pins the point of FIFO: a queue that is
// pushed and popped in step stops allocating once warm.
func TestFIFOReusesBackingArray(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	step := func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	}
	step()
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Errorf("warm push/pop: %v allocs/op, want 0", a)
	}
}

// TestFIFOSteadyLength: a queue held at a steady length, one pop per
// push and never drained, grows its array to at least twice that length
// and then stops allocating, so it compacts (copying the queue) at most
// once per length pushes rather than on every push.
func TestFIFOSteadyLength(t *testing.T) {
	const n = 1000
	var q FIFO[int]
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	next := n
	step := func() {
		if got := q.Pop(); got != next-n {
			t.Fatalf("popped %d, want %d", got, next-n)
		}
		q.Push(next)
		next++
	}
	for i := 0; i < 4*n; i++ {
		step()
	}
	if cap(q.buf) < 2*n {
		t.Errorf("steady queue of %d has capacity %d, want at least %d", n, cap(q.buf), 2*n)
	}
	if a := testing.AllocsPerRun(10*n, step); a != 0 {
		t.Errorf("warm steady push/pop: %v allocs/op, want 0", a)
	}
}

// TestPoolRecycles pins the contract every pooled record relies on: an
// empty pool hands out a fresh record, Put zeroes every field (so a
// recycled record keeps nothing alive), and the next Get returns that
// same record (a fresh one under the norecycle tag).
func TestPoolRecycles(t *testing.T) {
	type rec struct {
		n    int
		next *rec
		arg  any
		text string
	}
	var p Pool[rec]
	r := p.Get()
	if *r != (rec{}) {
		t.Fatalf("Get on an empty pool returned %+v, want a zero record", *r)
	}
	if r2 := p.Get(); r2 == r {
		t.Fatal("two Gets on an empty pool returned the same record")
	}
	*r = rec{n: 7, next: &rec{}, arg: new(int), text: "x"}
	p.Put(r)
	if *r != (rec{}) {
		t.Errorf("Put left %+v, want every field zeroed", *r)
	}
	if got := p.Get(); (got == r) != recycle {
		t.Errorf("Get after Put returned the put record: %v, want %v", got == r, recycle)
	}
}
