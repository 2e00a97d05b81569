package network

import (
	"testing"

	"dynaplat/internal/sim"
)

// TestFIFOOrder drives a FIFO through random pushes and pops, including
// drains and compactions of its reused backing array, against a plain
// slice.
func TestFIFOOrder(t *testing.T) {
	rng := sim.NewRNG(3)
	var q FIFO[int]
	var ref []int
	for i := 0; i < 5000; i++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			q.Push(i)
			ref = append(ref, i)
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", i, q.Len(), len(ref))
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

// TestPoolRecycles pins the contract every pooled record relies on: an
// empty pool hands out a fresh record, Put zeroes every field (so a
// recycled record keeps nothing alive), and the next Get returns that
// same record.
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
	if got := p.Get(); got != r {
		t.Error("Get after Put returned a different record")
	}
}
