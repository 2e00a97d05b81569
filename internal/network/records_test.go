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
