package experiments

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dynaplat/internal/obs"
	"dynaplat/internal/par"
)

// renderTables renders a table slice the way exprun would.
func renderTables(tables []*Table) string {
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	return buf.String()
}

// compareSerialParallel asserts that the worker-pool run of ids is
// byte-identical to the serial reference run of the same ids.
func compareSerialParallel(t *testing.T, ids []string, serial []*Table, workers int) {
	t.Helper()
	par, err := RunTables(ids, workers)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := renderTables(serial), renderTables(par); s != p {
		t.Fatalf("workers=%d: serial and parallel renderings differ over %v", workers, ids)
	}
	for i := range serial {
		if serial[i].ID != par[i].ID || serial[i].Holds != par[i].Holds {
			t.Fatalf("workers=%d: table %d differs: %s/%v vs %s/%v", workers, i,
				serial[i].ID, serial[i].Holds, par[i].ID, par[i].Holds)
		}
	}
}

// TestSerialParallelByteIdentical is the harness determinism property:
// fanning experiments and their sweep cells out across worker pools must
// produce byte-identical rendered tables to a fully serial run. The
// reference runs every registered experiment (E1–E24) one at a time in
// a non-observing Env, so every sweep runs its cells in order on this
// goroutine; eleven pool rounds with varying worker counts, each also
// fanning out the cells of every plain sweep, give goroutine
// interleaving repeated chances to perturb something. Under -race this
// also proves that neither experiments nor cells share mutable state.
func TestSerialParallelByteIdentical(t *testing.T) {
	all := IDs()
	serial := make([]*Table, len(all))
	for i, id := range all {
		tb, err := RunEnv(id, &obs.Env{})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = tb
	}
	compareSerialParallel(t, all, serial, runtime.GOMAXPROCS(0)+2)
	for round := 1; round <= 10; round++ {
		compareSerialParallel(t, all, serial, 1+round%7)
	}
}

func TestRunTablesSubsetAndOrder(t *testing.T) {
	ids := []string{"E7", "E1", "E4"}
	tables, err := RunTables(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if tables[i].ID != id {
			t.Errorf("tables[%d].ID = %s, want %s (order must match request)", i, tables[i].ID, id)
		}
	}
}

// TestRunTablesPanicContained: a panicking runner must not crash the
// process or leave sibling workers running; RunTables returns an error
// naming the failing experiment instead.
func TestRunTablesPanicContained(t *testing.T) {
	register("E999", func(*obs.Env) *Table { panic("seeded runner explosion") })
	defer delete(registry, "E999")

	for _, workers := range []int{1, 4} {
		tables, err := RunTables([]string{"E1", "E999", "E2"}, workers)
		if err == nil {
			t.Fatalf("workers=%d: panicking runner produced no error (tables=%v)", workers, tables)
		}
		if !strings.Contains(err.Error(), "E999") {
			t.Errorf("workers=%d: error %q does not name the failing experiment", workers, err)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T does not wrap *par.PanicError", workers, err)
		}
		if pe.Value != "seeded runner explosion" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
	}
}

// TestSweepOrder: a plain sweep returns every cell's result at its own
// index whatever the worker count, including fewer cells than workers,
// a single cell and none.
func TestSweepOrder(t *testing.T) {
	for _, n := range []int{0, 1, runtime.GOMAXPROCS(0) - 1, runtime.GOMAXPROCS(0) + 5, 100} {
		got := sweep(nil, n, func(i int) int { return i * i })
		if len(got) != n {
			t.Fatalf("n=%d: %d results", n, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("n=%d: result %d = %d, want %d", n, i, v, i*i)
			}
		}
	}
}

// goroutineID returns the current goroutine's number from its stack
// header ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestSweepObservedSerial: with an Env, the cells run on the calling
// goroutine in index order, so the Env hands out kernels in the order a
// plain loop would.
func TestSweepObservedSerial(t *testing.T) {
	caller := goroutineID()
	var order []int
	got := sweep(&obs.Env{}, 8, func(i int) int {
		if id := goroutineID(); id != caller {
			t.Errorf("cell %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		order = append(order, i)
		return -i
	})
	for i := range order {
		if order[i] != i || got[i] != -i {
			t.Fatalf("cells ran in order %v with results %v", order, got)
		}
	}
	if len(order) != 8 {
		t.Fatalf("%d of 8 cells ran", len(order))
	}
}

// TestSweepPanicNamesExperiment: a cell that panics inside a plain sweep
// surfaces from RunTables as an error naming the experiment, whose
// *par.PanicError carries the sweep's own *par.PanicError with the cell
// index and the original panic value.
func TestSweepPanicNamesExperiment(t *testing.T) {
	register("E999", func(env *obs.Env) *Table {
		sweep(env, 8, func(i int) int {
			if i == 3 {
				panic("seeded cell explosion")
			}
			return i
		})
		return &Table{ID: "E999"}
	})
	defer delete(registry, "E999")

	for _, workers := range []int{1, 4} {
		_, err := RunTables([]string{"E1", "E999", "E2"}, workers)
		if err == nil || !strings.Contains(err.Error(), "E999") {
			t.Fatalf("workers=%d: error %v does not name the failing experiment", workers, err)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T does not wrap *par.PanicError", workers, err)
		}
		inner, ok := pe.Value.(*par.PanicError)
		if !ok {
			t.Fatalf("workers=%d: panic value %T is not the sweep's *par.PanicError", workers, pe.Value)
		}
		if inner.Index != 3 || inner.Value != "seeded cell explosion" {
			t.Errorf("workers=%d: inner panic = cell %d, %v; want cell 3, seeded cell explosion",
				workers, inner.Index, inner.Value)
		}
	}
}

func TestRunTablesUnknownID(t *testing.T) {
	if _, err := RunTables([]string{"E1", "E99"}, 2); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunTablesWorkerCounts(t *testing.T) {
	// Degenerate worker counts must all behave like serial.
	for _, workers := range []int{-1, 0, 1, 50} {
		tables, err := RunTables([]string{"E1", "E2"}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 2 || tables[0].ID != "E1" || tables[1].ID != "E2" {
			t.Errorf("workers=%d: bad result %v", workers, tables)
		}
	}
}

// BenchmarkRunAllSerial / BenchmarkRunAllParallel measure the full
// E1–E24 harness. The serial variant runs one experiment at a time, but
// the cells of the plain E1/E21/E22/E24 sweeps still fan out across
// GOMAXPROCS workers; run it under GOMAXPROCS=1 for a fully serial
// figure. On multicore hardware the parallel variant's wall time
// approaches serial/GOMAXPROCS.
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunTables(IDs(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunTables(IDs(), 0); err != nil {
			b.Fatal(err)
		}
	}
}
