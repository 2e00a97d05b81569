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
// fanning experiments out across a worker pool must produce byte-
// identical rendered tables to the serial run. One serial reference of
// every registered experiment (E1–E24) serves eleven pool rounds with
// varying worker counts, so goroutine interleaving gets repeated chances
// to perturb something. Under -race this also proves the experiments
// share no mutable state.
func TestSerialParallelByteIdentical(t *testing.T) {
	all := IDs()
	serial, err := RunTables(all, 1)
	if err != nil {
		t.Fatal(err)
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
// E1–E24 harness; on multicore hardware the parallel variant's wall
// time approaches serial/GOMAXPROCS.
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
