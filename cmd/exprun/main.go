// Command exprun regenerates the experiment tables of EXPERIMENTS.md.
//
//	exprun                # run every experiment (parallel across cores)
//	exprun E4 E7          # run a subset
//	exprun -list          # list experiment IDs
//	exprun -json          # machine-readable output (one JSON object per line)
//	exprun -workers 1     # one experiment at a time
//	exprun -workers 4     # cap the worker pool
//	exprun -trace t.json -metrics m.txt E21
//	                      # observed run: Chrome trace + metrics dump
//	exprun -tracecap N    # bound retained trace records per kernel
//
// Experiments fan out across GOMAXPROCS workers by default, and the
// cells of the E1, E21, E22 and E24 sweeps fan out again inside each
// experiment; every experiment and every cell owns an independent
// simulation kernel, so parallel output is byte-identical to the serial
// run (tables are always emitted in canonical E1..E24 order).
//
// -workers 0 (the default) sizes the experiment pool to GOMAXPROCS,
// -workers 1 runs one experiment at a time and -workers N runs N
// workers; the cells of a sweep still use GOMAXPROCS workers. A fully
// serial run is GOMAXPROCS=1. Negative worker counts are rejected.
//
// -trace / -metrics switch to the observed serial harness (DESIGN.md
// §7): one obs.Env observes every kernel of the requested experiments
// — kernel trace lines, plus the network frame taps, SOA
// publish→deliver spans and platform completion slices of every layer
// a rig builds on its kernel — and a metrics summary follows the tables.
// Observation never changes results, and both output files are
// byte-identical across runs for the same experiment set.
//
// Exit status is non-zero when any experiment's paper-derived
// expectation is violated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"dynaplat/internal/experiments"
	"dynaplat/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workerCount resolves -workers to a pool size: 0 means GOMAXPROCS.
func workerCount(workers int) (int, error) {
	switch {
	case workers < 0:
		return 0, fmt.Errorf("-workers %d: worker count must be ≥ 0", workers)
	case workers == 0:
		return runtime.GOMAXPROCS(0), nil
	}
	return workers, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	asJSON := fs.Bool("json", false, "emit JSON lines instead of tables")
	workers := fs.Int("workers", 0, "experiments run at once (0 = GOMAXPROCS, 1 = one at a time; GOMAXPROCS=1 runs fully serial)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file (observed serial run)")
	metricsOut := fs.String("metrics", "", "write a plain-text metrics dump (observed serial run)")
	traceCap := fs.Int("tracecap", 0, "max retained trace records per kernel (0 = unbounded)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: exprun [flags] [experiment IDs]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}

	if *traceOut != "" || *metricsOut != "" {
		if err := runObserved(ids, *traceOut, *metricsOut, *traceCap, *asJSON, stdout); err != nil {
			fmt.Fprintln(stderr, "exprun:", err)
			return 2
		}
		return 0
	}

	n, err := workerCount(*workers)
	if err != nil {
		fmt.Fprintln(stderr, "exprun:", err)
		fs.Usage()
		return 2
	}
	tables, err := experiments.RunTables(ids, n)
	if err != nil {
		fmt.Fprintln(stderr, "exprun:", err)
		return 2
	}

	violations := 0
	enc := json.NewEncoder(stdout)
	for _, t := range tables {
		if *asJSON {
			if err := enc.Encode(t); err != nil {
				fmt.Fprintln(stderr, "exprun:", err)
				return 2
			}
		} else {
			t.Render(stdout)
		}
		if !t.Holds {
			violations++
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "exprun: %d expectation(s) violated\n", violations)
		return 1
	}
	return 0
}

// runObserved executes the requested experiments serially in one
// observing Env and writes its trace/metrics artifacts.
func runObserved(ids []string, traceOut, metricsOut string, traceCap int, asJSON bool, stdout io.Writer) error {
	env := &obs.Env{Observe: true, TraceCap: traceCap}
	violations := 0
	enc := json.NewEncoder(stdout)
	for _, id := range ids {
		t, err := experiments.RunEnv(id, env)
		if err != nil {
			return err
		}
		if asJSON {
			if err := enc.Encode(t); err != nil {
				return err
			}
		} else {
			t.Render(stdout)
		}
		if !t.Holds {
			violations++
		}
	}
	fmt.Fprintf(stdout, "  metrics: %s\n\n", env.Summary())
	if traceOut != "" {
		if err := writeFileBuffered(traceOut, env.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trace: %s (%d scopes)\n", traceOut, len(env.Scopes()))
	}
	if metricsOut != "" {
		if err := writeFileBuffered(metricsOut, env.WriteMetrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote metrics: %s\n", metricsOut)
	}
	if violations > 0 {
		return fmt.Errorf("%d expectation(s) violated", violations)
	}
	return nil
}

func writeFileBuffered(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
