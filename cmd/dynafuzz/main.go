// Command dynafuzz is the driver for the seeded scenario fuzzer
// (internal/fuzz, DESIGN.md §12). It generates random-but-valid
// dynamic-platform scenarios as a pure function of a seed, runs each
// through the full stack three times (one plain and two observed runs;
// a fourth, plain run only labels a fingerprint mismatch), and checks
// the platform's universal properties: re-run byte-identity,
// observation neutrality (plus byte-identical trace/metrics artifacts),
// mesh conservation, quiesce (no leaked timers), and rollback
// byte-identity.
//
// A failure reproduces from (generator version, seed) alone and is
// auto-shrunk to a minimal failing spec before reporting.
//
// Usage:
//
//	dynafuzz [flags]
//
//	dynafuzz -seeds 200              sweep seeds 1..200 (the verify gate)
//	dynafuzz -seed 42                replay one seed, print its report
//	dynafuzz -seeds 5000 -budget 5m  wide sweep, stop drawing new seeds
//	                                 when the wall-clock budget is spent
//	dynafuzz -json -seed 42          machine-readable report
//
// Exit status: 0 clean, 1 property violations, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"dynaplat/internal/fuzz"
	"dynaplat/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynafuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 200, "sweep seeds 1..N through the oracle")
	seed := fs.Uint64("seed", 0, "replay exactly this seed instead of sweeping")
	budget := fs.Duration("budget", 0, "wall-clock budget; stop claiming new seeds once spent (0 = unlimited)")
	workers := fs.Int("workers", 0, "parallel oracle workers (0 = GOMAXPROCS; each seed runs on its own kernels)")
	jsonOut := fs.Bool("json", false, "emit the failure reports as JSON")
	noShrink := fs.Bool("noshrink", false, "skip auto-shrinking failing specs")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dynafuzz [flags]\n")
		fmt.Fprintf(stderr, "seeded scenario fuzzer for the platform's universal properties (DESIGN.md §12)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dynafuzz: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seeds <= 0 && *seed == 0 {
		fmt.Fprintln(stderr, "dynafuzz: -seeds must be positive")
		return 2
	}

	var todo []uint64
	if *seed != 0 {
		todo = []uint64{*seed}
	} else {
		for s := 1; s <= *seeds; s++ {
			todo = append(todo, uint64(s))
		}
	}

	start := time.Now()
	reports := make([]*fuzz.Report, len(todo))
	var skipped atomic.Int64
	err := par.ForEach(len(todo), *workers, func(i int) {
		if *budget > 0 && time.Since(start) > *budget {
			skipped.Add(1)
			return
		}
		rep := fuzz.CheckSeed(todo[i])
		reports[i] = &rep
	})
	if err != nil {
		fmt.Fprintf(stderr, "dynafuzz: %v\n", err)
		return 2
	}

	type failure struct {
		Seed       uint64           `json:"seed"`
		Version    int              `json:"generator_version"`
		Violations []fuzz.Violation `json:"violations"`
		Shrunk     *fuzz.Spec       `json:"shrunk,omitempty"`
	}
	var failures []failure
	checked := 0
	for i, rep := range reports {
		if rep == nil {
			continue // budget-skipped
		}
		checked++
		if !rep.Failed() {
			continue
		}
		f := failure{Seed: todo[i], Version: fuzz.Version, Violations: rep.Violations}
		if !*noShrink {
			shrunk := fuzz.Shrink(rep.Spec, func(s fuzz.Spec) bool {
				return fuzz.Check(s).Failed()
			})
			f.Shrunk = &shrunk
		}
		failures = append(failures, f)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Version  int       `json:"generator_version"`
			Checked  int       `json:"checked"`
			Skipped  int64     `json:"budget_skipped,omitempty"`
			Failures []failure `json:"failures"`
		}{fuzz.Version, checked, skipped.Load(), failures}); err != nil {
			fmt.Fprintf(stderr, "dynafuzz: %v\n", err)
			return 2
		}
	} else {
		for _, f := range failures {
			fmt.Fprintf(stdout, "seed %d (generator v%d): %d violation(s)\n",
				f.Seed, f.Version, len(f.Violations))
			for _, v := range f.Violations {
				fmt.Fprintf(stdout, "  %-24s %s\n", v.Property+":", v.Detail)
			}
			if f.Shrunk != nil {
				fmt.Fprintf(stdout, "  shrunk spec (replay: dynafuzz -seed %d):\n%s\n",
					f.Seed, f.Shrunk.Render())
			}
		}
		fmt.Fprintf(stdout, "dynafuzz: %d seed(s) checked, %d failing", checked, len(failures))
		if n := skipped.Load(); n > 0 {
			fmt.Fprintf(stdout, ", %d skipped (budget)", n)
		}
		fmt.Fprintln(stdout)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}
