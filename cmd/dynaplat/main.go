// Command dynaplat drives the model toolchain:
//
//	dynaplat check <model.dsl>                   validate a model, print findings
//	dynaplat matrix <model.dsl>                  print the derived access matrix
//	dynaplat simulate <model.dsl> [-virtual 5s]  deploy and simulate, print stats
//	dynaplat explore <model.dsl> [-method M]     run DSE (greedy|anneal|exhaustive)
//	dynaplat schedule <model.dsl>                print synthesized TT tables
//	dynaplat pareto <model.dsl>                  print the multi-objective front
//	dynaplat generate <model.dsl> [-out DIR]     emit app stubs + middleware config
//
// Exit status: 0 on success, 1 when the model or its analysis fails, 2 on
// a usage error or an unreadable model.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dynaplat"
	"dynaplat/internal/codegen"
	"dynaplat/internal/dse"
	"dynaplat/internal/model"
	"dynaplat/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a command-line mistake (exit 2) as opposed to a model or
// analysis failure (exit 1).
var errUsage = errors.New("usage")

var commands = map[string]func(sys *model.System, args []string, out io.Writer) error{
	"check":    check,
	"matrix":   matrix,
	"simulate": simulate,
	"explore":  explore,
	"schedule": schedule,
	"pareto":   pareto,
	"generate": generate,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || commands[args[0]] == nil {
		fmt.Fprintln(stderr,
			"usage: dynaplat {check|matrix|simulate|explore|schedule|pareto|generate} <model.dsl> [flags]")
		return 2
	}
	src, err := os.ReadFile(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "dynaplat:", err)
		return 2
	}
	sys, err := dynaplat.ParseModel(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "dynaplat:", err)
		return 2
	}
	if err := commands[args[0]](sys, args[2:], stdout); err != nil {
		fmt.Fprintln(stderr, "dynaplat:", err)
		if errors.Is(err, errUsage) {
			return 2
		}
		return 1
	}
	return 0
}

// parseFlags parses a subcommand's flags, reporting failures as usage
// errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %s: %v", errUsage, fs.Name(), err)
	}
	return nil
}

func check(sys *model.System, _ []string, out io.Writer) error {
	rep := model.Validate(sys)
	for _, f := range rep.Findings {
		fmt.Fprintln(out, f)
	}
	if !rep.OK() {
		return fmt.Errorf("model %s has errors", sys.Name)
	}
	fmt.Fprintf(out, "model %s: %d ECUs, %d networks, %d apps, %d interfaces — OK\n",
		sys.Name, len(sys.ECUs), len(sys.Networks), len(sys.Apps), len(sys.Interfaces))
	return nil
}

func matrix(sys *model.System, _ []string, out io.Writer) error {
	fmt.Fprint(out, model.ExtractAccessMatrix(sys))
	return nil
}

// simulate instantiates the model through the facade (its networks,
// middleware, nodes and offered interfaces, exactly as the examples do),
// starts every app, and prints per-app statistics.
func simulate(sys *model.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	virtual := fs.String("virtual", "5s", "virtual time to simulate (e.g. 500ms, 5s)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	d, err := model.ParseDuration(*virtual)
	if err != nil {
		return fmt.Errorf("%w: -virtual: %v", errUsage, err)
	}
	s, err := dynaplat.FromModel(sys, dynaplat.Options{Seed: *seed})
	if err != nil {
		return err
	}
	if err := s.StartAll(); err != nil {
		return err
	}
	s.Run(d)
	fmt.Fprintf(out, "simulated %v of %s (%d events)\n", d, sys.Name, s.Kernel.EventCount)
	for _, ecu := range s.Platform.Nodes() {
		node := s.Node(ecu)
		fmt.Fprintf(out, "%s (util %.2f):\n", ecu, node.Utilization())
		for _, app := range node.Apps() {
			inst := node.App(app)
			if inst.Spec.Kind == model.Deterministic {
				fmt.Fprintf(out, "  %-16s acts=%-6d misses=%-4d resp p100=%v\n",
					app, inst.Activations, inst.Misses,
					inst.Response.MaxDuration())
			} else {
				fmt.Fprintf(out, "  %-16s jobs=%d\n", app, inst.JobsDone)
			}
		}
	}
	return nil
}

func explore(sys *model.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	method := fs.String("method", "anneal", "greedy|anneal|exhaustive")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	w := dse.DefaultWeights()
	var res dse.Result
	switch *method {
	case "greedy":
		res = dse.Greedy(sys, w)
	case "anneal":
		res = dse.Anneal(sys, w, dse.DefaultAnnealConfig())
	case "exhaustive":
		var err error
		if res, err = dse.Exhaustive(sys, w, 0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown method %q", errUsage, *method)
	}
	if !res.Feasible {
		return errors.New("no feasible placement found")
	}
	fmt.Fprintf(out, "method=%s evaluations=%d cost=%.2f ecus=%d maxutil=%.2f cross=%.2fMbps\n",
		*method, res.Evaluated, res.Cost.Total, res.Cost.UsedECUs,
		res.Cost.MaxUtil, res.Cost.CrossMbps)
	apps := make([]string, 0, len(res.Placement))
	for a := range res.Placement {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		fmt.Fprintf(out, "  %-20s -> %s\n", a, res.Placement[a])
	}
	return nil
}

// schedule synthesizes and prints the time-triggered table of every RTOS
// ECU with placed deterministic apps.
func schedule(sys *model.System, _ []string, out io.Writer) error {
	if rep := model.Validate(sys); !rep.OK() {
		return fmt.Errorf("model invalid: %v", rep.Errors()[0])
	}
	for _, ecu := range sys.ECUs {
		tasks := ecu.Tasks(sys.AppsOn(ecu.Name))
		if len(tasks) == 0 {
			continue
		}
		tbl, err := sched.Synthesize(tasks, 0)
		if err != nil {
			return fmt.Errorf("%s: %v", ecu.Name, err)
		}
		if err := tbl.Verify(tasks); err != nil {
			return fmt.Errorf("%s: verification failed: %v", ecu.Name, err)
		}
		fmt.Fprintf(out, "%s: %s", ecu.Name, tbl)
	}
	return nil
}

// pareto prints the multi-objective trade-off front.
func pareto(sys *model.System, _ []string, out io.Writer) error {
	front := dse.ParetoFront(sys, 0, 1)
	if len(front) == 0 {
		return errors.New("no feasible placement")
	}
	fmt.Fprintf(out, "%-4s %-9s %-9s %-10s\n", "#", "ecu-cost", "max-util", "cross-mbps")
	for i, p := range front {
		fmt.Fprintf(out, "%-4d %-9d %-9.2f %-10.2f\n",
			i+1, p.Cost.ECUCost, p.Cost.MaxUtil, p.Cost.CrossMbps)
	}
	return nil
}

// generate writes application stubs and the middleware configuration
// derived from the model (§2.2's "generate code stubs, configurations
// for communication stacks").
func generate(sys *model.System, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	outDir := fs.String("out", "gen-out", "output directory")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	files, err := codegen.GenerateAll(sys)
	if err != nil {
		return err
	}
	files["gen/middleware.conf"] = codegen.MiddlewareConfig(sys)
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		full := filepath.Join(*outDir, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(files[p]), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", full)
	}
	return nil
}
