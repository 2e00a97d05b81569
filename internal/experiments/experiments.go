// Package experiments contains one runner per experiment in EXPERIMENTS.md
// (E1–E24), each reproducing a figure or claim of the paper on the
// simulated substrate and returning a printable result table.
//
// The paper is a vision paper without quantitative tables; the experiment
// definitions and the qualitative expectations they check are derived
// from its sections as documented in DESIGN.md §3.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/par"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Source  string // the paper figure/section reproduced
	Columns []string
	Rows    [][]string
	// Expectation states the qualitative paper claim this table checks.
	Expectation string
	// Holds reports whether the measured shape matches the expectation.
	Holds bool
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s  [%s]\n", t.ID, t.Title, t.Source)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(sb.String(), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	verdict := "HOLDS"
	if !t.Holds {
		verdict = "VIOLATED"
	}
	fmt.Fprintf(w, "  expectation: %s → %s\n\n", t.Expectation, verdict)
}

// MarshalJSON renders the table for machine consumers (CI dashboards).
func (t *Table) MarshalJSON() ([]byte, error) {
	type row map[string]string
	rows := make([]row, 0, len(t.Rows))
	for _, r := range t.Rows {
		m := row{}
		for i, c := range r {
			if i < len(t.Columns) {
				m[t.Columns[i]] = c
			}
		}
		rows = append(rows, m)
	}
	return json.Marshal(struct {
		ID          string `json:"id"`
		Title       string `json:"title"`
		Source      string `json:"source"`
		Expectation string `json:"expectation"`
		Holds       bool   `json:"holds"`
		Rows        []row  `json:"rows"`
	}{t.ID, t.Title, t.Source, t.Expectation, t.Holds, rows})
}

// Runner produces one experiment table. Runners are deterministic: every
// kernel they build comes from env.Kernel with a fixed seed, so env alone
// decides the observation of the run. A nil env is the plain run.
type Runner func(env *obs.Env) *Table

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 numeric ordering.
		return expNum(out[i]) < expNum(out[j])
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Run executes one experiment by ID.
func Run(id string) (*Table, error) { return RunEnv(id, nil) }

// RunEnv executes one experiment by ID with every kernel from env.
// Observation never changes the table.
func RunEnv(id string, env *obs.Env) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(env), nil
}

// ObsRun is one observed experiment run: its table and the Env that
// observed it (WriteTrace, WriteMetrics, Summary).
type ObsRun struct {
	Table *Table
	*obs.Env
}

// RunObserved executes one experiment with every kernel observed and no
// trace cap (DESIGN.md §7).
func RunObserved(id string) (*ObsRun, error) {
	env := &obs.Env{Observe: true}
	t, err := RunEnv(id, env)
	if err != nil {
		return nil, err
	}
	return &ObsRun{Table: t, Env: env}, nil
}

// RunTables executes the given experiments and returns their tables in
// the same order as ids. workers > 1 fans the runs out across a worker
// pool; each experiment builds its own seeded kernel, so the resulting
// tables are bit-identical to a serial run regardless of worker count or
// goroutine interleaving. workers <= 0 means GOMAXPROCS. workers bounds
// the experiments run at once; the cells of a plain sweep fan out on
// their own GOMAXPROCS pool (sweep).
//
// A panicking runner does not crash the process: the pool recovers it,
// lets in-flight siblings finish, and RunTables returns an error naming
// the experiment that failed (wrapping par.PanicError, so the original
// panic value and stack stay reachable).
func RunTables(ids []string, workers int) ([]*Table, error) {
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := registry[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
		runners[i] = r
	}
	out := make([]*Table, len(runners))
	if err := par.ForEach(len(runners), workers, func(i int) {
		out[i] = runners[i](nil)
	}); err != nil {
		if pe, ok := err.(*par.PanicError); ok {
			return nil, fmt.Errorf("experiments: %s panicked: %w", ids[pe.Index], pe)
		}
		return nil, err
	}
	return out, nil
}

// sweep computes cell(i) for every i in [0, n) and returns the results
// in index order. Each cell builds its own seeded kernel from env, so no
// cell depends on another and the results do not depend on which worker
// ran which cell. A plain run (nil env) fans the cells out across
// GOMAXPROCS workers. An Env records kernels in call order and is not
// safe for concurrent use, so a non-nil env runs the cells on the
// calling goroutine in index order, as a loop would. A panicking cell is
// re-panicked as the pool's *par.PanicError (cell index, value, stack),
// which RunTables reports under the experiment's ID.
func sweep[R any](env *obs.Env, n int, cell func(i int) R) []R {
	workers := 0
	if env != nil {
		workers = 1
	}
	out := make([]R, n)
	if err := par.ForEach(n, workers, func(i int) { out[i] = cell(i) }); err != nil {
		panic(err)
	}
	return out
}

// helpers shared by runners

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func itoa(v int64) string   { return fmt.Sprintf("%d", v) }
func boolStr(b bool) string { return map[bool]string{true: "yes", false: "no"}[b] }

// backboneVehicle describes a 100 Mbit/s Ethernet backbone and one
// 100 MHz RTOS ECU with memKB of memory per name in ecus.
func backboneVehicle(name string, memKB int, ecus ...string) *model.System {
	sys := model.NewSystem(name)
	sys.Networks = []*model.Network{{Name: "backbone", Kind: model.NetEthernet,
		BitsPerSecond: 100_000_000}}
	for _, e := range ecus {
		sys.ECUs = append(sys.ECUs, &model.ECU{Name: e, CPUMHz: 100, MemoryKB: memKB,
			HasMMU: true, OS: model.OSRTOS})
	}
	return sys
}
