package sched

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dynaplat/internal/sim"
)

// refVerify is the original Table.Verify, which scans every slot for
// every job of every task. It is kept as the reference for the one-pass
// version: both must return the same error text, or nil, on any input.
func refVerify(t *Table, tasks []Task) error {
	for i := 1; i < len(t.Slots); i++ {
		if t.Slots[i].Start < t.Slots[i-1].End {
			return fmt.Errorf("sched: slots %d and %d overlap", i-1, i)
		}
	}
	for i := range tasks {
		task := &tasks[i]
		jobs := int((t.Hyperperiod - task.Offset + task.Period - 1) / task.Period)
		var starts []sim.Duration
		for j := 0; j < jobs; j++ {
			release := task.Offset + sim.Duration(j)*task.Period
			deadline := release + task.EffectiveDeadline()
			var got sim.Duration
			first := sim.Duration(-1)
			for _, s := range t.Slots {
				if s.Task != task.Name || s.Job != j {
					continue
				}
				if s.Start < release {
					return fmt.Errorf("sched: %s job %d starts %v before release %v",
						task.Name, j, s.Start, release)
				}
				if s.End > deadline {
					return fmt.Errorf("sched: %s job %d ends %v after deadline %v",
						task.Name, j, s.End, deadline)
				}
				if first < 0 {
					first = s.Start
				}
				got += s.Len()
			}
			if got < task.WCET {
				return fmt.Errorf("sched: %s job %d allocated %v < WCET %v",
					task.Name, j, got, task.WCET)
			}
			starts = append(starts, first-release)
		}
		if task.Jitter > 0 && len(starts) > 1 {
			lo, hi := starts[0], starts[0]
			for _, s := range starts[1:] {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if hi-lo > task.Jitter {
				return fmt.Errorf("sched: %s start jitter %v exceeds bound %v",
					task.Name, hi-lo, task.Jitter)
			}
		}
	}
	return nil
}

// refTimeline is the original timeline, which appends a reservation and
// re-sorts the whole list.
type refTimeline struct{ reserved []Slot }

func (tl *refTimeline) reserve(s Slot) {
	tl.reserved = append(tl.reserved, s)
	sort.Slice(tl.reserved, func(i, j int) bool { return tl.reserved[i].Start < tl.reserved[j].Start })
}

func (tl *refTimeline) isFree(start, end sim.Duration) bool {
	i := sort.Search(len(tl.reserved), func(i int) bool { return tl.reserved[i].End > start })
	return i >= len(tl.reserved) || tl.reserved[i].Start >= end
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// randomTaskSet draws 1..6 tasks with harmonic periods, optional offsets
// and optional jitter bounds, at most 85 % utilization.
func randomTaskSet(r *sim.RNG) []Task {
	periods := []sim.Duration{ms(5), ms(10), ms(20), ms(40)}
	n := r.Range(1, 6)
	var tasks []Task
	for i := 0; i < n; i++ {
		p := periods[r.Intn(len(periods))]
		wcet := sim.Duration(float64(p) * 0.85 / float64(n) * (0.2 + 0.8*r.Float64()))
		if wcet <= 0 {
			wcet = sim.Microsecond
		}
		task := Task{Name: string(rune('a' + i)), Period: p, WCET: wcet}
		if r.Bool(0.3) {
			task.Offset = sim.Duration(r.Intn(4)) * ms(1) / 4
		}
		if r.Bool(0.4) {
			task.Jitter = sim.Duration(r.Intn(3)) * ms(1)
		}
		tasks = append(tasks, task)
	}
	return tasks
}

// corruptTable returns copies of tbl's slots and tasks with one defect of
// the given kind planted at a random place.
func corruptTable(r *sim.RNG, tbl *Table, tasks []Task, kind string) (*Table, []Task) {
	out := &Table{Hyperperiod: tbl.Hyperperiod, Granularity: tbl.Granularity,
		Slots: append([]Slot(nil), tbl.Slots...)}
	ts := append([]Task(nil), tasks...)
	byName := map[string]*Task{}
	for i := range ts {
		byName[ts[i].Name] = &ts[i]
	}
	i := r.Intn(len(out.Slots))
	s := &out.Slots[i]
	task := byName[s.Task]
	release := task.Offset + sim.Duration(s.Job)*task.Period
	switch kind {
	case "early":
		s.Start = release - sim.Duration(r.Range(1, 500))*sim.Microsecond
	case "late":
		s.End = release + task.EffectiveDeadline() + sim.Duration(r.Range(1, 500))*sim.Microsecond
	case "short":
		s.End = s.Start + s.Len()/2
	case "jitter":
		// Slide the slot later into the idle time behind it, and tighten
		// the task's jitter bound to the smallest positive value.
		room := out.Hyperperiod - s.End
		if i+1 < len(out.Slots) {
			room = out.Slots[i+1].Start - s.End
		}
		if room > 0 {
			d := sim.Duration(r.Range(1, int(room)))
			s.Start += d
			s.End += d
		}
		task.Jitter = 1
	case "dupname":
		if len(ts) > 1 {
			a, b := r.Intn(len(ts)), r.Intn(len(ts))
			ts[a].Name = ts[b].Name
		}
	case "jobrange":
		jobs := int((out.Hyperperiod - task.Offset + task.Period - 1) / task.Period)
		if r.Bool(0.5) {
			s.Job = jobs + r.Intn(3)
		} else {
			s.Job = -1 - r.Intn(3)
		}
	}
	return out, ts
}

// TestVerifyMatchesReference compares the one-pass Verify with the
// original all-slots scan, error text for error text, on synthesized
// tables and on tables with one planted defect of each kind. Every error
// path must be reached at least once.
func TestVerifyMatchesReference(t *testing.T) {
	kinds := []string{"", "early", "late", "short", "jitter", "dupname", "jobrange"}
	seen := map[string]int{}
	for seed := uint64(1); seed <= 150; seed++ {
		r := sim.NewRNG(seed)
		tasks := randomTaskSet(r)
		tbl, err := Synthesize(tasks, ms(1)/4)
		if err != nil {
			continue
		}
		for _, kind := range kinds {
			ct, cts := tbl, tasks
			if kind != "" {
				ct, cts = corruptTable(r, tbl, tasks, kind)
			}
			want := errText(refVerify(ct, cts))
			got := errText(ct.Verify(cts))
			if got != want {
				t.Fatalf("seed %d, %q defect: Verify = %q, reference = %q", seed, kind, got, want)
			}
			for _, p := range []string{"<nil>", "overlap", "before release", "after deadline", "< WCET", "start jitter"} {
				if strings.Contains(got, p) {
					seen[p]++
				}
			}
		}
	}
	for _, p := range []string{"<nil>", "overlap", "before release", "after deadline", "< WCET", "start jitter"} {
		if seen[p] == 0 {
			t.Errorf("no case produced a %q result", p)
		}
	}
	t.Logf("results by kind: %v", seen)
}

// TestVerifyFirstErrorCorners pins the corners of the job grouping and
// the error order against the reference: tasks sharing a name with
// different job counts all read the name's slots, slots naming no task
// are ignored, a slot that is both early and late reports its release,
// and of two failing slots of one job the earlier one in the table wins.
func TestVerifyFirstErrorCorners(t *testing.T) {
	shared := &Table{Hyperperiod: ms(20), Slots: []Slot{
		{Task: "a", Job: 0, Start: 0, End: ms(1)},
		{Task: "x", Job: 0, Start: ms(1), End: ms(2)},
		{Task: "a", Job: 1, Start: ms(10), End: ms(11)},
		{Task: "a", Job: 2, Start: ms(12), End: ms(13)},
	}}
	bad := &Table{Hyperperiod: ms(20), Slots: []Slot{
		{Task: "a", Job: 0, Start: 0, End: ms(1)},
		{Task: "b", Job: 1, Start: ms(5), End: ms(6)},
		{Task: "a", Job: 1, Start: ms(9), End: ms(10)},
		{Task: "b", Job: 1, Start: ms(12), End: ms(25)},
	}}
	cases := []struct {
		tbl   *Table
		tasks []Task
	}{
		{shared, []Task{{Name: "a", Period: ms(10), WCET: ms(1)}}},
		{shared, []Task{{Name: "a", Period: ms(10), WCET: ms(1)}, {Name: "a", Period: ms(5), WCET: ms(1)}}},
		{shared, []Task{{Name: "a", Period: ms(5), WCET: ms(1)}, {Name: "a", Period: ms(10), WCET: ms(1)}}},
		{shared, []Task{{Name: "a", Period: ms(10), WCET: ms(1), Jitter: 1}}},
		{shared, []Task{{Name: "b", Period: ms(10), WCET: ms(1)}}},
		{bad, []Task{{Name: "b", Period: ms(10), WCET: ms(1)}}},
		{bad, []Task{{Name: "a", Period: ms(10), WCET: ms(1)}, {Name: "b", Period: ms(10), WCET: ms(1)}}},
		{&Table{Hyperperiod: ms(20), Slots: []Slot{{Task: "a", Job: 0, Start: 0, End: ms(1)}, {Task: "a", Job: 1, Start: ms(5), End: ms(25)}}},
			[]Task{{Name: "a", Period: ms(10), WCET: ms(1)}}},
	}
	for i, c := range cases {
		if got, want := errText(c.tbl.Verify(c.tasks)), errText(refVerify(c.tbl, c.tasks)); got != want {
			t.Errorf("case %d: Verify = %q, reference = %q", i, got, want)
		}
	}
}

// TestTimelineMatchesReference reserves random disjoint slots, some of
// zero length, in random order into the sorted-insert timeline and the
// original append-and-sort one, and compares the lists and isFree
// answers after every insert. A zero-length slot never shares its start
// with another slot: the original sort.Slice left the order of equal
// starts unspecified, so no reference order exists for them.
func TestTimelineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRNG(seed)
		var slots []Slot
		cursor := sim.Duration(0)
		prevZero := false
		for i := 0; i < 60; i++ {
			gap := sim.Duration(r.Intn(5))
			if prevZero && gap == 0 {
				gap = 1
			}
			length := sim.Duration(r.Intn(5))
			if length == 0 && len(slots) > 0 && gap == 0 {
				gap = 1
			}
			start := cursor + gap
			slots = append(slots, Slot{Task: "t", Job: i, Start: start, End: start + length})
			cursor = start + length
			prevZero = length == 0
		}
		tl := newTimeline(cursor + 10)
		ref := &refTimeline{}
		for step, i := range r.Perm(len(slots)) {
			tl.reserve(slots[i])
			ref.reserve(slots[i])
			if !reflect.DeepEqual(tl.reserved, ref.reserved) {
				t.Fatalf("seed %d step %d: reserved = %v, reference = %v", seed, step, tl.reserved, ref.reserved)
			}
			for q := 0; q < 20; q++ {
				a := sim.Duration(r.Intn(int(cursor) + 5))
				b := a + sim.Duration(r.Intn(6))
				if got, want := tl.isFree(a, b), ref.isFree(a, b); got != want {
					t.Fatalf("seed %d step %d: isFree(%v, %v) = %v, reference %v", seed, step, a, b, got, want)
				}
			}
		}
	}
}

// TestTimelineEqualStartsKeepInsertionOrder: a reservation is inserted
// after every one that starts at or before it.
func TestTimelineEqualStartsKeepInsertionOrder(t *testing.T) {
	tl := newTimeline(100)
	for _, s := range []Slot{{Job: 0, Start: 5, End: 8}, {Job: 1, Start: 5, End: 5}, {Job: 2, Start: 1, End: 2}, {Job: 3, Start: 5, End: 5}} {
		tl.reserve(s)
	}
	var jobs []int
	for _, s := range tl.reserved {
		jobs = append(jobs, s.Job)
	}
	if want := []int{2, 0, 1, 3}; !reflect.DeepEqual(jobs, want) {
		t.Errorf("reservation order = %v, want %v", jobs, want)
	}
}

// BenchmarkVerify20 verifies a synthesized 20-task table; the reference
// all-slots scan takes about five times as long on it.
func BenchmarkVerify20(b *testing.B) {
	r := sim.NewRNG(1)
	var tasks []Task
	periods := []sim.Duration{ms(5), ms(10), ms(20), ms(40)}
	for i := 0; i < 20; i++ {
		p := periods[r.Intn(len(periods))]
		tasks = append(tasks, Task{Name: fmt.Sprintf("t%d", i), Period: p, WCET: sim.Duration(float64(p) * 0.04)})
	}
	tbl, err := Synthesize(tasks, ms(1)/4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tbl.Verify(tasks); err != nil {
			b.Fatal(err)
		}
	}
}
