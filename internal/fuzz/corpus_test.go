package fuzz

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// corpusSeeds parses testdata/fuzzcorpus/seeds.txt: one seed per line,
// '#' starts a comment.
func corpusSeeds(t *testing.T) []uint64 {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/fuzzcorpus/seeds.txt")
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	var seeds []uint64
	for lineNo, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		seed, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("corpus line %d: %v", lineNo+1, err)
		}
		seeds = append(seeds, seed)
	}
	if len(seeds) == 0 {
		t.Fatal("empty corpus")
	}
	return seeds
}

// Every corpus seed must stay clean under the full oracle — the corpus
// pins the scenarios that cover each tier (and any future seed that once
// reproduced a real bug).
func TestCorpusReplay(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		rep := CheckSeed(seed)
		for _, v := range rep.Violations {
			t.Errorf("corpus seed %d: %s: %s", seed, v.Property, v.Detail)
		}
	}
}

// Check runs one spec several times, and each run builds its vehicle
// from the spec's model values: no run may write through to the spec,
// and neither may a write to any model value of the system a run builds
// (vehicleModel), which admission and reconfig own.
func TestCheckLeavesSpecUnchanged(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		sp := Generate(seed)
		before := sp.Render()
		Check(sp)
		sys := vehicleModel(sp, true)
		for _, n := range sys.Networks {
			n.BitsPerSecond++
		}
		for _, e := range sys.ECUs {
			e.MemoryKB++
		}
		for _, a := range sys.Apps {
			a.Version++
		}
		if after := sp.Render(); after != before {
			t.Errorf("corpus seed %d: the spec changed:\n--- before ---\n%s\n--- after ---\n%s",
				seed, before, after)
		}
	}
}
