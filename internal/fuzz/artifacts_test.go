package fuzz

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dynaplat/internal/obs"
)

// pinnedArtifacts holds the SHA-256 of the Chrome trace and the metrics
// dump of one observed run (observedEnv) of a few corpus seeds. Check
// only compares two observed runs of the same tree with each other;
// these pins make the observed fuzz path an artifact contract across
// versions too. Together the seeds cover CAN and TSN backbones, the
// mesh, fault campaigns with frame loss and babbling, the reconfig tier
// and a staged update. A change to either artifact must be deliberate
// and repin the hash.
var pinnedArtifacts = []struct {
	seed           uint64
	trace, metrics string
}{
	// mesh + campaign + clean reconfig, TSN
	{3, "ede015be9de778004560e3fefb454623da93b65d0debd9cf46d5586fb02d52f4",
		"5d41634722b1a1aa6e86697e9d28b78d115c51562a39495f80b6cbfce73b2acc"},
	// reconfig w/ injected install failure, babble + loss, CAN
	{6, "6bc4f84e0884b512401d3a23794e6ffead6334e6cfff3c1616c9c1f477bf4b86",
		"a11a317f6e973dde1833e0223f0d5ca99f0eee978761255571c294f15d6a03a0"},
	// mesh + campaign + clean update, CAN
	{13, "fe14a09aee87fe3f0d230bf313e7aece8f6e22402b1300ae0528431ef7c2f241",
		"a738148d20df1714dbc18dcf42731901d4153c80593b71bf074396a00fa9bd2a"},
	// mesh, babble + loss, bad update, aux bus, TSN; fills the trace cap
	{22, "d8159bdc60678215e5092396b70af2e65eb9b1e9418545b8cf781c78a36f5acf",
		"f98c7d1c2dc097e7ef052f570262cb2cae737460f34e412e06e00814cf4b1165"},
}

func TestObservedArtifactsPinned(t *testing.T) {
	for _, pin := range pinnedArtifacts {
		t.Run(fmt.Sprint(pin.seed), func(t *testing.T) {
			env := observedEnv()
			runScenario(Generate(pin.seed), env)
			trace, metrics := artifacts(env)
			if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != pin.trace {
				t.Errorf("Chrome trace sha256 %s, pinned %s", got, pin.trace)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(metrics)); got != pin.metrics {
				t.Errorf("metrics dump sha256 %s, pinned %s", got, pin.metrics)
			}
		})
	}
}

// artifacts renders env's Chrome trace and metrics dump.
func artifacts(env *obs.Env) (trace, metrics []byte) {
	var tb, mb bytes.Buffer
	if err := env.WriteTrace(&tb); err != nil {
		panic(err)
	}
	if err := env.WriteMetrics(&mb); err != nil {
		panic(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestSameTraceMatchesRender holds Check's structural trace compare to
// the documents it stands for. For the pinned seeds and a spread of
// seeds from 1..300, two observed runs are SameTrace and render
// byte-equal Chrome traces, and a recheck of the first (Check's second
// observed run) is SameTrace too; runs of neighbouring seeds are
// SameTrace exactly when their documents are byte-equal.
func TestSameTraceMatchesRender(t *testing.T) {
	seeds := []uint64{}
	for _, pin := range pinnedArtifacts {
		seeds = append(seeds, pin.seed)
	}
	for s := uint64(1); s <= 300; s += 23 {
		seeds = append(seeds, s)
	}
	var prev *obs.Env
	var prevDoc []byte
	for _, seed := range seeds {
		sp := Generate(seed)
		env1, env2 := observedEnv(), observedEnv()
		runScenario(sp, env1)
		runScenario(sp, env2)
		doc1, _ := artifacts(env1)
		doc2, _ := artifacts(env2)
		if !env1.SameTrace(env2) || !bytes.Equal(doc1, doc2) {
			t.Errorf("seed %d: SameTrace %v, documents equal %v; want both true",
				seed, env1.SameTrace(env2), bytes.Equal(doc1, doc2))
		}
		chk := env1.Recheck()
		runScenario(sp, chk)
		if !env1.SameTrace(chk) {
			t.Errorf("seed %d: a recheck of the run is not SameTrace", seed)
		}
		if prev != nil && prev.SameTrace(env1) != bytes.Equal(prevDoc, doc1) {
			t.Errorf("seed %d against the seed before: SameTrace %v, documents equal %v",
				seed, prev.SameTrace(env1), bytes.Equal(prevDoc, doc1))
		}
		prev, prevDoc = env1, doc1
	}
}

// TestSameMetricsMatchesRender holds Check's structural metrics compare
// to the dumps it stands for. For the pinned seeds and a spread of seeds
// from 1..300, an observed run and its recheck are SameMetrics and dump
// byte-equal metrics; runs of neighbouring seeds are SameMetrics exactly
// when their dumps are byte-equal.
func TestSameMetricsMatchesRender(t *testing.T) {
	seeds := []uint64{}
	for _, pin := range pinnedArtifacts {
		seeds = append(seeds, pin.seed)
	}
	for s := uint64(1); s <= 300; s += 23 {
		seeds = append(seeds, s)
	}
	dump := func(env *obs.Env) []byte {
		var b bytes.Buffer
		if err := env.WriteMetrics(&b); err != nil {
			panic(err)
		}
		return b.Bytes()
	}
	var prev *obs.Env
	var prevDump []byte
	for _, seed := range seeds {
		sp := Generate(seed)
		env1 := observedEnv()
		runScenario(sp, env1)
		env2 := env1.Recheck()
		runScenario(sp, env2)
		dump1, dump2 := dump(env1), dump(env2)
		if !env1.SameMetrics(env2) || !bytes.Equal(dump1, dump2) {
			t.Errorf("seed %d: SameMetrics %v, dumps equal %v; want both true",
				seed, env1.SameMetrics(env2), bytes.Equal(dump1, dump2))
		}
		if prev != nil && prev.SameMetrics(env1) != bytes.Equal(prevDump, dump1) {
			t.Errorf("seed %d against the seed before: SameMetrics %v, dumps equal %v",
				seed, prev.SameMetrics(env1), bytes.Equal(prevDump, dump1))
		}
		prev, prevDump = env1, dump1
	}
}

// TestMetricsViolationText: two observed runs whose registries differ
// in one counter yield the violation Check has always reported, with
// the first differing line of the rendered dumps; equal ones yield none.
func TestMetricsViolationText(t *testing.T) {
	run := func(publishes int64) *obs.Env {
		env := observedEnv()
		k := env.Kernel("fuzz", 1)
		l := obs.Labels{Layer: "soa", ECU: "ecu1", Iface: "Speed"}
		obs.Of(k).Metrics().Counter("soa_publishes", l).Add(publishes)
		return env
	}
	env1, env2 := run(3), run(4)
	_, dump1 := artifacts(env1)
	_, dump2 := artifacts(env2)
	want := `metrics artifacts differ between two observed runs: line 2: ` +
		`"counter soa_publishes{layer=soa,ecu=ecu1,iface=Speed} 3" vs "counter soa_publishes{layer=soa,ecu=ecu1,iface=Speed} 4"`
	if rendered := "metrics artifacts differ between two observed runs: " +
		firstDiff(string(dump1), string(dump2)); rendered != want {
		t.Fatalf("rendered text %q, want %q", rendered, want)
	}
	v, ok := metricsViolation(env1, env2)
	if !ok || v.Property != PropObsNeutral || v.Detail != want {
		t.Errorf("metricsViolation = %+v, %v; want %s, %q", v, ok, PropObsNeutral, want)
	}
	if v, ok := metricsViolation(env1, run(3)); ok {
		t.Errorf("equal metrics reported %+v", v)
	}
}
