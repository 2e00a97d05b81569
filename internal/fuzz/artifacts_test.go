package fuzz

import (
	"crypto/sha256"
	"fmt"
	"testing"
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
	{3, "d1e21540dd8bf202e289f69420270c6b9149ce2662c9e89bff45daff8e00c146",
		"5d41634722b1a1aa6e86697e9d28b78d115c51562a39495f80b6cbfce73b2acc"},
	// reconfig w/ injected install failure, babble + loss, CAN
	{6, "6899ae81a885d4a27534008fdb66a504a1a1556ff816817830e37ef08bad15de",
		"a11a317f6e973dde1833e0223f0d5ca99f0eee978761255571c294f15d6a03a0"},
	// mesh + campaign + clean update, CAN
	{13, "dd9c0eb8cacae3a86bceefdb42c77743559e67ed327532f888a8183f9a72b010",
		"a738148d20df1714dbc18dcf42731901d4153c80593b71bf074396a00fa9bd2a"},
	// mesh, babble + loss, bad update, aux bus, TSN; fills the trace cap
	{22, "209dbe8d9c6eb81955885c95601463b52faddc670cf8c809bd545e39e2db37ac",
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

// TestSameBytesCatchesDifferences renders one observed run's Chrome
// trace and streams variants of it through the comparing writer Check
// uses for the second observed run: the same document in several chunk
// sizes compares equal; one changed byte in the middle, a prefix and an
// extension are each caught.
func TestSameBytesCatchesDifferences(t *testing.T) {
	env := observedEnv()
	runScenario(Generate(3), env)
	doc, _ := artifacts(env)
	if len(doc) < 1024 {
		t.Fatalf("trace of seed 3 has %d bytes, want a real document", len(doc))
	}
	mid := append([]byte(nil), doc...)
	mid[len(mid)/2] ^= 1
	variants := []struct {
		name  string
		doc   []byte
		equal bool
	}{
		{"same", doc, true},
		{"middle", mid, false},
		{"prefix", doc[:len(doc)-1], false},
		{"half", doc[:len(doc)/2], false},
		{"extended", append(append([]byte(nil), doc...), '\n'), false},
	}
	for _, v := range variants {
		for _, chunk := range []int{1, 7, 4096, len(doc) + 1} {
			w := &sameBytes{want: doc}
			for off := 0; off < len(v.doc); off += chunk {
				if _, err := w.Write(v.doc[off:min(off+chunk, len(v.doc))]); err != nil {
					t.Fatal(err)
				}
			}
			if got := w.equal(); got != v.equal {
				t.Errorf("%s in %d-byte chunks: equal = %v, want %v", v.name, chunk, got, v.equal)
			}
		}
	}
}
